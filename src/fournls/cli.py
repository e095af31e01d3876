"""Command-line entry point.

Subcommands: simulate | gauge-check | resonance table | norms | approx |
perturb | squeeze. Options can come from an INI-style config file
(sections [common] and [<subcommand>]); command-line flags override file
keys one to one. Exit codes: 0 success, 1 config error, 2 numeric failure.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics, experiments, gauge, resonance, spectrum
from .dynamics import (
    EquationKind,
    IntegratorSpec,
    Kind,
    NumericFailure,
    Scheme,
    integrate,
)
from .experiments import ProfileKind, ProfileSpec
from .resonance import ModifiedPhase
from .spectrum import load_state, load_trajectory, save_trajectory


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated, fully-defaulted run configuration."""

    subcommand: str
    values: dict
    deterministic: bool

    def echo(self) -> dict:
        return {"subcommand": self.subcommand, **self.values}


# A rule is POSITIVE, NONNEG, a frozenset of allowed values, or None.
POSITIVE, NONNEG = "positive", "nonnegative"


def _choices(enum) -> frozenset:
    return frozenset(member.value for member in enum)


def _check(key, value, rule):
    if rule == POSITIVE and value <= 0 or rule == NONNEG and value < 0:
        raise ConfigError(f"{key} must be {rule}, got {value}")
    if isinstance(rule, frozenset) and value not in rule:
        raise ConfigError(f"{key} must be one of {sorted(rule)}, got {value!r}")
    return value


class IntList(str):
    """Comma-separated ints such as "16,32,64". The value stays its text, so
    a report echoes it as given; ``ints`` holds the parsed list."""

    def __new__(cls, raw):
        self = super().__new__(cls, raw)
        self.ints = [int(x) for x in self.split(",")]
        return self


# key -> (type, default, rule); None default means required
_COMMON_KEYS = {"out_dir": (str, ".", None)}

# the draw seed and nonlinearity sign of each subcommand that evolves a datum,
# and the file format of each that writes a study report
_FLOW_KEYS = {"seed": (int, 0, NONNEG), "mu": (int, 1, frozenset({-1, 0, 1}))}
_FORMAT_KEYS = {"format": (str, "json", frozenset({"json", "csv", "both"}))}

# the initial-datum family shared by every subcommand that builds one
_PROFILE_KEYS = {
    "profile": (str, "exp_decay", _choices(ProfileKind)),
    "amplitude": (float, 1.0, POSITIVE),
    "decay": (float, 0.5, None),
    "mode": (int, 0, None),
}

def _coerce(key, typ, raw):
    try:
        value = typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
    if typ is float and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def parse_config(subcommand: str, config_path: str | None, flags: dict) -> RunConfig:
    """Merge defaults, config-file keys, and flag overrides into a RunConfig.
    A [common] key must be declared by some subcommand and sets only those."""
    schema = {**_COMMON_KEYS, **_SUBCOMMANDS[subcommand][1]}
    declared = {key for _, keys in _SUBCOMMANDS.values() for key in keys}

    merged = {}
    if config_path:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (e.g. T vs t)
        try:
            if not parser.read(config_path):
                raise ConfigError(f"config file not found: {config_path}")
            for section in ("common", subcommand):
                if parser.has_section(section):
                    for key, raw in parser.items(section):
                        if key in schema:
                            merged[key] = raw
                        elif section != "common" or key not in declared:
                            raise ConfigError(f"unknown key {key!r} in [{section}]")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {config_path}: {exc}") from None
    for key, val in flags.items():
        if val is not None:
            merged[key] = val

    values = {}
    for key, (typ, default, rule) in schema.items():
        if key in merged:
            values[key] = _check(key, _coerce(key, typ, merged[key]), rule)
        elif default is None:
            raise ConfigError(f"missing required key {key!r} for {subcommand}")
        else:
            values[key] = default
    if values.get("format") == "both" and os.path.splitext(values["out"])[1] == ".csv":
        raise ConfigError(f"out must not end in .csv under format both, got {values['out']!r}")
    return RunConfig(subcommand, values, bool(flags.get("deterministic", False)))


def _profile_from(v: dict) -> ProfileSpec:
    return ProfileSpec(ProfileKind(v["profile"]), v["amplitude"], v["decay"],
                       v["seed"], v["mode"])


def _initial_state(v: dict):
    if v.get("state"):
        return load_state(v["state"]).truncate_to(v["n_max"])
    return _profile_from(v).build(v["n_max"])


def _out(cfg: RunConfig) -> str:
    os.makedirs(cfg.values["out_dir"], exist_ok=True)
    return os.path.join(cfg.values["out_dir"], cfg.values["out"])


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _emit_report(cfg: RunConfig, report: experiments.ExperimentReport) -> str:
    """Write the report as <out> (json), <out>.csv (csv) or both; return the
    JSON path, or the CSV path when only that is written."""
    report.stamp(cfg.deterministic)
    report.params["config_echo"] = cfg.echo()
    fmt, path = cfg.values["format"], _out(cfg)
    csv_path = os.path.splitext(path)[0] + ".csv"
    if fmt != "csv":
        report.save_json(path)
    if fmt != "json":
        _write_csv(csv_path, list(report.table[0]), (row.values() for row in report.table))
    return csv_path if fmt == "csv" else path


def _cmd_simulate(cfg: RunConfig) -> str:
    v = cfg.values
    u0 = _initial_state(v)
    spec = IntegratorSpec(Scheme(v["scheme"]), v["dt"])
    traj = integrate(u0, v["T"], spec,
                     EquationKind(Kind(v["equation"]), v["mu"]), v["stride"])
    path = _out(cfg)
    save_trajectory(traj, path)
    return (f"simulate: {v['equation']} n_max={v['n_max']} T={v['T']} "
            f"steps={spec.steps(v['T'])} mass={diagnostics.mass(traj[-1]):.6e} -> {path}")


def _cmd_gauge_check(cfg: RunConfig) -> str:
    v = cfg.values
    u0 = _initial_state(v)
    rep = gauge.gauge_equivalence_check(u0, v["T"], v["dt"], mu_sign=v["mu"],
                                        sample_stride=v["stride"])
    path = _out(cfg)
    _write_csv(path, ["t", "gap", "aligned_gap"],
               zip(rep.times, rep.gaps, rep.aligned_gaps))
    return f"gauge-check: n_max={v['n_max']} T={v['T']} max_gap={rep.max_gap:.3e} -> {path}"


def _cmd_resonance(cfg: RunConfig) -> str:
    v = cfg.values
    path = _out(cfg)
    _write_csv(path, ["n1", "n2", "n3", "n", "H", "factored_H"],
               resonance.resonance_table_rows(v["max"]))
    count = (2 * v["max"] + 1) ** 3
    return f"resonance table: box |n_i|<={v['max']} rows={count} -> {path}"


def _cmd_norms(cfg: RunConfig) -> str:
    v = cfg.values
    traj = load_trajectory(v["traj"])
    field_ = diagnostics.SpaceTimeField(traj, v["window"])
    phase = ModifiedPhase(traj[0]) if v["phase"] == "modified" else None
    value = diagnostics.ysb_norm(field_, v["s"], v["b"], phase)
    z_value = diagnostics.ysb_norm(field_, v["s"], v["b"], phase, z_part=True)
    gaps = diagnostics.smoothing_gap(traj)
    blocks = diagnostics.dyadic_gap_profile(traj, v["s"])
    base = _out(cfg)
    doc = {
        "ysb_norm": value,
        "z_l2l1_part": z_value,
        "s": v["s"],
        "b": v["b"],
        "window": v["window"],
        "phase": v["phase"],
        "config_echo": cfg.echo(),
    }
    with open(base + ".json", "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    times = traj.times
    _write_csv(base + "_gap.csv", ["t", "gap"], zip(times, gaps))
    rows = [
        (level, t, val)
        for level, series in sorted(blocks.items())
        for t, val in zip(times, series)
    ]
    _write_csv(base + "_blocks.csv", ["block", "t", "value"], rows)
    return f"norms: ysb={value:.6e} max_gap={np.max(gaps):.3e} -> {base}.json"


def _cmd_approx(cfg: RunConfig) -> str:
    v = cfg.values
    ladder = v["ladder"].ints
    report = experiments.run_approximation_study(
        _profile_from(v), ladder, v["ref_factor"], v["T"], v["dt"], mu_sign=v["mu"])
    path = _emit_report(cfg, report)
    sigma = report.fitted["rate"] if report.fitted else float("nan")
    return f"approx: ladder={ladder} fitted_rate={sigma:.3f} -> {path}"


def _cmd_perturb(cfg: RunConfig) -> str:
    v = cfg.values
    ladder = v["ladder"].ints
    report = experiments.run_perturbation_study(
        _profile_from(v), ladder, v["perturbation_norm"], v["T"], v["dt"],
        trials=v["trials"], seed=v["seed"], mu_sign=v["mu"])
    path = _emit_report(cfg, report)
    divs = [r["divergence"] for r in report.table]
    return f"perturb: ladder={ladder} divergences={divs} -> {path}"


def _cmd_squeeze(cfg: RunConfig) -> str:
    v = cfg.values
    u_star = spectrum.FourierState.zeros(v["N"])
    report = experiments.run_squeeze_probe(
        u_star, v["R"], v["r"], v["n0"], complex(v["z_re"], v["z_im"]),
        v["T"], v["N"], v["dt"], v["samples"], v["epsilon"],
        seed=v["seed"], mu_sign=v["mu"], kind=Kind(v["equation"]))
    path = _emit_report(cfg, report)
    best = report.fitted
    return (f"squeeze: best_margin={best['best_margin']:.6f} "
            f"witness={'yes' if best['witness_found'] else 'no'} -> {path}")


# subcommand -> (handler, its keys beyond _COMMON_KEYS)
_SUBCOMMANDS = {
    "simulate": (_cmd_simulate, {
        "equation": (str, "full", _choices(Kind)),
        "n_max": (int, None, POSITIVE),
        "dt": (float, None, POSITIVE),
        "T": (float, None, POSITIVE),
        "scheme": (str, "exp_rk4", _choices(Scheme)),
        "stride": (int, 1, POSITIVE),
        **_FLOW_KEYS, **_PROFILE_KEYS,
        "state": (str, "", None),
        "out": (str, "trajectory.jsonl", None),
    }),
    "gauge-check": (_cmd_gauge_check, {
        "n_max": (int, 32, POSITIVE),
        "dt": (float, 1e-3, POSITIVE),
        "T": (float, 1.0, POSITIVE),
        "stride": (int, 1, POSITIVE),
        **_FLOW_KEYS, **_PROFILE_KEYS,
        "state": (str, "", None),
        "out": (str, "gauge_gap.csv", None),
    }),
    "resonance": (_cmd_resonance, {
        "max": (int, None, POSITIVE),
        "out": (str, "resonance.csv", None),
    }),
    "norms": (_cmd_norms, {
        "traj": (str, None, None),
        "s": (float, 0.0, None),
        "b": (float, 0.5, None),
        "window": (str, "cosine", frozenset({"cosine", "rect"})),
        "phase": (str, "plain", frozenset({"plain", "modified"})),
        "out": (str, "norms", None),
        "seed": _FLOW_KEYS["seed"],  # read by no handler; perfbench passes --seed
    }),
    "approx": (_cmd_approx, {
        "ladder": (IntList, IntList("16,32,64,128"), None),
        "ref_factor": (int, 4, POSITIVE),
        "T": (float, 0.5, POSITIVE),
        "dt": (float, 5e-4, POSITIVE),
        **_FLOW_KEYS, **_PROFILE_KEYS, **_FORMAT_KEYS,
        "out": (str, "approx_report.json", None),
    }),
    "perturb": (_cmd_perturb, {
        "ladder": (IntList, IntList("16,32,64"), None),
        "perturbation_norm": (float, 0.1, POSITIVE),
        "T": (float, 0.5, POSITIVE),
        "dt": (float, 5e-4, POSITIVE),
        "trials": (int, 4, POSITIVE),
        **_FLOW_KEYS, **_PROFILE_KEYS, **_FORMAT_KEYS,
        "out": (str, "perturb_report.json", None),
    }),
    "squeeze": (_cmd_squeeze, {
        "equation": (str, "full", _choices(Kind)),
        "R": (float, 1.0, POSITIVE),
        "r": (float, 0.5, POSITIVE),
        "n0": (int, 1, None),
        "z_re": (float, 0.0, None),
        "z_im": (float, 0.0, None),
        "T": (float, 0.3, NONNEG),
        "N": (int, 16, POSITIVE),
        "dt": (float, 1e-3, POSITIVE),
        "samples": (int, 64, POSITIVE),
        "epsilon": (float, 0.1, POSITIVE),
        **_FLOW_KEYS, **_FORMAT_KEYS,
        "out": (str, "squeeze_report.json", None),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors: main reports them with exit code 1."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="4nls", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, keys) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        if name == "resonance":
            sp.add_argument("table_word", metavar="table", choices=["table"],
                            help="emit the resonance CSV table")
        sp.add_argument("--config", default=None)
        sp.add_argument("--deterministic", action="store_true")
        for key in {**_COMMON_KEYS, **keys}:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    return parser


def parse_argv(argv=None) -> RunConfig:
    """The RunConfig of a 4nls command line (argv without the program name)."""
    flags = vars(build_parser().parse_args(argv))
    flags.pop("table_word", None)
    return parse_config(flags.pop("subcommand"), flags.pop("config"), flags)


def main(argv=None) -> int:
    try:
        cfg = parse_argv(argv)
        print(_SUBCOMMANDS[cfg.subcommand][0](cfg))
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
