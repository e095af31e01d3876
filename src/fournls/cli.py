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
    out_dir: str = "."
    fmt: str = "json"
    seed: int = 0
    mu: int = 1
    deterministic: bool = False

    def echo(self) -> dict:
        return {"subcommand": self.subcommand, "seed": self.seed,
                "mu": self.mu, "format": self.fmt, "out_dir": self.out_dir,
                **self.values}


_SCHEMES = {"exp_rk4": Scheme.EXP_RK4, "strang": Scheme.STRANG}
_KINDS = {"full": Kind.FULL_4NLS, "wick": Kind.WICK_4WNLS}
_PROFILES = {
    "exp_decay": ProfileKind.EXP_DECAY,
    "power_decay": ProfileKind.POWER_DECAY,
    "single_mode": ProfileKind.SINGLE_MODE,
}


def _positive(name):
    def check(x):
        if x <= 0:
            raise ConfigError(f"{name} must be positive, got {x}")
        return x
    return check


def _nonneg(name):
    def check(x):
        if x < 0:
            raise ConfigError(f"{name} must be nonnegative, got {x}")
        return x
    return check


def _choice(name, options):
    def check(x):
        if x not in options:
            raise ConfigError(f"{name} must be one of {sorted(options)}, got {x!r}")
        return x
    return check


def _ident(_name):
    return lambda x: x


# key -> (type, default, validator factory); None default means required
_COMMON_KEYS = {
    "seed": (int, 0, _nonneg),
    "out_dir": (str, ".", _ident),
    "format": (str, "json", lambda n: _choice(n, {"json", "csv", "both"})),
    "mu": (int, 1, lambda n: _choice(n, {-1, 0, 1})),
}

# the initial-datum family shared by every subcommand that builds one
_PROFILE_KEYS = {
    "profile": (str, "exp_decay", lambda n: _choice(n, set(_PROFILES))),
    "amplitude": (float, 1.0, _positive),
    "decay": (float, 0.5, _ident),
    "mode": (int, 0, _ident),
}

_SCHEMAS = {
    "simulate": {
        "equation": (str, "full", lambda n: _choice(n, set(_KINDS))),
        "n_max": (int, None, _positive),
        "dt": (float, None, _positive),
        "T": (float, None, _positive),
        "scheme": (str, "exp_rk4", lambda n: _choice(n, set(_SCHEMES))),
        "stride": (int, 1, _positive),
        "truncation": (int, 0, _nonneg),  # 0 = untruncated
        **_PROFILE_KEYS,
        "state": (str, "", _ident),
        "out": (str, "trajectory.jsonl", _ident),
    },
    "gauge-check": {
        "n_max": (int, 32, _positive),
        "dt": (float, 1e-3, _positive),
        "T": (float, 1.0, _positive),
        "stride": (int, 1, _positive),
        **_PROFILE_KEYS,
        "state": (str, "", _ident),
        "out": (str, "gauge_gap.csv", _ident),
    },
    "resonance": {
        "max": (int, None, _positive),
        "out": (str, "resonance.csv", _ident),
    },
    "norms": {
        "traj": (str, None, _ident),
        "s": (float, 0.0, _ident),
        "b": (float, 0.5, _ident),
        "window": (str, "cosine", lambda n: _choice(n, {"cosine", "rect"})),
        "phase": (str, "plain", lambda n: _choice(n, {"plain", "modified"})),
        "out": (str, "norms", _ident),
    },
    "approx": {
        "ladder": (str, "16,32,64,128", _ident),
        "ref_factor": (int, 4, _positive),
        "T": (float, 0.5, _positive),
        "dt": (float, 5e-4, _positive),
        **_PROFILE_KEYS,
        "out": (str, "approx_report.json", _ident),
    },
    "perturb": {
        "ladder": (str, "16,32,64", _ident),
        "perturbation_norm": (float, 0.1, _positive),
        "T": (float, 0.5, _positive),
        "dt": (float, 5e-4, _positive),
        "trials": (int, 4, _positive),
        **_PROFILE_KEYS,
        "out": (str, "perturb_report.json", _ident),
    },
    "squeeze": {
        "equation": (str, "full", lambda n: _choice(n, set(_KINDS))),
        "R": (float, 1.0, _positive),
        "r": (float, 0.5, _positive),
        "n0": (int, 1, _ident),
        "z_re": (float, 0.0, _ident),
        "z_im": (float, 0.0, _ident),
        "T": (float, 0.3, _nonneg),
        "N": (int, 16, _positive),
        "dt": (float, 1e-3, _positive),
        "samples": (int, 64, _positive),
        "epsilon": (float, 0.1, _positive),
        "out": (str, "squeeze_report.json", _ident),
    },
}


def _coerce(key, typ, raw):
    try:
        return typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from None


def parse_config(subcommand: str, config_path: str | None, flags: dict) -> RunConfig:
    """Merge defaults, config-file keys, and flag overrides into a RunConfig."""
    schema = dict(_COMMON_KEYS)
    schema.update(_SCHEMAS[subcommand])

    merged = {}
    if config_path:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (e.g. T vs t)
        if not parser.read(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        for section in ("common", subcommand):
            if parser.has_section(section):
                for key, raw in parser.items(section):
                    if key not in schema:
                        raise ConfigError(f"unknown key {key!r} in [{section}]")
                    merged[key] = raw
    for key, val in flags.items():
        if val is not None:
            merged[key] = val

    values = {}
    for key, (typ, default, vfac) in schema.items():
        if key in merged:
            values[key] = vfac(key)(_coerce(key, typ, merged[key]))
        elif default is None:
            raise ConfigError(f"missing required key {key!r} for {subcommand}")
        else:
            values[key] = default
    deterministic = bool(flags.get("deterministic", False))
    return RunConfig(
        subcommand=subcommand,
        values={k: v for k, v in values.items() if k not in _COMMON_KEYS},
        out_dir=values["out_dir"],
        fmt=values["format"],
        seed=values["seed"],
        mu=values["mu"],
        deterministic=deterministic,
    )


def _profile_from(values: dict, seed: int) -> ProfileSpec:
    return ProfileSpec(
        kind=_PROFILES[values["profile"]],
        amplitude=values["amplitude"],
        decay=values["decay"],
        seed=seed,
        mode=values["mode"],
    )


def _initial_state(values: dict, seed: int, n_max: int):
    if values.get("state"):
        return load_state(values["state"]).truncate_to(n_max)
    return _profile_from(values, seed).build(n_max)


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _emit_report(cfg: RunConfig, report: experiments.ExperimentReport,
                 csv_header=None, csv_row=None) -> str:
    report.stamp(cfg.deterministic)
    report.params["config_echo"] = cfg.echo()
    path = _out(cfg, cfg.values["out"])
    report.save_json(path)
    if cfg.fmt in ("csv", "both") and csv_header:
        csv_path = os.path.splitext(path)[0] + ".csv"
        _write_csv(csv_path, csv_header, [csv_row(r) for r in report.table])
    return path


def _cmd_simulate(cfg: RunConfig) -> str:
    v = cfg.values
    u0 = _initial_state(v, cfg.seed, v["n_max"])
    trunc = v["truncation"] or None
    spec = IntegratorSpec(_SCHEMES[v["scheme"]], v["dt"], trunc)
    traj = integrate(u0, v["T"], spec,
                     EquationKind(_KINDS[v["equation"]], cfg.mu), v["stride"])
    path = _out(cfg, v["out"])
    save_trajectory(traj, path)
    final = traj[-1]
    return (f"simulate: {v['equation']} n_max={v['n_max']} T={v['T']} "
            f"steps={round(v['T']/v['dt'])} mass={diagnostics.mass(final):.6e} -> {path}")


def _cmd_gauge_check(cfg: RunConfig) -> str:
    v = cfg.values
    u0 = _initial_state(v, cfg.seed, v["n_max"])
    rep = gauge.gauge_equivalence_check(u0, v["T"], v["dt"],
                                        mu_sign=cfg.mu,
                                        sample_stride=v["stride"])
    path = _out(cfg, v["out"])
    _write_csv(path, ["t", "gap", "aligned_gap"],
               zip(rep.times, rep.gaps, rep.aligned_gaps))
    return f"gauge-check: n_max={v['n_max']} T={v['T']} max_gap={rep.max_gap:.3e} -> {path}"


def _cmd_resonance(cfg: RunConfig) -> str:
    v = cfg.values
    path = _out(cfg, v["out"])
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
    base = _out(cfg, v["out"])
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
    ladder = [int(x) for x in str(v["ladder"]).split(",")]
    profile = _profile_from(v, cfg.seed)
    report = experiments.run_approximation_study(
        profile, ladder, v["ref_factor"], v["T"], v["dt"], mu_sign=cfg.mu)
    path = _emit_report(cfg, report, ["N", "error"],
                        lambda r: (r["N"], r["error"]))
    sigma = report.fitted["rate"] if report.fitted else float("nan")
    return f"approx: ladder={ladder} fitted_rate={sigma:.3f} -> {path}"


def _cmd_perturb(cfg: RunConfig) -> str:
    v = cfg.values
    ladder = [int(x) for x in str(v["ladder"]).split(",")]
    profile = _profile_from(v, cfg.seed)
    report = experiments.run_perturbation_study(
        profile, ladder, v["perturbation_norm"], v["T"], v["dt"],
        trials=v["trials"], seed=cfg.seed, mu_sign=cfg.mu)
    path = _emit_report(cfg, report, ["N_prime", "divergence"],
                        lambda r: (r["N_prime"], r["divergence"]))
    divs = [r["divergence"] for r in report.table]
    return f"perturb: ladder={ladder} divergences={divs} -> {path}"


def _cmd_squeeze(cfg: RunConfig) -> str:
    v = cfg.values
    u_star = spectrum.FourierState.zeros(v["N"])
    report = experiments.run_squeeze_probe(
        u_star, v["R"], v["r"], v["n0"], complex(v["z_re"], v["z_im"]),
        v["T"], v["N"], v["dt"], v["samples"], v["epsilon"],
        seed=cfg.seed, mu_sign=cfg.mu, kind=_KINDS[v["equation"]])
    path = _emit_report(cfg, report, ["label", "radius", "margin"],
                        lambda r: (r["label"], r["radius"], r["margin"]))
    best = report.fitted
    return (f"squeeze: best_margin={best['best_margin']:.6f} "
            f"witness={'yes' if best['witness_found'] else 'no'} -> {path}")


_HANDLERS = {
    "simulate": _cmd_simulate,
    "gauge-check": _cmd_gauge_check,
    "resonance": _cmd_resonance,
    "norms": _cmd_norms,
    "approx": _cmd_approx,
    "perturb": _cmd_perturb,
    "squeeze": _cmd_squeeze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="4nls", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        sp = sub.add_parser(name)
        if name == "resonance":
            sp.add_argument("table_word", metavar="table", choices=["table"],
                            help="emit the resonance CSV table")
        sp.add_argument("--config", default=None)
        sp.add_argument("--deterministic", action="store_true")
        for key in {**_COMMON_KEYS, **schema}:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    return parser


def dispatch(cfg: RunConfig) -> int:
    try:
        summary = _HANDLERS[cfg.subcommand](cfg)
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    sub = args.pop("subcommand")
    args.pop("table_word", None)
    config_path = args.pop("config", None)
    deterministic = args.pop("deterministic", False)
    flags = {k: v for k, v in args.items() if v is not None}
    flags["deterministic"] = deterministic
    try:
        cfg = parse_config(sub, config_path, flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return dispatch(cfg)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
