import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fournls import diagnostics, experiments
from fournls.cli import _SUBCOMMANDS, ConfigError, main, parse_argv, parse_config
from fournls.dynamics import EquationKind, IntegratorSpec, Kind, Scheme, integrate
from fournls.experiments import ProfileKind, ProfileSpec
from fournls.spectrum import load_trajectory, save_state, FourierState


def run(args):
    return main([str(a) for a in args])


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config("gauge-check", None, {})
        assert cfg.values["n_max"] == 32
        assert cfg.values["seed"] == 0 and cfg.values["mu"] == 1

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config("simulate", None, {"n_max": "8", "T": "0.1"})

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[simulate]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("simulate", str(p), {})

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[common]\nseed = 3\n[gauge-check]\nn_max = 8\n")
        cfg = parse_config("gauge-check", str(p), {"n_max": "16"})
        assert cfg.values["n_max"] == 16
        assert cfg.values["seed"] == 3

    def test_type_error_named(self):
        with pytest.raises(ConfigError, match="n_max"):
            parse_config("gauge-check", None, {"n_max": "eight"})

    def test_invalid_choice(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config("simulate", None,
                         {"n_max": "4", "dt": "1e-3", "T": "0.1",
                          "scheme": "euler"})

    def test_mu_restricted(self):
        with pytest.raises(ConfigError, match="mu"):
            parse_config("gauge-check", None, {"mu": "2"})

    @pytest.mark.parametrize("flags, message", [
        ({"n_max": "0"}, "n_max must be positive, got 0"),
        ({"seed": "-1"}, "seed must be nonnegative, got -1"),
        ({"profile": "explicit"}, "profile must be one of ['exp_decay', 'power_decay',"
                                  " 'single_mode'], got 'explicit'"),
    ])
    def test_bad_value_message(self, flags, message):
        with pytest.raises(ConfigError) as exc:
            parse_config("gauge-check", None, flags)
        assert str(exc.value) == message

    @pytest.mark.parametrize("subcommand, raw", [
        ("approx", "16,x"), ("perturb", ""), ("perturb", "16,,32"),
    ])
    def test_bad_ladder_message_names_key(self, subcommand, raw):
        with pytest.raises(ConfigError) as exc:
            parse_config(subcommand, None, {"ladder": raw})
        assert str(exc.value) == f"ladder: expected IntList, got {raw!r}"

    def test_ladder_parsed_and_echoed_as_given(self):
        cfg = parse_config("perturb", None, {"ladder": "8, 16"})
        assert cfg.values["ladder"].ints == [8, 16]
        assert json.loads(json.dumps(cfg.echo()))["ladder"] == "8, 16"
        assert parse_config("approx", None, {}).values["ladder"].ints == [16, 32, 64, 128]

    @pytest.mark.parametrize("text", [
        "seed = 1\n",
        "[common]\nseed = 1\n[common]\nmu = 0\n",
        "[common]\nseed = 1\nseed = 2\n",
    ], ids=["no-section", "repeated-section", "repeated-key"])
    def test_malformed_config_file(self, tmp_path, capsys, text):
        p = tmp_path / "c.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(p))):
            parse_config("resonance", str(p), {"max": "1"})
        assert run(["resonance", "table", "--config", p, "--max", 1,
                    "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: malformed config file {p}")

    def test_common_key_applies_only_where_declared(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[common]\nmu = -1\nformat = csv\nn_max = 8\n")
        assert run(["resonance", "table", "--config", p, "--max", 1,
                    "--out-dir", tmp_path]) == 0
        squeeze = parse_config("squeeze", str(p), {}).values
        assert squeeze["mu"] == -1 and squeeze["format"] == "csv"
        assert "n_max" not in squeeze

    @pytest.mark.parametrize("text, key", [
        ("[common]\nbogus = 1\n", "'bogus' in [common]"),
        ("[resonance]\nmu = 1\n", "'mu' in [resonance]"),
    ], ids=["common-bogus", "resonance-mu"])
    def test_undeclared_key_exits_1(self, tmp_path, capsys, text, key):
        p = tmp_path / "c.ini"
        p.write_text(text)
        assert run(["resonance", "table", "--config", p, "--max", 1,
                    "--out-dir", tmp_path]) == 1
        assert f"unknown key {key}" in capsys.readouterr().err

    def test_config_echo_contains_effective_values(self):
        cfg = parse_config("resonance", None, {"max": "5"})
        echo = cfg.echo()
        assert echo["max"] == 5 and echo["subcommand"] == "resonance"


@pytest.mark.parametrize("key, value", [
    (key, member.value)
    for key, enum in (("scheme", Scheme), ("equation", Kind), ("profile", ProfileKind))
    for member in enum
])
def test_every_enum_value_reaches_the_handler(tmp_path, key, value):
    opts = {"scheme": "exp_rk4", "equation": "full", "profile": "exp_decay", key: value}
    assert run(["simulate", "--n-max", 4, "--dt", "1e-3", "--T", "0.005",
                *[a for k, v in opts.items() for a in (f"--{k}", v)],
                "--out-dir", tmp_path, "--out", "t.jsonl"]) == 0
    u0 = ProfileSpec(ProfileKind(opts["profile"])).build(4)
    expected = integrate(u0, 0.005, IntegratorSpec(Scheme(opts["scheme"]), 1e-3),
                         EquationKind(Kind(opts["equation"])), 1)
    assert np.array_equal(load_trajectory(tmp_path / "t.jsonl").coeffs, expected.coeffs)


class _ReadRecorder(dict):
    """A values dict that records every key a handler reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


_SMALL_RUNS = {
    "simulate": ["--n-max", 4, "--dt", "1e-3", "--T", "0.01", "--out", "t.jsonl"],
    "gauge-check": ["--n-max", 4, "--dt", "1e-3", "--T", "0.005"],
    "resonance": ["table", "--max", 1],
    "norms": ["--traj", "t.jsonl"],
    "approx": ["--ladder", "4,6", "--ref-factor", 2, "--T", "0.01", "--dt", "1e-3"],
    "perturb": ["--ladder", "4,6", "--T", "0.01", "--dt", "1e-3", "--trials", 2],
    "squeeze": ["--N", 4, "--T", "0.01", "--dt", "1e-2", "--samples", 4],
}


@pytest.mark.parametrize("subcommand", list(_SUBCOMMANDS))
def test_every_declared_key_is_read(tmp_path, monkeypatch, subcommand):
    assert set(_SMALL_RUNS) == set(_SUBCOMMANDS)
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", *_SMALL_RUNS["simulate"]]) == 0  # the datum norms reads
    cfg = parse_argv([subcommand, *map(str, _SMALL_RUNS[subcommand])])
    cfg.values = _ReadRecorder(cfg.values)
    _SUBCOMMANDS[subcommand][0](cfg)
    # norms declares seed only because perfbench passes --seed to it
    unread = {"seed"} if subcommand == "norms" else set()
    assert set(cfg.values) - cfg.values.read == unread


class TestSimulate:
    def test_plane_wave_trajectory(self, tmp_path):
        out = tmp_path / "t.jsonl"
        rc = run(["simulate", "--n-max", 4, "--dt", "1e-3", "--T", "0.1",
                  "--profile", "single_mode", "--mode", 2, "--amplitude", 1.0,
                  "--stride", 100, "--out-dir", tmp_path, "--out", "t.jsonl"])
        assert rc == 0 and out.exists()
        tr = load_trajectory(out)
        exact = np.exp(1j * 0.1 * (2**4 - 1.0))  # full equation, |A| = 1
        assert abs(tr[-1].mode(2) - exact) < 1e-8

    def test_state_input(self, tmp_path):
        sp = tmp_path / "s.json"
        save_state(FourierState.from_modes(4, {1: 0.5}), sp)
        rc = run(["simulate", "--state", sp, "--n-max", 4, "--dt", "1e-3",
                  "--T", "0.01", "--out-dir", tmp_path, "--out", "t.jsonl"])
        assert rc == 0
        tr = load_trajectory(tmp_path / "t.jsonl")
        assert abs(abs(tr[-1].mode(1)) - 0.5) < 1e-10

    @pytest.mark.parametrize("n_max", [2, 6], ids=["crop", "pad"])
    def test_state_input_resized_to_n_max(self, tmp_path, n_max):
        # --n-max drops the saved datum's modes beyond it, or zero-pads
        modes = {1: 0.5, -3: 0.25}
        sp = tmp_path / "s.json"
        save_state(FourierState.from_modes(4, modes), sp)
        rc = run(["simulate", "--state", sp, "--n-max", n_max, "--dt", "1e-3",
                  "--T", "0.01", "--out-dir", tmp_path, "--out", "t.jsonl"])
        assert rc == 0
        tr = load_trajectory(tmp_path / "t.jsonl")
        kept = {n: a for n, a in modes.items() if abs(n) <= n_max}
        assert tr.n_max == n_max
        assert np.array_equal(tr[0].coeffs, FourierState.from_modes(n_max, kept).coeffs)

    def test_missing_required_exits_1(self, tmp_path, capsys):
        rc = run(["simulate", "--n-max", 4, "--out-dir", tmp_path])
        assert rc == 1
        assert "dt" in capsys.readouterr().err

    def test_numeric_failure_exits_2(self, tmp_path):
        rc = run(["simulate", "--n-max", 6, "--dt", "1.0", "--T", "10",
                  "--amplitude", "1e8", "--out-dir", tmp_path])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["simulate", "--n-max", 4, "--dt", "1e-3", "--T", "0.01", "--truncation", 0],
        ["bogus"],
        ["resonance", "tabel", "--max", 2],
        # flags a subcommand does not read are not declared
        ["simulate", "--n-max", 4, "--dt", "1e-3", "--T", "0.01", "--format", "csv"],
        ["gauge-check", "--format", "csv"],
        ["resonance", "table", "--max", 1, "--format", "csv"],
        ["resonance", "table", "--max", 1, "--seed", 1],
        ["resonance", "table", "--max", 1, "--mu", 1],
        ["norms", "--traj", "t.jsonl", "--format", "csv"],
        ["norms", "--traj", "t.jsonl", "--mu", 1],
    ], ids=["removed-flag", "unknown-subcommand", "bad-table-word",
            "simulate-format", "gauge-check-format", "resonance-format",
            "resonance-seed", "resonance-mu", "norms-format", "norms-mu"])
    def test_usage_error_exits_1(self, tmp_path, capsys, args):
        assert run([*args, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("config error: 4nls")

    @pytest.mark.parametrize("args, key", [
        (["simulate", "--n-max", 4, "--dt", "1e-3", "--T", "inf"], "T"),
        (["approx", "--T", "inf"], "T"),
        (["squeeze", "--z-re", "nan"], "z_re"),
    ], ids=["simulate-inf-T", "approx-inf-T", "squeeze-nan-z"])
    def test_non_finite_number_exits_1(self, tmp_path, capsys, args, key):
        assert run([*args, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} must be finite")

    @pytest.mark.parametrize("args", [
        ["perturb", "--ladder", "32,16"],
        ["perturb", "--ladder", "-3"],
        ["approx", "--ladder", "0,1,2"],
    ], ids=["perturb-decreasing", "perturb-negative", "approx-zero-rung"])
    def test_bad_ladder_exits_1(self, tmp_path, capsys, args):
        assert run([*args, "--T", "0.002", "--dt", "1e-3", "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("config error: N ladder must be")

    def test_unnormalisable_profile_exits_1(self, tmp_path, capsys):
        assert run(["simulate", "--n-max", 8, "--dt", "1e-3", "--T", "0.01",
                    "--decay", "-1000", "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "decay" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("scheme", ["exp_rk4", "strang"])
    def test_overflow_exits_2_with_only_the_error_line(self, tmp_path, capsys, scheme):
        assert run(["simulate", "--n-max", 4, "--T", "0.01", "--dt", "1e-3",
                    "--scheme", scheme, "--amplitude", "1e160",
                    "--out-dir", tmp_path]) == 2
        assert capsys.readouterr().err == "error: non-finite amplitudes after step 0\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0 and "--n-max" in capsys.readouterr().out

    def test_truncation_config_key_rejected(self, tmp_path, capsys):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text("[simulate]\nn_max = 4\ndt = 1e-3\nT = 0.01\ntruncation = 0\n")
        assert run(["simulate", "--config", cfgf, "--out-dir", tmp_path]) == 1
        assert "unknown key 'truncation' in [simulate]" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert run(["simulate", "--config", missing, "--out-dir", tmp_path]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_config_file_run(self, tmp_path):
        cfgf = tmp_path / "c.ini"
        cfgf.write_text(
            "[common]\nout_dir = %s\n[simulate]\nn_max = 4\ndt = 1e-3\n"
            "T = 0.01\nout = conf.jsonl\n" % tmp_path
        )
        assert run(["simulate", "--config", cfgf]) == 0
        assert (tmp_path / "conf.jsonl").exists()


class TestResonanceTable:
    def test_table_contents(self, tmp_path):
        rc = run(["resonance", "table", "--max", 2, "--out-dir", tmp_path,
                  "--out", "r.csv"])
        assert rc == 0
        with open(tmp_path / "r.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5**3
        for row in rows:
            assert row["H"] == row["factored_H"]
            n1, n2, n3 = int(row["n1"]), int(row["n2"]), int(row["n3"])
            assert int(row["n"]) == n1 - n2 + n3


class TestGaugeCheck:
    def test_gap_csv(self, tmp_path):
        rc = run(["gauge-check", "--n-max", 6, "--T", "0.02", "--dt", "1e-3",
                  "--stride", 10, "--out-dir", tmp_path, "--out", "g.csv"])
        assert rc == 0
        with open(tmp_path / "g.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t"] for r in rows] and float(rows[0]["gap"]) == 0.0
        for r in rows:
            assert float(r["aligned_gap"]) <= float(r["gap"]) + 1e-15


class TestNorms:
    def test_outputs(self, tmp_path):
        assert run(["simulate", "--n-max", 5, "--dt", "1e-3", "--T", "0.05",
                    "--stride", 5, "--out-dir", tmp_path,
                    "--out", "t.jsonl"]) == 0
        rc = run(["norms", "--traj", tmp_path / "t.jsonl", "--s", "0.5",
                  "--b", "0.25", "--out-dir", tmp_path, "--out", "n"])
        assert rc == 0
        doc = json.loads((tmp_path / "n.json").read_text())
        assert doc["ysb_norm"] > 0 and doc["z_l2l1_part"] > 0
        assert "config_echo" in doc
        with open(tmp_path / "n_gap.csv") as fh:
            assert list(csv.DictReader(fh))
        with open(tmp_path / "n_blocks.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {"block", "t", "value"} <= set(rows[0])

    @pytest.mark.parametrize("phase", ["plain", "modified"])
    def test_one_time_transform_per_run(self, tmp_path, monkeypatch, phase):
        calls = []
        c2c = diagnostics.c2c
        monkeypatch.setattr(diagnostics, "c2c",
                            lambda x, axes, *rest: calls.append(axes) or c2c(x, axes, *rest))
        assert run(["simulate", "--n-max", 4, "--dt", "1e-3", "--T", "0.02",
                    "--out-dir", tmp_path, "--out", "t.jsonl"]) == 0
        assert run(["norms", "--traj", tmp_path / "t.jsonl", "--phase", phase,
                    "--out-dir", tmp_path]) == 0
        assert calls.count((0,)) == 1
        # and that transform is the one of the requested phase
        doc = json.loads((tmp_path / "norms.json").read_text())
        field = diagnostics.SpaceTimeField(load_trajectory(tmp_path / "t.jsonl"), "cosine", phase)
        assert doc["ysb_norm"] == diagnostics.ysb_norm(field, 0.0, 0.5)

    @pytest.mark.parametrize("phase", ["plain", "modified"])
    def test_deterministic_outputs_are_byte_identical(self, tmp_path, phase):
        assert run(["simulate", "--n-max", 6, "--dt", "1e-3", "--T", "0.05",
                    "--out-dir", tmp_path, "--out", "t.jsonl"]) == 0
        outputs = []
        for _ in range(2):  # the same command line, so config_echo matches too
            assert run(["norms", "--traj", tmp_path / "t.jsonl", "--phase", phase,
                        "--s", "0.5", "--deterministic", "--out-dir", tmp_path]) == 0
            outputs.append([(tmp_path / ("norms" + suffix)).read_bytes()
                            for suffix in (".json", "_gap.csv", "_blocks.csv")])
        assert outputs[0] == outputs[1] and all(outputs[0])

    def test_modified_phase_option(self, tmp_path):
        assert run(["simulate", "--n-max", 4, "--dt", "1e-3", "--T", "0.02",
                    "--stride", 2, "--out-dir", tmp_path,
                    "--out", "t.jsonl"]) == 0
        rc = run(["norms", "--traj", tmp_path / "t.jsonl", "--phase",
                  "modified", "--out-dir", tmp_path, "--out", "m"])
        assert rc == 0

    def test_missing_trajectory_exits_1(self, tmp_path):
        assert run(["norms", "--traj", tmp_path / "nope.jsonl",
                    "--out-dir", tmp_path]) == 1

    def test_malformed_file_is_config_error(self, tmp_path, capsys):
        # valid JSON that breaks the format must not escape as a traceback
        traj = tmp_path / "t.jsonl"
        traj.write_text('{"format": "4nls-traj/1", "n_max": 1, "t0": 0.0, "dt": 0.1}\n'
                        '{"k": 0}\n')
        state = tmp_path / "s.json"
        state.write_text('{"format": "4nls-state/1", "coeffs": [[1.0, 0.0]]}\n')
        for args in (["norms", "--traj", traj],
                     ["simulate", "--state", state, "--n-max", 4, "--dt", "1e-3",
                      "--T", "0.01"]):
            assert run([*args, "--out-dir", tmp_path]) == 1
            assert capsys.readouterr().err.startswith("config error")


class TestExperimentSubcommands:
    def test_approx_deterministic_reports(self, tmp_path):
        args = ["approx", "--ladder", "6,8,10", "--ref-factor", 2,
                "--T", "0.01", "--dt", "1e-3", "--deterministic",
                "--out-dir", tmp_path, "--out", "a.json"]
        assert run(args) == 0
        first = (tmp_path / "a.json").read_text()
        assert run(args) == 0
        assert (tmp_path / "a.json").read_text() == first
        doc = json.loads(first)
        assert doc["created"] == 0.0
        assert doc["params"]["config_echo"]["subcommand"] == "approx"

    @pytest.mark.parametrize("args", [
        ["approx", "--ladder", "6,8", "--ref-factor", 2, "--T", "0.01", "--dt", "1e-3"],
        ["perturb", "--ladder", "4,6", "--T", "0.01", "--dt", "1e-3", "--trials", 2],
        ["squeeze", "--N", 6, "--T", "0.05", "--dt", "1e-2", "--samples", 12],
    ], ids=["approx", "perturb", "squeeze"])
    def test_report_csv_output(self, tmp_path, args):
        # the CSV is the JSON report's table (whose keys JSON sorts), one line per row
        assert run([*args, "--format", "both", "--out-dir", tmp_path,
                    "--out", "r.json"]) == 0
        table = json.loads((tmp_path / "r.json").read_text())["table"]
        with open(tmp_path / "r.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert sorted(reader.fieldnames) == list(table[0])
        assert rows == [{k: str(v) for k, v in row.items()} for row in table]

    def test_both_formats_on_one_path_exits_1(self, tmp_path, capsys, monkeypatch):
        def probe(*args, **kwargs):
            raise AssertionError("the probe ran before the config was refused")

        monkeypatch.setattr(experiments, "run_squeeze_probe", probe)
        assert run(["squeeze", "--N", 4, "--T", "0.01", "--R", 0.5, "--r", 0.1,
                    "--samples", 4, "--format", "both", "--out", "rep.csv",
                    "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("config error: out must not end")
        assert list(tmp_path.iterdir()) == []

    def test_approx_csv_format_writes_no_json(self, tmp_path, capsys):
        assert run(["approx", "--ladder", "6,8", "--ref-factor", 2,
                    "--T", "0.01", "--dt", "1e-3", "--format", "csv",
                    "--out-dir", tmp_path, "--out", "a.json"]) == 0
        assert not (tmp_path / "a.json").exists()
        assert capsys.readouterr().out.endswith(f" -> {tmp_path / 'a.csv'}\n")
        with open(tmp_path / "a.csv") as fh:
            assert [int(r["N"]) for r in csv.DictReader(fh)] == [6, 8]

    def test_perturb(self, tmp_path):
        assert run(["perturb", "--ladder", "4,6", "--T", "0.01",
                    "--dt", "1e-3", "--trials", 2, "--out-dir", tmp_path,
                    "--out", "p.json"]) == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert len(doc["table"]) == 2

    def test_squeeze_linear(self, tmp_path):
        assert run(["squeeze", "--R", 1.0, "--r", 0.5, "--n0", 1,
                    "--T", "0.05", "--N", 6, "--dt", "1e-2", "--samples", 12,
                    "--epsilon", 0.1, "--mu", 0, "--out-dir", tmp_path,
                    "--out", "s.json"]) == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert abs(doc["fitted"]["best_margin"] - 0.4) < 1e-10

    def test_squeeze_wick_matches_full(self, tmp_path):
        # the gauge is a global phase, so |c(T, n0)| agrees for both flows
        docs = {}
        for eq in ("full", "wick"):
            assert run(["squeeze", "--equation", eq, "--R", 1.0, "--r", 0.5,
                        "--n0", 1, "--T", "0.05", "--N", 6, "--dt", "1e-2",
                        "--samples", 12, "--epsilon", 0.1,
                        "--out-dir", tmp_path, "--out", f"{eq}.json"]) == 0
            docs[eq] = json.loads((tmp_path / f"{eq}.json").read_text())
        full, wick = docs["full"], docs["wick"]
        assert wick["params"]["config_echo"]["equation"] == "wick"
        assert abs(wick["fitted"]["best_margin"]
                   - full["fitted"]["best_margin"]) < 1e-10
        margins = {eq: [r["margin"] for r in d["table"]] for eq, d in docs.items()}
        assert np.allclose(margins["wick"], margins["full"], rtol=0, atol=1e-10)
        assert margins["wick"] != margins["full"]  # the Wick flow was integrated


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("4nls ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parse_argv(argv).subcommand == argv[0]
    assert {shlex.split(line)[1] for line in lines} == set(_SUBCOMMANDS)
