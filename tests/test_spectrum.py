import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.fft
from scipy.fft import fft, ifft, next_fast_len

from conftest import random_state
from fournls import spectrum
from fournls.dynamics import FULL, IntegratorSpec, integrate, integrate_batch
from fournls.experiments import (ProfileKind, ProfileSpec, derive_rng, run_approximation_study,
                                 run_perturbation_study, run_squeeze_probe)
from fournls.gauge import gauge_apply, gauge_equivalence_check
from fournls.resonance import (ModifiedPhase, ResonanceQuadruple, enumerate_nonresonant,
                               normal_form_boundary, resonance_table_rows)
from fournls.spectrum import (
    FileFormatError,
    FourierState,
    Trajectory,
    c2c,
    from_grid,
    grid_plan,
    load_state,
    load_trajectory,
    odd_padded_grid_size,
    save_state,
    save_trajectory,
    to_grid,
)


# -0.0, a subnormal, 1e308 and 0.1: each must survive the file codec bit for bit
GOLDEN_ROWS = [[complex(-0.0, 5e-324), complex(1e308, 0.1), complex(0.1, -0.0)],
               [complex(-1e308, -5e-324), 0.0, complex(-0.1, 2.5)]]
HEADER = '{"format": "4nls-traj/1", "n_max": 1, "t0": 0.0, "dt": 0.1}'
REC0 = '{"k": 0, "coeffs": [[1.0, 0.0], [0.0, 0.0], [0.5, -0.5]]}'


coeff_strategy = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
        min_size=2 * n + 1,
        max_size=2 * n + 1,
    ).map(lambda pairs: FourierState(n, np.array([complex(a, b) for a, b in pairs])))
)

BIG = 10**400  # a Python int that float() cannot represent


@pytest.mark.parametrize("call, field", [
    (lambda: IntegratorSpec(dt=0.05).steps(BIG), "^T="),
    (lambda: gauge_apply(random_state(2), 0.1, BIG), "^mass0 must"),
    (lambda: ProfileSpec(ProfileKind.EXP_DECAY, amplitude=BIG), "^amplitude must"),
    (lambda: IntegratorSpec(dt=BIG), "^dt must"),
    (lambda: Trajectory(BIG, 1.0, np.zeros((1, 3))), "finite t0"),
    (lambda: Trajectory(0.0, BIG, np.zeros((1, 3))), "finite nonzero dt"),
], ids=["steps-T", "gauge-mass0", "profile-amplitude", "spec-dt", "trajectory-t0",
        "trajectory-dt"])
def test_an_int_too_large_for_a_float_is_not_a_real_number(call, field):
    with pytest.raises(ValueError, match=field):
        call()


PROFILE = ProfileSpec(ProfileKind.EXP_DECAY)


def squeeze(n0=1, N=4, samples=4, seed=0):
    return run_squeeze_probe(FourierState.zeros(4), 1.0, 0.5, n0, 0j, 0.002, N, 1e-3,
                             samples=samples, seed=seed)


INT_ARGS = {  # case: (name in the error, least or None, call with the argument x)
    "FourierState-n_max": ("n_max", 0, lambda x: FourierState(x, np.zeros(3))),
    "FourierState.zeros-n_max": ("n_max", 0, FourierState.zeros),
    "FourierState.from_modes-n_max": ("n_max", 0, lambda x: FourierState.from_modes(x, {})),
    "truncate_to-n_max": ("n_max", 0, lambda x: random_state(2).truncate_to(x)),
    "resize-n_max": ("n_max", 0, lambda x: spectrum.resize(np.zeros((2, 5)), x)),
    "ProfileSpec-seed": ("seed", 0, lambda x: ProfileSpec(ProfileKind.EXP_DECAY, seed=x)),
    "ProfileSpec-mode": ("mode", None, lambda x: ProfileSpec(ProfileKind.SINGLE_MODE, mode=x)),
    "integrate-sample_stride": ("sample_stride", 1, lambda x: integrate(
        FourierState.zeros(2), 0.004, IntegratorSpec(dt=1e-3), FULL, x)),
    "integrate_batch-sample_stride": ("sample_stride", 1, lambda x: integrate_batch(
        np.zeros((2, 5)), 0.004, IntegratorSpec(dt=1e-3), FULL, x)),
    "gauge-sample_stride": ("sample_stride", 1, lambda x: gauge_equivalence_check(
        FourierState.zeros(2), 0.004, 1e-3, sample_stride=x)),
    "derive_rng-seed": ("seed", 0, lambda x: derive_rng(x, "task")),
    "approx-ladder": ("N ladder entry", None,
                      lambda x: run_approximation_study(PROFILE, [x, 4], 2, 0.002, 1e-3)),
    "approx-ref_factor": ("ref_factor", 2,
                          lambda x: run_approximation_study(PROFILE, [2], x, 0.002, 1e-3)),
    "perturb-ladder": ("N ladder entry", None, lambda x: run_perturbation_study(
        PROFILE, [x, 4], 0.05, 0.002, 1e-3, trials=1)),
    "perturb-trials": ("trials", 1, lambda x: run_perturbation_study(
        PROFILE, [2], 0.05, 0.002, 1e-3, trials=x)),
    "perturb-seed": ("seed", 0, lambda x: run_perturbation_study(
        PROFILE, [2], 0.05, 0.002, 1e-3, trials=1, seed=x)),
    "squeeze-samples": ("samples", 1, lambda x: squeeze(samples=x)),
    "squeeze-N": ("N", 0, lambda x: squeeze(n0=0, N=x)),
    "squeeze-n0": ("n0", None, lambda x: squeeze(n0=x)),
    "squeeze-seed": ("seed", 0, lambda x: squeeze(seed=x)),
    "enumerate-n": ("n", None, lambda x: enumerate_nonresonant(x, 2)),
    "enumerate-n_max": ("n_max", None, lambda x: enumerate_nonresonant(0, x)),
    "normal_form_boundary-n": ("n", None, lambda x: normal_form_boundary(random_state(2), x)),
    "ResonanceQuadruple-n1": ("n1", None, lambda x: ResonanceQuadruple(x, 0, 1)),
    "ResonanceQuadruple-n2": ("n2", None, lambda x: ResonanceQuadruple(1, x, -1)),
    "ResonanceQuadruple-n3": ("n3", None, lambda x: ResonanceQuadruple(1, 0, x)),
    # mu_array's own range check names 0..n_max; its integer check is resize's
    "mu_array-n_max": ("n_max", None, lambda x: ModifiedPhase(random_state(3)).mu_array(x)),
    "mu-n": ("n", None, lambda x: ModifiedPhase(random_state(2)).mu(x)),
    "resonance_table_rows-n_max": ("n_max", 0, resonance_table_rows),
}


@pytest.mark.parametrize("case, x", [(case, x) for case, (_, least, _) in INT_ARGS.items()
                                     for x in (2.5, True, *(() if least is None else (least - 1,)))])
def test_a_bad_integer_argument_raises_a_value_error_naming_it(case, x):
    """Each integer argument goes through spectrum._int_arg: a float, a bool
    and a value below the bound are rejected in one wording."""
    name, _, call = INT_ARGS[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(x)


class TestFourierState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FourierState(2, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            FourierState(-1, np.zeros(1, dtype=complex))

    @pytest.mark.parametrize("n_max, width", [(2.5, 6), (2.0, 5), (True, 3), ("2", 5)])
    def test_n_max_must_be_an_integer(self, n_max, width):
        with pytest.raises(ValueError, match="n_max must be an integer >= 0"):
            FourierState(n_max, np.zeros(width))

    def test_numpy_integer_n_max_stored_as_int(self):
        u = FourierState(np.int64(2), np.arange(5))
        assert type(u.n_max) is int and u.mode(1) == 3

    def test_rejects_nonfinite(self):
        c = np.zeros(3, dtype=complex)
        c[1] = np.nan
        with pytest.raises(ValueError):
            FourierState(1, c)

    def test_coeffs_immutable(self):
        u = FourierState.zeros(2)
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0

    def test_from_modes_and_mode(self):
        u = FourierState.from_modes(3, {-2: 1j, 3: 2.0})
        assert u.mode(-2) == 1j
        assert u.mode(3) == 2.0
        assert u.mode(0) == 0.0
        assert u.mode(5) == 0.0  # outside truncation -> zero

    def test_from_modes_out_of_range(self):
        with pytest.raises(ValueError):
            FourierState.from_modes(2, {3: 1.0})

    def test_pad_truncate_round_trip(self):
        u = random_state(4, seed=1, norm=None)
        assert np.array_equal(u.truncate_to(9).truncate_to(4).coeffs, u.coeffs)

    def test_truncate_drops_high_modes(self):
        u = FourierState.from_modes(3, {3: 1.0, 1: 2.0})
        v = u.truncate_to(1)
        assert v.n_max == 1
        assert v.mode(1) == 2.0
        assert np.linalg.norm(v.coeffs) == 2.0

    @given(coeff_strategy)
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, u):
        m = 2 * u.n_max + 1
        grid = to_grid(u.coeffs, m)
        assert np.isclose(np.sum(np.abs(grid) ** 2) / m, np.linalg.norm(u.coeffs) ** 2,
                          rtol=1e-12, atol=1e-12)


class TestGridSizes:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=50, deadline=None)
    def test_padded_grid_alias_free(self, n_max):
        assert grid_plan(n_max) >= 4 * n_max + 1
        m = odd_padded_grid_size(n_max)
        assert m >= 4 * n_max + 1 and m % 2 == 1

    def test_grid_sizes_match_next_fast_len(self):
        # pocketfft's good_size is what scipy.fft.next_fast_len caches
        for n_max in range(5001):
            m = next_fast_len(4 * n_max + 1)
            assert grid_plan(n_max) == m
            while m % 2 == 0:
                m = next_fast_len(m + 1)
            assert odd_padded_grid_size(n_max) == m


class TestTransforms:
    """to_grid and from_grid call scipy's pocketfft kernel directly; they
    must stay scipy.fft's norm="forward" pair, ifft and fft, bit for bit."""

    # mode n at slot n + n_max: the alias-free radius (m - 1) // 4 on each m, and
    # on the odd m Strang's collocation radius, m = 2 * n_max + 1
    @pytest.mark.parametrize("m,n_max", [(m, (m - 1) // 4) for m in (5, 65, 66, 130, 4107)]
                             + [(m, (m - 1) // 2) for m in (5, 65, 4107)])
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["1d", "batch"])
    def test_bit_equal_to_scipy_fft(self, m, n_max, rows):
        rng = np.random.default_rng(m)
        c = rng.normal(size=rows + (2 * n_max + 1, 2)).view(np.complex128)[..., 0]
        c_before = c.copy()
        spectrum = np.zeros(rows + (m,), dtype=np.complex128)
        spectrum[..., : 2 * n_max + 1] = c
        g = to_grid(c, m)
        assert np.array_equal(c.view(np.float64), c_before.view(np.float64))
        expected = ifft(spectrum, norm="forward")
        assert np.array_equal(g.view(np.float64), expected.view(np.float64))
        g = rng.normal(size=rows + (m, 2)).view(np.complex128)[..., 0]
        expected = fft(g, norm="forward")[..., : 2 * n_max + 1]
        assert np.array_equal(from_grid(g, n_max).view(np.float64), expected.view(np.float64))

    @pytest.mark.parametrize("k", [8, 9, 2001])
    def test_time_transform_bit_equal_to_scipy_fft(self, k):
        # SpaceTimeField's time DFT: a unitary forward transform along axis 0
        x = np.random.default_rng(k).normal(size=(k, 65, 2)).view(np.complex128)[..., 0]
        got = c2c(x, (0,), True, 1, None, 1)
        expected = fft(x, axis=0, norm="ortho")
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_scipy_fft_reuses_the_loaded_extension(self):
        assert scipy.fft._pocketfft.pypocketfft is spectrum._pypocketfft

    def test_import_leaves_scipy_fft_unloaded(self):
        # the scipy.fft package, and what it pulls in, cost ~0.3 s per process
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, fournls.cli; print(' '.join(m for m in "
                "('scipy.fft', 'scipy.special', 'numpy.f2py') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == []


class TestTrajectory:
    def test_requires_nonzero_dt(self):
        rows = np.zeros((1, 3))
        for t0, dt in ((0.0, 0.0), (0.0, np.nan), (0.0, np.inf), (0.0, -np.inf),
                       (np.inf, 0.1), (np.nan, 0.1)):
            with pytest.raises(ValueError):
                Trajectory(t0, dt, rows)

    @pytest.mark.parametrize("t0, dt", [(0.0, True), ("0", 0.1)])
    def test_t0_and_dt_must_be_real_numbers(self, t0, dt):
        with pytest.raises(ValueError, match="need finite t0, finite nonzero dt"):
            Trajectory(t0, dt, np.zeros((1, 3)))

    def test_requires_shared_n_max(self):
        # a 2-D array cannot mix radii: ragged rows and even widths are rejected
        for rows in ([[0.0] * 3, [0.0] * 5], np.zeros((2, 4)), np.zeros((0, 3)),
                     np.zeros(3), [[np.nan, 0.0, 0.0]]):
            with pytest.raises(ValueError):
                Trajectory(0.0, 0.1, rows)

    def test_times_and_len(self):
        tr = Trajectory(1.0, 0.5, np.zeros((4, 5)))
        assert len(tr) == 4 and tr.n_max == 2
        assert np.allclose(tr.times, [1.0, 1.5, 2.0, 2.5])

    def test_coeff_array_shape(self):
        tr = Trajectory(0.0, 0.1, [random_state(3, seed=k, norm=None).coeffs for k in range(5)])
        assert tr.coeff_array().shape == (5, 7)

    def test_samples_are_validated_read_only_states(self):
        rows = np.array([random_state(3, seed=k, norm=None).coeffs for k in range(5)])
        tr = Trajectory(0.0, 0.1, rows)
        rows[0] = 0.0  # the caller's writable array is copied, not aliased
        assert np.array_equal(tr[0].coeffs, random_state(3, seed=0, norm=None).coeffs)
        assert np.array_equal(tr[-1].coeffs, random_state(3, seed=4, norm=None).coeffs)
        assert [s.n_max for s in tr.states] == [3] * 5
        with pytest.raises(ValueError):
            tr.coeffs[0, 0] = 1.0
        with pytest.raises(IndexError):
            tr[5]


@pytest.fixture(scope="module")
def long_trajectory(tmp_path_factory):
    """A saved 2000-sample trajectory at n_max = 32 and its rows."""
    rng = np.random.default_rng(2000)
    rows = rng.normal(size=(2000, 65)) + 1j * rng.normal(size=(2000, 65))
    path = tmp_path_factory.mktemp("long") / "t.jsonl"
    save_trajectory(Trajectory(0.0, 1e-4, rows), path)
    return path, rows


class TestFileFormats:
    def test_state_round_trip_bit_exact(self, tmp_path):
        u = random_state(7, seed=5, norm=None)
        p = tmp_path / "s.json"
        save_state(u, p)
        v = load_state(p)
        assert v.n_max == u.n_max
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_state_format_field(self, tmp_path):
        p = tmp_path / "s.json"
        save_state(random_state(2, norm=None), p)
        doc = json.loads(p.read_text())
        assert doc["format"] == "4nls-state/1"

    def test_state_version_mismatch(self, tmp_path):
        p = tmp_path / "s.json"
        save_state(random_state(2, norm=None), p)
        doc = json.loads(p.read_text())
        doc["format"] = "4nls-state/9"
        p.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_state(p)

    def test_state_wrong_coeff_count(self, tmp_path):
        p = tmp_path / "s.json"
        save_state(random_state(2, norm=None), p)
        doc = json.loads(p.read_text())
        doc["coeffs"] = doc["coeffs"][:-1]
        p.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_state(p)

    def test_trajectory_round_trip_bit_exact(self, tmp_path):
        tr = Trajectory(0.0, 1e-3, [random_state(4, seed=k, norm=None).coeffs for k in range(6)])
        p = tmp_path / "t.jsonl"
        save_trajectory(tr, p)
        back = load_trajectory(p)
        assert back.dt == tr.dt and back.t0 == tr.t0 and len(back) == len(tr)
        assert np.array_equal(back.coeffs, tr.coeffs)

    def test_trajectory_corrupt_record_named(self, tmp_path):
        tr = Trajectory(0.0, 1e-3, [random_state(2, seed=k, norm=None).coeffs for k in range(3)])
        p = tmp_path / "t.jsonl"
        save_trajectory(tr, p)
        lines = p.read_text().splitlines()
        lines[2] = "{not json"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            load_trajectory(p)

    def test_golden_bytes(self, tmp_path):
        save_trajectory(Trajectory(0, 0.1, GOLDEN_ROWS), tmp_path / "t.jsonl")
        save_state(FourierState(1, GOLDEN_ROWS[0]), tmp_path / "s.json")
        assert (tmp_path / "t.jsonl").read_text() == (
            '{"format": "4nls-traj/1", "n_max": 1, "t0": 0.0, "dt": 0.1}\n'
            '{"k": 0, "coeffs": [[-0.0, 5e-324], [1e+308, 0.1], [0.1, -0.0]]}\n'
            '{"k": 1, "coeffs": [[-1e+308, -5e-324], [0.0, 0.0], [-0.1, 2.5]]}\n')
        assert (tmp_path / "s.json").read_text() == (
            '{"format": "4nls-state/1", "n_max": 1,'
            ' "coeffs": [[-0.0, 5e-324], [1e+308, 0.1], [0.1, -0.0]]}\n')
        golden = np.array(GOLDEN_ROWS)
        assert load_trajectory(tmp_path / "t.jsonl").coeffs.tobytes() == golden.tobytes()
        assert load_state(tmp_path / "s.json").coeffs.tobytes() == golden[0].tobytes()

    @pytest.mark.parametrize("load, lines", [
        pytest.param(load_trajectory, [HEADER.replace("traj/1", "traj/2"), REC0],
                     id="version"),
        pytest.param(load_trajectory, [], id="empty"),
        pytest.param(load_trajectory, [HEADER], id="header-only"),
        pytest.param(load_trajectory, [HEADER, REC0.replace('"k": 0', '"k": 1')],
                     id="index"),
        pytest.param(load_trajectory, [HEADER, REC0, REC0.replace('"k": 0', '"k": true')],
                     id="bool-index"),
        pytest.param(load_trajectory, [HEADER, REC0, REC0.replace('"k": 0', '"k": 1.0')],
                     id="float-index"),
        pytest.param(load_trajectory, [HEADER, REC0.replace(", [0.0, 0.0]", "")],
                     id="count"),
        pytest.param(load_trajectory, [HEADER, REC0.replace("0.5, -0.5", '"0.5", -0.5')],
                     id="string"),
        pytest.param(load_trajectory, [HEADER, REC0.replace("0.5, -0.5", "null, -0.5")],
                     id="null"),
        pytest.param(load_trajectory, [HEADER, '{"k": 0}'], id="no-coeffs"),
        pytest.param(load_trajectory, [HEADER.replace('"n_max": 1, ', ""), REC0],
                     id="no-n_max"),
        pytest.param(load_trajectory, [HEADER, "[1, 2]"], id="record-not-object"),
        pytest.param(load_trajectory, ["[1, 2]", REC0], id="header-not-object"),
        pytest.param(load_trajectory, [HEADER.replace('"dt": 0.1', '"dt": NaN'), REC0],
                     id="nan-dt"),
        pytest.param(load_trajectory, [HEADER.replace('"t0": 0.0', '"t0": Infinity'),
                                       REC0], id="inf-t0"),
        pytest.param(load_trajectory, [HEADER.replace(', "dt": 0.1', ""), REC0],
                     id="no-dt"),
        pytest.param(load_trajectory, [HEADER.replace('"t0": 0.0', '"t0": "0.5"'), REC0],
                     id="string-t0"),
        pytest.param(load_trajectory, [HEADER.replace('"dt": 0.1', '"dt": true'), REC0],
                     id="bool-dt"),
        pytest.param(load_trajectory, [HEADER, REC0.replace("0.5, -0.5", "1e999, -0.5")],
                     id="overflow"),
        pytest.param(load_state, ['{"format": "4nls-state/1", "coeffs": [[1.0, 0.0]]}'],
                     id="state-no-n_max"),
        pytest.param(load_state, ["[1, 2]"], id="state-not-object"),
        pytest.param(load_state, ['{"format": "4nls-state/1", "n_max": 0, '
                                  '"coeffs": [[true, false]]}'], id="state-bool-coeffs"),
        pytest.param(load_state, ['{"format": "4nls-state/1", "n_max": 0, '
                                  '"coeffs": [[1.0, true]]}'], id="state-bool-in-pair"),
        pytest.param(load_trajectory, [HEADER, REC0.replace("0.5, -0.5", "1.0, true")],
                     id="record-bool-in-pair"),
    ])
    def test_malformed_file_rejected(self, tmp_path, load, lines):
        p = tmp_path / "f.json"
        p.write_text("".join(ln + "\n" for ln in lines))
        with pytest.raises(FileFormatError, match=re.escape(str(p))):
            load(p)

    def test_blank_lines_between_records_skipped(self, tmp_path):
        p = tmp_path / "t.jsonl"
        rec1 = REC0.replace('"k": 0', '"k": 1')
        p.write_text(f"\n \n{HEADER}\n\n   \n{REC0}\n\t \n\n{rec1}\n \n")
        tr = load_trajectory(p)
        assert len(tr) == 2 and np.array_equal(tr.coeffs[0], tr.coeffs[1])
        assert tr.coeffs[0].tolist() == [1.0, 0.0, 0.5 - 0.5j]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_endings_load(self, tmp_path, newline):
        tr = Trajectory(0.0, 1e-3, [random_state(2, seed=k, norm=None).coeffs for k in range(3)])
        p = tmp_path / "t.jsonl"
        save_trajectory(tr, p)
        p.write_bytes(p.read_bytes().replace(b"\n", newline.encode()))
        assert load_trajectory(p).coeffs.tobytes() == tr.coeffs.tobytes()

    def test_corrupt_record_deep_in_a_long_file_named(self, tmp_path, long_trajectory):
        lines = long_trajectory[0].read_text().splitlines(keepends=True)
        lines[1501] = lines[1501][:40] + "\n"  # record 1500, cut short
        p = tmp_path / "t.jsonl"
        p.write_text("".join(lines))
        with pytest.raises(FileFormatError, match=re.escape(f"{p}: record 1500: not valid JSON")):
            load_trajectory(p)

    def test_load_holds_one_array_plus_one_line(self, long_trajectory):
        # the text of the records is about six times the array they fill;
        # a load that reads them one line at a time peaks near the array
        path, rows = long_trajectory
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tr = load_trajectory(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tr.coeffs.tobytes() == rows.tobytes()
        assert peak <= 3 * tr.coeffs.nbytes

    def test_ragged_coeffs_name_the_record(self, tmp_path):
        p = tmp_path / "t.jsonl"
        ragged = REC0.replace('"k": 0', '"k": 1').replace("[0.0, 0.0]", "[0.0]")
        p.write_text(f"{HEADER}\n{REC0}\n{ragged}\n")
        message = re.escape(f"{p}: record 1: malformed coeffs")
        with pytest.raises(FileFormatError, match=message):
            load_trajectory(p)
