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
from fournls.spectrum import (
    DyadicBlock,
    FileFormatError,
    FourierState,
    Trajectory,
    blocks_covering,
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


class TestFourierState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FourierState(2, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            FourierState(-1, np.zeros(1, dtype=complex))

    @pytest.mark.parametrize("n_max, width", [(2.5, 6), (2.0, 5), (True, 3), ("2", 5)])
    def test_n_max_must_be_an_integer(self, n_max, width):
        with pytest.raises(ValueError, match="n_max must be a nonnegative integer"):
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
        assert u.truncate_to(9).truncate_to(4).allclose(u)

    def test_truncate_drops_high_modes(self):
        u = FourierState.from_modes(3, {3: 1.0, 1: 2.0})
        v = u.truncate_to(1)
        assert v.n_max == 1
        assert v.mode(1) == 2.0
        assert np.linalg.norm(v.coeffs) == 2.0

    @given(coeff_strategy)
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, u):
        m, idx = grid_plan(u.n_max, 2 * u.n_max + 1)
        grid = to_grid(u.coeffs, m, idx) * m
        assert np.isclose(np.sum(np.abs(grid) ** 2) / m, np.linalg.norm(u.coeffs) ** 2,
                          rtol=1e-12, atol=1e-12)


class TestDyadicBlocks:
    def test_level_must_be_power_of_two(self):
        for bad in (0, 3, 6, -2, True, 2.0):
            with pytest.raises(ValueError, match="level must be a power of two"):
                DyadicBlock(bad)

    def test_unit_block(self):
        b = DyadicBlock(1)
        assert all(b.contains(n) for n in (-1, 0, 1))
        assert not b.contains(2)

    def test_annulus(self):
        b = DyadicBlock(4)
        assert b.contains(2) and b.contains(8) and b.contains(-5)
        assert not b.contains(1) and not b.contains(9) and not b.contains(0)

    def test_mask_matches_contains(self):
        b = DyadicBlock(8)
        mask = b.mask(20)
        for i, n in enumerate(range(-20, 21)):
            assert mask[i] == b.contains(n)

    @pytest.mark.parametrize("level", [1, 2, 4, 16])
    def test_contains_on_an_array_equals_the_int_loop(self, level):
        b = DyadicBlock(level)
        ns = np.arange(-40, 41)
        assert b.contains(ns).tolist() == [b.contains(int(n)) for n in ns]
        assert type(b.contains(3)) is bool

    def test_blocks_covering_levels(self):
        for n_max in range(301):
            levels = [b.level for b in blocks_covering(n_max)]
            assert levels == [2**j for j in range(12) if 2**j // 2 <= n_max]

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_blocks_cover_every_frequency(self, n_max):
        blocks = blocks_covering(n_max)
        for n in range(-n_max, n_max + 1):
            hits = sum(b.contains(n) for b in blocks)
            # closed intervals [N/2, 2N] triple up exactly at powers of two
            assert 1 <= hits <= 3


class TestGridSizes:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=50, deadline=None)
    def test_padded_grid_alias_free(self, n_max):
        assert grid_plan(n_max)[0] >= 4 * n_max + 1
        m = odd_padded_grid_size(n_max)
        assert m >= 4 * n_max + 1 and m % 2 == 1

    def test_grid_sizes_match_next_fast_len(self):
        # pocketfft's good_size is what scipy.fft.next_fast_len caches
        for n_max in range(5001):
            m = next_fast_len(4 * n_max + 1)
            assert grid_plan(n_max)[0] == m
            while m % 2 == 0:
                m = next_fast_len(m + 1)
            assert odd_padded_grid_size(n_max) == m

    @pytest.mark.parametrize("n_max", [0, 1, 16, 33, 1024])
    def test_plan_slots_are_distinct_and_on_the_grid(self, n_max):
        m, idx = grid_plan(n_max)
        assert len(idx) == 2 * n_max + 1 == len(set(idx.tolist()))
        assert idx.min() >= 0 and idx.max() < m

    @pytest.mark.parametrize("n_max", [0, 1, 16, 33, 1024])
    def test_collocation_plan_is_a_permutation(self, n_max):
        # the STRANG layout: the 2*n_max+1 modes fill a grid of that length
        m, idx = grid_plan(n_max, 2 * n_max + 1)
        assert m == 2 * n_max + 1
        assert sorted(idx.tolist()) == list(range(m))


class TestTransforms:
    """to_grid and from_grid call scipy's pocketfft kernel directly; they
    must stay scipy.fft.ifft and scipy.fft.fft bit for bit."""

    @pytest.mark.parametrize("m", [5, 65, 66, 130, 4107])
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["1d", "batch"])
    def test_bit_equal_to_scipy_fft(self, m, rows):
        rng = np.random.default_rng(m)
        n_max = (m - 1) // 4
        idx = np.arange(-n_max, n_max + 1) % m
        c = rng.normal(size=rows + (2 * n_max + 1, 2)).view(np.complex128)[..., 0]
        c_before = c.copy()
        spectrum = np.zeros(rows + (m,), dtype=np.complex128)
        spectrum[..., idx] = c
        g = to_grid(c, m, idx)
        assert np.array_equal(c.view(np.float64), c_before.view(np.float64))
        assert np.array_equal(g.view(np.float64), ifft(spectrum).view(np.float64))
        g = rng.normal(size=rows + (m, 2)).view(np.complex128)[..., 0]
        expected = fft(g).take(idx, axis=-1)
        assert np.array_equal(from_grid(g, idx).view(np.float64), expected.view(np.float64))

    @pytest.mark.parametrize("k", [8, 9, 2001])
    def test_time_transform_bit_equal_to_scipy_fft(self, k):
        # SpaceTimeField.time_modes: a forward transform along axis 0
        x = np.random.default_rng(k).normal(size=(k, 65, 2)).view(np.complex128)[..., 0]
        got = c2c(x, (0,), True, 0, None, 1)
        assert np.array_equal(got.view(np.float64), fft(x, axis=0).view(np.float64))

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
        assert tr[0].allclose(random_state(3, seed=0, norm=None))
        assert tr[-1].allclose(random_state(3, seed=4, norm=None))
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
