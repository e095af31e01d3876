import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fournls.resonance import (
    ModifiedPhase,
    ResonanceQuadruple,
    _nonresonant,
    enumerate_nonresonant,
    h_factored,
    h_value,
    normal_form_boundary,
    resonance_table_rows,
)
from fournls.spectrum import FourierState

ints = st.integers(min_value=-50, max_value=50)


class TestResonanceFunction:
    def test_worked_values(self):
        assert h_value(2, 1, 0) == 14
        assert h_value(3, -1, 2) == -1200

    @given(ints, ints)
    def test_trivial_resonances_vanish(self, k, m):
        assert h_value(k, k, m) == 0
        assert h_value(m, k, k) == 0
        assert h_factored(k, k, m) == 0

    @given(ints, ints, ints)
    def test_factored_matches_expansion(self, n1, n2, n3):
        assert h_factored(n1, n2, n3) == h_value(n1, n2, n3)

    @given(ints, ints, ints)
    def test_symmetry_in_outer_arguments(self, n1, n2, n3):
        assert h_value(n1, n2, n3) == h_value(n3, n2, n1)

    def test_exhaustive_box_identity_and_zero_set(self):
        # exact integers over the full |ni| <= 24 box
        for n1 in range(-24, 25):
            for n2 in range(-24, 25):
                for n3 in range(-24, 25):
                    h = h_value(n1, n2, n3)
                    assert h == h_factored(n1, n2, n3)
                    assert (h == 0) == ((n1 - n2) * (n2 - n3) == 0)

    def test_large_arguments_exact(self):
        # arbitrary-precision integers: no overflow at any magnitude
        n = 2**20
        assert h_value(n, 0, -n) == 2 * n**4
        assert h_factored(n, n - 1, 0) == h_value(n, n - 1, 0)

    @given(ints, ints, ints, ints, ints)
    def test_nested_mismatch_telescopes(self, n11, n12, n13, n2, n3):
        # substituting n1 = n11 - n12 + n13 into H(n1, n2, n3): the n1^4 terms cancel
        n1 = n11 - n12 + n13
        n = n1 - n2 + n3
        expected = n11**4 - n12**4 + n13**4 - n2**4 + n3**4 - n**4
        assert h_value(n11, n12, n13) + h_value(n1, n2, n3) == expected

    def test_factored_exact_on_int64_arrays(self):
        # normal_form_boundary evaluates h_factored on the int64 arrays of _nonresonant
        n1, n2, n3 = _nonresonant(5, 40)
        h = h_factored(n1, n2, n3)
        assert h.dtype == np.int64
        assert h.tolist() == [h_value(*t) for t in zip(n1.tolist(), n2.tolist(), n3.tolist())]


class TestEnumeration:
    def test_quadruple_validation(self):
        with pytest.raises(ValueError):
            ResonanceQuadruple(1, 1, 0)  # resonant triple

    def test_examples(self):
        got = {(q.n1, q.n2, q.n3) for q in enumerate_nonresonant(0, 1)}
        assert got == {(1, 0, -1), (-1, 0, 1)}
        got = {(q.n1, q.n2, q.n3): q.h for q in enumerate_nonresonant(2, 1)}
        assert got == {(1, 0, 1): -14, (0, -1, 1): -16, (1, -1, 0): -16}
        assert enumerate_nonresonant(0, 0) == []
        assert enumerate_nonresonant(5, 0) == []

    def test_lexicographic_order(self):
        quads = enumerate_nonresonant(1, 6)
        keys = [(q.n1, q.n2) for q in quads]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n, n_max, name", [(1.5, 3, "n"), (True, 3, "n"),
                                                (np.float64(0.0), 3, "n"), (0, 3.0, "n_max"),
                                                (0, True, "n_max")])
    def test_non_integer_arguments_rejected(self, n, n_max, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            enumerate_nonresonant(n, n_max)

    def test_fields_are_python_ints(self):
        # arbitrary-precision H: no numpy integer leaks into the quadruples
        for q in enumerate_nonresonant(1, 6):
            for value in (q.n1, q.n2, q.n3, q.h):
                assert type(value) is int

    @pytest.mark.parametrize("x", ["a", None, 1.0, np.float64(1.0)])
    def test_quadruple_fields_must_be_integers(self, x):
        with pytest.raises(ValueError, match="^n1 must be an integer"):
            ResonanceQuadruple(x, 0, -1)

    def test_numpy_integer_fields_stored_as_int(self):
        q = ResonanceQuadruple(np.int64(1), np.int32(0), -1)
        assert all(type(v) is int for v in (q.n1, q.n2, q.n3, q.h)) and q.h == 2

    def test_quadruples_are_checked_tuples(self):
        """Every enumerated quadruple is the one the public constructor
        builds, and the list is _nonresonant's arrays zipped."""
        for n_max in (0, 1, 5):
            for n in range(-3 * n_max - 1, 3 * n_max + 2):
                quads = enumerate_nonresonant(n, n_max)
                assert quads == list(zip(*(a.tolist() for a in _nonresonant(n, n_max))))
                for q in quads:
                    assert type(q) is ResonanceQuadruple
                    assert q == ResonanceQuadruple(*q)
                    assert repr(q) == f"ResonanceQuadruple(n1={q.n1}, n2={q.n2}, n3={q.n3})"
                    with pytest.raises(AttributeError):
                        q.n1 = 0
                    assert hash(q) == hash((q.n1, q.n2, q.n3))

    def test_replace_keeps_the_check(self):
        q = ResonanceQuadruple(2, -1, 3)
        r = q._replace(n3=4)
        assert type(r) is ResonanceQuadruple and r == (2, -1, 4) and r.h == h_value(2, -1, 4)
        with pytest.raises(ValueError, match="trivially resonant"):
            q._replace(n2=2)

    def test_copy_and_pickle_keep_the_quadruple(self):
        q = ResonanceQuadruple(2, -1, 3)
        for got in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert type(got) is ResonanceQuadruple and got == q and got.h == q.h

    @pytest.mark.parametrize("n", [7, -7, 2**63, -(2**63) - 1, 10**400],
                             ids=["7", "-7", "2**63", "-2**63-1", "10**400"])
    def test_frequency_beyond_three_n_max_has_no_triple(self, n):
        # |n1 - n2 + n3| <= 3 n_max, so no int64 arithmetic is needed
        assert enumerate_nonresonant(n, 2) == []

    @pytest.mark.parametrize("n_max", [2**31, 2**62, 10**400], ids=["2**31", "2**62", "10**400"])
    def test_grid_beyond_intp_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            enumerate_nonresonant(0, n_max)

    def test_brute_force_equivalence(self):
        # oracle: plain triple scan over the box
        n_max = 12
        for n in range(-12, 13):
            expected = set()
            for n1 in range(-n_max, n_max + 1):
                for n2 in range(-n_max, n_max + 1):
                    for n3 in range(-n_max, n_max + 1):
                        if n1 - n2 + n3 != n:
                            continue
                        if (n1 - n2) * (n2 - n3) == 0:
                            continue
                        expected.add((n1, n2, n3))
            got = {(q.n1, q.n2, q.n3) for q in enumerate_nonresonant(n, n_max)}
            assert got == expected, f"mismatch at n={n}"


class TestModifiedPhase:
    def test_table_values(self):
        u = FourierState.from_modes(2, {0: 2.0, 1: 1j})
        phase = ModifiedPhase(u)
        assert phase.mu(0) == 4.0
        assert phase.mu(1) == 1.0 + 1.0
        assert phase.mu(2) == 16.0

    def test_range_error(self):
        phase = ModifiedPhase(FourierState.zeros(2))
        with pytest.raises(ValueError):
            phase.mu(3)
        with pytest.raises(ValueError):
            phase.mu(-3)
        for n_max in (3, -1, -2):
            with pytest.raises(ValueError, match="n_max must be in 0..2"):
                phase.mu_array(n_max)

    def test_mu_array_matches_scalar(self):
        u = FourierState.from_modes(3, {-1: 0.5, 2: 1.0})
        phase = ModifiedPhase(u)
        arr = phase.mu_array(3)
        for i, n in enumerate(range(-3, 4)):
            assert arr[i] == phase.mu(n)

    @pytest.mark.parametrize("n_max", [4, 32, 200])
    def test_mu_array_bit_exact_on_random_reference(self, n_max):
        rng = np.random.default_rng(n_max)
        c = rng.normal(size=2 * n_max + 1) + 1j * rng.normal(size=2 * n_max + 1)
        phase = ModifiedPhase(FourierState(n_max, c))
        for radius in (n_max, n_max // 2):
            # n^4 + |c0(n)|^2 per mode, squared with np.square as mu_array does
            expected = [float(n) ** 4 + float(np.square(np.abs(c[n + n_max])))
                        for n in range(-radius, radius + 1)]
            assert phase.mu_array(radius).tolist() == expected
            assert [phase.mu(n) for n in range(-radius, radius + 1)] == expected

    def test_mu_array_at_radius_zero(self):
        phase = ModifiedPhase(FourierState.from_modes(2, {0: 3 - 4j, 1: 0.5}))
        assert phase.mu_array(0).tolist() == [25.0]


def _modified_mismatch(phase, n1, n2, n3):
    return phase.mu(n1) - phase.mu(n2) + phase.mu(n3) - phase.mu(n1 - n2 + n3)


class TestModifiedMismatch:
    """mu(n1) - mu(n2) + mu(n3) - mu(n) is H plus the four weights |c0|^2."""

    def test_zero_reference_reduces_to_h(self):
        phase = ModifiedPhase(FourierState.zeros(6))
        for n1, n2, n3 in itertools.product(range(-2, 3), repeat=3):
            assert _modified_mismatch(phase, n1, n2, n3) == h_value(n1, n2, n3)

    def test_constant_profile_weights_cancel(self):
        phase = ModifiedPhase(FourierState(6, np.ones(13, dtype=complex)))
        for n1, n2, n3 in itertools.product(range(-2, 3), repeat=3):
            assert _modified_mismatch(phase, n1, n2, n3) == h_value(n1, n2, n3)

    def test_single_mode_weight_enters_once(self):
        phase = ModifiedPhase(FourierState.from_modes(3, {2: 2.0}))
        assert _modified_mismatch(phase, 2, 1, 0) == h_value(2, 1, 0) + 4.0 == 18.0
        assert _modified_mismatch(phase, 0, 1, 2) == h_value(0, 1, 2) + 4.0


class TestNormalFormBoundary:
    def test_single_mode_vanishes(self):
        u = FourierState.from_modes(3, {2: 5.0})
        assert normal_form_boundary(u, 2) == 0.0

    def test_vanishing_target_mode(self):
        u = FourierState.from_modes(2, {1: 1.0, 2: 1.0})
        assert normal_form_boundary(u, 0) == 0.0

    def test_worked_example(self):
        u = FourierState.from_modes(2, {0: 1.0, 1: 1.0, 2: 1.0})
        assert np.isclose(normal_form_boundary(u, 1), -1j / 7, atol=1e-15)

    def test_frequency_beyond_n_max(self):
        with pytest.raises(ValueError, match="exceeds state n_max=2"):
            normal_form_boundary(FourierState.zeros(2), -3)

    @pytest.mark.parametrize("n", [True, 1.0, 0.5])
    def test_non_integer_frequency_rejected(self, n):
        u = FourierState.from_modes(2, {0: 1.0, 1: 1.0, 2: 1.0})
        with pytest.raises(ValueError, match="^n must be an integer"):
            normal_form_boundary(u, n)

    @pytest.mark.parametrize("n_max", [4, 12])
    def test_against_direct_sum(self, n_max):
        # oracle: plain triple scan over the box with exact H
        rng = np.random.default_rng(7)
        size = 2 * n_max + 1
        u = FourierState(n_max, rng.normal(size=size) + 1j * rng.normal(size=size))
        box = range(-n_max, n_max + 1)
        for n in box:
            direct = 0.0 + 0.0j
            for n1 in box:
                for n2 in box:
                    for n3 in box:
                        if n1 - n2 + n3 != n:
                            continue
                        h = h_value(n1, n2, n3)
                        if h == 0:
                            continue
                        direct += (u.mode(n1) * np.conj(u.mode(n2)) * u.mode(n3)
                                   * np.conj(u.mode(n)) / (1j * h))
            assert np.isclose(normal_form_boundary(u, n), direct, atol=1e-13)


class TestTableRows:
    def test_row_count_and_consistency(self):
        rows = list(resonance_table_rows(3))
        assert [row[:3] for row in rows] == list(itertools.product(range(-3, 4), repeat=3))
        for n1, n2, n3, n, h, hf in rows:
            assert n == n1 - n2 + n3
            assert h == hf == h_value(n1, n2, n3)
