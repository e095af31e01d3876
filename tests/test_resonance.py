import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fournls.resonance import (
    ModifiedPhase,
    ResonanceQuadruple,
    enumerate_nonresonant,
    g_tilde_value,
    g_value,
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

    def test_fields_are_python_ints(self):
        # arbitrary-precision H: no numpy integer leaks into the quadruples
        for q in enumerate_nonresonant(1, 6):
            for value in (q.n1, q.n2, q.n3, q.h):
                assert type(value) is int

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
            phase.weight(3)
        for n_max in (3, -1, -2):
            with pytest.raises(ValueError, match="n_max must be in 0..2"):
                phase.mu_array(n_max)

    def test_weight_is_exact_modulus_squared(self):
        # exactly |c0(n)|^2: going through mu(n) - n^4 loses digits at n = 200
        u = FourierState.from_modes(200, {200: 0.01, -3: 0.5 + 0.25j, 7: 1e-9})
        phase = ModifiedPhase(u)
        for n in range(-200, 201):
            assert phase.weight(n) == abs(u.mode(n)) ** 2

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
            expected = [phase.mu(n) for n in range(-radius, radius + 1)]
            assert phase.mu_array(radius).tolist() == expected


class TestGValues:
    def test_zero_reference_reduces_to_h(self):
        phase = ModifiedPhase(FourierState.zeros(4))
        assert g_value(2, 1, 0, phase) == h_value(2, 1, 0)

    def test_constant_profile_corrections_cancel(self):
        u = FourierState(3, np.ones(7, dtype=complex))
        phase = ModifiedPhase(u)
        assert g_value(2, 1, 0, phase) == h_value(2, 1, 0)

    def test_single_mode_correction(self):
        u = FourierState.from_modes(3, {2: 2.0})
        phase = ModifiedPhase(u)
        assert g_value(2, 1, 0, phase) == 14 + 4.0

    def test_g_tilde_zero_reference_sum_of_factored_terms(self):
        phase = ModifiedPhase(FourierState.zeros(8))
        n11, n12, n13, n2, n3 = 3, 1, 2, 0, -1
        n1 = n11 - n12 + n13
        expected = h_factored(n11, n12, n13) + h_factored(n1, n2, n3)
        assert g_tilde_value(n11, n12, n13, n2, n3, phase) == expected

    def test_g_tilde_all_equal_vanishes(self):
        phase = ModifiedPhase(FourierState.zeros(4))
        assert g_tilde_value(1, 1, 1, 1, 1, phase) == 0.0

    def test_g_tilde_worked_example(self):
        phase = ModifiedPhase(FourierState.zeros(4))
        assert g_tilde_value(1, 0, 0, 0, 0, phase) == 0.0


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
        assert len(rows) == 7**3
        for n1, n2, n3, n, h, hf in rows:
            assert n == n1 - n2 + n3
            assert h == hf == h_value(n1, n2, n3)
