import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from fournls.dynamics import (
    FULL,
    WICK,
    EquationKind,
    IntegratorSpec,
    Kind,
    NumericFailure,
    Scheme,
    _nonlinear_rhs_raw,
    cubic_convolution,
    exact_resonant_flow,
    integrate,
    integrate_batch,
    nonlinearity_nonresonant,
    nonlinearity_resonant,
    step,
)
from fournls.spectrum import FourierState, grid_plan, mass


def cubic_convolution_direct(u, v, w):
    """O(N^3) triple-loop evaluation of the cubic convolution (test oracle)."""
    if not (u.n_max == v.n_max == w.n_max):
        raise ValueError("cubic_convolution requires equal n_max")
    nm = u.n_max
    d = np.zeros(2 * nm + 1, dtype=np.complex128)
    for n1 in range(-nm, nm + 1):
        for n2 in range(-nm, nm + 1):
            for n3 in range(-nm, nm + 1):
                n = n1 - n2 + n3
                if abs(n) <= nm:
                    d[n + nm] += u.mode(n1) * np.conj(v.mode(n2)) * w.mode(n3)
    return FourierState(nm, d)


# (spec, kind) per branch of the stepping kernel: scheme, equation and mu.
KERNEL_CASES = {
    "None": (IntegratorSpec(Scheme.EXP_RK4, 1e-3), FULL),
    "strang": (IntegratorSpec(Scheme.STRANG, 1e-3), FULL),
    "wick": (IntegratorSpec(Scheme.EXP_RK4, 1e-3), WICK),
    "mu-1": (IntegratorSpec(Scheme.EXP_RK4, 1e-3), EquationKind(Kind.FULL_4NLS, -1)),
    "mu0": (IntegratorSpec(Scheme.EXP_RK4, 1e-3), EquationKind(Kind.FULL_4NLS, 0)),
    "wick-mu-1": (IntegratorSpec(Scheme.EXP_RK4, 1e-3), EquationKind(Kind.WICK_4WNLS, -1)),
    "strang-wick": (IntegratorSpec(Scheme.STRANG, 1e-3), WICK),
    "strang-mu0": (IntegratorSpec(Scheme.STRANG, 1e-3), EquationKind(Kind.FULL_4NLS, 0)),
}


small_state = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(
        st.tuples(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)),
        min_size=2 * n + 1, max_size=2 * n + 1,
    ).map(lambda ps: FourierState(n, np.array([complex(a, b) for a, b in ps])))
)


class TestEquationKind:
    def test_mu_values(self):
        for mu in (-1, 0, 1):
            EquationKind(Kind.FULL_4NLS, mu)
        with pytest.raises(ValueError):
            EquationKind(Kind.FULL_4NLS, 2)

    def test_kind_must_be_a_member(self):
        # "full" == Kind.FULL_4NLS.value, but a string would select the Wick branch
        with pytest.raises(ValueError, match="kind must be a Kind, got 'full'"):
            EquationKind("full", 1)

    def test_bool_mu_rejected(self):
        with pytest.raises(ValueError, match="mu must be"):
            EquationKind(Kind.FULL_4NLS, True)


class TestIntegratorSpec:
    def test_dt_validation(self):
        with pytest.raises(ValueError):
            IntegratorSpec(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorSpec(dt=float("inf"))
        IntegratorSpec(dt=-1e-3)  # backwards integration is allowed

    def test_bool_dt_rejected(self):
        with pytest.raises(ValueError, match="dt must be"):
            IntegratorSpec(Scheme.EXP_RK4, True)

    def test_scheme_must_be_a_member(self):
        # a string would fall through to the Lawson RK4 branch
        with pytest.raises(ValueError, match="scheme must be a Scheme, got 'strang'"):
            IntegratorSpec("strang", 1e-3)

    @pytest.mark.parametrize("T, dt, k", [(0.1, 1e-2, 10), (0.0, 1e-3, 0), (-0.1, -1e-2, 10)])
    def test_steps(self, T, dt, k):
        assert IntegratorSpec(dt=dt).steps(T) == k

    @pytest.mark.parametrize("T, dt", [(0.105, 1e-2), (-0.1, 1e-2)])
    def test_steps_rejects_t_off_the_step_grid(self, T, dt):
        with pytest.raises(ValueError, match=re.escape(f"T={T}")):
            IntegratorSpec(dt=dt).steps(T)


class TestCubicConvolution:
    @given(small_state)
    @settings(max_examples=25, deadline=None)
    def test_fft_matches_triple_loop(self, u):
        fast = cubic_convolution(u, u, u)
        slow = cubic_convolution_direct(u, u, u)
        assert np.allclose(fast.coeffs, slow.coeffs, atol=1e-10)

    def test_mixed_arguments(self):
        u, v, w = (random_state(5, seed=k) for k in range(3))
        fast = cubic_convolution(u, v, w)
        slow = cubic_convolution_direct(u, v, w)
        assert np.allclose(fast.coeffs, slow.coeffs, atol=1e-12)

    def test_requires_equal_n_max(self):
        with pytest.raises(ValueError):
            cubic_convolution(random_state(2), random_state(3), random_state(2))

    @pytest.mark.parametrize("call", [
        lambda u: cubic_convolution(u, u, u),
        nonlinearity_resonant,
        lambda u: exact_resonant_flow(u, 0.1),
    ], ids=["cubic_convolution", "nonlinearity_resonant", "exact_resonant_flow"])
    def test_overflow_refused_without_warning(self, call):
        # the non-finite product is refused at the FourierState boundary,
        # and the overflow on the way raises no RuntimeWarning
        with pytest.raises(ValueError, match="NaN or Inf"):
            call(FourierState(3, np.full(7, 1e160 + 0j)))


class TestSplitting:
    @given(small_state)
    @settings(max_examples=25, deadline=None)
    def test_resonant_plus_nonresonant_is_exact(self, u):
        conv = cubic_convolution(u, u, u)
        lhs = -1j * conv.coeffs
        split = nonlinearity_resonant(u).coeffs + nonlinearity_nonresonant(u).coeffs
        assert np.max(np.abs(lhs - split)) <= 1e-13 * max(1.0, np.max(np.abs(lhs)))

    def test_nonresonant_matches_enumeration(self):
        from fournls.resonance import enumerate_nonresonant

        u = random_state(3, seed=11)
        got = nonlinearity_nonresonant(u).coeffs
        for n in range(-3, 4):
            s = sum(
                u.mode(q.n1) * np.conj(u.mode(q.n2)) * u.mode(q.n3)
                for q in enumerate_nonresonant(n, 3)
            )
            assert np.isclose(got[n + 3], -1j * s, atol=1e-13)

    def test_full_and_wick_rhs_agree_on_definition(self):
        # wick rhs = full rhs + 2 i mu M0 c  (mass term removed by Wick ordering)
        u = random_state(6, seed=5)
        m0 = np.sum(np.abs(u.coeffs) ** 2)
        plan = grid_plan(u.n_max)
        r_full = _nonlinear_rhs_raw(u.coeffs, FULL, *plan)
        r_wick = _nonlinear_rhs_raw(u.coeffs, WICK, *plan)
        assert np.allclose(r_wick, r_full + 2j * m0 * u.coeffs, atol=1e-13)

    def test_linear_only_mode(self):
        u = random_state(4, seed=6)
        r = _nonlinear_rhs_raw(u.coeffs, EquationKind(Kind.FULL_4NLS, 0), *grid_plan(u.n_max))
        assert np.array_equal(r, np.zeros_like(u.coeffs))


class TestPlaneWaves:
    @pytest.mark.parametrize("kind,sign", [(Kind.FULL_4NLS, -1), (Kind.WICK_4WNLS, 1)])
    @pytest.mark.parametrize("mu", [1, -1])
    @pytest.mark.parametrize("scheme", [Scheme.EXP_RK4, Scheme.STRANG])
    def test_closed_form(self, kind, sign, mu, scheme):
        A, n0, T, dt = 0.8 - 0.3j, 2, 0.25, 1e-3
        u0 = FourierState.from_modes(4, {n0: A})
        tr = integrate(u0, T, IntegratorSpec(scheme, dt), EquationKind(kind, mu),
                       round(T / dt))
        exact = A * np.exp(1j * T * (n0**4 + sign * mu * abs(A) ** 2))
        final = tr[-1]
        assert abs(final.mode(n0) - exact) < 1e-8
        # all other modes stay empty
        off = sum(abs(final.mode(n)) for n in range(-final.n_max, final.n_max + 1)
                  if n != n0)
        assert off < 1e-12


class TestIntegrate:
    def test_t_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError):
            integrate(random_state(2), 0.105, IntegratorSpec(dt=1e-2), FULL)

    @pytest.mark.parametrize("T, dt", [(np.inf, 1e-2), (np.nan, 1e-2), (1e300, 1e-10)])
    def test_non_finite_step_count_rejected(self, T, dt):
        with pytest.raises(ValueError, match=re.escape(f"T={T} and dt={dt}")):
            integrate(random_state(2), T, IntegratorSpec(dt=dt), FULL)

    def test_stride_must_divide(self):
        with pytest.raises(ValueError):
            integrate(random_state(2), 0.1, IntegratorSpec(dt=1e-2), FULL,
                      sample_stride=3)

    def test_sampling_layout(self):
        tr = integrate(random_state(3), 0.1, IntegratorSpec(dt=1e-2), FULL,
                       sample_stride=5)
        assert len(tr) == 3
        assert np.allclose(tr.times, [0.0, 0.05, 0.1])

    def test_time_reversal_exp_rk4(self):
        u0 = random_state(6, seed=9)
        fwd = integrate(u0, 0.05, IntegratorSpec(Scheme.EXP_RK4, 1e-3), FULL, 50)
        back = integrate(fwd[-1], -0.05,
                         IntegratorSpec(Scheme.EXP_RK4, -1e-3), FULL, 50)
        # reversal error is the scheme's own O(dt^4) error, not roundoff
        assert np.max(np.abs(back[-1].coeffs - u0.coeffs)) < 1e-6

    def test_time_reversal_strang(self):
        u0 = random_state(6, seed=9)
        fwd = integrate(u0, 0.05, IntegratorSpec(Scheme.STRANG, 1e-3), FULL, 50)
        back = integrate(fwd[-1], -0.05,
                         IntegratorSpec(Scheme.STRANG, -1e-3), FULL, 50)
        # substeps are invertible phases, but the second lift changes the
        # collocation grid, so reversal is only scheme-accurate (O(dt^2))
        assert np.max(np.abs(back[-1].truncate_to(6).coeffs - u0.coeffs)) < 2e-4

    def test_order_of_accuracy_exp_rk4(self):
        u0 = random_state(6, seed=10)
        ref = integrate(u0, 0.02, IntegratorSpec(Scheme.EXP_RK4, 1.25e-5), FULL,
                        1600)[-1]
        errs = []
        for dt in (2e-4, 1e-4):
            got = integrate(u0, 0.02, IntegratorSpec(Scheme.EXP_RK4, dt), FULL,
                            round(0.02 / dt))[-1]
            errs.append(np.linalg.norm(got.coeffs - ref.coeffs))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 26.0  # fourth order: 16 expected

    def test_order_of_accuracy_strang(self):
        u0 = random_state(4, seed=10)
        ref = integrate(u0, 0.02, IntegratorSpec(Scheme.STRANG, 1.25e-6), FULL,
                        16000)[-1]
        errs = []
        for dt in (2e-4, 1e-4):
            got = integrate(u0, 0.02, IntegratorSpec(Scheme.STRANG, dt), FULL,
                            round(0.02 / dt))[-1]
            errs.append(np.linalg.norm(got.coeffs - ref.coeffs))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.5  # second order: 4 expected

    def test_strang_mass_exact(self):
        u0 = random_state(8, seed=3)
        tr = integrate(u0, 0.5, IntegratorSpec(Scheme.STRANG, 1e-3), FULL, 500)
        m = mass(tr.coeffs)
        assert abs(m[-1] - m[0]) < 1e-13

    def test_numeric_failure_carries_step_index(self):
        u0 = random_state(6, seed=1, norm=1e8)
        with pytest.raises(NumericFailure) as exc:
            integrate(u0, 10.0, IntegratorSpec(Scheme.EXP_RK4, 1.0), FULL)
        assert exc.value.step_index >= 0

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_overflow_is_numeric_failure_without_warning(self, scheme):
        # tests run with warnings as errors: a leaked RuntimeWarning fails here
        u0 = FourierState(2, np.full(5, 1e160 + 0j))
        with pytest.raises(NumericFailure) as exc:
            integrate(u0, 0.01, IntegratorSpec(scheme, 1e-3), FULL)
        assert exc.value.step_index == 0

    def test_zero_T_returns_datum(self):
        u0 = random_state(3)
        tr = integrate(u0, 0.0, IntegratorSpec(dt=1e-3), FULL)
        assert len(tr) == 1 and np.array_equal(tr[0].coeffs, u0.coeffs)

    def test_numeric_failure_step_index_in_batch(self):
        bad, good = random_state(2, seed=1, norm=9.0), random_state(2, seed=2)
        spec = IntegratorSpec(Scheme.EXP_RK4, 1e-2)
        with pytest.raises(NumericFailure) as alone:
            integrate(bad, 1.0, spec, FULL)
        assert alone.value.step_index > 0  # the row survives its first step
        for rows in ([bad, good], [good, bad, good]):
            with pytest.raises(NumericFailure) as batch:
                integrate_batch(np.stack([u.coeffs for u in rows]), 1.0, spec, FULL)
            assert batch.value.step_index == alone.value.step_index

    @pytest.mark.parametrize("data, T, stride", [
        (np.zeros((2, 5)), 0.105, 1),  # T not a multiple of dt
        (np.zeros((2, 5)), 0.1, 3),  # stride does not divide the steps
        (np.zeros((2, 5)), 0.1, 0),
        (np.zeros((2, 4)), 0.1, 1),  # even width
        (np.zeros(5), 0.1, 1),  # one row is not a batch
        (np.zeros((0, 5)), 0.1, 1),
        (np.full((2, 5), np.nan), 0.1, 1),
    ])
    def test_batch_argument_checks(self, data, T, stride):
        with pytest.raises(ValueError):
            integrate_batch(data, T, IntegratorSpec(dt=1e-2), FULL, stride)

    @pytest.mark.parametrize("n_max", [5, 8, 16])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_batch_matches_loop(self, case, batch, n_max):
        spec, kind = KERNEL_CASES[case]
        rows = [random_state(n_max, seed=seed) for seed in range(batch)]
        out = integrate_batch(np.stack([u.coeffs for u in rows]), 6e-3, spec, kind, 2)
        assert not out.flags.writeable
        for b, u in enumerate(rows):
            tr = integrate(u, 6e-3, spec, kind, 2)
            assert out.shape == (len(tr), batch, 2 * tr.n_max + 1)
            assert np.array_equal(out[:, b].view(np.float64), tr.coeffs.view(np.float64))

    def test_strang_radius_independent_of_T(self):
        u0 = FourierState.from_modes(6, {1: 0.5, 5: 0.3})
        spec = IntegratorSpec(Scheme.STRANG, 1e-3)
        radii = {integrate(u0, T, spec, FULL).n_max for T in (0.0, 1e-3, 5e-3)}
        assert len(radii) == 1 and radii.pop() > u0.n_max


class TestExactResonantFlow:
    def test_moduli_preserved(self):
        u0 = random_state(5, seed=4)
        v = exact_resonant_flow(u0, 0.7, mu=1)
        assert np.allclose(np.abs(v.coeffs), np.abs(u0.coeffs), atol=1e-14)

    def test_derivative_matches_resonant_rhs(self):
        u0 = random_state(5, seed=4)
        t = 1e-7
        v = exact_resonant_flow(u0, t, mu=1)
        deriv = (v.coeffs - u0.coeffs) / t
        assert np.max(np.abs(deriv - nonlinearity_resonant(u0).coeffs)) < 1e-5

    def test_group_property(self):
        u0 = random_state(5, seed=8)
        a = exact_resonant_flow(exact_resonant_flow(u0, 0.3), 0.4)
        b = exact_resonant_flow(u0, 0.7)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-13)


class TestStep:
    def test_strang_step_returns_input_radius(self):
        u0 = random_state(5, seed=6)
        out = step(u0, IntegratorSpec(Scheme.STRANG, 1e-3), FULL)
        assert out.n_max == 5

    @pytest.mark.parametrize("case", KERNEL_CASES)
    @pytest.mark.parametrize("k", [1, 7])
    def test_single_step_matches_integrate(self, k, case):
        spec, kind = KERNEL_CASES[case]
        u0 = random_state(5, seed=6)
        u = integrate(u0, 0.0, spec, kind)[-1]  # the datum, lifted under STRANG
        for _ in range(k):
            u = step(u, spec, kind)
        tr = integrate(u0, k * 1e-3, spec, kind, 1)
        assert np.array_equal(u.coeffs, tr[-1].coeffs)

    def test_repeated_strang_steps_conserve_mass(self):
        u0 = random_state(6, seed=6)
        spec = IntegratorSpec(Scheme.STRANG, 1e-3)
        u = u0
        for _ in range(200):
            u = step(u, spec, FULL)
        assert abs(mass(u) - 1.0) <= 1e-12
