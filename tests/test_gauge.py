import warnings

import numpy as np
import pytest

from conftest import random_state
from fournls.dynamics import FULL, IntegratorSpec, Scheme, integrate
from fournls.gauge import gauge_apply, gauge_equivalence_check
from fournls.spectrum import mass


class TestGaugeTransform:
    def test_identity_at_t0(self):
        u = random_state(4, seed=1)
        assert np.array_equal(gauge_apply(u, 0.0, 1.0).coeffs, u.coeffs)

    def test_round_trip(self):
        u = random_state(4, seed=1)
        v = gauge_apply(u, 0.37, 0.8, mu_sign=-1)
        back = gauge_apply(v, -0.37, 0.8, mu_sign=-1)
        assert np.allclose(back.coeffs, u.coeffs, atol=1e-15)

    def test_round_trip_rows_with_a_list_of_times(self):
        rows = np.stack([random_state(4, seed=1).coeffs, random_state(4, seed=2).coeffs])
        v = gauge_apply(rows, [0.1, 0.2], 0.8)
        assert np.allclose(gauge_apply(v, [-0.1, -0.2], 0.8), rows, atol=1e-15)

    def test_pure_phase(self):
        u = random_state(4, seed=2)
        v = gauge_apply(u, 1.3, 0.9)
        assert np.allclose(np.abs(v.coeffs), np.abs(u.coeffs), atol=0)
        phase = v.coeffs / u.coeffs
        assert np.allclose(phase, np.exp(2j * 1.3 * 0.9), atol=1e-15)

    @pytest.mark.parametrize("mu_sign", [1, -1])
    @pytest.mark.parametrize("scheme", [Scheme.EXP_RK4, Scheme.STRANG])
    def test_rows_equal_per_sample_loop(self, scheme, mu_sign):
        u0 = random_state(6, seed=8)
        traj = integrate(u0, 0.02, IntegratorSpec(scheme, 1e-3), FULL, 2)
        m0 = mass(u0)
        rows = gauge_apply(traj.coeffs, traj.times, m0, mu_sign)
        loop = [gauge_apply(traj[k], t, m0, mu_sign).coeffs for k, t in enumerate(traj.times)]
        assert rows.shape == traj.coeffs.shape
        assert np.array_equal(rows, np.stack(loop))

    def test_invert_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="mass0 must be nonnegative"):
            gauge_apply(random_state(4, seed=1), 0.37, -0.8)

    @pytest.mark.parametrize("mass0", [np.nan, np.inf])
    def test_rejects_non_finite_mass(self, mass0):
        with pytest.raises(ValueError, match="mass0 must be nonnegative and finite"):
            gauge_apply(np.ones((2, 5)), np.zeros(2), mass0)

    @pytest.mark.parametrize("t", [1e308, np.inf], ids=["1e308", "inf"])
    def test_overflowing_time_gives_nonfinite_rows_without_warning(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gauge_apply(np.ones((2, 5)), t, 1.0)
        assert not np.any(np.isfinite(got))

    def test_overflowing_time_on_a_state_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coeffs contain NaN or Inf"):
                gauge_apply(random_state(4, seed=1), 1e308, 1.0)


class TestGaugeEquivalence:
    def test_small_gap_random_datum(self):
        u0 = random_state(8, seed=3)
        rep = gauge_equivalence_check(u0, 0.2, 5e-4, mu_sign=1, sample_stride=40)
        assert rep.max_gap < 1e-6
        assert rep.gaps[0] == 0.0
        assert len(rep.gaps) == len(rep.times)

    def test_gap_is_integrator_error(self):
        # halving dt shrinks the gap by roughly 2^4 (the schemes are 4th order)
        u0 = random_state(6, seed=4)
        g1 = gauge_equivalence_check(u0, 0.1, 2e-3, sample_stride=50).max_gap
        g2 = gauge_equivalence_check(u0, 0.1, 1e-3, sample_stride=100).max_gap
        assert 8.0 < g1 / g2 < 32.0

    @pytest.mark.parametrize("scheme", [Scheme.EXP_RK4, Scheme.STRANG])
    def test_aligned_gap_splits_off_global_phase(self, scheme):
        # dt * N^4 ~ 1e3: the EXP_RK4 gap is the global phase of its mass
        # drift; the unitary STRANG flows agree to roundoff either way
        u0 = random_state(32, seed=7)
        rep = gauge_equivalence_check(u0, 0.1, 1e-3, IntegratorSpec(scheme),
                                      sample_stride=10)
        assert rep.aligned_gaps[0] <= 1e-15
        if scheme is Scheme.EXP_RK4:
            assert np.max(rep.aligned_gaps) < 1e-3 * rep.max_gap
        else:
            assert rep.max_gap <= 1e-13 and np.max(rep.aligned_gaps) <= 1e-13

    def test_defensive_spec_dt_override(self):
        u0 = random_state(4, seed=5)
        spec = IntegratorSpec(Scheme.EXP_RK4, 123.0)
        with pytest.raises(ValueError, match="spec.dt"):
            gauge_equivalence_check(u0, 0.01, 1e-3, spec=spec, sample_stride=10)
