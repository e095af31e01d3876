import warnings

import numpy as np
import pytest

from conftest import random_state
from fournls.diagnostics import (
    SpaceTimeField,
    dyadic_gap_profile,
    hamiltonian,
    mass,
    modulus_rate,
    smoothing_gap,
    symplectic_form,
    ysb_norm,
)
from fournls.dynamics import (
    FULL,
    WICK,
    EquationKind,
    IntegratorSpec,
    Kind,
    Scheme,
    exact_resonant_flow,
    integrate,
    integrate_batch,
    step,
)
from fournls.resonance import ModifiedPhase, normal_form_boundary
from fournls.spectrum import FourierState, Trajectory, blocks_covering, c2c, resize


class TestMassHamiltonian:
    def test_mass_parseval(self):
        u = random_state(6, seed=1, norm=2.5)
        assert np.isclose(mass(u), 6.25, rtol=1e-13)

    def test_hamiltonian_quartic_vs_quadruple_sum(self):
        # oracle: direct sum over n1-n2+n3-n4=0 within the truncation
        u = random_state(3, seed=2)
        nm = 3
        quartic = 0.0 + 0.0j
        for n1 in range(-nm, nm + 1):
            for n2 in range(-nm, nm + 1):
                for n3 in range(-nm, nm + 1):
                    n4 = n1 - n2 + n3
                    if abs(n4) <= nm:
                        quartic += (u.mode(n1) * np.conj(u.mode(n2))
                                    * u.mode(n3) * np.conj(u.mode(n4)))
        quadratic = sum(n**4 * abs(u.mode(n)) ** 2 for n in range(-nm, nm + 1))
        expected = quadratic - 0.5 * quartic.real
        assert np.isclose(hamiltonian(u, 1), expected, rtol=1e-12)

    def test_hamiltonian_mu_dependence(self):
        u = random_state(4, seed=3)
        quad = sum(n**4 * abs(u.mode(n)) ** 2 for n in range(-4, 5))
        assert np.isclose(hamiltonian(u, 1) + hamiltonian(u, -1), 2 * quad,
                          rtol=1e-12)

    def test_conserved_along_truncated_flow(self):
        u0 = random_state(8, seed=4)
        tr = integrate(u0, 0.01, IntegratorSpec(Scheme.EXP_RK4, 1e-5),
                       FULL, 1000)
        h = hamiltonian(tr.coeffs)
        assert abs(h[-1] - h[0]) < 1e-9

    def test_one_state_gives_a_float(self):
        u = random_state(5, seed=6)
        assert type(mass(u)) is float and type(hamiltonian(u, -1)) is float
        assert mass(u) == mass(u.coeffs) and hamiltonian(u, -1) == hamiltonian(u.coeffs, -1)

    @pytest.mark.parametrize("f, typ", [
        (mass, float),
        (hamiltonian, float),
        (lambda u: symplectic_form(u, u.with_coeffs(1j * u.coeffs)), float),
        (lambda u: normal_form_boundary(u, 0), complex),
        (lambda u: ModifiedPhase(u).weight(0), float),
        (lambda u: ModifiedPhase(u).mu_array(3), np.ndarray),
    ], ids=["mass", "hamiltonian", "symplectic_form", "normal_form_boundary", "weight",
            "mu_array"])
    def test_overflow_gives_a_nonfinite_float_without_warning(self, f, typ):
        """A float, or the complex or array the function returns, all non-finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(FourierState(3, np.full(7, 1e160 + 0j)))
        assert type(got) is typ and not np.any(np.isfinite(got))

    @pytest.mark.parametrize("f", [
        lambda tr: mass(tr.coeffs),
        lambda tr: hamiltonian(tr.coeffs),
        smoothing_gap,
        lambda tr: np.stack(list(dyadic_gap_profile(tr, 0.5).values())),
        lambda tr: ysb_norm(SpaceTimeField(tr), 1.0, 0.5),
        lambda tr: ysb_norm(SpaceTimeField(tr), 1.0, 0.5, z_part=True),
        lambda tr: SpaceTimeField(tr, phase="modified").tilde,
    ], ids=["mass-rows", "hamiltonian-rows", "smoothing_gap", "dyadic_gap_profile", "ysb_norm",
            "ysb_norm-z_part", "tilde-modified"])
    def test_trajectory_overflow_gives_nonfinite_values_without_warning(self, f):
        """The row and trajectory functions, on amplitudes whose squares overflow."""
        traj = Trajectory(0.0, 0.1, np.full((10, 7), 1e160 + 0j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(traj)
        assert not np.any(np.isfinite(got))

    @pytest.mark.parametrize("f", [
        lambda tr: np.stack(list(dyadic_gap_profile(tr, np.inf).values())),
        lambda tr: np.stack(list(dyadic_gap_profile(tr, 1e300).values())),
        lambda tr: ysb_norm(SpaceTimeField(tr), 1e300, 0.5),
        lambda tr: ysb_norm(SpaceTimeField(tr), 1e300, 0.5, z_part=True),
        lambda tr: modulus_rate(tr[0], np.inf),
        lambda tr: Trajectory(0.0, 1e308, tr.coeffs).times[2:],  # t >= 2e308
    ], ids=["dyadic_gap_profile-s-inf", "dyadic_gap_profile-s-1e300", "ysb_norm-s-1e300",
            "ysb_norm-z_part-s-1e300", "modulus_rate-mu_sign-inf", "times-dt-1e308"])
    def test_overflowing_parameter_gives_nonfinite_values_without_warning(self, f):
        """A plane wave, whose gaps and rates are 0, and a weight exponent,
        sign or sample spacing that overflows: 0 * inf is nan."""
        wave = FourierState.from_modes(3, {1: 1.0}).coeffs
        traj = Trajectory(0.0, 0.1, np.tile(wave, (10, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(traj)
        assert not np.any(np.isfinite(got))

    @pytest.mark.parametrize("scheme", [Scheme.EXP_RK4, Scheme.STRANG])
    @pytest.mark.parametrize("kind", [FULL, WICK, EquationKind(Kind.FULL_4NLS, -1)],
                             ids=["full", "wick", "mu-1"])
    def test_rows_equal_per_state_loop(self, scheme, kind):
        spec = IntegratorSpec(scheme, 1e-3)
        data = np.stack([random_state(16, seed=k).coeffs for k in range(3)])
        traj = integrate(FourierState(16, data[0]), 0.01, spec, kind)
        batch = integrate_batch(data, 0.01, spec, kind)  # (samples, B, 2N+1)
        for rows in (traj.coeffs, batch):
            n_max = (rows.shape[-1] - 1) // 2
            states = [FourierState(n_max, r) for r in rows.reshape(-1, rows.shape[-1])]
            for f in (mass, lambda u: hamiltonian(u, kind.mu)):
                got = f(rows)
                expected = np.array([f(s) for s in states]).reshape(rows.shape[:-1])
                assert got.shape == rows.shape[:-1]
                assert np.array_equal(got.view(np.float64), expected.view(np.float64))


class TestSymplecticForm:
    def test_antisymmetry_diagonal(self):
        u = random_state(3, seed=5)
        assert abs(symplectic_form(u, u)) < 1e-14

    def test_worked_example(self):
        u = FourierState.from_modes(0, {0: 1.0})
        v = FourierState.from_modes(0, {0: 1j})
        assert np.isclose(symplectic_form(u, v), 2 * np.pi, rtol=1e-14)

    def test_pairing_with_iu_gives_mass(self):
        u = random_state(4, seed=6, norm=1.7)
        w = u.with_coeffs(1j * u.coeffs)
        assert np.isclose(symplectic_form(u, w), 2 * np.pi * mass(u), rtol=1e-13)

    def test_real_bilinearity(self):
        u, v = random_state(3, seed=7), random_state(3, seed=8)
        assert np.isclose(symplectic_form(u.with_coeffs(2.5 * u.coeffs), v),
                          2.5 * symplectic_form(u, v), rtol=1e-13)

    def test_antisymmetry(self):
        u, v = random_state(4, seed=9), random_state(4, seed=10)
        assert np.isclose(symplectic_form(v, u), -symplectic_form(u, v), rtol=1e-13)

    def test_invariant_under_multiplication_by_i(self):
        u, v = random_state(4, seed=11), random_state(4, seed=12)
        iu, iv = u.with_coeffs(1j * u.coeffs), v.with_coeffs(1j * v.coeffs)
        assert np.isclose(symplectic_form(iu, iv), symplectic_form(u, v), rtol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_form(random_state(2), random_state(3))


class TestSmoothingGap:
    def test_zero_at_t0(self):
        tr = integrate(random_state(5, seed=1), 0.01,
                       IntegratorSpec(Scheme.EXP_RK4, 1e-3), FULL, 1)
        assert smoothing_gap(tr)[0] == 0.0

    def test_resonant_flow_has_zero_gap(self):
        u0 = random_state(5, seed=2)
        states = tuple(exact_resonant_flow(u0, 0.1 * k) for k in range(6))
        tr = Trajectory(0.0, 0.1, [s.coeffs for s in states])
        assert np.max(smoothing_gap(tr)) < 1e-14

    def test_finite_difference_matches_modulus_rate(self):
        u0 = random_state(6, seed=3)
        dt = 1e-6
        u1 = step(u0, IntegratorSpec(Scheme.EXP_RK4, dt), FULL)
        um = step(u0, IntegratorSpec(Scheme.EXP_RK4, -dt), FULL)
        fd = (np.abs(u1.coeffs) ** 2 - np.abs(um.coeffs) ** 2) / (2 * dt)
        rate = modulus_rate(u0, 1)
        assert np.max(np.abs(fd - rate)) < 1e-6  # central difference, O(dt^2)

    def test_modulus_rate_against_enumeration(self):
        from fournls.resonance import enumerate_nonresonant

        u = random_state(4, seed=9)
        rate = modulus_rate(u, 1)
        for n in range(-4, 5):
            s = sum(u.mode(q.n1) * np.conj(u.mode(q.n2)) * u.mode(q.n3)
                    for q in enumerate_nonresonant(n, 4))
            expected = 2.0 * np.imag(s * np.conj(u.mode(n)))
            assert np.isclose(rate[n + 4], expected, atol=1e-13)


class TestDyadicGapProfile:
    def _traj(self):
        u0 = random_state(10, seed=4)
        return integrate(u0, 0.02, IntegratorSpec(Scheme.EXP_RK4, 1e-3), FULL, 4)

    def test_zero_at_t0(self):
        prof = dyadic_gap_profile(self._traj(), 1.0)
        for series in prof.values():
            assert series[0] == 0.0

    def test_direct_summation_oracle(self):
        tr = self._traj()
        prof = dyadic_gap_profile(tr, 0.75)
        arr = np.abs(tr.coeffs) ** 2
        gap = np.abs(arr - arr[0])
        for block in blocks_covering(tr.n_max):
            expected = np.zeros(len(tr))
            for i, n in enumerate(range(-tr.n_max, tr.n_max + 1)):
                if block.contains(n):
                    expected += (1.0 + n * n) ** 0.75 * gap[:, i]
            assert np.allclose(prof[block.level], expected, atol=1e-15)

    def test_single_mode_localized(self):
        u0 = FourierState.from_modes(10, {5: 1.0})
        states = (u0, u0.with_coeffs(u0.coeffs * 0.5))
        tr = Trajectory(0.0, 0.1, [s.coeffs for s in states])
        prof = dyadic_gap_profile(tr, 0.0)
        for block in blocks_covering(10):
            if block.contains(5):
                assert prof[block.level][1] > 0
            else:
                assert prof[block.level][1] == 0.0


class TestYsbNorm:
    def _traj(self, n_max=6, samples=32, dt=1e-2, seed=5):
        u0 = random_state(n_max, seed=seed)
        T = samples * dt
        return integrate(u0, T, IntegratorSpec(Scheme.EXP_RK4, dt), FULL, 1)

    def test_minimum_samples(self):
        u0 = random_state(3)
        tr = Trajectory(0.0, 0.1, [u0.coeffs] * 4)
        with pytest.raises(ValueError):
            SpaceTimeField(tr)

    def test_unknown_window(self):
        with pytest.raises(ValueError, match="unknown window 'hann'"):
            SpaceTimeField(self._traj(), "hann")

    def test_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase 'mu'"):
            SpaceTimeField(self._traj(), "rect", "mu")

    def test_b0_is_tapered_parseval(self):
        tr = self._traj()
        field = SpaceTimeField(tr, "cosine")
        val = ysb_norm(field, 0.0, 0.0)
        # unitary time-DFT: b=0, s=0 equals the l2 norm of the tapered samples
        arr = tr.coeffs * field.taper[:, None]
        assert np.isclose(val, np.linalg.norm(arr), rtol=1e-10)

    def test_rectangular_window_b0(self):
        tr = self._traj()
        field = SpaceTimeField(tr, "rect")
        assert np.isclose(ysb_norm(field, 0.0, 0.0),
                          np.linalg.norm(tr.coeffs), rtol=1e-12)

    def test_linear_solution_concentrates_plain_phase(self):
        # c_{n0} e^{it n0^4}: in the plain interaction picture this is DC,
        # so only the tau=0 bin carries energy
        n0, amp, K, dt = 2, 0.9, 64, 1e-2
        u0 = FourierState.from_modes(3, {n0: amp})
        times = dt * np.arange(K)
        states = tuple(
            u0.with_coeffs(u0.coeffs * np.exp(1j * t * n0**4)) for t in times
        )
        field = SpaceTimeField(Trajectory(0.0, dt, [s.coeffs for s in states]), "rect")
        col = np.abs(field.tilde[:, n0 + 3])
        assert col[0] > 0.999 * np.linalg.norm(col)

    def test_modified_phase_shifts_concentration(self):
        # modified-linear solution c e^{it mu(n0)} is DC only under the
        # matching modified-phase reduction, whose mu is that of the first sample
        n0, amp, K, dt = 1, 1.3, 64, 5e-2
        u0 = FourierState.from_modes(2, {n0: amp})
        phase = ModifiedPhase(u0)
        mu = phase.mu(n0)
        times = dt * np.arange(K)
        states = tuple(
            u0.with_coeffs(u0.coeffs * np.exp(1j * t * mu)) for t in times
        )
        tr = Trajectory(0.0, dt, [s.coeffs for s in states])
        col = np.abs(SpaceTimeField(tr, "rect", "modified").tilde[:, n0 + 2])
        assert col[0] > 0.999 * np.linalg.norm(col)
        # with the plain n^4 phase the energy moves off the DC bin
        col_plain = np.abs(SpaceTimeField(tr, "rect", "plain").tilde[:, n0 + 2])
        assert col_plain[0] < 0.9 * np.linalg.norm(col_plain)

    def test_z_part_single_bin(self):
        # signal in exactly one tau bin: z-part equals the l2 value
        tr = self._traj(samples=16)
        field = SpaceTimeField(tr, "rect")
        z = ysb_norm(field, 0.5, 0.0, z_part=True)
        assert z >= ysb_norm(field, 0.5, 0.0) - 1e-12  # l1 >= l2 per mode

    @pytest.mark.parametrize("samples, n_max", [(8, 1), (9, 1), (2001, 32)])
    @pytest.mark.parametrize("modified", [False, True], ids=["plain", "modified"])
    def test_bit_equal_to_the_one_line_expressions(self, samples, n_max, modified):
        # the field's time DFT and ysb_norm work in place; their values are
        # those of the plain expressions below.
        rng = np.random.default_rng(samples)
        shape = (samples, 2 * n_max + 1)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tr = Trajectory(0.1, 1e-4, c)
        field = SpaceTimeField(tr, "cosine", "modified" if modified else "plain")
        ns = np.arange(-n_max, n_max + 1)
        phi = ModifiedPhase(tr[0]).mu_array(n_max) if modified else ns.astype(np.float64) ** 4
        reduced = np.exp(-1j * np.outer(tr.times, phi)) * tr.coeffs
        tilde = c2c(field.taper[:, None] * reduced, (0,), True, 1, None, 1)  # unitary
        tau = 2.0 * np.pi * np.fft.fftfreq(samples, d=tr.dt)
        assert field.tau.tobytes() == tau.tobytes() and field.tilde.tobytes() == tilde.tobytes()
        wn = (1.0 + ns.astype(np.float64) ** 2) ** 0.5
        for b in (0.0, 0.49, 1.0):
            wt = (1.0 + tau**2) ** b
            want = float(np.sqrt(np.sum(wn[None, :] * wt[:, None] * np.abs(tilde) ** 2)))
            assert ysb_norm(field, 0.5, b) == want
        want = float(np.sqrt(np.sum(wn * np.sum(np.abs(tilde), axis=0) ** 2)))
        assert ysb_norm(field, 0.5, 0.0, z_part=True) == want

    @pytest.mark.parametrize("phase", ["plain", "modified"])
    def test_modes_of_a_mode_crop_are_the_crop_of_the_modes(self, phase):
        # 2001 x 65 amplitudes hold 2.1 MB and 2001 x 5 hold 160 KB, on
        # either side of numpy's 256 KiB temporary-elision threshold. The
        # crop's first sample is the crop of the full first sample, so both
        # modified fields divide out the same mu(n), |n| <= 2.
        rng = np.random.default_rng(7)
        c = rng.normal(size=(2001, 65)) + 1j * rng.normal(size=(2001, 65))
        full, crop = Trajectory(0.1, 1e-4, c), Trajectory(0.1, 1e-4, resize(c, 2))
        field, field_crop = SpaceTimeField(full, phase=phase), SpaceTimeField(crop, phase=phase)
        assert field_crop.tau.tobytes() == field.tau.tobytes()
        assert field_crop.tilde.tobytes() == resize(field.tilde, 2).tobytes()

    def test_weights_increase_with_b(self):
        tr = self._traj()
        field = SpaceTimeField(tr, "cosine")
        assert ysb_norm(field, 0.0, 1.0) >= ysb_norm(field, 0.0, 0.5)
