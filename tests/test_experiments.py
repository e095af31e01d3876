import json
import math
import re

import numpy as np
import pytest

from fournls.experiments import (
    ExperimentReport,
    ProfileKind,
    ProfileSpec,
    derive_rng,
    fit_decay_rate,
    high_frequency_perturbation,
    run_approximation_study,
    run_perturbation_study,
    run_squeeze_probe,
)
from fournls.spectrum import FourierState


class TestDerivedRng:
    def test_deterministic(self):
        a = derive_rng(7, "task", 3).normal(size=4)
        b = derive_rng(7, "task", 3).normal(size=4)
        assert np.array_equal(a, b)

    def test_key_sensitivity(self):
        a = derive_rng(7, "task", 3).normal(size=4)
        b = derive_rng(7, "task", 4).normal(size=4)
        c = derive_rng(8, "task", 3).normal(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestProfiles:
    def test_amplitude_is_l2_norm(self):
        for kind in (ProfileKind.EXP_DECAY, ProfileKind.POWER_DECAY):
            u = ProfileSpec(kind, amplitude=2.0, decay=0.4, seed=0).build(10)
            assert np.isclose(np.linalg.norm(u.coeffs), 2.0, rtol=1e-12)

    def test_single_mode(self):
        u = ProfileSpec(ProfileKind.SINGLE_MODE, amplitude=1.5, decay=0.0,
                        seed=0, mode=3).build(5)
        assert np.isclose(abs(u.mode(3)), 1.5)
        assert np.isclose(np.linalg.norm(u.coeffs), 1.5)

    def test_seed_determinism(self):
        spec = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.3, seed=5)
        assert np.array_equal(spec.build(8).coeffs, spec.build(8).coeffs)

    @pytest.mark.parametrize("kind, decay", [
        (ProfileKind.EXP_DECAY, -1000.0),
        (ProfileKind.POWER_DECAY, -1000.0),
        (ProfileKind.EXP_DECAY, math.nan),
    ])
    def test_unnormalisable_profile_names_decay(self, kind, decay):
        with pytest.raises(ValueError, match=f"{kind.value} profile .*decay="):
            ProfileSpec(kind, decay=decay).build(8)

    def test_kind_must_be_a_member(self):
        with pytest.raises(ValueError, match="kind must be a ProfileKind, got 'single_mode'"):
            ProfileSpec("single_mode")

    def test_single_mode_outside_truncation(self):
        with pytest.raises(ValueError, match="single mode outside truncation"):
            ProfileSpec(ProfileKind.SINGLE_MODE, mode=6).build(5)


class TestFitDecayRate:
    def test_exact_power_law(self):
        table = [(n, 3.0 * n**-2.5) for n in (8, 16, 32, 64)]
        rate, intercept, resid = fit_decay_rate(table)
        assert np.isclose(rate, 2.5, atol=1e-12)
        assert np.isclose(intercept, math.log(3.0), atol=1e-12)
        assert resid < 1e-13

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            fit_decay_rate([(1, 1.0), (2, 0.5)])

    def test_requires_positive_values(self):
        with pytest.raises(ValueError):
            fit_decay_rate([(1, 1.0), (2, 0.5), (3, 0.0)])


class TestReports:
    def test_json_round_trip(self):
        rep = ExperimentReport("demo", {"a": 1}, [{"N": 2, "error": 0.5}])
        doc = json.loads(rep.to_json())
        assert doc["kind"] == "demo" and doc["params"] == {"a": 1}

    def test_stamp_deterministic_zeroes_time(self):
        rep = ExperimentReport("demo", {}, [])
        rep.stamp(deterministic=True)
        assert rep.created == 0.0
        rep.stamp(deterministic=False)
        assert rep.created > 0.0



PROFILE = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.3, seed=2)

LADDER_STUDIES = {
    "approx": lambda ladder: run_approximation_study(PROFILE, ladder, 2, 0.01, 1e-3),
    "perturb": lambda ladder: run_perturbation_study(PROFILE, ladder, 0.05, 0.01, 1e-3,
                                                     trials=1),
}

STUDIES_TO_T = {
    "approx": lambda T: run_approximation_study(PROFILE, [2, 3], 2, T, 1e-3),
    "perturb": lambda T: run_perturbation_study(PROFILE, [2, 3], 0.05, T, 1e-3, trials=1),
    "squeeze": lambda T: run_squeeze_probe(FourierState.zeros(4), 1.0, 0.5, 1, 0j, T, 4,
                                           1e-3, samples=4),
}


class TestStudyInputs:
    @pytest.mark.parametrize("study", sorted(LADDER_STUDIES))
    @pytest.mark.parametrize("ladder", [[32, 16], [4, 4], [], [0, 1, 2], [-3]],
                             ids=["decreasing", "repeated", "empty", "zero-rung", "negative"])
    def test_ladder_must_be_positive_increasing_nonempty(self, study, ladder):
        with pytest.raises(ValueError, match="N ladder must be positive, strictly increasing"):
            LADDER_STUDIES[study](ladder)

    @pytest.mark.parametrize("study", sorted(STUDIES_TO_T))
    def test_infinite_T_names_T_and_dt(self, study):
        with pytest.raises(ValueError, match=re.escape("T=inf and dt=0.001")):
            STUDIES_TO_T[study](math.inf)

    def test_perturbation_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_perturbation_study(PROFILE, [4], 0.05, 0.01, 1e-3, trials=0)

    @pytest.mark.parametrize("norm", [-0.1, math.nan])
    def test_perturbation_norm_must_be_nonnegative(self, norm):
        with pytest.raises(ValueError, match="perturbation_norm must be nonnegative"):
            run_perturbation_study(PROFILE, [4], norm, 0.01, 1e-3, trials=1)


class TestPerturbation:
    def test_support_outside_n_prime(self):
        d = high_frequency_perturbation(np.random.default_rng(0), 4, 10, 0.25)
        assert np.all(d.coeffs[np.abs(np.arange(-10, 11)) <= 4] == 0.0)
        assert np.isclose(np.linalg.norm(d.coeffs), 0.25, rtol=1e-12)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty perturbation support"):
            high_frequency_perturbation(np.random.default_rng(0), 10, 10, 0.25)

    @pytest.mark.parametrize("steps, stride", [
        (0, 1), (49, 1), (50, 1), (97, 1), (100, 2), (200, 4), (210, 3)])
    def test_sample_stride_keeps_fifty_samples(self, steps, stride):
        # the largest divisor of the step count that leaves >= 50 samples, else 1
        dt = 2.0**-10
        rep = run_perturbation_study(PROFILE, [1], 0.05, steps * dt, dt, trials=1)
        assert rep.params["sample_stride"] == stride

    def test_zero_norm_perturbation_gives_zero_divergence(self):
        profile = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.3, seed=2)
        rep = run_perturbation_study(profile, [6], 0.0, 0.01, 1e-3,
                                     trials=2, seed=0)
        assert rep.table[0]["divergence"] == 0.0

    def test_report_structure(self):
        profile = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.3, seed=2)
        rep = run_perturbation_study(profile, [4, 6], 0.05, 0.01, 1e-3,
                                     trials=2, seed=3)
        assert [r["N_prime"] for r in rep.table] == [4, 6]
        assert all(r["divergence"] >= 0.0 for r in rep.table)
        assert rep.params["seed"] == 3


class TestApproximation:
    def test_validates_ladder(self):
        profile = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.3, seed=0)
        with pytest.raises(ValueError):
            run_approximation_study(profile, [8, 8], 2, 0.01, 1e-3)
        with pytest.raises(ValueError):
            run_approximation_study(profile, [8, 16], 1, 0.01, 1e-3)

    def test_errors_nonnegative_and_fit_present(self):
        profile = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.4, seed=1)
        rep = run_approximation_study(profile, [6, 8, 10, 12], 2, 0.02, 1e-3)
        assert all(r["error"] >= 0.0 for r in rep.table)
        if rep.fitted is not None:
            assert rep.fitted["rate"] == rep.fitted["rate"]  # not NaN

    def test_richardson_reference_stability(self):
        # doubling the reference factor moves the measured errors by < 10%
        profile = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.15, seed=4)
        a = run_approximation_study(profile, [8, 12, 16], 4, 0.05, 1e-3)
        b = run_approximation_study(profile, [8, 12, 16], 8, 0.05, 1e-3)
        for ra, rb in zip(a.table, b.table):
            if ra["error"] > 1e-12:
                assert abs(ra["error"] - rb["error"]) < 0.1 * ra["error"]

    def test_decay_in_n_where_dt_converged(self):
        """Where the study measures truncation, not Lawson RK4's time step,
        error(N) decreases in N. Ladder (2, 4, 8), T = 0.05, ref x4,
        exp-decay 0.05, amplitude 1, seed 0 (numpy 2.4.6):

            | dt   | error(2) | error(4) | error(8) | fitted sigma |
            | 1e-4 | 5.768e-5 | 1.210e-5 | 3.346e-6 | 2.05         |
            | 5e-5 | 5.768e-5 | 1.210e-5 | 3.471e-6 | 2.03         |

        Halving dt moves the errors by 0.00%, 0.00% and 3.73%. The top rung
        of (4, 8, 16) or (8, 16, 32) still moves 38-51% at dt = 2.5e-5.
        """
        profile = ProfileSpec(ProfileKind.EXP_DECAY, 1.0, 0.05, seed=0)
        errors = [[r["error"] for r in run_approximation_study(
            profile, [2, 4, 8], 4, 0.05, dt).table] for dt in (1e-4, 5e-5)]
        for coarse, fine in zip(*errors):
            assert abs(coarse - fine) < 0.1 * coarse
        for errs in errors:
            assert errs[0] > errs[1] > errs[2]


class TestSqueeze:
    def test_parameter_validation(self):
        u = FourierState.zeros(4)
        with pytest.raises(ValueError):
            run_squeeze_probe(u, 1.0, 1.5, 1, 0j, 0.1, 4, 1e-2)  # r >= R
        with pytest.raises(ValueError):
            run_squeeze_probe(u, 1.0, 0.5, 1, 0j, 0.1, 4, 1e-2, epsilon=0.3)
        with pytest.raises(ValueError):
            run_squeeze_probe(u, 1.0, 0.5, 9, 0j, 0.1, 4, 1e-2)  # |n0| > N
        with pytest.raises(ValueError, match="samples must be >= 1"):
            run_squeeze_probe(u, 1.0, 0.5, 1, 0j, 0.1, 4, 1e-2, samples=0)

    def test_kind_must_be_a_member(self):
        with pytest.raises(ValueError, match="kind must be a Kind, got 'wick'"):
            run_squeeze_probe(FourierState.zeros(4), 1.0, 0.5, 1, 0j, 0.1, 4, 1e-2,
                              samples=4, kind="wick")

    def test_linear_flow_margin_exact(self):
        rep = run_squeeze_probe(FourierState.zeros(6), 1.0, 0.5, 2, 0j,
                                0.1, 6, 1e-2, samples=20, epsilon=0.1,
                                seed=0, mu_sign=0)
        assert abs(rep.fitted["best_margin"] - 0.4) < 1e-10
        assert rep.fitted["witness_found"]

    def test_deterministic_reports(self):
        kw = dict(samples=16, epsilon=0.1, seed=11, mu_sign=1)
        a = run_squeeze_probe(FourierState.zeros(5), 1.0, 0.5, 1, 0j,
                              0.05, 5, 1e-2, **kw)
        b = run_squeeze_probe(FourierState.zeros(5), 1.0, 0.5, 1, 0j,
                              0.05, 5, 1e-2, **kw)
        a.stamp(True), b.stamp(True)
        assert a.to_json() == b.to_json()

    def test_sample_labels_budget(self):
        rep = run_squeeze_probe(FourierState.zeros(4), 1.0, 0.4, 1, 0j,
                                0.02, 4, 1e-2, samples=40, epsilon=0.2, seed=1)
        labels = [r["label"] for r in rep.table]
        assert len(labels) == 40
        assert sum(l.startswith("sweep") for l in labels) == 16
        assert sum(l.startswith("interior") for l in labels) == 4
