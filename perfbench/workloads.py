"""The two benchmark workloads: their inputs, jobs and correctness checks.

Every workload is a fixed sequence of three jobs, each what a user runs,
called through the public fournls functions at their module attributes (so
the tracer sees them). All inputs derive from the seed.

- studies: the approximation ladder, the perturbation ladder and the
  squeeze probe. Many short, small-N truncated RK4 trajectories and no I/O,
  so per-step overhead dominates.
- simulate-verify:
  1. ``4nls simulate``, whose trajectory write outweighs its stepping;
  2. ``4nls norms`` on that file with plain and with modified phase, where
     the read dominates and memory grows with the sample count;
  3. verification: the full/Wick gauge check under EXP_RK4 and STRANG at
     N=256 and N=1024 with mass and Hamiltonian of every sample, then the
     energy identity and the normal-form boundary term at every frequency.
     Large-N steps are bound by FFT arithmetic; only this job uses Strang
     and the resonance module.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from fournls import cli, diagnostics, dynamics, experiments, gauge, resonance
from fournls.dynamics import FULL, IntegratorSpec, Scheme
from fournls.experiments import ProfileKind, ProfileSpec
from fournls.spectrum import FourierState, load_trajectory

WORKLOADS = ("studies", "simulate-verify")

# The approximation ladder starts at 32: errors at N=16 and N=32 measure
# different cutoffs (|n| <= isqrt(N)) and are not strictly decreasing at every
# seed (at T=0.1, seeds 111 and 133 of 300), while 32 -> 64 -> 128 drop by 4x or
# more at all 120 seeds tried.
SIZES = {
    "full": {
        "approx": {"ladder": (32, 64, 128), "ref_factor": 4, "T": 0.1, "dt": 5e-4},
        "perturb": {"ladder": (16, 32, 64), "norm": 0.1, "T": 0.05, "dt": 5e-4,
                    "trials": 4},
        "squeeze": {"N": 16, "samples": 24, "T": 0.1, "dt": 1e-3},
        "simulate": {"n_max": 32, "T": 0.2, "dt": 1e-4},
        "gauge": {"sizes": (256, 1024), "T": 0.05, "dt": 1e-3, "stride": 5},
        "resonance": {"N": 32},
    },
    "tiny": {
        "approx": {"ladder": (16, 32, 64), "ref_factor": 4, "T": 0.02, "dt": 5e-4},
        "perturb": {"ladder": (8, 16), "norm": 0.1, "T": 0.01, "dt": 5e-4,
                    "trials": 2},
        "squeeze": {"N": 8, "samples": 18, "T": 0.01, "dt": 1e-3},
        "simulate": {"n_max": 8, "T": 0.002, "dt": 1e-4},
        "gauge": {"sizes": (16, 32), "T": 0.01, "dt": 1e-3, "stride": 5},
        "resonance": {"N": 6},
    },
}

# Correctness thresholds; each holds at every seed.
PARSEVAL_TOL = 1e-10          # ysb_norm at b=0 vs the l2 norm of the samples
STRANG_GAUGE_TOL = 1e-12      # unitary scheme: gauge gap at roundoff
STRANG_MASS_TOL = 1e-12       # unitary scheme: relative mass drift
ENERGY_IDENTITY_TOL = 1e-13   # modulus_rate vs the non-resonant triple sum
REFERENCE_TOL = 1e-14         # refactor rule: |got - ref| <= tol * max(1, |ref|)
REFERENCE_SEED = 0            # reference.json holds the outputs at this seed


def unit_random_state(n_max: int, rng: np.random.Generator) -> FourierState:
    c = rng.normal(size=2 * n_max + 1) + 1j * rng.normal(size=2 * n_max + 1)
    return FourierState(n_max, c / np.linalg.norm(c))


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """Jobs run in order each round. Subclasses also define
    ``summary(job, result)``, which turns a job's result into plain values
    outside the timed region; ``check(summaries)``, which returns the
    failure messages for one round; and ``reference_values(summaries)``,
    the scalars compared with reference.json."""

    jobs: tuple = ()

    def run(self, job: str):
        return getattr(self, "job_" + job.replace("-", "_"))()


class Studies(Workload):
    jobs = ("approx", "perturb", "squeeze")

    def __init__(self, seed, size, workdir):
        self.p = SIZES[size]
        self.seed = seed
        self.profile = ProfileSpec(ProfileKind.EXP_DECAY, amplitude=1.0, decay=0.05,
                                   seed=seed)
        self.u_star = FourierState.zeros(self.p["squeeze"]["N"])

    def job_approx(self):
        a = self.p["approx"]
        return experiments.run_approximation_study(
            self.profile, a["ladder"], a["ref_factor"], a["T"], a["dt"])

    def job_perturb(self):
        a = self.p["perturb"]
        return experiments.run_perturbation_study(
            self.profile, a["ladder"], a["norm"], a["T"], a["dt"],
            trials=a["trials"], seed=self.seed)

    def job_squeeze(self):
        a = self.p["squeeze"]
        return experiments.run_squeeze_probe(
            self.u_star, 1.0, 0.5, 1, 0j, a["T"], a["N"], a["dt"],
            samples=a["samples"], epsilon=0.1, seed=self.seed)

    def summary(self, job, report):
        column = {"approx": "error", "perturb": "divergence", "squeeze": "margin"}[job]
        return {column: [row[column] for row in report.table],
                "fitted": report.fitted}

    def check(self, s):
        failures = []
        errors = s["approx"]["error"]
        if not all(b < a for a, b in zip(errors, errors[1:])):
            failures.append(f"approx: errors not strictly decreasing: {errors}")
        for job, col in (("approx", "error"), ("perturb", "divergence"),
                         ("squeeze", "margin")):
            if not _finite(s[job][col]):
                failures.append(f"{job}: non-finite output {s[job][col]}")
        return failures

    def reference_values(self, s):
        out = {}
        for job, col in (("approx", "error"), ("perturb", "divergence"),
                         ("squeeze", "margin")):
            out.update({f"{job}.{col}.{i}": v for i, v in enumerate(s[job][col])})
        return out


class SimulateIO(Workload):
    jobs = ("simulate", "norms-plain", "norms-modified")

    def __init__(self, seed, size, workdir):
        a = self.p = SIZES[size]["simulate"]
        self.seed = seed
        self.workdir = workdir
        self.traj_path = os.path.join(workdir, "trajectory.jsonl")
        common = ["--deterministic", "--seed", str(seed), "--out-dir", workdir]
        self.argv = {
            "simulate": ["simulate", "--n-max", str(a["n_max"]), "--T", str(a["T"]),
                         "--dt", str(a["dt"]), "--stride", "1", "--profile", "exp_decay",
                         "--amplitude", "1.0", "--decay", "0.5",
                         "--out", "trajectory.jsonl", *common],
        }
        for phase in ("plain", "modified"):
            self.argv[f"norms-{phase}"] = ["norms", "--traj", self.traj_path,
                                           "--phase", phase, "--out",
                                           f"norms_{phase}", *common]

    def run(self, job):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv[job])

    def summary(self, job, code):
        if job == "simulate":
            return {"exit": code, "sha256": _sha256(self.traj_path)}
        base = os.path.join(self.workdir, job.replace("-", "_"))
        with open(base + ".json") as fh:
            doc = json.load(fh)
        gaps = np.loadtxt(base + "_gap.csv", delimiter=",", skiprows=1)[:, 1]
        return {"exit": code, "ysb_norm": doc["ysb_norm"],
                "z_l2l1_part": doc["z_l2l1_part"], "max_gap": float(np.max(gaps)),
                "finite": _finite(gaps) and _finite([doc["ysb_norm"], doc["z_l2l1_part"]]),
                "sha256": [_sha256(base + ext) for ext in (".json", "_gap.csv", "_blocks.csv")]}

    def check(self, s):
        failures = [f"{job}: exit code {s[job]['exit']}" for job in self.jobs
                    if s[job]["exit"] != 0]
        failures += [f"{job}: non-finite norms" for job in self.jobs[1:]
                     if not s[job]["finite"]]
        if failures:
            return failures
        # The same run in memory must come back from the file bit for bit.
        a = self.p
        u0 = ProfileSpec(ProfileKind.EXP_DECAY, amplitude=1.0, decay=0.5,
                         seed=self.seed).build(a["n_max"])
        expected = dynamics.integrate(u0, a["T"], IntegratorSpec(Scheme.EXP_RK4, a["dt"]),
                                      FULL, 1)
        traj = load_trajectory(self.traj_path)
        if not np.array_equal(traj.coeff_array().view(np.float64),
                              expected.coeff_array().view(np.float64)):
            failures.append("simulate: save/load round trip is not bit-exact")
        field = diagnostics.SpaceTimeField(traj, "rect")
        gap = abs(diagnostics.ysb_norm(field, 0.0, 0.0) - np.linalg.norm(traj.coeff_array()))
        if not gap <= PARSEVAL_TOL:
            failures.append(f"norms: ysb_norm b=0 misses Parseval by {gap:.3e}")
        return failures

    def reference_values(self, s):
        final = load_trajectory(self.traj_path).states[-1]
        out = {"simulate.final_mass": diagnostics.mass(final)}
        for job in self.jobs[1:]:
            for key in ("ysb_norm", "z_l2l1_part", "max_gap"):
                out[f"{job}.{key}"] = s[job][key]
        return out


class Verify(Workload):
    jobs = ("gauge-rk4", "gauge-strang", "resonance")

    def __init__(self, seed, size, workdir):
        self.p = SIZES[size]
        rng = np.random.default_rng(seed)
        self.data = {n: unit_random_state(n, rng) for n in self.p["gauge"]["sizes"]}
        self.u_res = unit_random_state(self.p["resonance"]["N"], rng)

    def _gauge(self, scheme):
        a = self.p["gauge"]
        spec = IntegratorSpec(scheme, a["dt"])
        out = {}
        for n, u0 in self.data.items():
            rep = gauge.gauge_equivalence_check(u0, a["T"], a["dt"], spec,
                                                sample_stride=a["stride"])
            traj = dynamics.integrate(u0, a["T"], spec, FULL, a["stride"])
            out[n] = (rep.max_gap,
                      [diagnostics.mass(s) for s in traj.states],
                      [diagnostics.hamiltonian(s) for s in traj.states])
        return out

    def job_gauge_rk4(self):
        return self._gauge(Scheme.EXP_RK4)

    def job_gauge_strang(self):
        return self._gauge(Scheme.STRANG)

    def job_resonance(self):
        u = self.u_res
        n_max, c = u.n_max, u.coeffs
        rate = diagnostics.modulus_rate(u, 1)
        identity, boundary = [], []
        for n in range(-n_max, n_max + 1):
            q = np.array([(t.n1, t.n2, t.n3)
                          for t in resonance.enumerate_nonresonant(n, n_max)]) + n_max
            s = np.sum(c[q[:, 0]] * np.conj(c[q[:, 1]]) * c[q[:, 2]])
            identity.append(2.0 * np.imag(s * np.conj(c[n + n_max])))
            boundary.append(resonance.normal_form_boundary(u, n))
        return rate, np.array(identity), np.array(boundary)

    def summary(self, job, result):
        if job == "resonance":
            rate, identity, boundary = result
            return {"rate": rate.tolist(),
                    "identity_gap": float(np.max(np.abs(rate - identity))),
                    "boundary": np.stack([boundary.real, boundary.imag], 1).tolist()}
        return {str(n): {"max_gap": gap, "mass": m, "hamiltonian": h}
                for n, (gap, m, h) in result.items()}

    def check(self, s):
        failures = []
        for job in ("gauge-rk4", "gauge-strang"):
            for n, r in s[job].items():
                if not _finite([r["max_gap"], *r["mass"], *r["hamiltonian"]]):
                    failures.append(f"{job} N={n}: non-finite output")
        for n, r in s["gauge-strang"].items():
            if not r["max_gap"] <= STRANG_GAUGE_TOL:
                failures.append(f"gauge-strang N={n}: gap {r['max_gap']:.3e} above roundoff")
            drift = max(abs(m - r["mass"][0]) for m in r["mass"]) / r["mass"][0]
            if not drift <= STRANG_MASS_TOL:
                failures.append(f"gauge-strang N={n}: mass drift {drift:.3e}")
        res = s["resonance"]
        if not _finite(res["rate"]) or not _finite(res["boundary"]):
            failures.append("resonance: non-finite output")
        if not res["identity_gap"] <= ENERGY_IDENTITY_TOL:
            failures.append(f"resonance: energy identity off by {res['identity_gap']:.3e}")
        return failures

    def reference_values(self, s):
        out = {}
        for job in ("gauge-rk4", "gauge-strang"):
            for n, r in s[job].items():
                if job == "gauge-rk4":  # the Strang gap is roundoff noise
                    out[f"{job}.N{n}.max_gap"] = r["max_gap"]
                for key in ("mass", "hamiltonian"):
                    out.update({f"{job}.N{n}.{key}.{i}": v for i, v in enumerate(r[key])})
        res = s["resonance"]
        out.update({f"resonance.rate.{i}": v for i, v in enumerate(res["rate"])})
        for i, (re, im) in enumerate(res["boundary"]):
            out[f"resonance.boundary.{i}.re"] = re
            out[f"resonance.boundary.{i}.im"] = im
        return out


class SimulateVerify(Workload):
    """``4nls simulate``, ``4nls norms`` (plain and modified phase), then the
    verification suite; each job runs its parts' steps in order."""

    def __init__(self, seed, size, workdir):
        io_part, verify_part = SimulateIO(seed, size, workdir), Verify(seed, size, workdir)
        self.groups = {"simulate": (io_part, ("simulate",)),
                       "norms": (io_part, ("norms-plain", "norms-modified")),
                       "verify": (verify_part, Verify.jobs)}
        self.parts = (io_part, verify_part)
        self.jobs = tuple(self.groups)

    def run(self, job):
        part, steps = self.groups[job]
        return {step: part.run(step) for step in steps}

    def summary(self, job, results):
        part, _steps = self.groups[job]
        return {step: part.summary(step, r) for step, r in results.items()}

    @staticmethod
    def _steps(s):
        return {step: v for group in s.values() for step, v in group.items()}

    def check(self, s):
        return [f for part in self.parts for f in part.check(self._steps(s))]

    def reference_values(self, s):
        return {k: v for part in self.parts
                for k, v in part.reference_values(self._steps(s)).items()}


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    return {"studies": Studies, "simulate-verify": SimulateVerify}[name](
        seed, size, workdir)


def compare_reference(values: dict, reference: dict) -> list[str]:
    """Failures where values miss the stored reference by the refactor rule."""
    failures = []
    if values.keys() != reference.keys():
        failures.append("reference: output keys differ from the stored reference")
    for key in sorted(values.keys() & reference.keys()):
        got, ref = values[key], reference[key]
        if not abs(got - ref) <= REFERENCE_TOL * max(1.0, abs(ref)):
            failures.append(f"reference: {key} = {got!r}, expected {ref!r}")
    return failures


def canonical(summaries: dict) -> str:
    """Exact text form of a round's outputs, for round-to-round comparison."""
    return json.dumps(summaries, sort_keys=True, default=repr)
