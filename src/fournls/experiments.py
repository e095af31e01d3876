"""Desk-scale experiment drivers: truncation-convergence studies,
high-frequency stability studies, and the non-squeezing witness probe.

Every driver is deterministic given its parameters and root seed; reports
echo the full configuration so a run can be reproduced bit-identically.
"""
from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .dynamics import (EquationKind, IntegratorSpec, Kind, Scheme, integrate,
                       integrate_batch)
from .spectrum import FourierState, resize


def derive_rng(root_seed: int, *key) -> np.random.Generator:
    """Counter-based splittable seeding: the task key (ints/strings) is
    mapped to a spawn key, so tasks can run in any order."""
    spawn = tuple(
        k if isinstance(k, int) else zlib.crc32(str(k).encode()) for k in key
    )
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=spawn))


class ProfileKind(Enum):
    EXP_DECAY = "exp_decay"
    POWER_DECAY = "power_decay"
    SINGLE_MODE = "single_mode"


@dataclass(frozen=True)
class ProfileSpec:
    """Deterministic initial-datum family.

    amplitude is the target l2 norm of the generated state. decay is the
    exponential rate / power exponent; mode selects the excited frequency
    for SINGLE_MODE.
    """

    kind: ProfileKind
    amplitude: float = 1.0
    decay: float = 0.5
    seed: int = 0
    mode: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, ProfileKind):
            raise ValueError(f"kind must be a ProfileKind, got {self.kind!r}")

    def build(self, n_max: int) -> FourierState:
        if self.kind is ProfileKind.SINGLE_MODE:
            if abs(self.mode) > n_max:
                raise ValueError("single mode outside truncation")
            return FourierState.from_modes(n_max, {self.mode: self.amplitude})
        ns = np.arange(-n_max, n_max + 1)
        rng = derive_rng(self.seed, "profile", self.kind.value)
        phases = np.exp(2j * np.pi * rng.random(2 * n_max + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind is ProfileKind.EXP_DECAY:
                mag = np.exp(-self.decay * np.abs(ns))
            else:
                mag = (1.0 + np.abs(ns)) ** (-self.decay)
            c = mag * phases
            norm = np.linalg.norm(c)
        if not 0.0 < norm < np.inf:
            raise ValueError(f"{self.kind.value} profile cannot be normalised at "
                             f"decay={self.decay}")
        c *= self.amplitude / norm
        return FourierState(n_max, c)


@dataclass
class ExperimentReport:
    """Structured result record: parameter ladder -> measured quantity."""

    kind: str
    params: dict
    table: list
    fitted: dict | None = None
    created: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def stamp(self, deterministic: bool) -> None:
        self.created = 0.0 if deterministic else time.time()


def fit_decay_rate(table) -> tuple[float, float, float]:
    """Least-squares power-law fit on (log x, log y); returns
    (rate, intercept, residual) with rate = -slope."""
    rows = list(table)
    if len(rows) < 3:
        raise ValueError("need at least 3 rows to fit a decay rate")
    xs = np.array([float(x) for x, _ in rows])
    ys = np.array([float(y) for _, y in rows])
    if np.any(ys <= 0.0) or np.any(xs <= 0.0):
        raise ValueError("fit_decay_rate requires positive x and y")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    resid = np.log(ys) - (slope * np.log(xs) + intercept)
    return float(-slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


_TARGET_SAMPLES = 50  # fewest samples a study trajectory keeps


def _ladder_flow(T: float, dt: float, mu_sign: int) -> tuple:
    """(equation, spec, stride, echo) of a ladder study: the full 4NLS under
    Lawson RK4, sampled every stride steps, where stride is the largest
    divisor of the step count that keeps _TARGET_SAMPLES samples (else 1);
    echo is the flow's part of the report's params."""
    spec = IntegratorSpec(Scheme.EXP_RK4, dt)
    steps = spec.steps(T)
    stride = next(d for d in range(max(1, steps // _TARGET_SAMPLES), 0, -1)
                  if steps % d == 0)
    echo = {"T": T, "dt": dt, "scheme": Scheme.EXP_RK4.value, "mu": mu_sign,
            "equation": Kind.FULL_4NLS.value, "sample_stride": stride}
    return EquationKind(Kind.FULL_4NLS, mu_sign), spec, stride, echo


def _low_mode_gap(a: np.ndarray, b: np.ndarray, cutoff: int) -> float:
    """Largest l2 gap between the modes |n| <= cutoff of the sample rows a
    and b (broadcast over their leading axes; 0.0 when there are none).
    cutoff must not exceed either radius."""
    gaps = np.linalg.norm(resize(a, cutoff) - resize(b, cutoff), axis=-1)
    return float(np.max(gaps, initial=0.0))


def _ladder(n_ladder) -> list:
    """A study's N ladder as ints: nonempty, positive, strictly increasing."""
    ladder = [int(n) for n in n_ladder]
    if not ladder or ladder[0] < 1 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("N ladder must be positive, strictly increasing and nonempty")
    return ladder


def run_approximation_study(profile: ProfileSpec, n_ladder, ref_factor: int,
                            T: float, dt: float, mu_sign: int = 1) -> ExperimentReport:
    """Truncation-convergence ladder.

    For each N: datum = P_{<=N}(profile); the reference flow is the
    truncated flow at ref_factor*N (desk-scale stand-in for the
    untruncated flow); error(N) = sup over samples of the l2 gap of the
    modes |n| <= floor(sqrt(N)). Fits error ~ C N^{-sigma}.
    """
    ladder = _ladder(n_ladder)
    if ref_factor < 2:
        raise ValueError("ref_factor must be >= 2")
    eq, spec, stride, echo = _ladder_flow(T, dt, mu_sign)
    base = profile.build(ladder[-1])

    def one(n: int):
        datum = base.truncate_to(n)
        tr = integrate(datum, T, spec, eq, stride)
        ref = integrate(datum.truncate_to(ref_factor * n), T, spec, eq, stride)
        return {"N": n, "error": _low_mode_gap(tr.coeffs, ref.coeffs, math.isqrt(n))}

    table = [one(n) for n in ladder]
    fitted = None
    if all(row["error"] > 0 for row in table) and len(table) >= 3:
        rate, intercept, resid = fit_decay_rate(
            [(row["N"], row["error"]) for row in table]
        )
        fitted = {"rate": rate, "intercept": intercept, "residual": resid}
    params = {
        "profile": _profile_params(profile),
        "n_ladder": ladder,
        "ref_factor": ref_factor,
        **echo,
    }
    return ExperimentReport("approximation_study", params, table, fitted)


def _profile_params(profile: ProfileSpec) -> dict:
    return {**asdict(profile), "kind": profile.kind.value}


def high_frequency_perturbation(rng: np.random.Generator, n_prime: int,
                                n_max: int, norm: float) -> FourierState:
    """Random datum supported in n_prime < |n| <= n_max with given l2 norm."""
    ns = np.arange(-n_max, n_max + 1)
    c = rng.normal(size=2 * n_max + 1) + 1j * rng.normal(size=2 * n_max + 1)
    c[np.abs(ns) <= n_prime] = 0.0
    scale = np.linalg.norm(c)
    if scale == 0.0:
        raise ValueError("empty perturbation support")
    return FourierState(n_max, c * (norm / scale))


def run_perturbation_study(profile: ProfileSpec, n_primes,
                           perturbation_norm: float, T: float, dt: float,
                           trials: int = 4, seed: int = 0,
                           mu_sign: int = 1) -> ExperimentReport:
    """Low-frequency stability under high-frequency data perturbations.

    For each N' in the ladder: co-evolve the datum and N'-agreeing
    perturbed data at resolution 2N' as one batch and record the worst
    sampled divergence of the modes |n| <= N' - floor(sqrt(N'))."""
    ladder = _ladder(n_primes)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not perturbation_norm >= 0.0:
        raise ValueError("perturbation_norm must be nonnegative")
    eq, spec, stride, echo = _ladder_flow(T, dt, mu_sign)

    def one(n_prime: int):
        res = 2 * n_prime
        u0 = profile.build(res)
        data = [u0.coeffs]
        for trial in range(trials):
            rng = derive_rng(seed, "perturb", n_prime, trial)
            d = high_frequency_perturbation(rng, n_prime, res, perturbation_norm)
            data.append(u0.coeffs + d.coeffs)
        samples = integrate_batch(np.stack(data), T, spec, eq, stride)
        cutoff = n_prime - math.isqrt(n_prime)
        worst = _low_mode_gap(samples[:, :1], samples[:, 1:], cutoff)
        return {"N_prime": n_prime, "divergence": worst}

    table = [one(n) for n in ladder]
    params = {
        "profile": _profile_params(profile),
        "n_primes": ladder,
        "perturbation_norm": perturbation_norm,
        "trials": trials,
        "seed": seed,
        **echo,
    }
    return ExperimentReport("perturbation_study", params, table)


def run_squeeze_probe(u_star: FourierState, R: float, r: float, n0: int,
                      z: complex, T: float, N: int, dt: float,
                      samples: int = 64, epsilon: float = 0.1, seed: int = 0,
                      mu_sign: int = 1, kind: Kind = Kind.FULL_4NLS) -> ExperimentReport:
    """Sampled search for a non-squeezing witness of the truncated flow.

    Candidates u0 = P_{<=N} u_star + rho * d are drawn mostly on the sphere
    rho = R - epsilon (a targeted phase sweep of the n0 mode plus seeded
    random directions; 10% of the budget probes the ball interior). All are
    evolved together under the truncated flow to time T and scored by

        margin(u0) = |c(T, n0) - z| - r.

    A positive best margin is an explicit witness for this (N, T); a
    negative one only means no witness was found among the samples.
    """
    if not (0.0 < r < R):
        raise ValueError("need 0 < r < R")
    if not (0.0 < epsilon < (R - r) / 2.0):
        raise ValueError("need 0 < epsilon < (R - r)/2")
    if abs(n0) > N:
        raise ValueError("|n0| must be <= N")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    z = complex(z)
    eq = EquationKind(kind, mu_sign)
    base = u_star.truncate_to(N)
    spec = IntegratorSpec(Scheme.EXP_RK4, dt)
    rho = R - epsilon
    dim = 2 * N + 1

    sweep = min(16, samples)
    interior = max(0, samples // 10) if samples > sweep else 0
    n_random = samples - sweep - interior

    candidates = []  # (label, direction, radius)
    for k in range(sweep):
        phi = 2.0 * np.pi * k / sweep
        d = np.zeros(dim, dtype=np.complex128)
        d[n0 + N] = np.exp(1j * phi)
        candidates.append((f"sweep:{k}", d, rho))
    for k in range(n_random):
        rng = derive_rng(seed, "squeeze-dir", k)
        d = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        d /= np.linalg.norm(d)
        candidates.append((f"random:{k}", d, rho))
    for k in range(interior):
        rng = derive_rng(seed, "squeeze-int", k)
        d = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        d /= np.linalg.norm(d)
        candidates.append((f"interior:{k}", d, rho * rng.random()))

    data = np.stack([base.coeffs + radius * d for _, d, radius in candidates])
    final = integrate_batch(data, T, spec, eq, sample_stride=max(1, spec.steps(T)))[-1]
    table = [{"label": label, "radius": radius, "margin": float(abs(complex(c) - z) - r)}
             for (label, _, radius), c in zip(candidates, final[:, n0 + N])]
    best = max(table, key=lambda row: row["margin"])
    params = {
        "R": R,
        "r": r,
        "n0": n0,
        "z": [z.real, z.imag],
        "T": T,
        "N": N,
        "dt": dt,
        "samples": samples,
        "epsilon": epsilon,
        "seed": seed,
        "mu": mu_sign,
        "equation": kind.value,
    }
    return ExperimentReport("squeeze_probe", params, table, {
        "best_label": best["label"],
        "best_margin": best["margin"],
        "witness_found": best["margin"] > 0.0,
    })
