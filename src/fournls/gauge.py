"""Gauge transform between 4NLS and its Wick-ordered variant.

v(t) = e^{2 i mu t m0} u(t), where m0 = sum_n |c_n(0)|^2 is the (conserved)
mass of the originating datum. Applying it to a 4NLS solution yields a
4WNLS solution with the same datum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EquationKind, IntegratorSpec, Kind, integrate
from .spectrum import FourierState, mass


def gauge_apply(u: FourierState, t: float, mass0: float, mu_sign: int = 1) -> FourierState:
    """Multiply every mode by e^{2 i mu t mass0}."""
    if mass0 < 0:
        raise ValueError("mass0 must be nonnegative")
    return u.with_coeffs(np.exp(2j * mu_sign * t * mass0) * u.coeffs)


def gauge_invert(v: FourierState, t: float, mass0: float, mu_sign: int = 1) -> FourierState:
    """Exact inverse phase: gauge_invert(gauge_apply(u)) == u."""
    return v.with_coeffs(np.exp(-2j * mu_sign * t * mass0) * v.coeffs)


@dataclass(frozen=True)
class GaugeEquivalenceReport:
    """Per-sample l2 gap |G[u] - v| and its phase-aligned remainder.

    aligned_gaps[k] is the gap left after the best global phase e^{i theta}
    is applied to G[u] at sample k, so aligned_gaps <= gaps. The rest is a
    global phase: the gauge phase uses the t=0 mass, so a mass drift of the
    integrator shows up as a phase error of about 2*t*(mass drift). Under
    EXP_RK4 with dt * max n^4 >> 1 that part dominates the gap.
    """

    max_gap: float
    times: np.ndarray
    gaps: np.ndarray
    aligned_gaps: np.ndarray


def gauge_equivalence_check(u0: FourierState, T: float, dt: float,
                            spec: IntegratorSpec | None = None,
                            mu_sign: int = 1,
                            sample_stride: int = 1) -> GaugeEquivalenceReport:
    """Integrate 4NLS and 4WNLS from the same datum and compare G[u] with v.

    Returns sup over samples of the l2 gap, its full time profile, and the
    profile of the gap after the best global phase per sample. The gauge
    phase uses the t=0 mass, so the gap also reflects the mass drift of the
    integrator; the aligned gap does not.
    """
    if spec is None:
        spec = IntegratorSpec(dt=dt)
    elif spec.dt != dt:
        spec = IntegratorSpec(spec.scheme, dt, spec.truncation)
    mass0 = mass(u0)
    traj_u = integrate(u0, T, spec, EquationKind(Kind.FULL_4NLS, mu_sign), sample_stride)
    traj_v = integrate(u0, T, spec, EquationKind(Kind.WICK_4WNLS, mu_sign), sample_stride)
    times = traj_u.times
    phases = np.exp(2j * mu_sign * times * mass0)[:, None]
    gu, v = phases * traj_u.coeffs, traj_v.coeffs
    gaps = np.linalg.norm(gu - v, axis=1)
    # the phase of <G[u], v> rotates G[u] onto v; angle(0) = 0 keeps a zero row
    best = np.exp(1j * np.angle(np.sum(np.conj(gu) * v, axis=1)))[:, None]
    aligned = np.linalg.norm(best * gu - v, axis=1)
    return GaugeEquivalenceReport(float(np.max(gaps)), times, gaps, aligned)
