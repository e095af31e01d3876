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


def gauge_apply(u, t, mass0: float, mu_sign: int = 1):
    """Multiply every mode by e^{2 i mu t mass0}: of one FourierState at time
    t, or of amplitude rows (..., 2*n_max+1) with one time per row in t."""
    if mass0 < 0:
        raise ValueError("mass0 must be nonnegative")
    if isinstance(u, FourierState):
        return u.with_coeffs(gauge_apply(u.coeffs, t, mass0, mu_sign))
    return np.exp(2j * mu_sign * np.asarray(t)[..., None] * mass0) * u


def gauge_invert(v, t, mass0: float, mu_sign: int = 1):
    """Exact inverse phase: gauge_invert(gauge_apply(u)) == u."""
    return gauge_apply(v, -np.asarray(t), mass0, mu_sign)


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
    """Integrate 4NLS and 4WNLS from the same datum and compare G[u] with v;
    spec (EXP_RK4 when omitted) sets the scheme, and its dt must equal dt.

    Returns sup over samples of the l2 gap, its full time profile, and the
    profile of the gap after the best global phase per sample. The gauge
    phase uses the t=0 mass, so the gap also reflects the mass drift of the
    integrator; the aligned gap does not.
    """
    spec = IntegratorSpec(dt=dt) if spec is None else spec
    if spec.dt != dt:
        raise ValueError(f"spec.dt={spec.dt} differs from dt={dt}")
    mass0 = mass(u0)
    traj_u = integrate(u0, T, spec, EquationKind(Kind.FULL_4NLS, mu_sign), sample_stride)
    traj_v = integrate(u0, T, spec, EquationKind(Kind.WICK_4WNLS, mu_sign), sample_stride)
    gu, v = gauge_apply(traj_u.coeffs, traj_u.times, mass0, mu_sign), traj_v.coeffs
    gaps = np.linalg.norm(gu - v, axis=1)
    # the phase of <G[u], v> rotates G[u] onto v; angle(0) = 0 keeps a zero row
    best = np.exp(1j * np.angle(np.sum(np.conj(gu) * v, axis=1)))[:, None]
    aligned = np.linalg.norm(best * gu - v, axis=1)
    return GaugeEquivalenceReport(float(np.max(gaps)), traj_u.times, gaps, aligned)
