#!/usr/bin/env python3
"""Gauge-equivalence convergence study.

Measures the sup-in-time l2 gap between the gauge-transformed full flow
and the Wick-ordered flow over a ladder of step sizes, and decomposes it
into a global-phase (mass-drift) part and a phase-aligned remainder.

The decomposition explains the regimes: outside the integrator's
asymptotic range (dt * max n^4 >> 1) the gap is dominated by the global
phase 2*T*(relative mass drift), which converges at first order only.
The phase-aligned remainder tracks the gauge relation itself and shows
clean fourth-order decay.

    python3 scripts/run_gauge_study.py --n-max 32 --T 0.5 --dts 1e-3,5e-4,2.5e-4
"""

import argparse

import numpy as np

from fournls.dynamics import (FULL, WICK, IntegratorSpec, Scheme, integrate)
from fournls.experiments import derive_rng
from fournls.gauge import gauge_apply
from fournls.spectrum import FourierState
from fournls.diagnostics import mass


def aligned_gap(a: FourierState, b: FourierState) -> float:
    """l2 gap after optimal global phase alignment of a onto b."""
    inner = np.vdot(a.coeffs, b.coeffs)
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(phase * a.coeffs - b.coeffs))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n-max", type=int, default=32)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--dts", default="1e-3,5e-4,2.5e-4")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    rng = derive_rng(args.seed, "gauge-study")
    n = 2 * args.n_max + 1
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u0 = FourierState(args.n_max, c / np.linalg.norm(c))
    m0 = mass(u0)

    print(f"n_max={args.n_max}  T={args.T}  dt*max_n4="
          f"{float(args.dts.split(',')[0]) * args.n_max**4:.0f}")
    print(f"{'dt':>10} {'gap':>12} {'aligned':>12} {'mass drift':>12}")
    for tok in args.dts.split(","):
        dt = float(tok)
        spec = IntegratorSpec(Scheme.EXP_RK4, dt)
        u = integrate(u0, args.T, spec, FULL, round(args.T / dt))[-1]
        v = integrate(u0, args.T, spec, WICK, round(args.T / dt))[-1]
        gu = gauge_apply(u, args.T, m0)
        gap = float(np.linalg.norm(gu.coeffs - v.coeffs))
        drift = abs(mass(u) - m0) / m0
        print(f"{dt:10.2e} {gap:12.4e} {aligned_gap(gu, v):12.4e} {drift:12.4e}")


if __name__ == "__main__":
    main()
