"""Conserved quantities, smoothing-gap functionals and space-time norm
estimators.

The space-time (Bourgain-type) norms are evaluated on finite sampled
trajectories. Since the dispersion n^4 far exceeds the Nyquist rate of any
practical time grid, the estimator first moves to the interaction picture
(dividing out e^{i t phi(n)} with phi = mu(n) or n^4) so the remaining
modulation variable tau - phi(n) is small and lives on the DFT grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import nonlinearity_nonresonant
from .resonance import ModifiedPhase
from .spectrum import (
    FourierState,
    Trajectory,
    c2c,
    grid_plan,
    mass,
    quiet,
    to_grid,
)


@quiet
def hamiltonian(u, mu_sign: int = 1):
    """E(u) = sum n^4 |c_n|^2 - (mu/2) sum_{n1-n2+n3-n4=0} c1 conj(c2) c3 conj(c4)
    of one FourierState (a float) or of each row of (..., 2*n_max+1) amplitudes.

    The quartic sum equals (1/2pi) int |u|^4 dx, the mean of |u(x_j)|^4 over an
    alias-free padded grid along the last axis. E is conserved by both exact flows
    and by the truncated flow (which is Hamiltonian on the projected space).
    """
    if isinstance(u, FourierState):
        return float(hamiltonian(u.coeffs, mu_sign))
    n_max = (u.shape[-1] - 1) // 2
    m = grid_plan(n_max)
    quadratic = np.sum(np.arange(-n_max, n_max + 1.0) ** 4 * np.abs(u) ** 2, axis=-1)
    quartic = np.sum(np.abs(to_grid(u, m)) ** 4, axis=-1) / m
    return quadratic - 0.5 * mu_sign * quartic


@quiet
def symplectic_form(u: FourierState, v: FourierState) -> float:
    """omega0(u, v) = -Im int u conj(v) dx = -Im(2pi sum_n u_n conj(v_n))."""
    if u.n_max != v.n_max:
        raise ValueError("symplectic_form requires equal n_max")
    return float(-np.imag(2.0 * np.pi * np.sum(u.coeffs * np.conj(v.coeffs))))


def smoothing_gap(traj: Trajectory) -> np.ndarray:
    """Per-sample sup_n | |c_n(t)|^2 - |c_n(0)|^2 |."""
    return np.max(_modulus_gap(traj), axis=1)


@quiet
def _modulus_gap(traj: Trajectory) -> np.ndarray:
    """| |c_n(t)|^2 - |c_n(0)|^2 | per sample and mode, in one float array."""
    gap = np.abs(traj.coeffs)
    gap **= 2
    gap -= gap[0].copy()
    return np.abs(gap, out=gap)


@quiet
def dyadic_gap_profile(traj: Trajectory, s: float) -> dict:
    """Per dyadic block, sum_{n in I_N} <n>^{2s} | |c_n(t)|^2 - |c_n(0)|^2 |.

    The levels are N = 2^j, j = 0 .. n_max.bit_length(), with I_1 = {|n| <= 1}
    and I_N = {N/2 <= |n| <= 2N} for N >= 2. Returns {N: array over samples}.
    """
    n = np.arange(-traj.n_max, traj.n_max + 1.0)
    gap = _modulus_gap(traj)
    gap *= (1.0 + n**2) ** s
    levels = (2**j for j in range(traj.n_max.bit_length() + 1))
    return {N: np.sum(gap[:, (N // 2 <= abs(n)) & (abs(n) <= (2 * N if N > 1 else 1))], axis=1)
            for N in levels}


@quiet
def modulus_rate(u: FourierState, mu_sign: int = 1) -> np.ndarray:
    """d/dt |c_n|^2 along the flow: 2 mu Re[N_NR(u)(n) conj(c_n)].

    N_NR is -i times the sum over non-resonant triples. The resonant and
    linear terms are pure phase rotations, so only it contributes; this
    holds for both equations.
    """
    return 2.0 * mu_sign * np.real(nonlinearity_nonresonant(u).coeffs * np.conj(u.coeffs))


# ---------------------------------------------------------------------------
# space-time fields and Bourgain-norm estimators
# ---------------------------------------------------------------------------


WINDOWS = frozenset({"cosine", "rect"})
PHASES = frozenset({"plain", "modified"})


def _taper(num_samples: int, window: str) -> np.ndarray:
    w = np.ones(num_samples)
    if window == "rect":
        return w
    ramp = max(1, int(0.1 * num_samples))
    edge = 0.5 * (1.0 - np.cos(np.pi * (np.arange(ramp) + 0.5) / ramp))
    w[:ramp] = edge
    w[-ramp:] = edge[::-1]
    return w


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """A sampled trajectory, its declared time taper and phase, and their
    windowed unitary time-DFT in the interaction picture: e^{i t phi(n)}, with
    phi = n^4 ("plain") or mu(n) = n^4 + |c0(n)|^2 of the first sample
    ("modified"), is divided out first, so tau (angular frequencies, one bin
    per sample) plays the role of the modulation tau - phi(n); tilde is
    indexed (tau_bin, n). Report norms alongside the window and phase.
    """

    trajectory: Trajectory
    window: str = "cosine"
    phase: str = "plain"
    taper: np.ndarray = field(init=False, repr=False)
    tau: np.ndarray = field(init=False, repr=False)
    tilde: np.ndarray = field(init=False, repr=False)

    @quiet
    def __post_init__(self):
        traj = self.trajectory
        if len(traj) < 8:
            raise ValueError("space-time estimators need at least 8 samples")
        if self.window not in WINDOWS:
            raise ValueError(f"unknown window {self.window!r}")
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        taper = _taper(len(traj), self.window)
        phi = (ModifiedPhase(traj[0]).mu_array(traj.n_max) if self.phase == "modified"
               else np.arange(-traj.n_max, traj.n_max + 1.0) ** 4)
        # exp(-1j * outer(times, phi)) * coeffs, tapered and transformed
        # (unitary scale 1/sqrt(samples)), with at most two (samples, modes) arrays alive.
        # Fresh temporaries lead each complex product: numpy keeps this order at every size.
        tilde = np.zeros(traj.coeffs.shape, dtype=np.complex128)
        np.outer(traj.times, phi, out=tilde.real)
        np.multiply(-1j, tilde, out=tilde)
        tilde = np.exp(tilde) * traj.coeffs
        np.multiply(taper[:, None], tilde, out=tilde)
        c2c(tilde, (0,), True, 1, tilde, 1)
        tau = 2.0 * np.pi * np.fft.fftfreq(len(traj), d=traj.dt)
        for name, value in (("taper", taper), ("tau", tau), ("tilde", tilde)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


@quiet
def ysb_norm(field: SpaceTimeField, s: float, b: float, z_part: bool = False) -> float:
    """Discrete X^{s,b} (plain field) or Y^{s,b} (modified field) space-time
    norm of field.tilde. With z_part=True the l2_n L1_tau companion of
    Z^{s,1/2} is returned instead (b is then ignored)."""
    wn = (1.0 + np.arange(-field.trajectory.n_max, field.trajectory.n_max + 1.0) ** 2) ** s
    mag = np.abs(field.tilde)
    if z_part:
        return float(np.sqrt(np.sum(wn * np.sum(mag, axis=0) ** 2)))
    wt = (1.0 + field.tau**2) ** b
    mag **= 2
    np.multiply(wn[None, :] * wt[:, None], mag, out=mag)
    return float(np.sqrt(np.sum(mag)))
