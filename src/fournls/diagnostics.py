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
from .experiments import derive_rng
from .resonance import ModifiedPhase, h_value
from .spectrum import (
    DyadicBlock,
    FourierState,
    Trajectory,
    blocks_covering,
    c2c,
    grid_plan,
    mass,
    to_grid,
)


def hamiltonian(u, mu_sign: int = 1):
    """E(u) = sum n^4 |c_n|^2 - (mu/2) sum_{n1-n2+n3-n4=0} c1 conj(c2) c3 conj(c4)
    of one FourierState (a float) or of each row of (..., 2*n_max+1) amplitudes.

    The quartic sum equals (1/2pi) int |u|^4 dx and is evaluated alias-free
    on a padded grid along the last axis. E is conserved by both exact flows
    and by the truncated flow (which is Hamiltonian on the projected space).
    """
    if isinstance(u, FourierState):
        with np.errstate(over="ignore", invalid="ignore"):  # a float may be inf or nan
            return float(hamiltonian(u.coeffs, mu_sign))
    n_max = (u.shape[-1] - 1) // 2
    m, idx = grid_plan(n_max)
    quadratic = np.sum(np.arange(-n_max, n_max + 1.0) ** 4 * np.abs(u) ** 2, axis=-1)
    quartic = np.sum(np.abs(to_grid(u, m, idx) * m) ** 4, axis=-1) / m
    return quadratic - 0.5 * mu_sign * quartic


def symplectic_form(u: FourierState, v: FourierState) -> float:
    """omega0(u, v) = -Im int u conj(v) dx = -Im(2pi sum_n u_n conj(v_n))."""
    if u.n_max != v.n_max:
        raise ValueError("symplectic_form requires equal n_max")
    return float(-np.imag(2.0 * np.pi * np.sum(u.coeffs * np.conj(v.coeffs))))


def smoothing_gap(traj: Trajectory) -> np.ndarray:
    """Per-sample sup_n | |c_n(t)|^2 - |c_n(0)|^2 |."""
    return np.max(_modulus_gap(traj), axis=1)


def _modulus_gap(traj: Trajectory) -> np.ndarray:
    """| |c_n(t)|^2 - |c_n(0)|^2 | per sample and mode, in one float array."""
    gap = np.abs(traj.coeffs)
    gap **= 2
    gap -= gap[0].copy()
    return np.abs(gap, out=gap)


def dyadic_gap_profile(traj: Trajectory, s: float) -> dict:
    """Per dyadic block, sum_{n in I_N} <n>^{2s} | |c_n(t)|^2 - |c_n(0)|^2 |.

    Returns {level: array over samples}.
    """
    gap = _modulus_gap(traj)
    ns = np.arange(-traj.n_max, traj.n_max + 1)
    w = (1.0 + ns.astype(np.float64) ** 2) ** s
    out = {}
    for block in blocks_covering(traj.n_max):
        m = block.mask(traj.n_max)
        out[block.level] = np.sum(gap[:, m] * w[m], axis=1)
    return out


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


def _taper(num_samples: int, window: str) -> np.ndarray:
    if window == "rect":
        return np.ones(num_samples)
    if window != "cosine":
        raise ValueError(f"unknown window {window!r}")
    w = np.ones(num_samples)
    ramp = max(1, int(0.1 * num_samples))
    edge = 0.5 * (1.0 - np.cos(np.pi * (np.arange(ramp) + 0.5) / ramp))
    w[:ramp] = edge
    w[-ramp:] = edge[::-1]
    return w


@dataclass(frozen=True)
class SpaceTimeField:
    """Sampled trajectory with a declared time taper, ready for time-DFT.

    The tau grid has exactly one bin per sample; norm values must always be
    reported alongside the window that produced them.
    """

    trajectory: Trajectory
    window: str = "cosine"
    taper: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.trajectory) < 8:
            raise ValueError("space-time estimators need at least 8 samples")
        object.__setattr__(self, "taper", _taper(len(self.trajectory), self.window))

    def time_modes(self, phase: ModifiedPhase | None = None) -> tuple:
        """Windowed unitary time-DFT in the interaction picture.

        Returns (tau, tilde) with tau the angular DFT frequencies (one per
        sample) and tilde indexed (tau_bin, n). The phase e^{i t phi(n)} with
        phi = mu(n) (ModifiedPhase) or n^4 (None) is divided out first, so
        tau directly plays the role of the modulation tau - phi(n).
        """
        traj = self.trajectory
        k = len(traj)
        ns = np.arange(-traj.n_max, traj.n_max + 1)
        if phase is None:
            phi = ns.astype(np.float64) ** 4
        else:
            phi = phase.mu_array(traj.n_max)
        # coeffs * exp(-1j * outer(times, phi)), tapered, transformed and
        # scaled by 1/sqrt(k), with at most two (samples, modes) arrays alive.
        # The product with coeffs stays an operator on a fresh temporary:
        # numpy may then multiply in place with the operands swapped, and
        # the order moves the last bit, so a fixed order would change results.
        tilde = np.zeros(traj.coeffs.shape, dtype=np.complex128)
        np.outer(traj.times, phi, out=tilde.real)
        np.multiply(-1j, tilde, out=tilde)
        tilde = traj.coeffs * np.exp(tilde)
        np.multiply(self.taper[:, None], tilde, out=tilde)
        c2c(tilde, (0,), True, 0, tilde, 1)
        np.divide(tilde, np.sqrt(k), out=tilde)
        tau = 2.0 * np.pi * np.fft.fftfreq(k, d=traj.dt)
        return tau, tilde


def ysb_norm(field: SpaceTimeField, s: float, b: float,
             phase: ModifiedPhase | None = None, z_part: bool = False,
             modes: tuple | None = None) -> float:
    """Discrete estimator of the X^{s,b} / Y^{s,b} space-time norm.

    phase=None weights modulations against the plain dispersion n^4
    (X^{s,b}); a ModifiedPhase uses mu(n) = n^4 + |c0(n)|^2 (Y^{s,b}).
    With z_part=True the l2_n L1_tau companion of Z^{s,1/2} is returned
    instead (b is then ignored). modes, when given, is the caller's
    field.time_modes(phase), so several norms share one time DFT.
    """
    tau, tilde = field.time_modes(phase) if modes is None else modes
    ns = np.arange(-field.trajectory.n_max, field.trajectory.n_max + 1)
    wn = (1.0 + ns.astype(np.float64) ** 2) ** s
    mag = np.abs(tilde)
    if z_part:
        per_mode = np.sum(mag, axis=0)
        return float(np.sqrt(np.sum(wn * per_mode**2)))
    wt = (1.0 + tau**2) ** b
    mag **= 2
    np.multiply(wn[None, :] * wt[:, None], mag, out=mag)
    return float(np.sqrt(np.sum(mag)))


# ---------------------------------------------------------------------------
# trilinear-ratio sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeField:
    """Sparse space-time field: atoms (n, offset, amp) meaning

        u(t, x) = sum amp * e^{i n x} e^{i t (n^4 + offset)},

    i.e. each atom sits at modulation tau - n^4 = offset. Exact frequencies
    make the modulation-weighted norms below free of time-grid aliasing.
    """

    atoms: tuple  # of (n: int, offset: float, amp: complex)

    def x_norm(self, b: float) -> float:
        """X^{0,b} mass: (sum <offset>^{2b} |amp|^2)^{1/2}, per unit time."""
        total = sum((1.0 + o * o) ** b * abs(a) ** 2 for _, o, a in self.atoms)
        return float(np.sqrt(total))


def nonresonant_output_xnorm(u1: ModeField, u2: ModeField, u3: ModeField, out_block) -> float:
    """X^{0,-1/2} norm of the output block of the non-resonant trilinear term.

    Enumerates triples exactly: an output atom at frequency n4 = n1-n2+n3
    carries modulation H(n1,n2,n3) + o1 - o2 + o3; atoms landing on the
    same (n4, modulation) add coherently. Trivially resonant triples
    (n1 = n2 or n2 = n3) are excluded.
    """
    acc: dict = {}
    for n1, o1, a1 in u1.atoms:
        for n2, o2, a2 in u2.atoms:
            if n1 == n2:
                continue
            for n3, o3, a3 in u3.atoms:
                if n2 == n3:
                    continue
                n4 = n1 - n2 + n3
                if not out_block.contains(n4):
                    continue
                lam = float(h_value(n1, n2, n3)) + (o1 - o2 + o3)
                key = (n4, lam)
                acc[key] = acc.get(key, 0.0j) + (-1j) * a1 * np.conj(a2) * a3
    total = sum((1.0 + lam * lam) ** -0.5 * abs(a) ** 2 for (_, lam), a in acc.items())
    return float(np.sqrt(total))


def _random_block_field(rng: np.random.Generator, block) -> ModeField:
    freqs = [n for n in range(-2 * block.level, 2 * block.level + 1) if block.contains(n)]
    chosen = rng.choice(len(freqs), size=min(6, len(freqs)), replace=False)
    atoms = []
    for i in sorted(chosen):
        n = freqs[i]
        for _ in range(2):
            offset = float(rng.normal(scale=1.0))
            amp = complex(rng.normal(), rng.normal())
            atoms.append((n, offset, amp))
    return ModeField(tuple(atoms))


def trilinear_ratio(seed: int, n1_level: int, n2_level: int, n3_level: int,
                    n4_level: int, trials: int) -> np.ndarray:
    """Empirical sampler for the trilinear gain of the non-resonant term.

    Per trial draws random dyadically-localized fields u1, u2, u3 and
    returns the (trials,) array of

        ratio = ||P_{N4} N_NR(u1,u2,u3)||_{X^{0,-1/2}}
                / (N_max^exponent * prod_j ||u_j||_{X^{0,1/2}}),

    with exponent -0.49 standing in for -1/2+. A monitoring statistic,
    never a proof; deterministic under the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    exponent = -0.49
    blocks = tuple(DyadicBlock(lv) for lv in (n1_level, n2_level, n3_level, n4_level))
    n_max_level = float(max(n1_level, n2_level, n3_level, n4_level))
    ratios = np.empty(trials)
    for t in range(trials):
        rng = derive_rng(seed, t)
        fields = [_random_block_field(rng, blocks[j]) for j in range(3)]
        lhs = nonresonant_output_xnorm(fields[0], fields[1], fields[2], blocks[3])
        rhs_norm = np.prod([f.x_norm(0.5) for f in fields])
        scale = n_max_level**exponent * rhs_norm
        ratios[t] = lhs / scale if scale > 0 else 0.0
    return ratios
