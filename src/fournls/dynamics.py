"""Right-hand sides and time integration for 4NLS / 4WNLS.

Mode equations (convention: u = sum c_n e^{inx}):

  full:  dc_n/dt = i n^4 c_n - i mu * sum_{n1-n2+n3=n} c(n1) conj(c(n2)) c(n3)
  wick:  dc_n/dt = i n^4 c_n + mu * i |c_n|^2 c_n + mu * N_NR(u)(n)

where N_NR keeps only the non-resonant triples ((n1-n2)(n2-n3) != 0).
The stiff linear phase e^{i t n^4} is always handled exactly.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import (FourierState, Trajectory, _int_arg, _is_int, _is_real, _row_mass, as_rows,
                       from_grid, grid_plan, odd_padded_grid_size, quiet, resize, to_grid)


class NumericFailure(RuntimeError):
    """NaN/overflow during time stepping; carries the offending step index."""

    def __init__(self, step_index: int):
        super().__init__(f"non-finite amplitudes after step {step_index}")
        self.step_index = step_index


class Kind(enum.Enum):
    FULL_4NLS = "full"
    WICK_4WNLS = "wick"


@dataclass(frozen=True)
class EquationKind:
    """Which equation to integrate and the nonlinearity sign mu.

    mu is +1 or -1; mu = 0 is accepted as a linear-only test mode
    (nonlinearity switched off entirely).
    """

    kind: Kind
    mu: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise ValueError(f"kind must be a Kind, got {self.kind!r}")
        if not _is_int(self.mu) or self.mu not in (-1, 0, 1):
            raise ValueError("mu must be +1, -1, or 0 (linear-only test mode)")


FULL = EquationKind(Kind.FULL_4NLS, 1)
WICK = EquationKind(Kind.WICK_4WNLS, 1)


class Scheme(enum.Enum):
    EXP_RK4 = "exp_rk4"
    STRANG = "strang"


@dataclass(frozen=True)
class IntegratorSpec:
    """Time integrator: scheme and step size.

    EXP_RK4 integrates the Galerkin system on the datum's own modes: the
    nonlinearity is projected to |n| <= N for a datum of radius N, so the
    truncated flow u_N is integrate on a datum of radius N. STRANG lifts
    the datum to an alias-safe collocation grid and evolves it there.
    Negative dt integrates backwards in time.
    """

    scheme: Scheme = Scheme.EXP_RK4
    dt: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")
        if not _is_real(self.dt) or self.dt == 0.0:
            raise ValueError("dt must be a nonzero finite number")

    def steps(self, T: float) -> int:
        """The step count k with T = k*dt; a ValueError unless T is a
        nonnegative integer multiple of dt (in units of the signed step)."""
        k_float = T / self.dt if _is_real(T) else math.nan
        if not math.isfinite(k_float):
            raise ValueError(f"T={T!r} and dt={self.dt} give no finite step count")
        k = round(k_float)
        if k < 0 or abs(k_float - k) > 1e-12 * max(1.0, abs(k_float)):
            raise ValueError(f"T={T} is not a nonnegative integer multiple of dt={self.dt}")
        return k


def _cubic_conv_raw(cu, cv, cw, m) -> np.ndarray:
    """Raw-array cubic convolution on the length-m grid: the coefficients of conj(v) u w as a
    view of its grid, whose to_grid factors e^{iNx_j} net to one, as from_grid expects.

    An argument that is the same array as cu reuses its inverse FFT, so
    the self-product costs one inverse transform instead of three.
    An overflow gives non-finite modes; callers wear `quiet`.
    """
    gu = to_grid(cu, m)
    gv = gu if cv is cu else to_grid(cv, m)
    gw = gu if cw is cu else to_grid(cw, m)
    return from_grid(np.conj(gv) * gu * gw, (cu.shape[-1] - 1) // 2)


@quiet
def cubic_convolution(u: FourierState, v: FourierState, w: FourierState) -> FourierState:
    """d_n = sum_{n1-n2+n3=n, |ni|<=N, |n|<=N} u(n1) conj(v(n2)) w(n3).

    Computed alias-free via a zero-padded physical grid of length >= 4N+1.
    """
    if not (u.n_max == v.n_max == w.n_max):
        raise ValueError("cubic_convolution requires equal n_max")
    return u.with_coeffs(_cubic_conv_raw(u.coeffs, v.coeffs, w.coeffs, grid_plan(u.n_max)))


@quiet
def nonlinearity_resonant(u: FourierState) -> FourierState:
    """Resonant part: N_R(u)(n) = i |c_n|^2 c_n - 2i (sum_k |c_k|^2) c_n."""
    c = u.coeffs
    return u.with_coeffs(1j * np.abs(c) ** 2 * c - 2j * _row_mass(c) * c)


def nonlinearity_nonresonant(u: FourierState) -> FourierState:
    """Non-resonant part: N_NR(u)(n) = -i sum over non-resonant triples.

    Computed as -i * cubic_convolution(u,u,u) - N_R(u); the splitting
    -i conv = N_R + N_NR is exact by construction.
    """
    conv = cubic_convolution(u, u, u)
    res = nonlinearity_resonant(u)
    return u.with_coeffs(-1j * conv.coeffs - res.coeffs)


def _nonlinear_rhs_raw(c: np.ndarray, kind: EquationKind, m) -> np.ndarray:
    """Nonlinear part of dc/dt (linear phase excluded) for raw amplitude
    rows c of shape (..., 2*n_max+1)."""
    if kind.mu == 0:
        return np.zeros_like(c)
    conv = _cubic_conv_raw(c, c, c, m)
    if kind.kind is Kind.FULL_4NLS:
        return -1j * kind.mu * conv
    # wick: resonant self-phase kept, mass shift removed from the convolution
    return kind.mu * (-1j * conv + 2j * _row_mass(c)[..., None] * c)


def _stepper(n_max: int, spec: IntegratorSpec, kind: EquationKind):
    """Raw-array one-step map c -> c(dt) for amplitude rows of shape
    (..., 2*n_max+1), n = -n_max..n_max; each row steps independently.

    The phases e^{i dt n^4/2} and the grid length are built once here, so
    a run pays for them once rather than every step.
    EXP_RK4 is Lawson (interaction-picture) RK4: the linear phase is exact.
    STRANG treats 2*n_max+1 as its collocation grid (integrate lifts the
    state first); every substep is unitary, and its phase reads only |grid|.
    """
    dt = spec.dt
    modes = np.arange(-n_max, n_max + 1)
    e_half = np.exp(0.5j * dt * modes.astype(np.float64) ** 4)

    if spec.scheme is Scheme.STRANG:
        def strang(c):
            c = e_half * c
            if kind.mu != 0:
                grid = to_grid(c, 2 * n_max + 1)
                phase = -kind.mu * np.abs(grid) ** 2 * dt
                if kind.kind is Kind.WICK_4WNLS:
                    phase = phase + 2.0 * kind.mu * _row_mass(c)[..., None] * dt
                c = from_grid(np.exp(1j * phase) * grid, n_max)
            return e_half * c

        return strang

    e_full = e_half * e_half
    back_half, back_full = np.conj(e_half), np.conj(e_full)
    m = grid_plan(n_max)

    def nl(c):
        return _nonlinear_rhs_raw(c, kind, m)

    # Fresh temporaries lead each complex product: numpy keeps this order at every size.
    def rk4(c0):
        k1 = nl(c0)
        k2 = nl((c0 + 0.5 * dt * k1) * e_half) * back_half
        k3 = nl((c0 + 0.5 * dt * k2) * e_half) * back_half
        k4 = nl((c0 + dt * k3) * e_full) * back_full
        return (c0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) * e_full

    return rk4


@quiet
def _run(c0: np.ndarray, k: int, spec: IntegratorSpec, kind: EquationKind,
         sample_stride: int) -> np.ndarray:
    """Take k steps from the raw amplitude rows c0, shape (..., 2N+1), on
    their own grid, writing every sample_stride-th state into one read-only
    (k // sample_stride + 1, ..., 2N+1) array, starting with the datum.
    A single trajectory is the 1-D case.

    Raises NumericFailure(i) when step i leaves any row non-finite.
    """
    advance = _stepper((c0.shape[-1] - 1) // 2, spec, kind)
    samples = np.empty((k // sample_stride + 1,) + c0.shape, dtype=np.complex128)
    samples[0] = c = c0
    for i in range(k):
        c = advance(c)
        if not np.isfinite(c.view(np.float64)).all():
            raise NumericFailure(i)
        if (i + 1) % sample_stride == 0:
            samples[(i + 1) // sample_stride] = c
    samples.flags.writeable = False
    return samples


def _prepare(c0: np.ndarray, T: float, spec: IntegratorSpec,
             sample_stride: int) -> tuple[np.ndarray, int]:
    """integrate's argument checks: the datum rows (lifted under STRANG)
    and the step count k."""
    _int_arg("sample_stride", sample_stride, 1)
    k = spec.steps(T)
    if k % sample_stride != 0:
        raise ValueError("sample_stride must divide the number of steps")
    if spec.scheme is Scheme.STRANG:
        # zero-pad so the collocation grid 2*n_max+1 is alias-safe and odd
        c0 = resize(c0, (odd_padded_grid_size((c0.shape[-1] - 1) // 2) - 1) // 2)
    return c0, k


def step(u: FourierState, spec: IntegratorSpec, kind: EquationKind) -> FourierState:
    """Advance one step of length spec.dt, with integrate's checks and errors.

    This is one iteration of the map integrate iterates, on u's own grid:
    the result has u's n_max. Under STRANG, u's 2*n_max+1 modes are the
    collocation grid, so to step the alias-safe map start from the lifted
    datum integrate(u0, 0, spec, kind)[-1]; k steps from it equal
    integrate(u0, k*dt, spec, kind)[-1] bit for bit.
    """
    return u.with_coeffs(_run(u.coeffs, 1, spec, kind, 1)[-1])


def integrate(u0: FourierState, T: float, spec: IntegratorSpec,
              kind: EquationKind, sample_stride: int = 1) -> Trajectory:
    """Integrate from t=0 to t=T, sampling every sample_stride steps.

    T must be a nonnegative integer multiple of spec.dt (in units of the
    signed step) and sample_stride must divide the step count, so the
    returned trajectory is uniformly sampled and includes both endpoints.
    With STRANG the state is zero-padded once to the alias-safe collocation
    grid and evolved there without projection (each substep is an
    l2-isometry), so the returned states carry the enlarged n_max, also
    for T = 0.
    """
    c0, k = _prepare(u0.coeffs, T, spec, sample_stride)
    return Trajectory(0.0, spec.dt * sample_stride, _run(c0, k, spec, kind, sample_stride))


def integrate_batch(data, T: float, spec: IntegratorSpec, kind: EquationKind,
                    sample_stride: int = 1) -> np.ndarray:
    """Integrate B data at once: the rows of data, shape (B, 2*n_max+1),
    are amplitudes c_n, |n| <= n_max, as in FourierState.coeffs.

    Takes integrate's arguments and checks and returns a read-only
    (samples, B, 2*n_max+1) array whose column [:, b] equals integrate's
    trajectory of row b bit for bit, n_max enlarged under STRANG as there.
    The rows step together through the same kernel, so NumericFailure(i)
    names the first step after which any row has a non-finite amplitude.
    """
    c0, k = _prepare(as_rows(data, "data"), T, spec, sample_stride)
    return _run(c0, k, spec, kind, sample_stride)


@quiet
def exact_resonant_flow(u0: FourierState, t: float, mu: int = 1) -> FourierState:
    """Closed-form flow of the purely resonant system

        dc_n/dt = mu * (i |c_n|^2 - 2i sum_k |c_k|^2) c_n.

    Every |c_n| is a constant of motion, so each mode just rotates:
    c_n(t) = exp(i mu t (|c_n(0)|^2 - 2 M0)) c_n(0) with M0 the mass.
    """
    c = u0.coeffs
    return u0.with_coeffs(np.exp(1j * mu * t * (np.abs(c) ** 2 - 2.0 * _row_mass(c))) * c)
