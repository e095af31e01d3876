"""Truncated Fourier representation of 2pi-periodic complex fields.

Convention: u(x) = sum_n c_n e^{inx}, c_n = (1/2pi) int_0^{2pi} e^{-inx} u dx.
Under this convention products of functions are plain convolutions of
coefficients and (1/2pi) int |u|^2 dx = sum_n |c_n|^2.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np


def _pocketfft():
    """scipy's compiled pocketfft extension (the kernel behind scipy.fft),
    loaded from its file: the scipy.fft package costs ~0.3 s of imports."""
    m = importlib.machinery
    where = importlib.util.find_spec("scipy").submodule_search_locations[0] + "/fft/_pocketfft"
    finder = m.FileFinder(where, (m.ExtensionFileLoader, m.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.fft._pocketfft.pypocketfft")
    if spec is None:
        raise ImportError(f"scipy's pocketfft extension not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pypocketfft = _pocketfft()
c2c, good_size = _pypocketfft.c2c, _pypocketfft.good_size  # undispatched

STATE_FORMAT = "4nls-state/1"
TRAJ_FORMAT = "4nls-traj/1"


class FileFormatError(ValueError):
    """Raised when a state/trajectory file cannot be parsed."""


def as_rows(c, name: str) -> np.ndarray:
    """c as C-contiguous complex128 rows of shape (B, 2*n_max+1) with B >= 1,
    all finite; a ValueError naming the argument otherwise."""
    c = np.ascontiguousarray(c, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] % 2 == 0:
        raise ValueError(f"{name} must be (B, 2*n_max+1) rows with B >= 1, got {c.shape}")
    if not np.all(np.isfinite(c.view(np.float64))):
        raise ValueError(f"{name} contain NaN or Inf")
    return c


def resize(c, n_max: int) -> np.ndarray:
    """Amplitude rows c, shape (..., 2*N+1), cropped or zero-padded to
    radius n_max; each kept mode stays at its frequency. A crop is a view."""
    k = (c.shape[-1] - 1) // 2 - n_max
    if k >= 0:
        return c[..., k : c.shape[-1] - k]
    out = np.zeros(c.shape[:-1] + (2 * n_max + 1,), dtype=np.complex128)
    out[..., -k : out.shape[-1] + k] = c
    return out


@dataclass(frozen=True)
class FourierState:
    """Complex mode amplitudes c_n for n = -n_max .. n_max (contiguous)."""

    n_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.n_max
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
            raise ValueError(f"n_max must be a nonnegative integer, got {n!r}")
        object.__setattr__(self, "n_max", int(n))
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.n_max + 1,):
            raise ValueError(
                f"coeffs must have length {2 * self.n_max + 1}, got {c.shape}"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coeffs contain NaN or Inf")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, n_max: int) -> "FourierState":
        return cls(n_max, np.zeros(2 * n_max + 1, dtype=np.complex128))

    @classmethod
    def from_modes(cls, n_max: int, modes: dict[int, complex]) -> "FourierState":
        c = np.zeros(2 * n_max + 1, dtype=np.complex128)
        for n, a in modes.items():
            if abs(n) > n_max:
                raise ValueError(f"mode {n} outside truncation |n| <= {n_max}")
            c[n + n_max] = a
        return cls(n_max, c)

    def mode(self, n: int) -> complex:
        """Amplitude c_n; zero outside the truncation."""
        if abs(n) > self.n_max:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.n_max])

    def with_coeffs(self, coeffs: np.ndarray) -> "FourierState":
        return FourierState(self.n_max, coeffs)

    def truncate_to(self, n_max: int) -> "FourierState":
        """Resize to radius n_max: drop the modes with |n| > n_max, or
        zero-pad when n_max exceeds the current radius."""
        return FourierState(n_max, resize(self.coeffs, n_max))

    def allclose(self, other: "FourierState", atol: float = 0.0, rtol: float = 1e-13) -> bool:
        return self.n_max == other.n_max and np.allclose(
            self.coeffs, other.coeffs, atol=atol, rtol=rtol
        )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled run: row k of ``coeffs`` holds c_n, |n| <= n_max,
    at time t0 + k*dt. Validated once and stored read-only; a read-only
    C-contiguous complex128 array is kept without a copy."""

    t0: float
    dt: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.dt) and self.dt != 0.0):
            raise ValueError(f"need finite t0, finite nonzero dt; got {self.t0}, {self.dt}")
        c = as_rows(self.coeffs, "coeffs")
        if c.flags.writeable:
            c = c.copy()
            c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n_max(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, k: int) -> FourierState:
        """Sample k as a FourierState (negative k counts from the end)."""
        return FourierState(self.n_max, self.coeffs[k])

    @property
    def states(self) -> tuple:
        return tuple(self[k] for k in range(len(self)))

    def coeff_array(self) -> np.ndarray:
        """The read-only (num_samples, 2*n_max+1) array of amplitudes."""
        return self.coeffs


@dataclass(frozen=True)
class DyadicBlock:
    """Frequency annulus I_1 = [-1,1], I_N = [-2N,-N/2] u [N/2,2N] for N >= 2."""

    level: int

    def __post_init__(self):
        n = self.level
        if (not isinstance(n, (int, np.integer)) or isinstance(n, bool)
                or n < 1 or (n & (n - 1)) != 0):
            raise ValueError(f"level must be a power of two >= 1, got {n}")

    def contains(self, n):
        """Whether n lies in the block: a bool for an int, an elementwise
        mask for an integer array."""
        lo, hi = (0, 1) if self.level == 1 else (self.level // 2, 2 * self.level)
        return (lo <= abs(n)) & (abs(n) <= hi)

    def mask(self, n_max: int) -> np.ndarray:
        return self.contains(np.arange(-n_max, n_max + 1))


def blocks_covering(n_max: int) -> list[DyadicBlock]:
    """Dyadic blocks whose union covers [-n_max, n_max]: levels 1, 2, ...,
    up to the largest N with N/2 <= n_max."""
    return [DyadicBlock(2**j) for j in range(max(n_max, 0).bit_length() + 1)]


def to_grid(c, m: int, idx) -> np.ndarray:
    """Zero-pad the amplitudes c, shape (..., 2*n_max+1), onto the length-m
    FFT layout idx and transform the last axis to the physical grid
    (without the factor m): scipy.fft.ifft, bit for bit."""
    spectrum = np.zeros(c.shape[:-1] + (m,), dtype=np.complex128)
    spectrum.T[idx] = c.T  # scatter along the last axis; cheaper than [..., idx]
    return c2c(spectrum, (-1,), False, 2, spectrum, 1)  # in place, 1/m, one thread


def from_grid(g: np.ndarray, idx) -> np.ndarray:
    """The modes at layout idx of the forward transform of the last axis
    of g, a C-contiguous complex128 grid: scipy.fft.fft(g).take(idx,
    axis=-1), bit for bit. Transforms in place, so g is overwritten."""
    return c2c(g, (-1,), True, 0, g, 1).take(idx, axis=-1)


def grid_plan(n_max: int, m: int | None = None) -> tuple:
    """The FFT grid (m, idx) of the modes -n_max..n_max: its length m,
    by default the smallest efficient one >= 4*n_max+1 (alias-free cubic
    products), and idx, the layout slot of each mode in to_grid/from_grid."""
    if m is None:
        m = good_size(4 * n_max + 1, False)  # = scipy.fft.next_fast_len
    return m, np.arange(-n_max, n_max + 1) % m


def odd_padded_grid_size(n_max: int) -> int:
    """Smallest efficient odd transform length >= 4*n_max+1."""
    m = good_size(4 * n_max + 1, False)
    while m % 2 == 0:
        m = good_size(m + 1, False)
    return m


def mass(u):
    """sum_n |c_n|^2 = (1/2pi) int |u|^2 dx of one FourierState (a float)
    or of each amplitude row of an array of shape (..., 2*n_max+1)."""
    if isinstance(u, FourierState):
        with np.errstate(over="ignore"):  # a float may be inf
            return float(mass(u.coeffs))
    return np.sum(np.abs(u) ** 2, axis=-1)


def _pairs(coeffs: np.ndarray) -> list:
    """[re, im] float pairs; json writes each float as its shortest
    round-trip repr, so files are bit-exact."""
    return coeffs.view(np.float64).reshape(-1, 2).tolist()


def _json_object(text: str, where: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{where}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object, found {doc!r:.40}")
    return doc


def _header(text: str, fmt: str, where: str) -> tuple[dict, int]:
    """The header object in text and its n_max, checked against format fmt."""
    doc = _json_object(text, where)
    if doc.get("format") != fmt:
        raise FileFormatError(
            f"{where}: version mismatch: expected {fmt!r}, found {doc.get('format')!r}")
    n_max = doc.get("n_max")
    if type(n_max) is not int or n_max < 0:
        raise FileFormatError(f"{where}: n_max must be an integer >= 0, found {n_max!r}")
    return doc, n_max


def _decode(raw, n_max: int, where: str, text: str) -> np.ndarray:
    """The 2*n_max+1 amplitudes in raw, finite [re, im] number pairs parsed from text."""
    try:
        pairs = np.array(raw)
    except ValueError as exc:  # ragged nesting
        raise FileFormatError(f"{where}: malformed coeffs: {exc}") from exc
    # no JSON number has a "u" or an "l", but true and false (numpy's 1 and 0)
    # do; when the text has either letter, look again at the coeffs alone
    if "u" in text or "l" in text:
        text = json.dumps(raw)
    if pairs.dtype.kind not in "iuf" or "u" in text or "l" in text:  # strings, null, bools
        raise FileFormatError(f"{where}: coeffs must be numbers, found {raw!r:.60}")
    if pairs.shape != (2 * n_max + 1, 2):
        raise FileFormatError(
            f"{where}: expected {2 * n_max + 1} [re, im] pairs, got shape {pairs.shape}")
    if not np.all(np.isfinite(pairs)):
        raise FileFormatError(f"{where}: coeffs contain NaN or Inf")
    return pairs.astype(np.float64).view(np.complex128)[:, 0]


def save_state(state: FourierState, path) -> None:
    doc = {
        "format": STATE_FORMAT,
        "n_max": state.n_max,
        "coeffs": _pairs(state.coeffs),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_state(path) -> FourierState:
    with open(path) as fh:
        text = fh.read()
    doc, n_max = _header(text, STATE_FORMAT, str(path))
    return FourierState(n_max, _decode(doc.get("coeffs"), n_max, str(path), text))


def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        header = {
            "format": TRAJ_FORMAT,
            "n_max": traj.n_max,
            "t0": float(traj.t0),
            "dt": float(traj.dt),
        }
        fh.write(json.dumps(header) + "\n")
        for k, row in enumerate(traj.coeffs):
            fh.write(json.dumps({"k": k, "coeffs": _pairs(row)}) + "\n")


def _records(lines, n_max: int, path):
    """The amplitude row of each record line, checked in file order."""
    for i, ln in enumerate(lines):
        where = f"{path}: record {i}"
        rec = _json_object(ln, where)
        k = rec.get("k")
        if type(k) is not int or k != i:
            raise FileFormatError(f"{where} carries index {k!r}")
        yield _decode(rec.get("coeffs"), n_max, where, ln)


def load_trajectory(path) -> Trajectory:
    """Read the header line, then parse one record line at a time straight
    into the result, so a load holds the array plus one line of text."""
    with open(path) as fh:
        # each line without its line end, so a JSON error names the same column
        lines = (ln.rstrip("\n") for ln in fh if ln.strip())
        first = next(lines, None)
        if first is None:
            raise FileFormatError(f"{path}: empty trajectory file")
        header, n_max = _header(first, TRAJ_FORMAT, f"{path}: header")
        t0, dt = header.get("t0"), header.get("dt")
        if type(t0) not in (int, float) or type(dt) not in (int, float):
            raise FileFormatError(f"{path}: header: t0, dt must be numbers, found {t0!r}, {dt!r}")
        rows = _records(lines, n_max, path)
        row = next(rows, None)
        if row is None:
            raise FileFormatError(f"{path}: trajectory has no states")
        # the row type is built only once a record confirms the width
        coeffs = np.fromiter(itertools.chain([row], rows), (np.complex128, row.shape))
    coeffs.flags.writeable = False
    try:
        return Trajectory(float(t0), float(dt), coeffs)
    except (OverflowError, ValueError) as exc:
        raise FileFormatError(f"{path}: header: bad t0 or dt: {exc!r}") from exc
