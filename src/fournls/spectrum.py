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

# The overflow policy: inf or nan, no warning. Wear it as a decorator, never in a
# with statement: it then sets the state per call, so nested calls are safe.
quiet = np.errstate(over="ignore", invalid="ignore")

STATE_FORMAT = "4nls-state/1"
TRAJ_FORMAT = "4nls-traj/1"


class FileFormatError(ValueError):
    """Raised when a state/trajectory file cannot be parsed."""


def _is_int(x) -> bool:
    """The integer rule: a Python or numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _int_arg(name: str, x, least: int | None = None) -> int:
    """int(x) for an integer x by _is_int, >= least when least is given;
    a ValueError naming the argument otherwise."""
    if not _is_int(x) or (least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {x!r}")
    return int(x)


def _is_real(x) -> bool:
    """The real-number rule: an integer by _is_int or a float, finite as a float."""
    try:
        return (_is_int(x) or isinstance(x, (float, np.floating))) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


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
    n_max = _int_arg("n_max", n_max, 0)
    k = (c.shape[-1] - 1) // 2 - n_max
    if k >= 0:
        return c[..., k : c.shape[-1] - k]
    out = np.zeros(c.shape[:-1] + (2 * n_max + 1,), dtype=np.complex128)
    out[..., -k : out.shape[-1] + k] = c
    return out


@dataclass(frozen=True, eq=False)
class FourierState:
    """Complex mode amplitudes c_n for n = -n_max .. n_max (contiguous)."""

    n_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_max", _int_arg("n_max", self.n_max, 0))
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.n_max + 1,):
            raise ValueError(
                f"coeffs must have length {2 * self.n_max + 1}, got {c.shape}"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coeffs contain NaN or Inf")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, n_max: int) -> "FourierState":
        return cls.from_modes(n_max, {})

    @classmethod
    def from_modes(cls, n_max: int, modes: dict[int, complex]) -> "FourierState":
        n_max = _int_arg("n_max", n_max, 0)
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled run: row k of ``coeffs`` holds c_n, |n| <= n_max,
    at time t0 + k*dt. Validated once and stored read-only; a read-only
    C-contiguous complex128 array is kept without a copy."""

    t0: float
    dt: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not (_is_real(self.t0) and _is_real(self.dt) and self.dt != 0.0):
            raise ValueError(f"need finite t0, finite nonzero dt; got {self.t0!r}, {self.dt!r}")
        c = as_rows(self.coeffs, "coeffs")
        if c.flags.writeable:
            c = c.copy()
            c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n_max(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @property
    @quiet
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


def to_grid(c, m: int) -> np.ndarray:
    """The field values e^{iNx_j} u(x_j), x_j = 2 pi j/m, of amplitudes c, shape (..., 2N+1):
    mode n at slot n + N of a zero length-m grid (c itself when m = 2N+1), inverse transformed
    unscaled along the last axis; scipy.fft.ifft(..., norm="forward") bit for bit, c unchanged."""
    if m == c.shape[-1]:
        return c2c(np.asarray(c, dtype=np.complex128), (-1,), False, 0, None, 1)
    spectrum = np.zeros(c.shape[:-1] + (m,), dtype=np.complex128)
    spectrum[..., : c.shape[-1]] = c
    return c2c(spectrum, (-1,), False, 0, spectrum, 1)  # in place, unscaled, one thread


def from_grid(g: np.ndarray, n_max: int) -> np.ndarray:
    """The coefficients c_n, |n| <= n_max, of a C-contiguous complex128 grid g whose field
    carries to_grid's factor e^{i n_max x_j} once: scipy.fft.fft(g, norm="forward")[...,
    :2*n_max+1] bit for bit, slot n + n_max holding c_n. In place: g is overwritten and the
    result is a view of it."""
    return c2c(g, (-1,), True, 2, g, 1)[..., : 2 * n_max + 1]


def grid_plan(n_max: int) -> int:
    """The FFT grid length m of the modes -n_max..n_max: the smallest efficient
    one >= 4*n_max+1, on which cubic products are alias-free."""
    return good_size(4 * n_max + 1, False)  # = scipy.fft.next_fast_len


def odd_padded_grid_size(n_max: int) -> int:
    """Smallest efficient odd transform length >= 4*n_max+1."""
    m = grid_plan(n_max)
    while m % 2 == 0:
        m = good_size(m + 1, False)
    return m


def _row_mass(c):
    """sum_n |c_n|^2 of each row of c, inf on overflow; callers wear `quiet`."""
    return np.sum(np.abs(c) ** 2, axis=-1)


@quiet
def mass(u):
    """sum_n |c_n|^2 = (1/2pi) int |u|^2 dx of one FourierState (a float)
    or of each amplitude row of an array of shape (..., 2*n_max+1)."""
    if isinstance(u, FourierState):
        return float(mass(u.coeffs))
    return _row_mass(u)


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
