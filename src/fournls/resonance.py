"""Integer resonance algebra on the convolution hyperplane n1 - n2 + n3 = n.

The quartic phase mismatch for the cubic nonlinearity is

    H(n1, n2, n3) = n1^4 - n2^4 + n3^4 - (n1 - n2 + n3)^4
                  = (n1-n2)(n2-n3)(n1^2 + n2^2 + n3^2 + n^2 + 2(n1+n3)^2),

so it vanishes exactly when n1 = n2 or n2 = n3.

``h_value``, ``h_factored``, ``enumerate_nonresonant`` and
``resonance_table_rows`` work on Python integers, so H is exact at any
size. ``_nonresonant`` enumerates the non-resonant set once, as int64
arrays; ``normal_form_boundary`` evaluates H in int64 there, which is exact
while 48 n_max^4 < 2^63 (far beyond any grid that fits in memory), so its
float64 divisor equals float(h_value(...)) bit for bit. ``ModifiedPhase``
adds the float64 weights |c0(n)|^2.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import product, repeat

import numpy as np

from .spectrum import FourierState, _int_arg, quiet, resize


class ResonanceQuadruple(namedtuple("ResonanceQuadruple", "n1 n2 n3")):
    """A non-resonant triple (n1, n2, n3) of Python integers, as an immutable
    named tuple; n = n1 - n2 + n3 completes the quadruple. Copy, pickle and
    _replace go through the checked __new__."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it

    def __new__(cls, n1: int, n2: int, n3: int):
        n1, n2, n3 = _int_arg("n1", n1), _int_arg("n2", n2), _int_arg("n3", n3)
        if n1 == n2 or n2 == n3:
            raise ValueError("trivially resonant triple (n1=n2 or n2=n3)")
        return super().__new__(cls, n1, n2, n3)

    @property
    def h(self) -> int:
        return h_value(*self)


def h_value(n1: int, n2: int, n3: int) -> int:
    """n1^4 - n2^4 + n3^4 - (n1-n2+n3)^4, exact."""
    n = n1 - n2 + n3
    return n1**4 - n2**4 + n3**4 - n**4


def h_factored(n1: int, n2: int, n3: int) -> int:
    """Factored form (n1-n2)(n2-n3)(n1^2+n2^2+n3^2+n^2+2(n1+n3)^2), exact."""
    n = n1 - n2 + n3
    return (n1 - n2) * (n2 - n3) * (n1**2 + n2**2 + n3**2 + n**2 + 2 * (n1 + n3) ** 2)


def _nonresonant(n: int, n_max: int) -> tuple:
    """int64 arrays (n1, n2, n3) of the non-resonant triples with
    n1 - n2 + n3 = n and |ni| <= n_max, lexicographic in (n1, n2)."""
    k = np.arange(-n_max, n_max + 1, dtype=np.int64)
    n1, n2 = np.meshgrid(k, k, indexing="ij")
    n3 = n - n1 + n2
    keep = (np.abs(n3) <= n_max) & (n1 != n2) & (n2 != n3)
    return n1[keep], n2[keep], n3[keep]


def enumerate_nonresonant(n: int, n_max: int) -> list[ResonanceQuadruple]:
    """All non-resonant triples (n1, n2, n3) with n1-n2+n3 = n, |ni| <= n_max.

    Non-resonant means (n1-n2)(n2-n3) != 0. Output is lexicographic in
    (n1, n2); n3 is then determined. Fields are Python integers.
    """
    n, n_max = _int_arg("n", n), _int_arg("n_max", n_max)
    if abs(n) > 3 * n_max:  # |n1 - n2 + n3| <= 3 n_max: no triple, and no int64 arithmetic
        return []
    if (2 * n_max + 1) ** 2 > np.iinfo(np.intp).max:
        raise ValueError(f"n_max too large for the (n1, n2) grid, got {n_max}")
    # _nonresonant's mask is the definition of non-resonance, so the
    # quadruples skip ResonanceQuadruple's check
    triples = zip(*(a.tolist() for a in _nonresonant(n, n_max)))
    return list(map(tuple.__new__, repeat(ResonanceQuadruple), triples))


@dataclass(frozen=True, eq=False)
class ModifiedPhase:
    """Per-mode phase mu(n) = n^4 + |c0(n)|^2 for a reference datum."""

    reference: FourierState

    def mu(self, n: int) -> float:
        """mu(n), read off mu_array, for an integer |n| <= reference n_max."""
        n, n_max = _int_arg("n", n), self.reference.n_max
        if abs(n) > n_max:
            raise ValueError(f"frequency {n} outside reference support |n| <= {n_max}")
        return float(self.mu_array(n_max)[n + n_max])

    @quiet
    def mu_array(self, n_max: int) -> np.ndarray:
        """mu(n) for n = -n_max..n_max; requires 0 <= n_max <= reference n_max."""
        if not 0 <= n_max <= self.reference.n_max:
            raise ValueError(
                f"n_max must be in 0..{self.reference.n_max}, got {n_max}")
        c0 = resize(self.reference.coeffs, n_max)
        return np.arange(-n_max, n_max + 1, dtype=np.float64) ** 4 + np.abs(c0) ** 2


@quiet
def normal_form_boundary(u: FourierState, n: int) -> complex:
    """Boundary sum of the normal-form reduction at frequency n:

    sum over non-resonant triples of c(n1) conj(c(n2)) c(n3) conj(c(n)) / (iH).
    """
    n_max, n = u.n_max, _int_arg("n", n)
    if abs(n) > n_max:
        raise ValueError(f"|n|={abs(n)} exceeds state n_max={n_max}")
    c = u.coeffs
    cn = c[n + n_max]
    if cn == 0:
        return 0.0 + 0.0j
    n1, n2, n3 = _nonresonant(n, n_max)
    h = h_factored(n1, n2, n3).astype(np.float64)
    terms = c[n1 + n_max] * np.conj(c[n2 + n_max]) * c[n3 + n_max] * np.conj(cn)
    return complex(np.sum(terms / (1j * h)))


def resonance_table_rows(n_max: int):
    """(n1, n2, n3, n, H, factored_H) over the full box |ni| <= n_max, as a
    generator; n_max is an integer >= 0, checked when this is called."""
    n_max = _int_arg("n_max", n_max, 0)
    box = range(-n_max, n_max + 1)
    return ((n1, n2, n3, n1 - n2 + n3, h_value(n1, n2, n3), h_factored(n1, n2, n3))
            for n1, n2, n3 in product(box, repeat=3))
