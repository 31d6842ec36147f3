"""Index, Drazin and group inverses, the core-nilpotent split, and the
canonical projectors.

The core-EP and Drazin inverses come from the two powers the index search
ends on: c = a^k (a^(k+1))^+ is the core-EP inverse and a^D = c^(k+1) a^k,
with k the index of a. Ranks and pseudoinverses of powers use cutoffs
referenced to sigma_max(a)**power: a computed power of a numerically
nilpotent matrix is noise at that level, never exactly zero, and a
relative cutoff would mistake the noise for signal.

Powers are formed from b = 2**-e a, with e the exponent the SVD scales by,
so that neither b^j nor sigma_max(b)**j leaves the float range however a
is scaled; the scale is undone where a power enters a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .factor import HSDecomp, SVDResult, ZeroMatrixError, _pinv_from, _rank_from, svd
from .kernel import (DEFAULT_TOL, DimensionMismatchError, Tolerance, _exponent,
                     _guarded, _ldexp, conj_transpose, mat_pow)

__all__ = [
    "IndexTooLargeError",
    "CoreNilpotent",
    "index",
    "drazin",
    "group_inverse",
    "core_nilpotent",
    "projectors",
    "spectral_projector",
]


class IndexTooLargeError(ValueError):
    """The group inverse needs index(a) <= 1."""


@dataclass(frozen=True)
class CoreNilpotent:
    """Split a = core + nilpotent with core of index <= 1, parts annihilating."""

    core: np.ndarray
    nilpotent: np.ndarray
    index: int


@dataclass(frozen=True)
class _Analysis:
    """What the package derives from one matrix under one tolerance, each
    part computed on first use and kept for the one public call the record
    lives in. Powers and SVDs are formed once: B^j (B = 2^-e A) is kept by
    j, SVDs by input (shape and bytes), and the record of B shares both.
    The index search decomposes B and B^2 ... B^(k+1); svd(A) is read from
    svd(B). The index, the core-EP and the Drazin inverse are computed on
    the record of B only, and the record of A reads them scaled by 2^-e."""

    a: np.ndarray
    tol: Tolerance
    _svds: dict = field(default_factory=dict, repr=False, compare=False)
    _powers: dict = field(default_factory=dict, repr=False, compare=False)

    def _svd(self, m: np.ndarray) -> SVDResult:
        key = (m.shape, m.tobytes())
        if key not in self._svds:
            self._svds[key] = svd(m)
        return self._svds[key]

    @cached_property
    def _exp(self) -> int:
        return _exponent(self.a)

    @cached_property
    def _b(self) -> np.ndarray:
        """B = 2^-e A."""
        return _ldexp(self.a, -self._exp)

    def power(self, j: int, left=None, right=None) -> np.ndarray:
        """left A^j right (a missing factor is left out), formed as
        2^(e j) (left B^j right), so that no power of A is formed on the
        way where it would leave the float range. On `unit` it is B^j."""
        if j not in self._powers:
            self._powers[j] = mat_pow(self._b, j)
        m = self._powers[j]
        m = m if left is None else left @ m
        m = m if right is None else m @ right
        return _ldexp(m, self._exp * j)

    def power_pinv(self, j: int) -> np.ndarray:
        """(B^j)^+, with the cutoff referenced to sigma_max(B)**j; called on
        the record of B only, so that it is at that record's scale."""
        return _pinv_from(self._svd(self.power(j)), self._smax ** j, self.tol)

    @property
    def unit(self) -> "_Analysis":
        """The record of B = 2^-e A, whose largest real or imaginary part
        lies in [0.5, 1) whatever the scale of A: this record itself when
        e = 0, which is not stored, so that no record refers to itself."""
        return self if self._exp == 0 else self._unit

    @cached_property
    def _unit(self) -> "_Analysis":
        return _Analysis(self._b, self.tol, self._svds, self._powers)

    @cached_property
    def factors(self) -> SVDResult:
        """svd(A), read from svd(B): `svd` scales its input by 2^-e first,
        so the two differ only in s, by 2^e."""
        res = self._svd(self._b)
        return SVDResult(u=res.u, s=np.ldexp(res.s, self._exp), v=res.v)

    @cached_property
    def _smax(self) -> float:
        """sigma_max(B)."""
        s = self._svd(self._b).s
        return float(s[0]) if len(s) else 0.0

    @cached_property
    def rank(self) -> int:
        return _rank_from(self.factors, 0.0, self.tol)

    @cached_property
    def pinv(self) -> np.ndarray:
        return _pinv_from(self.factors, 0.0, self.tol)

    @cached_property
    def hs(self) -> HSDecomp:
        res, r = self.factors, self.rank
        if r == 0:
            raise ZeroMatrixError("the factorization requires rank >= 1")
        qp = conj_transpose(res.v) @ res.u
        return HSDecomp(u=res.u, sigma=res.s[:r], q=qp[:r, :r], p=qp[:r, r:], r=r)

    @cached_property
    def index(self) -> int:
        """The least k with rank(A^k) = rank(A^(k+1)), searched on the
        record of B: rank(B^j) is read from svd(B^j), with the cutoff
        referenced to sigma_max(B)**j."""
        if self._exp:
            return self.unit.index
        n = self.a.shape[0]
        prev_rank = n
        for k in range(n + 1):
            r = _rank_from(self._svd(self.power(k + 1)), self._smax ** (k + 1), self.tol)
            if r == prev_rank:
                return k
            prev_rank = r
        return n

    @cached_property
    def drazin(self) -> np.ndarray:
        """2^-e C^(k+1) B^k, C the core-EP inverse of B, formed on the
        record of B."""
        if self._exp:
            return _ldexp(self.unit.drazin, -self._exp)
        k = self.index
        return mat_pow(self.core_ep, k + 1) @ self.power(k)

    @cached_property
    def core(self) -> np.ndarray:
        return self.a @ self.drazin @ self.a

    @cached_property
    def dmp(self) -> np.ndarray:
        return self.drazin @ self.a @ self.pinv

    @cached_property
    def mpd(self) -> np.ndarray:
        return self.pinv @ self.a @ self.drazin

    @cached_property
    def cmp(self) -> np.ndarray:
        return self.pinv @ self.core @ self.pinv

    @cached_property
    def mpdmp(self) -> np.ndarray:
        return self.pinv @ self.drazin @ self.pinv

    @cached_property
    def core_ep(self) -> np.ndarray:
        """2^-e C, C = B^k (B^(k+1))^+ the core-EP inverse of B, formed on
        the record of B."""
        if self._exp:
            return _ldexp(self.unit.core_ep, -self._exp)
        k = self.index
        return self.power(k) @ self.power_pinv(k + 1)

    @cached_property
    def cce(self) -> np.ndarray:
        return self.pinv @ self.a @ self.core_ep @ self.a @ self.pinv


def _analyse(a, tol: Tolerance, square: bool = True) -> _Analysis:
    """The record of `a`, through the input guard (`kernel._guarded`); when
    `square`, an input that is not square raises DimensionMismatchError.
    Public functions take a matrix or, from inside the package, a record,
    which passes through so each call analyses each matrix once."""
    rec = a if isinstance(a, _Analysis) else _Analysis(_guarded(a), tol)
    if square and rec.a.shape[0] != rec.a.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got {rec.a.shape}")
    return rec


def _operand(rec: _Analysis, b) -> np.ndarray:
    """The second operand `b` of a relation or family of the matrix of
    `rec`, as an array, through the input guard and with the same shape
    (DimensionMismatchError otherwise). A record passes as its matrix; no
    record is built for `b`."""
    b = b.a if isinstance(b, _Analysis) else _guarded(b)
    if rec.a.shape != b.shape:
        raise DimensionMismatchError(f"size mismatch {rec.a.shape} vs {b.shape}")
    return b


def index(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1))."""
    return _analyse(a, tol).index


def drazin(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Drazin inverse (a^k (a^(k+1))^+)^(k+1) a^k with k = index(a)."""
    return _analyse(a, tol).drazin


def group_inverse(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Drazin inverse restricted to index <= 1."""
    rec = _analyse(a, tol)
    if rec.index > 1:
        raise IndexTooLargeError(f"group inverse needs index <= 1, got {rec.index}")
    return rec.drazin


def core_nilpotent(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> CoreNilpotent:
    """core = a a^D a; nilpotent = a - core."""
    rec = _analyse(a, tol)
    return CoreNilpotent(core=rec.core, nilpotent=rec.a - rec.core, index=rec.index)


def projectors(a: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Orthogonal projectors (a a^+, a^+ a) onto the column spaces of a, a*."""
    rec = _analyse(a, tol, square=False)
    return rec.a @ rec.pinv, rec.pinv @ rec.a


def spectral_projector(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """a a^D: the oblique projector onto R(a^k) along N(a^k)."""
    rec = _analyse(a, tol)
    return rec.a @ rec.drazin
