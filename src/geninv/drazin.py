"""Index, Drazin and group inverses, the core-nilpotent split, and the
canonical projectors.

The Drazin inverse is computed from Moore-Penrose inverses of powers:
a^D = a^k (a^(2k+1))^+ a^k with k the index of a. Ranks and pseudoinverses
of powers use cutoffs referenced to sigma_max(a)**power: a computed power
of a numerically nilpotent matrix is noise at that level, never exactly
zero, and a relative cutoff would mistake the noise for signal.

Powers are formed from b = 2**-e a, with e the exponent the SVD scales by,
so that neither b^j nor sigma_max(b)**j leaves the float range however a
is scaled; the scale is undone where a power enters a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .factor import (HSDecomp, SVDResult, ZeroMatrixError, _exponent, _ldexp,
                     _pinv_from, _rank_from, svd)
from .kernel import (DEFAULT_TOL, DimensionMismatchError, PreconditionError,
                     Tolerance, conj_transpose, mat_pow)

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
    lives in. SVDs are kept by input (shape and bytes), so each distinct
    matrix is decomposed once: A, the powers B^2 ... B^(k+1) of the index
    search, and B^(2k+1) for A^D, where B = 2^-e A. B^0 = I, met when the
    index is 0, and B^1 need no decomposition of their own."""

    a: np.ndarray
    tol: Tolerance
    _svds: dict = field(default_factory=dict, repr=False, compare=False)

    def _svd(self, m: np.ndarray) -> SVDResult:
        key = (m.shape, m.tobytes())
        if key not in self._svds:
            self._svds[key] = svd(m)
        return self._svds[key]

    @cached_property
    def _exp(self) -> int:
        return _exponent(self.a)

    def scaled_power(self, j: int) -> np.ndarray:
        """B^j for B = 2^-e A; A^j = 2^(e j) B^j."""
        return mat_pow(_ldexp(self.a, -self._exp), j)

    def power_product(self, j: int, left=None, right=None) -> np.ndarray:
        """left A^j right (a missing factor is left out), formed as
        2^(e j) (left B^j right), so that no power of A is formed on the
        way where it would leave the float range."""
        m = self.scaled_power(j)
        m = m if left is None else left @ m
        m = m if right is None else m @ right
        return _ldexp(m, self._exp * j)

    def _power_svd(self, j: int) -> SVDResult:
        """SVD of B^j. B^0 = I is its own SVD, the one svd(I) returns; B^1
        is the SVD of A with s scaled by 2^-e, which is what svd(B) returns."""
        if j == 0:
            eye = np.eye(self.a.shape[0], dtype=np.complex128)
            return SVDResult(u=eye, s=np.ones(self.a.shape[0]), v=eye)
        if j == 1:
            res = self.factors
            return SVDResult(u=res.u, s=np.ldexp(res.s, -self._exp), v=res.v)
        return self._svd(self.scaled_power(j))

    def power_rank(self, j: int) -> int:
        """rank(A^j) with the cutoff referenced to sigma_max(A)**j."""
        return _rank_from(self._power_svd(j), self._smax ** j, self.tol)

    def power_pinv(self, j: int) -> np.ndarray:
        """(B^j)^+ = 2^(e j) (A^j)^+, with the cutoff referenced to
        sigma_max(B)**j."""
        return _pinv_from(self._power_svd(j), self._smax ** j, self.tol)

    @cached_property
    def unit(self) -> "_Analysis":
        """The record of B = 2^-e A, whose largest real or imaginary part
        lies in [0.5, 1) whatever the scale of A. It shares this record's
        SVDs: B's powers are the ones formed here, and the SVD of B is A's
        with s scaled, which is what svd(B) returns."""
        if self._exp == 0:
            return self
        b = _Analysis(_ldexp(self.a, -self._exp), self.tol, self._svds)
        self._svds[(b.a.shape, b.a.tobytes())] = self._power_svd(1)
        return b

    @cached_property
    def factors(self) -> SVDResult:
        return self._svd(self.a)

    @cached_property
    def _smax(self) -> float:
        """sigma_max(B)."""
        s = self._power_svd(1).s
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
        n = self.a.shape[0]
        prev_rank = n
        for k in range(n + 1):
            r = self.power_rank(k + 1)
            if r == prev_rank:
                return k
            prev_rank = r
        return n

    @cached_property
    def drazin(self) -> np.ndarray:
        k = self.index
        if self.power_rank(k) == 0:
            return np.zeros(self.a.shape, dtype=np.complex128)
        bk = self.scaled_power(k)
        return _ldexp(bk @ self.power_pinv(2 * k + 1) @ bk, -self._exp)

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
        k = self.index
        return self.drazin @ self.scaled_power(k) @ self.power_pinv(k)

    @cached_property
    def range_projector(self) -> np.ndarray:
        """A^k (A^k)^+, the orthogonal projector onto R(A^k)."""
        k = self.index
        return self.scaled_power(k) @ self.power_pinv(k)

    @cached_property
    def cce(self) -> np.ndarray:
        return self.pinv @ self.a @ self.core_ep @ self.a @ self.pinv


def _analyse(a, tol: Tolerance, square: bool = True) -> _Analysis:
    """The record of `a`, and the package's one input guard: a non-finite
    entry raises PreconditionError and, when `square`, a non-square matrix
    DimensionMismatchError. Public functions take a matrix or, from inside
    the package, a record, which passes through so each call analyses each
    matrix once."""
    if isinstance(a, _Analysis):
        rec = a
    else:
        a = np.asarray(a, dtype=np.complex128)
        if not np.isfinite(a).all():
            raise PreconditionError("matrix has a non-finite entry")
        rec = _Analysis(a, tol)
    if square and rec.a.shape[0] != rec.a.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got {rec.a.shape}")
    return rec


def index(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1))."""
    return _analyse(a, tol).index


def drazin(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Drazin inverse a^k (a^(2k+1))^+ a^k with k = index(a)."""
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
