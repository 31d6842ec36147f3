"""Index, Drazin and group inverses, the core-nilpotent split, and the
canonical projectors.

The core-EP and Drazin inverses come from the two powers the index search
ends on: c = a^k (a^(k+1))^+ is the core-EP inverse and a^D = c^(k+1) a^k,
with k the index of a. Each rank of a power b^j is decided once, in
`_Analysis._read_rank`, against max(sigma_max(b), ref)**j (ref is 0 but in
`rank_scaled` and `pinv_scaled`), and the pseudoinverse of b^j keeps that
rank: a computed power of a numerically nilpotent matrix is noise at
sigma_max(b)**j, never exactly zero, which a relative cutoff would read as
signal. At power 1 and ref 0 that is the relative cutoff, so a^1 is a.

Every part is computed from b = 2**-e a, with e the exponent the SVD
scales by, so that neither b^j nor sigma_max(b)**j leaves the float range
however a is scaled; the part of a is that of b times its power of 2**e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor import HSDecomp, ZeroMatrixError, _singular_values, svd
from .kernel import (DEFAULT_TOL, DimensionMismatchError, Tolerance, _compare, _guarded,
                     _ldexp, _ldexp_scalar, _named_overflow, conj_transpose, mat_pow)

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


class _once:
    """A part computed on first read and written to the record's instance
    dict, which later reads find before this (non-data) descriptor. Unlike
    `functools.cached_property` on Python 3.11 it takes no lock: a record
    lives inside one public call, so no two threads read one record. A part
    with a `degree` is 2^(degree e) times that of B = 2^-e A: computed on the
    record of B only, and read from `unit` and scaled on that of A."""

    def __init__(self, compute, degree: int | None = None):
        self.compute, self.degree = compute, degree
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rec, owner=None):
        if rec is None:
            return self
        if self.degree is None or not rec._exp:
            value = self.compute(rec)
        else:
            value = getattr(rec.unit, self.name)
            if self.degree:
                value = _ldexp(value, self.degree * rec._exp)
        rec.__dict__[self.name] = value
        return value


def _part(degree: int):
    return lambda compute: _once(compute, degree)


class _Derived:
    """The parts every record derives the same way, each defined once beside
    the power of 2^e it scales by: A^j, (A^j)^+ and rank(A^j), each formed
    once per j (A^1 is A); rank(A), A^+, the index, the core-EP inverse,
    core(A), the DMP, MPD, CMP, MPDMP and CCE inverses, and the EP, core-EP
    and k-EP verdicts; and `unit`, the record of B = 2^-e A. A record gives
    `a`, `drazin`, `_exp` (if not 0, every part and power is read from
    `unit`, which the record builds as `_unit`), the memo dicts `_powers`,
    `_pinvs` and `_ranks`, and five primitives: `_form_power(j)` (j != 1),
    `_read_rank(j)` and `_invert_power(j)` for A^j, rank(A^j) and (A^j)^+,
    `_compare(x, y) -> (holds, residual)`, the judge of x = y in the
    verdicts and in `kernel._check`, and `_of(m)`, a record of the same kind
    for a matrix m derived from A, such as its DMP inverse. The float record
    (`_Analysis`) and the exact (`exact._ExactAnalysis`) inherit it."""

    @property
    def unit(self) -> "_Derived":
        """The record of B = 2^-e A, its largest real or imaginary part in
        [0.5, 1); when e = 0, as always on the exact record, this record
        itself, not stored, so none refers to itself."""
        return self if self._exp == 0 else self._unit

    def power(self, j: int):
        """A^j, formed once per j; A^1 is A. On a record with e != 0, read as
        2^(e j) B^j from `unit`, so that no power of A is formed."""
        if self._exp:
            return _ldexp(self.unit.power(j), self._exp * j)
        if j == 1:
            return self.a
        if j not in self._powers:
            self._powers[j] = self._form_power(j)
        return self._powers[j]

    def power_pinv(self, j: int):
        """(A^j)^+, computed once per j; like `_rank_of_power`, asked of the
        record of B only, through the parts and `unit`."""
        if j not in self._pinvs:
            self._pinvs[j] = self._invert_power(j)
        return self._pinvs[j]

    def _rank_of_power(self, j: int) -> int:
        """rank(A^j), read once per j."""
        if j not in self._ranks:
            self._ranks[j] = self._read_rank(j)
        return self._ranks[j]

    @_part(0)
    def rank(self) -> int:
        return self._rank_of_power(1)

    @_part(-1)
    def pinv(self):
        return self.power_pinv(1)

    @_part(0)
    def index(self) -> int:
        """The least k with rank(A^k) = rank(A^(k+1)). A power of rank 0
        ends the search, since every higher power has rank 0 too; ranks
        that never settle end it at k = n, after A^(n+1)."""
        n = self.a.shape[0]
        prev_rank = n
        for k in range(n + 1):
            r = self._rank_of_power(k + 1)
            if r == prev_rank:
                return k
            if r == 0:
                return k + 1
            prev_rank = r
        return n

    @_part(-1)
    def core_ep(self):
        """A^k (A^(k+1))^+, k the index (Prasad & Mohana 2014); I A^+ at
        index 0."""
        k = self.index
        return self.power(k) @ self.power_pinv(k + 1)

    @_part(1)
    def core(self):
        return self.a @ self.drazin @ self.a

    @_part(-1)
    def dmp(self):
        return self.drazin @ self.a @ self.pinv

    @_part(-1)
    def mpd(self):
        return self.pinv @ self.a @ self.drazin

    @_part(-1)
    def cmp(self):
        return self.pinv @ self.core @ self.pinv

    @_part(-3)
    def mpdmp(self):
        return self.pinv @ self.drazin @ self.pinv

    @_part(-1)
    def cce(self):
        return self.pinv @ self.a @ self.core_ep @ self.a @ self.pinv

    @_part(0)
    def is_ep(self) -> bool:
        """A commutes with A^+."""
        return self._compare(self.a @ self.pinv, self.pinv @ self.a)[0]

    @_part(0)
    def is_core_ep(self) -> bool:
        """A^+ commutes with the core part of A."""
        return self._compare(self.pinv @ self.core, self.core @ self.pinv)[0]

    @_part(0)
    def is_k_ep(self) -> bool:
        """A^k commutes with A^+, k the index."""
        ak = self.power(self.index)
        return self._compare(ak @ self.pinv, self.pinv @ ak)[0]


class _Analysis(_Derived):
    """What the package derives from one matrix under one tolerance, each
    part computed on first use and kept for the one public call the record
    lives in: a plain per-call object, equal only to itself and hashed by
    identity. Parts are computed on the record of B = 2^-e A (`unit`) only,
    which looks each SVD up by its power j and keys it by input (shape and
    bytes) once (`_svd`), so bitwise-equal powers share one; the record of A
    reads every part and A^j scaled from there, and forms no SVD or power of
    its own. It alone reads its SVDs: beside the block factorization, A^D and
    the record of B (`_unit`), it gives `_Derived` B^j, rank(B^j) in
    `_read_rank`, which holds its reference, cutoff and count, and (B^j)^+
    in `_invert_power`, which holds the values that count keeps; and judges
    pairs by `kernel._compare` under `tol`. Its
    e (`_exp`) and its reference (`_ref`, A's; 0 unless `rank_scaled` or
    `pinv_scaled` gives it) are fixed at construction: e by the input guard,
    which finds it in the scan that tests finiteness, and as 0 for the
    record of B, whose reference is 2^-e that of A.

    Every rank, `rank_scaled`'s too, reads the singular values of B^j
    through `_sigma`, asked of the record of B only. A record built with
    `_values_only` (by `index`, `numerical_rank` and `rank_scaled`, whose
    answers are ranks alone) takes them from values-only decompositions and
    so forms no singular vectors; it is never asked for a part that needs
    them. Any other record reads them from the full SVD that its
    pseudoinverses, `pinv_scaled`'s too, also use."""

    def __init__(self, a: np.ndarray, tol: Tolerance, exp: int, values_only: bool = False,
                 ref: float = 0.0):
        self.a, self.tol, self._exp, self._values_only, self._ref = a, tol, exp, values_only, ref
        self._svds, self._by_power, self._powers, self._pinvs, self._ranks = {}, {}, {}, {}, {}

    def _svd(self, j: int):
        """svd(A^j), or its singular values alone on a `_values_only` record,
        looked up by j; its input key (shape and bytes) is formed once, so
        bitwise-equal powers share one decomposition. A power that overflowed
        is named (`kernel._named_overflow`)."""
        if j not in self._by_power:
            m = self.power(j)
            key = (m.shape, m.tobytes())
            if key not in self._svds:
                self._svds[key] = _named_overflow(
                    f"power {j} of the matrix, scaled to parts below 1,",
                    _singular_values if self._values_only else svd, m)
            self._by_power[j] = self._svds[key]
        return self._by_power[j]

    def _sigma(self, j: int) -> np.ndarray:
        """The singular values of B^j, nonincreasing; asked of the record of B only."""
        res = self._svd(j)
        return res if self._values_only else res.s

    @_once
    def _unit(self) -> "_Analysis":
        return _Analysis(_ldexp(self.a, -self._exp), self.tol, 0, self._values_only,
                         _ldexp_scalar(self._ref, -self._exp))

    def _form_power(self, j: int) -> np.ndarray:
        return np.eye(len(self.a), dtype=np.complex128) if j == 0 else mat_pow(self.a, j)

    def _read_rank(self, j: int) -> int:
        """rank(B^j), the one rank decision: the count of B^j's singular values
        s above tol.rank_cutoff(m, n) max(s_1, scale), scale the reference
        max(sigma_max(B), ref)**j, or inf beyond the float range."""
        try:
            scale = max(float(self._sigma(1)[:1].max(initial=0.0)), self._ref) ** j
        except OverflowError:
            scale = np.inf
        s = self._sigma(j)
        cutoff = self.tol.rank_cutoff(*self.a.shape) * max(float(s[0]) if len(s) else 0.0, scale)
        return sum(x > cutoff for x in s.tolist())

    def _invert_power(self, j: int) -> np.ndarray:
        """(B^j)^+ = v diag(1/s) u* over the rank(B^j) largest singular values
        s of the SVD that rank was read from: the values the decision kept."""
        res, r = self._svd(j), self._rank_of_power(j)
        m, n = res.u.shape[0], res.v.shape[0]
        smat = np.zeros((n, m), dtype=np.complex128)  # 1/s goes on its diagonal
        smat.reshape(-1)[: r * (m + 1) : m + 1] = [1.0 / x for x in res.s[:r].tolist()]
        return res.v @ smat @ conj_transpose(res.u)

    def _compare(self, x: np.ndarray, y: np.ndarray) -> tuple[bool, float]:
        return _compare(x, y, self.tol)

    def _of(self, m: np.ndarray) -> "_Analysis":
        return _analyse(m, self.tol)

    @_once
    def hs(self) -> HSDecomp:
        """U [[SQ, SP], [0, 0]] U* from svd(B): U, Q and P are B's, and Sigma
        is 2^e times the r singular values `_invert_power` keeps in B^+, r the
        count `_read_rank` decides."""
        res, r = self.unit._svd(1), self.rank
        if r == 0:
            raise ZeroMatrixError("the factorization requires rank >= 1")
        qp = conj_transpose(res.v) @ res.u
        sigma = np.ldexp(res.s[:r], self._exp) if self._exp else res.s[:r]
        return HSDecomp(u=res.u, sigma=sigma, q=qp[:r, :r], p=qp[:r, r:], r=r)

    @_part(-1)
    def drazin(self) -> np.ndarray:
        """C^(k+1) B^k, C the core-EP inverse of B."""
        k = self.index
        return mat_pow(self.core_ep, k + 1) @ self.power(k)


def _analyse(a, tol: Tolerance, square: bool = True, values_only: bool = False,
             ref: float = 0.0) -> _Derived:
    """The record of `a`, through the input guard (`kernel._guarded`), which
    also gives its e; when `square`, an input that is not square raises
    DimensionMismatchError. Public functions take a matrix or, from inside
    the package, a record of either kind, float or exact, which passes
    through with its own `tol` and reference, so each call analyses each
    matrix once. `values_only` builds a record that reads singular values
    alone, for an answer that is a rank or an index; `ref`, the reference
    of its ranks, serves `rank_scaled` and `pinv_scaled` alone."""
    if isinstance(a, _Derived):
        rec = a
    else:
        a, e = _guarded(a)
        rec = _Analysis(a, tol, e, values_only, float(ref) if ref > 0 else 0.0)  # NaN: 0
    if square and rec.a.shape[0] != rec.a.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got {rec.a.shape}")
    return rec


def _operand(rec: _Derived, b):
    """The second operand `b` of a relation or family of the matrix of
    `rec`: a record passes as its matrix, so none is built for `b`; on the
    float record any other operand goes through the input guard. A matrix
    not of `rec`'s kind raises TypeError, so float and exact never mix, and
    one of another shape DimensionMismatchError."""
    if isinstance(b, _Derived):
        b = b.a
    elif isinstance(rec, _Analysis):
        b = _guarded(b)[0]
    if not isinstance(b, type(rec.a)):
        raise TypeError(f"a {type(b).__name__} operand for a record of {type(rec.a).__name__}")
    if rec.a.shape != b.shape:
        raise DimensionMismatchError(f"size mismatch {rec.a.shape} vs {b.shape}")
    return b


def index(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1)), read from singular
    values alone: no singular vectors are formed."""
    return _analyse(a, tol, values_only=True).index


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
