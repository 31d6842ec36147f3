"""Exact Gaussian-rational linear algebra, used as an independent oracle.

A matrix is two numpy object arrays of Python ints, its real and imaginary
parts, over one positive denominator, all three divided by their gcd, so
each matrix has one stored form; a matrix of integers is stored as it is,
with no Fraction per entry. A product is four integer matrix products, or
one when neither factor has an imaginary part; such a matrix is also
normalized on its real part alone. Row reduction is fraction-free
Gauss-Jordan (Bareiss 1968) on lists of Python int rows: over the
integers when the matrix has no imaginary part, over the Gaussian
integers otherwise; a matrix is inverted by repeating the row operations
of its reduction on I, and its reduced form is built only where a
full-rank factorization reads it.

One record per matrix (`_ExactAnalysis`) keeps each reduction by its
input, so the index search and all eight inverses share them. Through
`drazin._Derived` it shares with the float record the algebra of powers
(A^j, (A^j)^+, rank(A^j), A^+ and the core-EP inverse A^k (A^(k+1))^+)
and the index search, core(A), the composite inverses and the class
verdicts. What makes it an oracle stays its own: exact arithmetic, ranks
read from exact reductions, (A^j)^+ as the inverse of a full-rank A^j or
else by MacDuffee, and A^D by Cline, read as A^-1 at index 0; all are
checked against the general expressions in `tests/test_exact.py`. It
judges x = y, in its verdicts and in the identity tables of `verify`, by
equality of stored forms; `RMatrix` has numpy's `conj()` and `T` for those
tables. The integers grow with n and with the index: the eight inverses,
each from its own record, of a matrix with entries in [-3, 3] take about
0.5-2.5 ms when it is nonsingular and 2-7 ms at index 1-4 up to n = 6,
and 17-54 ms at n = 10-12 (index up to 8) on a shared 2-core x86-64
host, whose speed varies by about 1.7 times."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .drazin import _Derived, _analyse, _once
from .kernel import fro_norm

__all__ = [
    "QC", "RMatrix", "exact_pinv", "exact_index", "exact_drazin", "exact_core_part",
    "exact_dmp", "exact_mpd", "exact_cmp", "exact_mpdmp", "exact_core_ep", "exact_cce",
]


class QC:
    """Gaussian-rational scalar: re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def of(cls, x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        return cls(x)

    def __add__(self, o):
        o = QC.of(o)
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = QC.of(o)
        return QC(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = QC.of(o)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = QC.of(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __eq__(self, o):
        o = QC.of(o)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __hash__(self):
        return hash((self.re, self.im))

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        sign = "-" if self.im < 0 else "+"
        return f"({self.re}{sign}{abs(self.im)}j)"


class RMatrix:
    """Dense matrix over the Gaussian rationals: (re + i im) / den."""

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        m, n = len(rows), len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        try:
            # integer entries (int, bool, numpy integers) are their own
            # numerators; operator.index returns a Python int, never a
            # fixed-width numpy integer that would wrap around in a product
            re, im, den = [[operator.index(x) for x in r] for r in rows], None, 1
        except TypeError:
            qc = [[QC.of(x) for x in r] for r in rows]
            # over the lcm of the reduced parts' denominators no factor is common
            den = math.lcm(*(p.denominator for r in qc for x in r for p in (x.re, x.im)))
            re = [[int(x.re * den) for x in r] for r in qc]
            im = [[int(x.im * den) for x in r] for r in qc]
        self._re = np.array(re, dtype=object).reshape(m, n)
        self._im = (np.zeros((m, n), dtype=object) if im is None
                    else np.array(im, dtype=object).reshape(m, n))
        self._den = den

    @staticmethod
    def _of(re, im, den=1) -> "RMatrix":
        """The matrix (re + i im) / den in its stored form; im is None for a
        matrix with no imaginary part, which is normalized on re alone and
        stores the zero array as its im."""
        out = RMatrix.__new__(RMatrix)
        if im is None:
            g, out._im = math.gcd(den, *re.flat), np.zeros(re.shape, dtype=object)
        else:
            g = math.gcd(den, *re.flat, *im.flat)
            out._im = im // g
        out._re, out._den = re // g, den // g
        return out

    def _real(self) -> bool:
        """Whether no entry has an imaginary part."""
        return not any(self._im.flat)

    def _sub(self, i, j) -> "RMatrix":
        """The submatrix at numpy index [i, j]."""
        return RMatrix._of(self._re[i, j], None if self._real() else self._im[i, j], self._den)

    @property
    def rows(self):
        return [[QC(Fraction(x, self._den), Fraction(y, self._den)) for x, y in zip(r, s)]
                for r, s in zip(self._re.tolist(), self._im.tolist())]

    @property
    def shape(self):
        return self._re.shape

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls._of(np.eye(n, dtype=int).astype(object), None)

    @classmethod
    def zeros(cls, m: int, n: int) -> "RMatrix":
        return cls._of(np.zeros((m, n), dtype=object), None)

    def __getitem__(self, ij):
        return QC(Fraction(self._re[ij], self._den), Fraction(self._im[ij], self._den))

    def __eq__(self, o):
        return (isinstance(o, RMatrix) and self._den == o._den
                and np.array_equal(self._re, o._re) and np.array_equal(self._im, o._im))

    def __hash__(self):
        return hash((self.shape, self._den, *self._re.flat, *self._im.flat))

    def _combine(self, o, sign: int) -> "RMatrix":
        """self + sign * o, over the least common denominator."""
        if self.shape != o.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {o.shape}")
        d = math.lcm(self._den, o._den)
        s, t = d // self._den, sign * (d // o._den)
        im = None if self._real() and o._real() else self._im * s + o._im * t
        return RMatrix._of(self._re * s + o._re * t, im, d)

    def __add__(self, o):
        return self._combine(o, 1)

    def __sub__(self, o):
        return self._combine(o, -1)

    def __matmul__(self, o):
        if self.shape[1] != o.shape[0]:
            raise ValueError(f"cannot multiply {self.shape} by {o.shape}")
        a, b, c, d = self._re, self._im, o._re, o._im  # (a + bi)(c + di)
        if self._real() and o._real():
            return RMatrix._of(a.dot(c), None, self._den * o._den)
        return RMatrix._of(a.dot(c) - b.dot(d), a.dot(d) + b.dot(c), self._den * o._den)

    def conj(self) -> "RMatrix":
        return self if self._real() else RMatrix._of(self._re, -self._im, self._den)

    T = property(lambda self: RMatrix._of(self._re.T, None if self._real() else self._im.T,
                                          self._den))

    def conj_t(self) -> "RMatrix":
        return self.conj().T

    def power(self, k: int) -> "RMatrix":
        out = RMatrix.identity(self.shape[0])
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self) -> bool:
        return not (self._re.any() or self._im.any())

    def to_complex(self) -> np.ndarray:
        out = np.empty(self.shape, dtype=np.complex128)
        out.real, out.imag = self._re / self._den, self._im / self._den
        return out

    def __repr__(self):
        return "RMatrix(" + repr([[repr(x) for x in r] for r in self.rows]) + ")"


def _rref(a: RMatrix) -> "_Reduction":
    """The reduction of a to reduced row echelon form, as a `_Reduction`:
    its RREF, pivot columns and replay. On the numerator M, each pivot p =
    M[r, c] turns every other row i into (p M[i] - M[i, c] M[r]) / q, q the
    previous pivot (1 at first): an exact division that makes every earlier
    pivot p too, so the RREF is M / p. The rows are lists of Python ints; a
    matrix with no imaginary part is reduced on its real rows alone."""
    (m, n), re, im, real = a.shape, a._re.tolist(), a._im.tolist(), a._real()
    step = _step_real if real else _step_gaussian
    pivots, steps, q = [], [], (1, 0)
    for c in range(n):
        r = len(pivots)
        below = [i for i in range(r, m) if re[i][c] or im[i][c]]
        if not below:
            continue
        # column c with rows r and below[0] swapped: the pivot and multipliers
        fr, fi = [x[c] for x in re], [y[c] for y in im]
        for f in (fr, fi):
            f[r], f[below[0]] = f[below[0]], f[r]
        steps.append((r, below[0], fr, fi, q))
        step(re, im, *steps[-1])
        q = fr[r], fi[r]
        pivots.append(c)
    return _Reduction(pivots, steps, step, q, re, None if real else im, n)


class _Reduction:
    """One reduction by `_rref`: its pivot columns, `replay`, and its RREF,
    formed on first read (by `_ExactAnalysis._factors`), so that a
    full-rank matrix needs only its pivots and the replay onto I."""

    def __init__(self, pivots, steps, step, q, re, im, n):
        self.pivots, self._steps, self._step, self._q = pivots, steps, step, q
        self._rows, self._n = (re, im), n

    @_once
    def rref(self) -> RMatrix:
        return _over(*self._rows, self._q, self._n)

    def replay(self, re: list) -> RMatrix:
        """The row operations of the reduction applied to the integer rows
        `re` (as many as the matrix has), returned over its last pivot: the
        right half of the RREF of [a | re] when a is square and nonsingular;
        on I, the inverse of a."""
        im = None if self._rows[1] is None else [[0] * len(r) for r in re]
        for args in self._steps:
            self._step(re, im, *args)
        return _over(re, im, self._q, len(re[0]))


def _over(re: list, im: list | None, q, n: int) -> RMatrix:
    """(re + i im) / q for int rows of length n and a Gaussian integer q =
    (qr, qi): (re + i im) conj(q) / |q|^2. Rows with no imaginary part (im
    None) come from a real reduction, whose q is real: they are re / qr."""
    (qr, qi), re = q, np.array(re, dtype=object).reshape(len(re), n)
    if im is None:
        return RMatrix._of(-re if qr < 0 else re, None, abs(qr))
    im = np.array(im, dtype=object).reshape(len(im), n)
    return RMatrix._of(re * qr + im * qi, im * qr - re * qi, qr * qr + qi * qi)


def _step_real(re: list, im, r: int, s: int, fr: list, fi: list, q) -> None:
    """One step of `_rref` on integer rows `re`, in place (`im` and `fi`,
    all zero or None, are unused): swap rows r and s, then turn each row
    i != r into (p re[i] - fr[i] re[r]) / q, p = fr[r]."""
    re[r], re[s] = re[s], re[r]
    top, p, q = re[r], fr[r], q[0]
    for i, row in enumerate(re):
        if i != r:
            f = fr[i]
            re[i] = [(p * x - f * y) // q for x, y in zip(row, top)]


def _step_gaussian(re: list, im: list, r: int, s: int, fr: list, fi: list, q) -> None:
    """The step of `_step_real` on Gaussian-integer rows re + i im, with
    pivot fr[r] + i fi[r] and multipliers fr[i] + i fi[i]. Dividing by q is
    multiplying by conj(q) and dividing by |q|^2."""
    for rows in (re, im):
        rows[r], rows[s] = rows[s], rows[r]
    (qr, qi), tr, ti, pr, pi = q, re[r], im[r], fr[r], fi[r]
    qq = qr * qr + qi * qi
    for i in range(len(re)):
        if i == r:
            continue
        gr, gi = fr[i], fi[i]
        xr = [pr * x - pi * y - gr * u + gi * v for x, y, u, v in zip(re[i], im[i], tr, ti)]
        xi = [pr * y + pi * x - gr * v - gi * u for x, y, u, v in zip(re[i], im[i], tr, ti)]
        re[i] = [(x * qr + y * qi) // qq for x, y in zip(xr, xi)]
        im[i] = [(y * qr - x * qi) // qq for x, y in zip(xr, xi)]


def exact_rank(a: RMatrix) -> int:
    return _ExactAnalysis(a).rank


def exact_inv(a: RMatrix) -> RMatrix:
    """Inverse of a nonsingular square matrix via Gauss-Jordan on [a | I]."""
    return _ExactAnalysis(a)._inv(a)


class _ExactAnalysis(_Derived):
    """The exact record, a plain per-call object like the float one, equal
    only to itself: the parts of `drazin._Derived` on A itself (`_exp` =
    0), from A^j = A^(j-1) A with A^0 = I, rank(A^j) the pivot count of its
    RREF, (A^j)^+ its inverse or by MacDuffee, and `_compare` by equality of
    stored forms; and its own A^D (Cline). No matrix is reduced twice: an
    idempotent power included, and a nonsingular A, whose inverse replays
    the reduction that read its rank."""

    _exp = 0

    def __init__(self, a: RMatrix):
        self.a, self._powers, self._pinvs, self._ranks, self._reduced = a, {}, {}, {}, {}

    def _form_power(self, j: int) -> RMatrix:
        return RMatrix.identity(self.a.shape[0]) if j == 0 else self.power(j - 1) @ self.a

    def _reduce(self, m: RMatrix) -> _Reduction:
        """The reduction of m; see `_rref`."""
        red = self._reduced.get(m)
        if red is None:
            red = self._reduced[m] = _rref(m)
        return red

    def _read_rank(self, j: int) -> int:
        return len(self._reduce(self.power(j)).pivots)

    def _compare(self, x: RMatrix, y: RMatrix) -> tuple[bool, float]:
        # each matrix has one stored form, so equal ones are not subtracted
        return (True, 0.0) if x == y else (False, fro_norm((x - y).to_complex()))

    def _of(self, m: RMatrix) -> "_ExactAnalysis":
        return _ExactAnalysis(m)

    def _inv(self, m: RMatrix) -> RMatrix:
        """m^-1: the reduction of m replayed on I, so that a matrix whose
        rank was read is not reduced again; ValueError unless m is square
        and nonsingular."""
        k, n = m.shape
        if k != n:
            raise ValueError("inverse of non-square matrix")
        if n == 0:  # the r x r matrix of a rank-0 factorization
            return m
        red = self._reduce(m)
        if len(red.pivots) < n:
            raise ValueError("matrix is singular")
        return red.replay([[m._den if i == j else 0 for j in range(n)] for i in range(n)])

    def _factors(self, j: int):
        """Full-rank factorization A^j = f @ g: f the pivot columns of A^j,
        g the nonzero rows of its RREF."""
        red = self._reduce(self.power(j))
        return (self.power(j)._sub(slice(None), red.pivots),
                red.rref._sub(slice(len(red.pivots)), slice(None)))

    def _invert_power(self, j: int) -> RMatrix:
        """(A^j)^+: the inverse of A^j when it is square of full rank, else
        g* (f* A^j g*)^-1 f* for A^j = f g (MacDuffee; Ben-Israel & Greville
        2003); rank 0 gives zeros."""
        aj = self.power(j)
        if self._rank_of_power(j) == aj.shape[0] == aj.shape[1]:
            return self._inv(aj)
        f, g = self._factors(j)
        gs, fs = g.conj_t(), f.conj_t()
        return gs @ self._inv(fs @ aj @ gs) @ fs

    @_once
    def drazin(self) -> RMatrix:
        """A^-1 = A^+ at index 0, else f (g A f)^-1 g for A^k = f g, k the
        index (Cline 1968)."""
        if not self.index:
            return self.pinv
        f, g = self._factors(self.index)
        return f @ self._inv(g @ self.a @ f) @ g


def _square(a: RMatrix) -> _ExactAnalysis:
    """The record of `a` through the float side's square check: a matrix
    that is not square raises DimensionMismatchError, as the float index,
    Drazin inverse and the rest do."""
    return _analyse(_ExactAnalysis(a), None)


def exact_pinv(a: RMatrix) -> RMatrix:
    """Moore-Penrose inverse, exact; a may be rectangular."""
    return _ExactAnalysis(a).pinv


def exact_index(a: RMatrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1))."""
    return _square(a).index


def exact_drazin(a: RMatrix) -> RMatrix:
    """Drazin inverse f (g a f)^-1 g, a^k = f g, with k the exact index."""
    return _square(a).drazin


def exact_core_part(a: RMatrix) -> RMatrix:
    return _square(a).core


def exact_dmp(a: RMatrix) -> RMatrix:
    return _square(a).dmp


def exact_mpd(a: RMatrix) -> RMatrix:
    return _square(a).mpd


def exact_cmp(a: RMatrix) -> RMatrix:
    return _square(a).cmp


def exact_mpdmp(a: RMatrix) -> RMatrix:
    return _square(a).mpdmp


def exact_core_ep(a: RMatrix) -> RMatrix:
    return _square(a).core_ep


def exact_cce(a: RMatrix) -> RMatrix:
    return _square(a).cce
