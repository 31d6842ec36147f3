"""Exact Gaussian-rational linear algebra, used as an independent oracle.

Entries are complex numbers whose real and imaginary parts are
`fractions.Fraction`, so every product, rank, and inverse below is exact.
Intended for small integer/rational inputs (n <= 5 or so); entry growth is
unbounded for anything larger.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "QC",
    "RMatrix",
    "exact_pinv",
    "exact_index",
    "exact_drazin",
    "exact_core_part",
    "exact_dmp",
    "exact_mpd",
    "exact_cmp",
    "exact_mpdmp",
    "exact_core_ep",
    "exact_cce",
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
        return f"({self.re}+{self.im}j)"


class RMatrix:
    """Dense matrix over the Gaussian rationals."""

    def __init__(self, rows):
        self.rows = [[QC.of(x) for x in r] for r in rows]
        n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != n for r in self.rows):
            raise ValueError("ragged rows")

    @property
    def shape(self):
        return len(self.rows), len(self.rows[0])

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls([[QC(1) if i == j else QC(0) for j in range(n)]
                    for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "RMatrix":
        return cls([[QC(0)] * n for _ in range(m)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, o):
        return isinstance(o, RMatrix) and self.rows == o.rows

    def __add__(self, o):
        m, n = self.shape
        return RMatrix([[self.rows[i][j] + o.rows[i][j] for j in range(n)]
                        for i in range(m)])

    def __sub__(self, o):
        m, n = self.shape
        return RMatrix([[self.rows[i][j] - o.rows[i][j] for j in range(n)]
                        for i in range(m)])

    def __matmul__(self, o):
        m, k = self.shape
        k2, n = o.shape
        if k != k2:
            raise ValueError(f"cannot multiply {self.shape} by {o.shape}")
        out = []
        for i in range(m):
            row = []
            for j in range(n):
                s = QC(0)
                for t in range(k):
                    s = s + self.rows[i][t] * o.rows[t][j]
                row.append(s)
            out.append(row)
        return RMatrix(out)

    def conj_t(self) -> "RMatrix":
        m, n = self.shape
        return RMatrix([[self.rows[i][j].conj() for i in range(m)]
                        for j in range(n)])

    def power(self, k: int) -> "RMatrix":
        n = self.shape[0]
        out = RMatrix.identity(n)
        for _ in range(k):
            out = out @ self
        return out

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def to_complex(self) -> np.ndarray:
        return np.array([[complex(x) for x in r] for r in self.rows],
                        dtype=np.complex128)

    def __repr__(self):
        return "RMatrix(" + repr([[repr(x) for x in r] for r in self.rows]) + ")"


def _rref(a: RMatrix):
    """Reduced row echelon form; returns (rref, pivot column list)."""
    m, n = a.shape
    rows = [list(r) for r in a.rows]
    pivots = []
    pr = 0
    for pc in range(n):
        pivot_row = None
        for i in range(pr, m):
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = QC(1) / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(m):
            if i != pr and rows[i][pc]:
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m:
            break
    return RMatrix(rows), pivots


def exact_rank(a: RMatrix) -> int:
    return len(_rref(a)[1])


def exact_inv(a: RMatrix) -> RMatrix:
    """Inverse of a nonsingular square matrix via Gauss-Jordan."""
    m, n = a.shape
    if m != n:
        raise ValueError("inverse of non-square matrix")
    aug = RMatrix([list(r) + list(e) for r, e in
                   zip(a.rows, RMatrix.identity(n).rows)])
    red, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return RMatrix([r[n:] for r in red.rows])


def _rank_factorize(a: RMatrix):
    """Full-rank factorization a = f @ g with f m x r, g r x n."""
    red, pivots = _rref(a)
    r = len(pivots)
    m, n = a.shape
    f = RMatrix([[a.rows[i][j] for j in pivots] for i in range(m)])
    g = RMatrix([red.rows[i] for i in range(r)])
    return f, g


def exact_pinv(a: RMatrix) -> RMatrix:
    """Moore-Penrose inverse, exact: g*(gg*)^-1 (f*f)^-1 f*."""
    m, n = a.shape
    if a.is_zero():
        return RMatrix.zeros(n, m)
    f, g = _rank_factorize(a)
    gs, fs = g.conj_t(), f.conj_t()
    return gs @ exact_inv(g @ gs) @ exact_inv(fs @ f) @ fs


def exact_index(a: RMatrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1))."""
    n = a.shape[0]
    prev = RMatrix.identity(n)
    prev_rank = n
    for k in range(n + 1):
        nxt = prev @ a
        r = exact_rank(nxt)
        if r == prev_rank:
            return k
        prev, prev_rank = nxt, r
    return n


def exact_drazin(a: RMatrix) -> RMatrix:
    """Drazin inverse a^k (a^(2k+1))^+ a^k with k the exact index."""
    k = exact_index(a)
    ak = a.power(k)
    return ak @ exact_pinv(a.power(2 * k + 1)) @ ak


def exact_core_part(a: RMatrix) -> RMatrix:
    return a @ exact_drazin(a) @ a


def exact_dmp(a: RMatrix) -> RMatrix:
    return exact_drazin(a) @ a @ exact_pinv(a)


def exact_mpd(a: RMatrix) -> RMatrix:
    return exact_pinv(a) @ a @ exact_drazin(a)


def exact_cmp(a: RMatrix) -> RMatrix:
    p = exact_pinv(a)
    return p @ exact_core_part(a) @ p


def exact_mpdmp(a: RMatrix) -> RMatrix:
    p = exact_pinv(a)
    return p @ exact_drazin(a) @ p


def exact_core_ep(a: RMatrix) -> RMatrix:
    k = exact_index(a)
    ak = a.power(k)
    return exact_drazin(a) @ ak @ exact_pinv(ak)


def exact_cce(a: RMatrix) -> RMatrix:
    p = exact_pinv(a)
    return p @ a @ exact_core_ep(a) @ a @ p
