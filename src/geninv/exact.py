"""Exact Gaussian-rational linear algebra, used as an independent oracle.

A matrix is two numpy object arrays of Python ints, its real and imaginary
parts, over one positive denominator, all three divided by their gcd, so
each matrix has one stored form. A product is four integer matrix products;
row reduction is fraction-free Gauss-Jordan over the Gaussian integers
(Bareiss 1968). The integers grow with n and with the index: small-integer
inputs take milliseconds up to n = 6 and about 0.1 s at n = 12.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
        return f"({self.re}+{self.im}j)"


class RMatrix:
    """Dense matrix over the Gaussian rationals: (re + i im) / den."""

    def __init__(self, rows):
        qc = [[QC.of(x) for x in r] for r in rows]
        n = len(qc[0]) if qc else 0
        if any(len(r) != n for r in qc):
            raise ValueError("ragged rows")
        # over the lcm of the reduced parts' denominators no factor is common
        den = math.lcm(*(p.denominator for r in qc for x in r for p in (x.re, x.im)))
        parts = np.array([[(int(x.re * den), int(x.im * den)) for x in r] for r in qc],
                         dtype=object).reshape(len(qc), n, 2)
        self._re, self._im, self._den = parts[..., 0], parts[..., 1], den

    @staticmethod
    def _of(re, im, den=1) -> "RMatrix":
        """The matrix (re + i im) / den in its stored form."""
        g = math.gcd(den, *re.flat, *im.flat)
        out = RMatrix.__new__(RMatrix)
        out._re, out._im, out._den = re // g, im // g, den // g
        return out

    def _sub(self, i, j) -> "RMatrix":
        """The submatrix at numpy index [i, j]."""
        return RMatrix._of(self._re[i, j], self._im[i, j], self._den)

    @property
    def rows(self):
        return [[QC(Fraction(x, self._den), Fraction(y, self._den)) for x, y in zip(r, s)]
                for r, s in zip(self._re.tolist(), self._im.tolist())]

    @property
    def shape(self):
        return self._re.shape

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls._of(np.eye(n, dtype=int).astype(object), np.zeros((n, n), dtype=object))

    @classmethod
    def zeros(cls, m: int, n: int) -> "RMatrix":
        return cls._of(np.zeros((m, n), dtype=object), np.zeros((m, n), dtype=object))

    def __getitem__(self, ij):
        return QC(Fraction(self._re[ij], self._den), Fraction(self._im[ij], self._den))

    def __eq__(self, o):
        return (isinstance(o, RMatrix) and self._den == o._den
                and np.array_equal(self._re, o._re) and np.array_equal(self._im, o._im))

    def _combine(self, o, sign: int) -> "RMatrix":
        """self + sign * o, over the least common denominator."""
        if self.shape != o.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {o.shape}")
        d = math.lcm(self._den, o._den)
        s, t = d // self._den, sign * (d // o._den)
        return RMatrix._of(self._re * s + o._re * t, self._im * s + o._im * t, d)

    def __add__(self, o):
        return self._combine(o, 1)

    def __sub__(self, o):
        return self._combine(o, -1)

    def __matmul__(self, o):
        if self.shape[1] != o.shape[0]:
            raise ValueError(f"cannot multiply {self.shape} by {o.shape}")
        a, b, c, d = self._re, self._im, o._re, o._im  # (a + bi)(c + di)
        return RMatrix._of(a.dot(c) - b.dot(d), a.dot(d) + b.dot(c), self._den * o._den)

    def conj_t(self) -> "RMatrix":
        return RMatrix._of(self._re.T, -self._im.T, self._den)

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


def _rref(a: RMatrix):
    """Reduced row echelon form; returns (rref, pivot column list). On the
    numerator M, each pivot p = M[r, c] turns every other row i into
    (p M[i] - M[i, c] M[r]) / q, q the previous pivot (1 at first): an exact
    division that makes every earlier pivot p too, so the RREF is M / p."""
    re, im = a._re.copy(), a._im.copy()
    pivots, (qr, qi) = [], (1, 0)
    for c in range(re.shape[1]):
        r = len(pivots)
        below = [i for i in range(r, re.shape[0]) if re[i, c] or im[i, c]]
        if not below:
            continue
        re[[r, below[0]]], im[[r, below[0]]] = re[[below[0], r]], im[[below[0], r]]
        pr, pi, fr, fi = re[r, c], im[r, c], re[:, c:c + 1], im[:, c:c + 1]
        xr = pr * re - pi * im - (fr * re[r] - fi * im[r])
        xi = pr * im + pi * re - (fr * im[r] + fi * re[r])
        if qi:  # dividing by q is multiplying by conj(q) and dividing by |q|^2
            xr, xi, qr = xr * qr + xi * qi, xi * qr - xr * qi, qr * qr + qi * qi
        xr, xi = xr // qr, xi // qr
        xr[r], xi[r] = re[r], im[r]
        re, im, (qr, qi) = xr, xi, (pr, pi)
        pivots.append(c)
    return RMatrix._of(re * qr + im * qi, im * qr - re * qi, qr * qr + qi * qi), pivots


def exact_rank(a: RMatrix) -> int:
    return len(_rref(a)[1])


def exact_inv(a: RMatrix) -> RMatrix:
    """Inverse of a nonsingular square matrix via Gauss-Jordan on [a | I]."""
    m, n = a.shape
    if m != n:
        raise ValueError("inverse of non-square matrix")
    eye = np.eye(n, dtype=int).astype(object) * a._den
    red, pivots = _rref(RMatrix._of(np.hstack([a._re, eye]), np.hstack([a._im, 0 * eye])))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return red._sub(slice(None), slice(n, None))


def _rank_factorize(a: RMatrix):
    """Full-rank factorization a = f @ g with f m x r, g r x n."""
    red, pivots = _rref(a)
    return a._sub(slice(None), pivots), red._sub(slice(len(pivots)), slice(None))


def exact_pinv(a: RMatrix) -> RMatrix:
    """Moore-Penrose inverse, exact: g*(gg*)^-1 (f*f)^-1 f*."""
    m, n = a.shape
    if a.is_zero():
        return RMatrix.zeros(n, m)
    f, g = _rank_factorize(a)
    gs, fs = g.conj_t(), f.conj_t()
    return gs @ exact_inv(g @ gs) @ exact_inv(fs @ f) @ fs


def _index_power(a: RMatrix):
    """(k, a^k) for the smallest k >= 0 with rank(a^k) = rank(a^(k+1))."""
    k, ak, nxt, rank = 0, RMatrix.identity(a.shape[0]), a, a.shape[0]
    while (r := exact_rank(nxt)) != rank:
        k, ak, nxt, rank = k + 1, nxt, nxt @ a, r
    return k, ak


def exact_index(a: RMatrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1))."""
    return _index_power(a)[0]


def _drazin_parts(a: RMatrix):
    """(k, a^k, a^D = a^k (a^(2k+1))^+ a^k), each power formed once."""
    k, ak = _index_power(a)
    return k, ak, ak @ exact_pinv(ak @ ak @ a) @ ak


def exact_drazin(a: RMatrix) -> RMatrix:
    """Drazin inverse a^k (a^(2k+1))^+ a^k with k the exact index."""
    return _drazin_parts(a)[2]


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
    _, ak, d = _drazin_parts(a)
    return d @ ak @ exact_pinv(ak)


def exact_cce(a: RMatrix) -> RMatrix:
    p = exact_pinv(a)
    return p @ a @ exact_core_ep(a) @ a @ p
