"""Dense complex matrices and the single comparison tolerance policy.

Matrices are plain 2-D complex128 numpy arrays. Every function here and in
the rest of the package is pure: inputs are never mutated and results are
fresh arrays, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "PreconditionError",
    "InternalCheckError",
    "Tolerance",
    "DEFAULT_TOL",
    "cmatrix",
    "conj_transpose",
    "matmul",
    "mat_pow",
    "fro_norm",
    "diff_norm",
    "eq_scale",
    "approx_eq",
]


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class InternalCheckError(RuntimeError):
    """A cross-check that must always pass has failed."""


_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy threaded through every residual test.

    eq_abs   - float: absolute entrywise floor for matrix equality
    eq_rel   - float: relative Frobenius factor for matrix equality
    rank_rel - float or None: singular-value cutoff factor; None selects
               the dimension-dependent default eps * max(m, n) * 64

    Each float is a real number (an int or a numpy number as well, but not
    a bool), finite and strictly positive; anything else raises ValueError.
    """

    eq_abs: float = 1e-10
    eq_rel: float = 1e-9
    rank_rel: float | None = None

    def __post_init__(self) -> None:
        for name in ("eq_abs", "eq_rel", "rank_rel"):
            x = getattr(self, name)
            if x is None and name == "rank_rel":
                continue
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"tolerance field {name} must be a real number, got {x!r}")
            if not (0.0 < x < math.inf):  # False for NaN
                raise ValueError("tolerance fields must be finite and strictly positive")

    def rank_cutoff(self, m: int, n: int) -> float:
        """Cutoff factor applied to the largest singular value."""
        if self.rank_rel is not None:
            return self.rank_rel
        return _EPS * max(m, n) * 64.0


DEFAULT_TOL = Tolerance()


def _guarded(a) -> tuple[np.ndarray, int]:
    """(`a` as a complex128 array, its `_exponent`), through the package's
    one input guard: an input that is not 2-D raises DimensionMismatchError,
    and a non-finite entry PreconditionError. One scan of the parts gives
    both the finiteness test and the exponent: their largest magnitude is
    finite unless a part is infinite or NaN."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"2-D matrix required, got ndim={a.ndim}")
    largest = _largest_part(a)
    if not math.isfinite(largest):
        raise PreconditionError("matrix has a non-finite entry")
    return a, math.frexp(largest)[1]


def _named_overflow(block: str, form, *args):
    """form(*args), which forms `block` from a finite matrix or guards one so
    formed: a non-finite entry is an overflow, and the error names the block."""
    try:
        return form(*args)
    except PreconditionError:
        raise PreconditionError(f"{block} overflows float64") from None


def cmatrix(data) -> np.ndarray:
    """Coerce `data` to a new 2-D complex128 array with at least one entry
    (ValueError otherwise), all finite (see `_guarded`)."""
    a = _guarded(np.array(data, dtype=np.complex128))[0]
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got {a.shape}")
    return a


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {a.shape} by {b.shape}"
        )
    return a @ b


def mat_pow(a: np.ndarray, k: int) -> np.ndarray:
    """k-th power of a square matrix; a**0 is the identity."""
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"power of non-square matrix {a.shape}")
    return np.linalg.matrix_power(a, k)


def _largest_part(a: np.ndarray) -> float:
    """The largest magnitude of a real or imaginary part of `a`, 0.0 for an
    empty matrix; NaN if a part is NaN."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return float(np.abs(parts).max(initial=0.0))


def _exponent(a: np.ndarray) -> int:
    """The e for which 2**-e * a has its largest real or imaginary part in
    [0.5, 1); 0 for an empty or zero matrix."""
    return math.frexp(_largest_part(a))[1]


def _ldexp_scalar(x: float, e: int) -> float:
    """2**e * x for a float, +-inf beyond the float range: unlike
    `math.ldexp` it does not raise, and unlike `np.ldexp` it does not warn."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """2**e * a for a complex matrix, exact unless an entry leaves the
    normal float range."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return np.ldexp(parts, e).view(np.complex128)


# Band of plain norms that proves the unscaled rule of `fro_norm`: with M
# the largest real or imaginary part, M <= ||a||_F <= sqrt(2mn) M, so a
# plain norm at most 2**399 has M < 2**400 (e <= 400) with room for its
# rounding, and one at least 2**-360 has M >= 2**-401 (e >= -400) for any
# matrix with sqrt(2mn) below 2**40. Underflowed squares only shrink the
# plain norm, and an overflowed one makes it inf, both outside the band.
_PLAIN_BAND = (2.0 ** -360, 2.0 ** 399)


def _plain_norm(a) -> float:
    """||a||_F unscaled, with the bits of np.linalg.norm(a): its two BLAS
    dots (one for a real input) over ravel(order="K"), without its
    dispatch. An overflowing square gives inf and a floating-point
    overflow, which the callers ignore."""
    x = np.asarray(a)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        x_re, x_im = x.real, x.imag
        return float(np.sqrt(x_re.dot(x_re) + x_im.dot(x_im)))
    return float(np.sqrt(x.dot(x)))


def _fro_norm(a) -> float:
    """`fro_norm` with floating-point overflow already ignored."""
    norm = _plain_norm(a)
    if _PLAIN_BAND[0] <= norm <= _PLAIN_BAND[1]:
        return norm
    e = _exponent(a)
    if -400 <= e <= 400:
        return norm
    return float(np.ldexp(_plain_norm(_ldexp(a, -e)), e))


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm, as 2**e ||2**-e a|| so that no square overflows.
    When e lies in [-400, 400] no square leaves the normal range, and
    scaling by 2**e is exact, so the plain norm has the same bits. The
    plain norm is taken first, and e is found only when that norm falls
    outside `_PLAIN_BAND`, as every norm of a matrix with e outside
    [-400, 400] does."""
    with np.errstate(over="ignore"):
        return _fro_norm(a)


def diff_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return fro_norm(a - b)


def eq_scale(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    """Threshold under which a and b count as equal."""
    return _threshold(fro_norm(a), fro_norm(b), tol)


def _threshold(norm_a: float, norm_b: float, tol: Tolerance) -> float:
    return tol.eq_abs + tol.eq_rel * (1.0 + norm_a + norm_b)


def approx_eq(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ||a - b||_F <= eq_abs + eq_rel * (1 + ||a||_F + ||b||_F)."""
    return _compare(a, b, tol)[0]


def _compare(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> tuple[bool, float]:
    """(holds, residual) of a = b by `approx_eq`'s rule, ||a - b|| formed
    once. ||a|| and ||b|| are read only past eq_abs + eq_rel: as rounding is
    monotone, no threshold falls below that (a NaN residual reads them)."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a - b
    with np.errstate(over="ignore"):
        residual = _fro_norm(d)
        if residual <= tol.eq_abs + tol.eq_rel:
            return True, residual
        return residual <= _threshold(_fro_norm(a), _fro_norm(b), tol), residual


def _check(sides, compare) -> tuple[bool, float]:
    """(holds, residual) of one identity, given what its sides returned and
    `compare(x, y) -> (holds, residual)`, a record's `_compare`, as the judge
    of two matrices (L, R), which must be equal. A list holds if each of its
    members does, with the largest residual. Any other tuple lists
    statements, each a boolean or a matrix pair, whose truth values must all
    agree (two make a biconditional); its residual is 0."""
    if isinstance(sides, list):
        checks = [_check(s, compare) for s in sides]
        return all(ok for ok, _ in checks), max(r for _, r in checks)
    if not isinstance(sides[0], (bool, np.bool_, tuple)):
        return compare(*sides)
    truths = {_check(s, compare)[0] if isinstance(s, tuple) else s for s in sides}
    return len(truths) == 1, 0.0
