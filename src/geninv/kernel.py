"""Dense complex matrices and the single comparison tolerance policy.

Matrices are plain 2-D complex128 numpy arrays. Every function here and in
the rest of the package is pure: inputs are never mutated and results are
fresh arrays, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy threaded through every residual test.

    eq_abs   - absolute entrywise floor for matrix equality
    eq_rel   - relative Frobenius factor for matrix equality
    rank_rel - singular-value cutoff factor; None selects the
               dimension-dependent default eps * max(m, n) * 64
    """

    eq_abs: float = 1e-10
    eq_rel: float = 1e-9
    rank_rel: float | None = None

    def __post_init__(self) -> None:
        for x in (self.eq_abs, self.eq_rel, self.rank_rel):
            if x is not None and not (0.0 < x < math.inf):  # False for NaN
                raise ValueError("tolerance fields must be finite and strictly positive")

    def rank_cutoff(self, m: int, n: int) -> float:
        """Cutoff factor applied to the largest singular value."""
        if self.rank_rel is not None:
            return self.rank_rel
        return float(np.finfo(np.float64).eps) * max(m, n) * 64.0


DEFAULT_TOL = Tolerance()


def _guarded(a) -> np.ndarray:
    """`a` as a complex128 array, through the package's one input guard: an
    input that is not 2-D raises DimensionMismatchError, and a non-finite
    entry PreconditionError."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"2-D matrix required, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise PreconditionError("matrix has a non-finite entry")
    return a


def cmatrix(data) -> np.ndarray:
    """Coerce `data` to a new 2-D complex128 array with at least one entry
    (ValueError otherwise), all finite (see `_guarded`)."""
    a = _guarded(np.array(data, dtype=np.complex128))
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


def _exponent(a: np.ndarray) -> int:
    """The e for which 2**-e * a has its largest real or imaginary part in
    [0.5, 1); 0 for an empty or zero matrix."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return math.frexp(float(np.abs(parts).max(initial=0.0)))[1]


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """2**e * a for a complex matrix, exact unless an entry leaves the
    normal float range."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return np.ldexp(parts, e).view(np.complex128)


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm, as 2**e ||2**-e a|| so that no square overflows.
    When e lies in [-400, 400] no square leaves the normal range, and
    scaling by 2**e is exact, so the unscaled norm has the same bits."""
    e = _exponent(a)
    if -400 <= e <= 400:
        return float(np.linalg.norm(a))
    return float(np.ldexp(np.linalg.norm(_ldexp(a, -e)), e))


def diff_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return fro_norm(a - b)


def eq_scale(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    """Threshold under which a and b count as equal."""
    return tol.eq_abs + tol.eq_rel * (1.0 + fro_norm(a) + fro_norm(b))


def approx_eq(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ||a - b||_F <= eq_abs + eq_rel * (1 + ||a||_F + ||b||_F)."""
    return _check((a, b), tol)[0]


def _check(sides, tol: Tolerance) -> tuple[bool, float]:
    """(holds, residual) of one identity, given what its sides returned.

    Two matrices (L, R) must be equal; the residual is ||L - R||_F, formed
    once. A list holds if each of its members does, with the largest
    residual. Any other tuple lists statements, each a boolean or a matrix
    pair, whose truth values must all agree (two make a biconditional);
    its residual is 0.
    """
    if isinstance(sides, list):
        checks = [_check(s, tol) for s in sides]
        return all(ok for ok, _ in checks), max(r for _, r in checks)
    if isinstance(sides[0], np.ndarray):
        residual = diff_norm(*sides)
        return residual <= eq_scale(*sides, tol), residual
    truths = {_check(s, tol)[0] if isinstance(s, tuple) else s for s in sides}
    return len(truths) == 1, 0.0
