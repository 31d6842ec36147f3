"""Binary relations induced by the DMP, MPD, CMP and Drazin inverses,
and their equivalent characterizations.

A <= B under inverse g of A means g A = g B and A g = B g. The relations
are evaluated exactly as defined; no order axioms are assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drazin import _analyse, drazin
from .inverses import cmp_inverse, dmp, mpd
from .kernel import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    approx_eq,
    diff_norm,
    mat_pow,
)

__all__ = [
    "OrderKind",
    "OrderReport",
    "leq",
    "core_upper_bound_check",
    "dmp_order_characterizations",
    "mpd_order_characterizations",
]


class OrderKind(str, Enum):
    DMP = "dmp"
    MPD = "mpd"
    CMP = "cmp"
    DRAZIN = "drazin"


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one relation test; holds iff both residuals pass."""

    kind: OrderKind
    holds: bool
    left_residual: float
    right_residual: float


_INVERSE_FOR_KIND = {
    OrderKind.DMP: dmp,
    OrderKind.MPD: mpd,
    OrderKind.CMP: cmp_inverse,
    OrderKind.DRAZIN: drazin,
}


def _check_pair(a, b, tol: Tolerance):
    rec = _analyse(a, tol)
    b = np.asarray(b, dtype=np.complex128)
    if rec.a.shape != b.shape:
        raise DimensionMismatchError(f"size mismatch {rec.a.shape} vs {b.shape}")
    return rec, b


def leq(a: np.ndarray, b: np.ndarray, kind: OrderKind,
        tol: Tolerance = DEFAULT_TOL) -> OrderReport:
    """Test a <= b under the chosen generalized inverse of a."""
    rec, b = _check_pair(a, b, tol)
    a = rec.a
    kind = OrderKind(kind)
    g = _INVERSE_FOR_KIND[kind](rec, tol)
    left = approx_eq(g @ a, g @ b, tol)
    right = approx_eq(a @ g, b @ g, tol)
    return OrderReport(
        kind=kind,
        holds=left and right,
        left_residual=diff_norm(g @ a, g @ b),
        right_residual=diff_norm(a @ g, b @ g),
    )


def core_upper_bound_check(a: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """a <= core(a) under all four relations; each report must hold."""
    rec = _analyse(a, tol)
    return tuple(leq(rec, rec.core, kind, tol) for kind in OrderKind)


def dmp_order_characterizations(a: np.ndarray, b: np.ndarray,
                                tol: Tolerance = DEFAULT_TOL):
    """Three equivalent tests of a <= b under the DMP inverse:
    the definition, the a^D form, and the a^k form."""
    rec, b = _check_pair(a, b, tol)
    d, p, ak = rec.drazin, rec.pinv, mat_pow(rec.a, rec.index)
    by_def = leq(rec, b, OrderKind.DMP, tol).holds
    by_drazin = (approx_eq(d, d @ p @ b, tol)
                 and approx_eq(d, b @ d @ d, tol))
    by_power = (approx_eq(ak, ak @ p @ b, tol)
                and approx_eq(ak, b @ d @ ak, tol))
    return by_def, by_drazin, by_power


def mpd_order_characterizations(a: np.ndarray, b: np.ndarray,
                                tol: Tolerance = DEFAULT_TOL):
    """Three equivalent tests of a <= b under the MPD inverse:
    the definition, the a^D form, and the a^k form."""
    rec, b = _check_pair(a, b, tol)
    d, p, ak = rec.drazin, rec.pinv, mat_pow(rec.a, rec.index)
    by_def = leq(rec, b, OrderKind.MPD, tol).holds
    by_drazin = (approx_eq(d, d @ d @ b, tol)
                 and approx_eq(d, b @ p @ d, tol))
    by_power = (approx_eq(ak, ak @ d @ b, tol)
                and approx_eq(ak, b @ p @ ak, tol))
    return by_def, by_drazin, by_power
