"""Binary relations induced by the DMP, MPD, CMP and Drazin inverses,
and their equivalent characterizations.

A <= B under inverse g of A means g A = g B and A g = B g. The relations
are evaluated exactly as defined, on the pair (2^-e A, 2^-e B) with e as
in `svd` of A; no order axioms are assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drazin import _analyse, _operand, drazin
from .inverses import cmp_inverse, dmp, mpd
from .kernel import DEFAULT_TOL, Tolerance, _check, _ldexp

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
    """The record of 2^-e a and 2^-e b as an array, e as in `svd` of a,
    both through the input guard. Every relation here is homogeneous in
    (a, b) together, so it is decided on the pair scaled that way, whose
    answer is the same for every power-of-two multiple of the pair."""
    rec = _analyse(a, tol)
    return rec.unit, _ldexp(_operand(rec, b), -rec._exp)


def _order_sides(rec, b: np.ndarray, kind: OrderKind, tol: Tolerance) -> list:
    """a <= b under inverse g of a, as sides: [(g a, g b), (a g, b g)]."""
    g = _INVERSE_FOR_KIND[kind](rec, tol)
    return [(g @ rec.a, g @ b), (rec.a @ g, b @ g)]


def leq(a: np.ndarray, b: np.ndarray, kind: OrderKind,
        tol: Tolerance = DEFAULT_TOL) -> OrderReport:
    """Test a <= b under the chosen generalized inverse of a."""
    rec, b = _check_pair(a, b, tol)
    kind = OrderKind(kind)
    (left, left_residual), (right, right_residual) = (
        _check(sides, tol) for sides in _order_sides(rec, b, kind, tol))
    return OrderReport(
        kind=kind,
        holds=left and right,
        left_residual=left_residual,
        right_residual=right_residual,
    )


def core_upper_bound_check(a: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """a <= core(a) under all four relations; each report must hold."""
    rec = _analyse(a, tol)
    return tuple(leq(rec, rec.core, kind, tol) for kind in OrderKind)


# The three equivalent tests of a <= b under the DMP and the MPD inverse:
# (label, sides(rec, b, A^k)), each a list of pairs that must all be equal.
_DMP_FORMS = (
    ("definition", lambda r, b, ak: _order_sides(r, b, OrderKind.DMP, r.tol)),
    ("drazin", lambda r, b, ak: [(r.drazin, r.drazin @ r.pinv @ b),
                                 (r.drazin, b @ r.drazin @ r.drazin)]),
    ("power", lambda r, b, ak: [(ak, ak @ r.pinv @ b), (ak, b @ r.drazin @ ak)]),
)
_MPD_FORMS = (
    ("definition", lambda r, b, ak: _order_sides(r, b, OrderKind.MPD, r.tol)),
    ("drazin", lambda r, b, ak: [(r.drazin, r.drazin @ r.drazin @ b),
                                 (r.drazin, b @ r.pinv @ r.drazin)]),
    ("power", lambda r, b, ak: [(ak, ak @ r.drazin @ b), (ak, b @ r.pinv @ ak)]),
)


def _forms(rows, a, b, tol: Tolerance) -> tuple[bool, ...]:
    """Whether each row's pairs are equal for a and b."""
    rec, b = _check_pair(a, b, tol)
    ak = rec.power(rec.index)
    return tuple(_check(sides(rec, b, ak), tol)[0] for _, sides in rows)


def dmp_order_characterizations(a: np.ndarray, b: np.ndarray,
                                tol: Tolerance = DEFAULT_TOL):
    """Three equivalent tests of a <= b under the DMP inverse:
    the definition, the a^D form, and the a^k form."""
    return _forms(_DMP_FORMS, a, b, tol)


def mpd_order_characterizations(a: np.ndarray, b: np.ndarray,
                                tol: Tolerance = DEFAULT_TOL):
    """Three equivalent tests of a <= b under the MPD inverse:
    the definition, the a^D form, and the a^k form."""
    return _forms(_MPD_FORMS, a, b, tol)
