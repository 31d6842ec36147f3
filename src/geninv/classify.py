"""Matrix class predicates (EP, core-EP, k-EP) and the EP-ness criteria for
the composite inverses, each available both as a direct residual test and
through conditions on the unitary block factorization.

Every boolean is a residual comparison under the shared Tolerance, and the
raw residual is reported next to it so near-threshold calls can be audited.
The class predicates read the verdicts of the analysis record
(`drazin._Analysis`), decided on B = 2^-e a (e as in `svd`) under its
tolerance, and the criteria read it, its factors and the records of what
it derives (`_of`), judged by it: each gives one answer for all 2^k a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drazin import _analyse
from .factor import HSDecomp, _block, hs_reconstruct
from .kernel import (
    DEFAULT_TOL,
    InternalCheckError,
    PreconditionError,
    Tolerance,
    _check,
    conj_transpose,
)

__all__ = [
    "ClassReport",
    "is_ep",
    "is_core_ep",
    "is_k_ep",
    "core_ep_block_conditions",
    "core_ep_equiv_report",
    "cmp_ep_criterion",
    "mpdmp_ep_criterion",
    "cce_ep_criterion",
    "mpdmp_ep_consequences",
    "dmp_pinv_commute_criterion",
    "wqrt_criterion",
]

# The seven equivalent core-EP conditions: (label, sides(rec)), each a
# pair of matrices that are equal exactly when the matrix is core-EP.
# The first is the definition; the others are stated through the MPDMP
# matrix.
_CORE_EP_CONDITIONS = (
    ("defining_commutation", lambda r: (r.pinv @ r.core, r.core @ r.pinv)),
    ("mpdmp_is_drazin_cubed", lambda r: (r.mpdmp, r.drazin @ r.drazin @ r.drazin)),
    ("mpdmp_dmp_is_drazin_fourth",
     lambda r: (r.mpdmp @ r.dmp, r.drazin @ r.drazin @ r.drazin @ r.drazin)),
    ("mpdmp_commutes_with_matrix", lambda r: (r.mpdmp @ r.a, r.a @ r.mpdmp)),
    ("mpdmp_commutes_with_core", lambda r: (r.mpdmp @ r.core, r.core @ r.mpdmp)),
    ("mpdmp_commutes_with_drazin", lambda r: (r.mpdmp @ r.drazin, r.drazin @ r.mpdmp)),
    # (D^2)(D^2), the products numpy's matrix_power forms for D^4
    ("mpdmp_drazin_is_dmp_fourth",
     lambda r: (r.mpdmp @ r.drazin, r.dmp @ r.dmp @ (r.dmp @ r.dmp))),
)


@dataclass(frozen=True)
class ClassReport:
    """Class predicates plus the full set of equivalent core-EP conditions.

    core_ep_conditions holds the seven labeled booleans; block_conditions
    the labeled (a), (b), (c) factorization tests (empty for the zero
    matrix, which has no block factorization). Disagreements between any
    condition and is_core_ep are listed in flags, never hidden.
    """

    is_ep: bool
    is_core_ep: bool
    is_k_ep: bool
    core_ep_conditions: dict[str, bool]
    block_conditions: dict[str, bool]
    residuals: dict[str, float]
    flags: tuple[str, ...] = field(default=())


def is_ep(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a commutes with its Moore-Penrose inverse."""
    return _analyse(a, tol).is_ep


def is_core_ep(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a^+ commutes with the core part of a."""
    return _analyse(a, tol).is_core_ep


def is_k_ep(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a^k commutes with a^+, k = index(a)."""
    return _analyse(a, tol).is_k_ep


def _block_conditions(rec):
    """`core_ep_block_conditions`, read from the record `rec` and its factors."""
    h = rec.hs
    core_d, qhat = _block(h, rec, "drazin"), _block(h, rec, "cmp")
    p_qhat, core_dsp = conj_transpose(h.p) @ qhat, core_d @ h.sigma_mat @ h.p
    return (rec._compare(conj_transpose(h.q) @ qhat, core_d)[0],
            rec._compare(p_qhat, np.zeros_like(p_qhat))[0],
            rec._compare(core_dsp, np.zeros_like(core_dsp))[0])


def core_ep_block_conditions(h: HSDecomp, tol: Tolerance = DEFAULT_TOL):
    """Residual tests of (a) Q* qhat = (SQ)^D, (b) P* qhat = 0,
    (c) (SQ)^D S P = 0; their conjunction characterizes core-EP."""
    return _block_conditions(_analyse(hs_reconstruct(h), tol).unit)


def core_ep_equiv_report(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> ClassReport:
    """Evaluate every equivalent core-EP condition and flag disagreements.

    Every condition is homogeneous in the matrix, so all of them are
    evaluated on B = 2^-e a, whose largest real or imaginary part lies in
    [0.5, 1) (e as in `svd`): the report, residuals included, is the same
    for every power-of-two multiple of a. The residuals are B's.
    """
    rec = _analyse(a, tol).unit
    conditions, residuals = {}, {}
    for label, sides in _CORE_EP_CONDITIONS:
        conditions[label], residuals[label] = _check(sides(rec), rec._compare)

    core_ep = conditions["defining_commutation"]
    flags = [
        f"{label} disagrees with the defining core-EP test"
        for label, holds in conditions.items()
        if holds != core_ep
    ]

    block = dict(zip("abc", _block_conditions(rec))) if rec.rank else {}
    if block and all(block.values()) != core_ep:
        flags.append("block conditions disagree with the defining core-EP test")

    return ClassReport(
        is_ep=rec.is_ep,
        is_core_ep=core_ep,
        is_k_ep=rec.is_k_ep,
        core_ep_conditions=conditions,
        block_conditions=block,
        residuals=residuals,
        flags=tuple(flags),
    )


def _block_ep(h: HSDecomp, inverse: str, tol: Tolerance):
    """For m the block of the inverse `inverse` (`factor._block`) of the record
    of B = 2^-e A, A the matrix h factors, and delta = m m^+, m^+ read from the
    record of m: whether Q* delta Q = m^+ m and delta P = 0 (that inverse is
    EP), and a function that judges, by the record of B, the pairs that a
    positive verdict makes equal: PP* and QQ* commute with delta, and delta = Q m^+ m Q*."""
    rec = _analyse(hs_reconstruct(h), tol).unit
    h = rec.hs
    m = _block(h, rec, inverse)
    m_pinv = rec._of(m).pinv
    delta = m @ m_pinv
    qq, pp = h.q @ conj_transpose(h.q), h.p @ conj_transpose(h.p)
    holds = (rec._compare(conj_transpose(h.q) @ delta @ h.q, m_pinv @ m)[0]
             and rec._compare(delta @ h.p, np.zeros_like(h.p))[0])
    return holds, lambda: [rec._compare(x, y) for x, y in [
        (pp @ delta, delta @ pp), (qq @ delta, delta @ qq),
        (delta, h.q @ m_pinv @ m @ conj_transpose(h.q))]]


def cmp_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CMP inverse is EP iff Q* delta Q = qhat^+ qhat and delta P = 0.

    A third block condition is implied by these two (delta is an
    orthogonal projector), so only the two are tested.
    """
    return _block_ep(h, "cmp", tol)[0]


def mpdmp_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """MPDMP matrix is EP iff Q* delta_hat Q = st^+ st and delta_hat P = 0."""
    return _block_ep(h, "mpdmp", tol)[0]


def cce_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CCE inverse is EP iff Q* delta_tilde Q = qtilde^+ qtilde and
    delta_tilde P = 0; a positive result also implies that delta_tilde
    commutes with PP* and QQ* and equals Q qtilde^+ qtilde Q*."""
    holds, consequences = _block_ep(h, "cce", tol)
    if holds and not all(ok for ok, _ in consequences()):
        raise InternalCheckError("CCE EP-criterion consequences failed on a positive result")
    return holds


def mpdmp_ep_consequences(h: HSDecomp, tol: Tolerance = DEFAULT_TOL):
    """Residuals of [PP*, delta_hat], [QQ*, delta_hat] and
    delta_hat - Q st^+ st Q*; requires mpdmp_ep_criterion(h)."""
    holds, consequences = _block_ep(h, "mpdmp", tol)
    if not holds:
        raise PreconditionError("MPDMP EP criterion does not hold")
    return tuple(residual for _, residual in consequences())


def dmp_pinv_commute_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """(DMP inverse)^+ commutes with a^D iff (SQ)^D is EP and (SQ)^D S P = 0.

    The second condition cannot be shortened to Q S P = 0: (SQ)^D has
    index at most 1 but SQ itself need not, so (SQ)^D S P = 0 is strictly
    weaker and is the one that matches the direct commutation test.
    """
    rec = _analyse(hs_reconstruct(h), tol).unit
    return _block_conditions(rec)[2] and rec._of(_block(rec.hs, rec, "drazin")).is_ep


def wqrt_criterion(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CMP inverse is EP iff (MPD)(CMP)^+ = (CMP)^+(DMP), read through the
    record of a, float or exact."""
    rec = _analyse(a, tol)
    if not rec.rank:
        raise PreconditionError("criterion requires a nonzero matrix")
    c_pinv = rec._of(rec.cmp).pinv
    return rec._compare(rec.mpd @ c_pinv, c_pinv @ rec.dmp)[0]
