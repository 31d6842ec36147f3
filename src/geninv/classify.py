"""Matrix class predicates (EP, core-EP, k-EP) and the EP-ness criteria for
the composite inverses, each available both as a direct residual test and
through conditions on the unitary block factorization.

Every boolean is a residual comparison under the shared Tolerance, and the
raw residual is reported next to it so near-threshold calls can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drazin import _analyse, drazin
from .factor import HSDecomp, _core_blocks, pinv
from .kernel import (
    DEFAULT_TOL,
    InternalCheckError,
    PreconditionError,
    Tolerance,
    approx_eq,
    conj_transpose,
    diff_norm,
    mat_pow,
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

CORE_EP_CONDITION_LABELS = (
    "defining_commutation",
    "mpdmp_is_drazin_cubed",
    "mpdmp_dmp_is_drazin_fourth",
    "mpdmp_commutes_with_matrix",
    "mpdmp_commutes_with_core",
    "mpdmp_commutes_with_drazin",
    "mpdmp_drazin_is_dmp_fourth",
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
    rec = _analyse(a, tol)
    x = rec.pinv
    return approx_eq(rec.a @ x, x @ rec.a, tol)


def is_core_ep(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a^+ commutes with the core part of a."""
    rec = _analyse(a, tol)
    x, core = rec.pinv, rec.core
    return approx_eq(x @ core, core @ x, tol)


def is_k_ep(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a^k commutes with a^+, k = index(a)."""
    rec = _analyse(a, tol)
    ak, x = mat_pow(rec.a, rec.index), rec.pinv
    return approx_eq(ak @ x, x @ ak, tol)


def core_ep_block_conditions(h: HSDecomp, tol: Tolerance = DEFAULT_TOL):
    """Residual tests of (a) Q* qhat = (SQ)^D, (b) P* qhat = 0,
    (c) (SQ)^D S P = 0; their conjunction characterizes core-EP."""
    core_d = drazin(h.core, tol)
    qhat = h.q @ core_d
    zero_rp = np.zeros((h.p.shape[1], h.r), dtype=np.complex128)
    zero_rp2 = np.zeros((h.r, h.p.shape[1]), dtype=np.complex128)
    cond_a = approx_eq(conj_transpose(h.q) @ qhat, core_d, tol)
    cond_b = approx_eq(conj_transpose(h.p) @ qhat, zero_rp, tol)
    cond_c = approx_eq(core_d @ h.sigma_mat @ h.p, zero_rp2, tol)
    return cond_a, cond_b, cond_c


def core_ep_equiv_report(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> ClassReport:
    """Evaluate every equivalent core-EP condition and flag disagreements."""
    rec = _analyse(a, tol)
    a, x, d, core, m, g = rec.a, rec.pinv, rec.drazin, rec.core, rec.mpdmp, rec.dmp
    d3 = d @ d @ d
    d4 = d3 @ d

    pairs = {
        "defining_commutation": (x @ core, core @ x),
        "mpdmp_is_drazin_cubed": (m, d3),
        "mpdmp_dmp_is_drazin_fourth": (m @ g, d4),
        "mpdmp_commutes_with_matrix": (m @ a, a @ m),
        "mpdmp_commutes_with_core": (m @ core, core @ m),
        "mpdmp_commutes_with_drazin": (m @ d, d @ m),
        "mpdmp_drazin_is_dmp_fourth": (m @ d, mat_pow(g, 4)),
    }
    conditions = {}
    residuals = {}
    for label, (lhs, rhs) in pairs.items():
        conditions[label] = approx_eq(lhs, rhs, tol)
        residuals[label] = diff_norm(lhs, rhs)

    core_ep = conditions["defining_commutation"]
    flags = [
        f"{label} disagrees with the defining core-EP test"
        for label in CORE_EP_CONDITION_LABELS
        if conditions[label] != core_ep
    ]

    block = {}
    if np.any(a != 0):
        ca, cb, cc = core_ep_block_conditions(rec.hs, tol)
        block = {"a": ca, "b": cb, "c": cc}
        if (ca and cb and cc) != core_ep:
            flags.append("block conditions disagree with the defining core-EP test")

    return ClassReport(
        is_ep=is_ep(rec, tol),
        is_core_ep=core_ep,
        is_k_ep=is_k_ep(rec, tol),
        core_ep_conditions=conditions,
        block_conditions=block,
        residuals=residuals,
        flags=tuple(flags),
    )


def _block_ep_test(h: HSDecomp, m: np.ndarray, tol: Tolerance):
    """Q* delta Q = m^+ m and delta P = 0 for delta = m m^+; returns the
    verdict, delta and m^+."""
    m_pinv = pinv(m, tol)
    delta = m @ m_pinv
    holds = (approx_eq(conj_transpose(h.q) @ delta @ h.q, m_pinv @ m, tol)
             and approx_eq(delta @ h.p, np.zeros_like(h.p), tol))
    return holds, delta, m_pinv


def _implied_pairs(h: HSDecomp, delta: np.ndarray, m: np.ndarray,
                   m_pinv: np.ndarray):
    """The pairs that a positive block criterion makes equal: PP* and QQ*
    commute with delta = m m^+, and delta = Q m^+ m Q*."""
    pp = h.p @ conj_transpose(h.p)
    qq = h.q @ conj_transpose(h.q)
    return [
        (pp @ delta, delta @ pp),
        (qq @ delta, delta @ qq),
        (delta, h.q @ m_pinv @ m @ conj_transpose(h.q)),
    ]


def cmp_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CMP inverse is EP iff Q* delta Q = qhat^+ qhat and delta P = 0.

    A third block condition is implied by these two (delta is an
    orthogonal projector), so only the two are tested.
    """
    return _block_ep_test(h, _core_blocks(h, tol)[0], tol)[0]


def mpdmp_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """MPDMP matrix is EP iff Q* delta_hat Q = st^+ st and delta_hat P = 0."""
    return _block_ep_test(h, _core_blocks(h, tol)[1], tol)[0]


def cce_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CCE inverse is EP iff Q* delta_tilde Q = qtilde^+ qtilde and
    delta_tilde P = 0; a positive result also implies that delta_tilde
    commutes with PP* and QQ* and equals Q qtilde^+ qtilde Q*."""
    qtilde = _core_blocks(h, tol)[2]
    holds, dt, qt_pinv = _block_ep_test(h, qtilde, tol)
    if holds:
        pairs = _implied_pairs(h, dt, qtilde, qt_pinv)
        if not all([approx_eq(lhs, rhs, tol) for lhs, rhs in pairs]):
            raise InternalCheckError(
                "CCE EP-criterion consequences failed on a positive result"
            )
    return holds


def mpdmp_ep_consequences(h: HSDecomp, tol: Tolerance = DEFAULT_TOL):
    """Residuals of [PP*, delta_hat], [QQ*, delta_hat] and
    delta_hat - Q st^+ st Q*; requires mpdmp_ep_criterion(h)."""
    st = _core_blocks(h, tol)[1]
    holds, dh, st_pinv = _block_ep_test(h, st, tol)
    if not holds:
        raise PreconditionError("MPDMP EP criterion does not hold")
    return tuple(diff_norm(lhs, rhs) for lhs, rhs in _implied_pairs(h, dh, st, st_pinv))


def dmp_pinv_commute_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """(DMP inverse)^+ commutes with a^D iff (SQ)^D is EP and (SQ)^D S P = 0.

    The second condition cannot be shortened to Q S P = 0: (SQ)^D has
    index at most 1 but SQ itself need not, so (SQ)^D S P = 0 is strictly
    weaker and is the one that matches the direct commutation test.
    """
    core_d = drazin(h.core, tol)
    zero_p = np.zeros_like(h.p)
    return is_ep(core_d, tol) and approx_eq(core_d @ h.sigma_mat @ h.p, zero_p, tol)


def wqrt_criterion(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CMP inverse is EP iff (MPD)(CMP)^+ = (CMP)^+(DMP)."""
    rec = _analyse(a, tol)
    if not np.any(rec.a != 0):
        raise PreconditionError("criterion requires a nonzero matrix")
    c_pinv = pinv(rec.cmp, tol)
    return approx_eq(rec.mpd @ c_pinv, c_pinv @ rec.dmp, tol)
