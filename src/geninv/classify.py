"""Matrix class predicates (EP, core-EP, k-EP) and the EP-ness criteria for
the composite inverses, each available both as a direct residual test and
through conditions on the unitary block factorization.

Every boolean is a residual comparison under the shared Tolerance, and the
raw residual is reported next to it so near-threshold calls can be audited.
The class predicates are tested on B = 2^-e a (e as in `svd`), and the block
tests on the factors with Sigma scaled into [0.5, 1), so they give the same
answer for every power-of-two multiple of a.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .drazin import _analyse
from .factor import HSDecomp, _core_blocks, pinv
from .kernel import (
    DEFAULT_TOL,
    InternalCheckError,
    PreconditionError,
    Tolerance,
    _check,
    _exponent,
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

# The seven equivalent core-EP conditions: (label, sides(rec, tol)), each
# a pair of matrices that are equal exactly when the matrix is core-EP.
# The first is the definition; the others are stated through the MPDMP
# matrix.
_CORE_EP_CONDITIONS = (
    ("defining_commutation", lambda r, tol: (r.pinv @ r.core, r.core @ r.pinv)),
    ("mpdmp_is_drazin_cubed", lambda r, tol: (r.mpdmp, r.drazin @ r.drazin @ r.drazin)),
    ("mpdmp_dmp_is_drazin_fourth",
     lambda r, tol: (r.mpdmp @ r.dmp, r.drazin @ r.drazin @ r.drazin @ r.drazin)),
    ("mpdmp_commutes_with_matrix", lambda r, tol: (r.mpdmp @ r.a, r.a @ r.mpdmp)),
    ("mpdmp_commutes_with_core", lambda r, tol: (r.mpdmp @ r.core, r.core @ r.mpdmp)),
    ("mpdmp_commutes_with_drazin", lambda r, tol: (r.mpdmp @ r.drazin, r.drazin @ r.mpdmp)),
    ("mpdmp_drazin_is_dmp_fourth", lambda r, tol: (r.mpdmp @ r.drazin, mat_pow(r.dmp, 4))),
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
    rec = _analyse(a, tol).unit
    x = rec.pinv
    return approx_eq(rec.a @ x, x @ rec.a, tol)


def is_core_ep(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a^+ commutes with the core part of a."""
    rec = _analyse(a, tol).unit
    x, core = rec.pinv, rec.core
    return approx_eq(x @ core, core @ x, tol)


def is_k_ep(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a^k commutes with a^+, k = index(a)."""
    rec = _analyse(a, tol).unit
    ak, x = rec.power(rec.index), rec.pinv
    return approx_eq(ak @ x, x @ ak, tol)


def _unit(h: HSDecomp) -> HSDecomp:
    """h with Sigma scaled by the power of two that brings its largest
    entry into [0.5, 1). Sigma carries all of the matrix's scale and U, Q
    and P none, so the block tests, zero tests included, then give the
    same answer for every power-of-two multiple of the matrix."""
    return replace(h, sigma=np.ldexp(h.sigma, -_exponent(h.sigma)))


def core_ep_block_conditions(h: HSDecomp, tol: Tolerance = DEFAULT_TOL):
    """Residual tests of (a) Q* qhat = (SQ)^D, (b) P* qhat = 0,
    (c) (SQ)^D S P = 0; their conjunction characterizes core-EP."""
    h = _unit(h)
    core, qhat, _, _ = _core_blocks(h, tol)
    p_qhat, core_dsp = conj_transpose(h.p) @ qhat, core.drazin @ h.sigma_mat @ h.p
    return (approx_eq(conj_transpose(h.q) @ qhat, core.drazin, tol),
            approx_eq(p_qhat, np.zeros_like(p_qhat), tol),
            approx_eq(core_dsp, np.zeros_like(core_dsp), tol))


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
        conditions[label], residuals[label] = _check(sides(rec, tol), tol)

    core_ep = conditions["defining_commutation"]
    flags = [
        f"{label} disagrees with the defining core-EP test"
        for label, holds in conditions.items()
        if holds != core_ep
    ]

    block = {}
    if np.any(rec.a != 0):
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


def _block_ep(h: HSDecomp, block: int, tol: Tolerance):
    """For m the chosen block of `_core_blocks` and delta = m m^+: whether
    Q* delta Q = m^+ m and delta P = 0, and the pairs that a positive
    verdict makes equal: PP* and QQ* commute with delta, and
    delta = Q m^+ m Q*."""
    h = _unit(h)
    m = _core_blocks(h, tol)[block]
    m_pinv = pinv(m, tol)
    delta = m @ m_pinv
    qq, pp = h.q @ conj_transpose(h.q), h.p @ conj_transpose(h.p)
    holds = (approx_eq(conj_transpose(h.q) @ delta @ h.q, m_pinv @ m, tol)
             and approx_eq(delta @ h.p, np.zeros_like(h.p), tol))
    return holds, [(pp @ delta, delta @ pp), (qq @ delta, delta @ qq),
                   (delta, h.q @ m_pinv @ m @ conj_transpose(h.q))]


def cmp_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CMP inverse is EP iff Q* delta Q = qhat^+ qhat and delta P = 0.

    A third block condition is implied by these two (delta is an
    orthogonal projector), so only the two are tested.
    """
    return _block_ep(h, 1, tol)[0]


def mpdmp_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """MPDMP matrix is EP iff Q* delta_hat Q = st^+ st and delta_hat P = 0."""
    return _block_ep(h, 2, tol)[0]


def cce_ep_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CCE inverse is EP iff Q* delta_tilde Q = qtilde^+ qtilde and
    delta_tilde P = 0; a positive result also implies that delta_tilde
    commutes with PP* and QQ* and equals Q qtilde^+ qtilde Q*."""
    holds, pairs = _block_ep(h, 3, tol)
    if holds and not _check(pairs, tol)[0]:
        raise InternalCheckError(
            "CCE EP-criterion consequences failed on a positive result"
        )
    return holds


def mpdmp_ep_consequences(h: HSDecomp, tol: Tolerance = DEFAULT_TOL):
    """Residuals of [PP*, delta_hat], [QQ*, delta_hat] and
    delta_hat - Q st^+ st Q*; requires mpdmp_ep_criterion(h)."""
    holds, pairs = _block_ep(h, 2, tol)
    if not holds:
        raise PreconditionError("MPDMP EP criterion does not hold")
    return tuple(diff_norm(lhs, rhs) for lhs, rhs in pairs)


def dmp_pinv_commute_criterion(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """(DMP inverse)^+ commutes with a^D iff (SQ)^D is EP and (SQ)^D S P = 0.

    The second condition cannot be shortened to Q S P = 0: (SQ)^D has
    index at most 1 but SQ itself need not, so (SQ)^D S P = 0 is strictly
    weaker and is the one that matches the direct commutation test.
    """
    h = _unit(h)
    core_d = _core_blocks(h, tol)[0].drazin
    return is_ep(core_d, tol) and approx_eq(core_d @ h.sigma_mat @ h.p,
                                            np.zeros_like(h.p), tol)


def wqrt_criterion(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """CMP inverse is EP iff (MPD)(CMP)^+ = (CMP)^+(DMP)."""
    rec = _analyse(a, tol)
    if not np.any(rec.a != 0):
        raise PreconditionError("criterion requires a nonzero matrix")
    c_pinv = pinv(rec.cmp, tol)
    return approx_eq(rec.mpd @ c_pinv, c_pinv @ rec.dmp, tol)
