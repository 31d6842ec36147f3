"""SVD, numerical rank, Moore-Penrose inverse, and the unitary block
factorization A = U [[SQ, SP], [0, 0]] U* with QQ* + PP* = I_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import DEFAULT_TOL, Tolerance, _exponent, _ldexp, conj_transpose

__all__ = [
    "SvdConvergenceError",
    "ZeroMatrixError",
    "SVDResult",
    "HSDecomp",
    "HSDerived",
    "svd",
    "numerical_rank",
    "rank_scaled",
    "pinv",
    "pinv_scaled",
    "hs_decompose",
    "hs_reconstruct",
    "hs_derived",
]


class SvdConvergenceError(RuntimeError):
    """LAPACK's SVD did not converge."""


class ZeroMatrixError(ValueError):
    """The block factorization requires rank >= 1."""


@dataclass(frozen=True)
class SVDResult:
    """Full decomposition a = u @ diag(s) @ v* (s padded with zero blocks).

    u is m x m unitary, v is n x n unitary, s holds the min(m, n)
    singular values in nonincreasing order.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m, n = self.u.shape[0], self.v.shape[0]
        smat = np.zeros((m, n), dtype=np.complex128)
        k = len(self.s)
        smat[:k, :k] = np.diag(self.s)
        return self.u @ smat @ conj_transpose(self.v)


def svd(a: np.ndarray) -> SVDResult:
    """Full SVD by LAPACK (through numpy), with exact power-of-two scaling.

    The input is first scaled by the power of two that brings its largest
    real or imaginary part into [0.5, 1), and the scaling is undone on s, so
    svd(2**e * a) is exactly 2**e times svd(a), with the same u and v. The
    rows are sorted by decreasing norm before the Householder reduction,
    which keeps it row-wise stable on rows of widely different size (Cox &
    Higham 1998); u is unpermuted afterwards.
    """
    exp = _exponent(a)
    b = _ldexp(a, -exp)
    order = np.argsort(-np.linalg.norm(b, axis=1), kind="stable")
    try:
        u_sorted, s, vh = np.linalg.svd(b[order])
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc
    u = np.empty_like(u_sorted)
    u[order] = u_sorted
    return SVDResult(u=u, s=np.ldexp(s, exp), v=conj_transpose(vh))


def _cutoff(res: SVDResult, scale: float, tol: Tolerance) -> float:
    """The singular-value cutoff, referenced to max(sigma_max, scale).

    Matrix powers computed in floating point carry a noise floor set by the
    norm of the base matrix, so their rank must be measured against
    sigma_max(base)**k rather than the power's own largest singular value.
    """
    ref = max(float(res.s[0]) if len(res.s) else 0.0, float(scale))
    return tol.rank_cutoff(res.u.shape[0], res.v.shape[0]) * ref


def _rank_from(res: SVDResult, scale: float, tol: Tolerance) -> int:
    return int(np.count_nonzero(res.s > _cutoff(res, scale, tol)))


def _pinv_from(res: SVDResult, scale: float, tol: Tolerance) -> np.ndarray:
    """v diag(1/s) u* over the singular values above the cutoff."""
    m, n = res.u.shape[0], res.v.shape[0]
    cutoff = _cutoff(res, scale, tol)
    s_inv = np.array([1.0 / x if x > cutoff else 0.0 for x in res.s])
    smat = np.zeros((n, m), dtype=np.complex128)
    smat[: len(res.s), : len(res.s)] = np.diag(s_inv)
    return res.v @ smat @ conj_transpose(res.u)


def rank_scaled(a: np.ndarray, scale: float, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank with the singular-value cutoff referenced to max(sigma_max, scale)."""
    from .drazin import _analyse

    return _rank_from(_analyse(a, tol, square=False).factors, scale, tol)


def numerical_rank(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    return rank_scaled(a, 0.0, tol)


def pinv_scaled(a: np.ndarray, scale: float,
                tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse with the cutoff referenced to
    max(sigma_max, scale); see rank_scaled for when that matters."""
    from .drazin import _analyse

    return _pinv_from(_analyse(a, tol, square=False).factors, scale, tol)


def pinv(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via SVD with relative rank cutoff."""
    return pinv_scaled(a, 0.0, tol)


@dataclass(frozen=True)
class HSDecomp:
    """Factors of A = u [[SQ, SP], [0, 0]] u* for square nonzero A.

    sigma holds the r positive singular values (nonincreasing); q is r x r,
    p is r x (n - r) and may be empty when A is nonsingular.
    """

    u: np.ndarray
    sigma: np.ndarray
    q: np.ndarray
    p: np.ndarray
    r: int

    @property
    def sigma_mat(self) -> np.ndarray:
        return np.diag(self.sigma).astype(np.complex128)

    @property
    def core(self) -> np.ndarray:
        """The r x r block sigma @ q."""
        return self.sigma_mat @ self.q


@dataclass(frozen=True)
class HSDerived:
    """Blocks derived from the r x r core SQ and its generalized inverses.

    qhat = Q (SQ)^D, sigma_tilde = qhat ((SQ)^D)^2, qtilde = Q (SQ)^CE,
    and delta / delta_hat / delta_tilde are the orthogonal projectors
    qhat qhat^+, sigma_tilde sigma_tilde^+, qtilde qtilde^+.
    """

    qhat: np.ndarray
    sigma_tilde: np.ndarray
    qtilde: np.ndarray
    delta: np.ndarray
    delta_hat: np.ndarray
    delta_tilde: np.ndarray


def hs_decompose(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> HSDecomp:
    """Factor a square nonzero matrix as U [[SQ, SP], [0, 0]] U*."""
    from .drazin import _analyse

    return _analyse(a, tol).hs


def _block_form(h: HSDecomp, top: np.ndarray) -> np.ndarray:
    """U [[top], [0]] U* for the r x n block row top."""
    n = h.u.shape[0]
    block = np.zeros((n, n), dtype=np.complex128)
    block[: h.r, :] = top
    return h.u @ block @ conj_transpose(h.u)


def hs_reconstruct(h: HSDecomp) -> np.ndarray:
    """Rebuild the matrix from its factors."""
    return _block_form(h, np.hstack([h.sigma_mat @ h.q, h.sigma_mat @ h.p]))


def _core_blocks(h: HSDecomp, tol: Tolerance):
    """(record of the core SQ, qhat, sigma_tilde, qtilde), from that one
    record."""
    from .drazin import _analyse

    core = _analyse(h.core, tol)
    qhat = h.q @ core.drazin
    return core, qhat, qhat @ core.drazin @ core.drazin, h.q @ core.core_ep


def hs_derived(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> HSDerived:
    """All six derived blocks of the factorization."""
    _, qhat, sigma_tilde, qtilde = _core_blocks(h, tol)
    return HSDerived(
        qhat=qhat,
        sigma_tilde=sigma_tilde,
        qtilde=qtilde,
        delta=qhat @ pinv(qhat, tol),
        delta_hat=sigma_tilde @ pinv(sigma_tilde, tol),
        delta_tilde=qtilde @ pinv(qtilde, tol),
    )
