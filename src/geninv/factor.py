"""SVD, numerical rank, Moore-Penrose inverse, and the unitary block
factorization A = U [[SQ, SP], [0, 0]] U* with QQ* + PP* = I_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import DEFAULT_TOL, Tolerance, conj_transpose

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

_EPS = float(np.finfo(np.float64).eps)


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted the iteration budget."""


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


def _complete_basis(cols: np.ndarray, m: int) -> np.ndarray:
    """Extend orthonormal columns to an m x m unitary matrix.

    Greedy modified Gram-Schmidt over the standard basis, always taking
    the candidate with the largest residual (its norm is >= 1/sqrt(m)).
    """
    basis = [cols[:, j] for j in range(cols.shape[1])]
    candidates = list(np.eye(m, dtype=np.complex128).T)
    while len(basis) < m:
        best, best_norm = None, -1.0
        for e in candidates:
            w = e.copy()
            for b in basis:
                w -= np.vdot(b, w) * b
            nw = float(np.linalg.norm(w))
            if nw > best_norm:
                best, best_norm = w, nw
        w = best
        for b in basis:  # second pass for orthogonality at machine level
            w -= np.vdot(b, w) * b
        basis.append(w / np.linalg.norm(w))
    return np.stack(basis, axis=1)


def svd(a: np.ndarray, max_sweeps: int = 60) -> SVDResult:
    """Full SVD by one-sided Jacobi rotations on the columns."""
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    if m < n:
        flipped = svd(conj_transpose(a), max_sweeps)
        return SVDResult(u=flipped.v, s=flipped.s, v=flipped.u)

    work = a.copy()
    v = np.eye(n, dtype=np.complex128)
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci, cj = work[:, i], work[:, j]
                app = float(np.real(np.vdot(ci, ci)))
                aqq = float(np.real(np.vdot(cj, cj)))
                apq = complex(np.vdot(ci, cj))
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= 0.5 * _EPS * denom:
                    continue
                off = max(off, abs(apq) / denom)
                # phase making the column coupling real, then a real rotation
                phase = apq / abs(apq)
                g = abs(apq)
                tau = (aqq - app) / (2.0 * g)
                t = np.sign(tau) if tau != 0 else 1.0
                t /= abs(tau) + np.hypot(1.0, tau)
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                cj_ph = cj * np.conj(phase)
                work[:, i], work[:, j] = c * ci - s * cj_ph, s * ci + c * cj_ph
                vj_ph = v[:, j] * np.conj(phase)
                v[:, i], v[:, j] = c * v[:, i] - s * vj_ph, s * v[:, i] + c * vj_ph
        if off <= 1e-14:
            break
    else:
        raise SvdConvergenceError(f"no convergence after {max_sweeps} sweeps")

    norms = np.linalg.norm(work, axis=0)
    order = np.argsort(-norms, kind="stable")
    s_vals = norms[order].astype(np.float64)
    work = work[:, order]
    v = v[:, order]

    # columns at or below noise level get basis-completion directions;
    # they perturb the reconstruction by at most their singular value
    smax = s_vals[0] if len(s_vals) else 0.0
    zero_cut = smax * _EPS * max(m, n)
    r = int(np.count_nonzero(s_vals > zero_cut))
    u_part = work[:, :r] / s_vals[:r]
    u = _complete_basis(u_part, m)
    return SVDResult(u=u, s=s_vals, v=v)


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


def hs_reconstruct(h: HSDecomp) -> np.ndarray:
    """Rebuild the matrix from its factors."""
    n = h.u.shape[0]
    top = np.hstack([h.sigma_mat @ h.q, h.sigma_mat @ h.p])
    block = np.zeros((n, n), dtype=np.complex128)
    block[: h.r, :] = top
    return h.u @ block @ conj_transpose(h.u)


def _core_blocks(h: HSDecomp, tol: Tolerance):
    """(qhat, sigma_tilde, qtilde) from one analysis of the core SQ."""
    from .drazin import _analyse

    core = _analyse(h.core, tol)
    qhat = h.q @ core.drazin
    return qhat, qhat @ core.drazin @ core.drazin, h.q @ core.core_ep


def hs_derived(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> HSDerived:
    """All six derived blocks of the factorization."""
    qhat, sigma_tilde, qtilde = _core_blocks(h, tol)
    return HSDerived(
        qhat=qhat,
        sigma_tilde=sigma_tilde,
        qtilde=qtilde,
        delta=qhat @ pinv(qhat, tol),
        delta_hat=sigma_tilde @ pinv(sigma_tilde, tol),
        delta_tilde=qtilde @ pinv(qtilde, tol),
    )
