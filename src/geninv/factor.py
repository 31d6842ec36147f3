"""SVD, numerical rank, Moore-Penrose inverse, and the unitary block
factorization A = U [[SQ, SP], [0, 0]] U* with QQ* + PP* = I_r.
"""

from __future__ import annotations

import functools
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

    Greedy Gram-Schmidt over the standard basis, always taking the
    candidate with the largest residual (its norm is >= 1/sqrt(m)). One
    product projects every candidate at once; the chosen one is projected
    a second time for orthogonality at machine level.
    """
    basis = cols
    eye = np.eye(m, dtype=np.complex128)
    while basis.shape[1] < m:
        resid = eye - basis @ conj_transpose(basis)
        w = resid[:, int(np.argmax(np.linalg.norm(resid, axis=0)))]
        w = w - basis @ (conj_transpose(basis) @ w)
        basis = np.column_stack([basis, w / np.linalg.norm(w)])
    return basis


@functools.lru_cache(maxsize=64)
def _rounds(n: int) -> tuple:
    """Round-robin schedule of one Jacobi sweep over n columns (Brent & Luk
    1985): every pair (p, q), p < q, once, in rounds of disjoint pairs;
    n - 1 rounds for even n, and n for odd n, each leaving one column idle.
    A round is given by flat indices into n x n matrices: of the Gram
    entries (p, p), (q, q), (p, q), and of the rotation entries (p, p),
    (q, p), (p, q), (q, q). The schedule depends on n alone, so it is kept
    per n, read-only; it holds no matrix data."""
    slots = n + n % 2
    seats = list(range(slots))
    rounds = []
    for _ in range(slots - 1):
        pairs = [(min(i, j), max(i, j)) for i, j in
                 zip(seats[: slots // 2], reversed(seats[slots // 2:])) if max(i, j) < n]
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            gram_at = np.array([p * (n + 1), q * (n + 1), p * n + q])
            rot_at = np.array([p * (n + 1), q * n + p, p * n + q, q * (n + 1)])
            gram_at.setflags(write=False)
            rot_at.setflags(write=False)
            rounds.append((gram_at, rot_at))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return tuple(rounds)


def svd(a: np.ndarray, max_sweeps: int = 60) -> SVDResult:
    """Full SVD by one-sided Jacobi rotations on the columns.

    The input is first scaled by the power of two that brings its largest
    real or imaginary part into [0.5, 1), so that no Gram entry overflows
    and none underflows because of the input's overall scale; the scaling
    is undone on s. svd(2**e * a) is therefore exactly 2**e times svd(a),
    with the same u and v. Each sweep rotates the pairs of `_rounds(n)`;
    the disjoint pairs of one round are rotated together by one product
    with an n x n block rotation.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    m, n = a.shape
    if m < n:
        flipped = svd(conj_transpose(a), max_sweeps)
        return SVDResult(u=flipped.v, s=flipped.s, v=flipped.u)

    exp = _exponent(a)
    eye = np.eye(n, dtype=np.complex128)
    # w and v stacked, so one product rotates both
    wv = np.vstack([_ldexp(a, -exp), eye])
    rounds = _rounds(n)
    for _ in range(max_sweeps):
        off = 0.0
        for gram_at, rot_at in rounds:
            work = wv[:m]
            app, aqq, apq = (conj_transpose(work) @ work).ravel()[gram_at]
            app, aqq = app.real, aqq.real
            denom = np.sqrt(app) * np.sqrt(aqq)
            g = np.abs(apq)
            live = (g > 0.5 * _EPS * denom) & (denom > 0.0)
            n_live = np.count_nonzero(live)
            if n_live < len(live):
                if not n_live:
                    continue
                app, aqq, apq, g, denom = (x[live] for x in (app, aqq, apq, g, denom))
                rot_at = rot_at[:, live]
            off = max(off, float(np.maximum.reduce(g / denom)))
            # phase making the column coupling real, then a real rotation
            # (part by part: conj(apq) / g overflows when apq is subnormal)
            phase = apq.real / g - 1j * (apq.imag / g)
            tau = (aqq - app) / (2.0 * g)
            t = np.copysign(1.0 / (np.abs(tau) + np.hypot(1.0, tau)), tau)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            rot = eye.copy()
            rot.ravel()[rot_at.ravel()] = np.concatenate((c, -s * phase, s, c * phase))
            wv = wv @ rot
        if off <= 1e-14:
            break
    else:
        raise SvdConvergenceError(f"no convergence after {max_sweeps} sweeps")

    work, v = wv[:m], wv[m:]
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
    return SVDResult(u=u, s=np.ldexp(s_vals, exp), v=v)


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
