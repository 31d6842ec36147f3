"""SVD, numerical rank, Moore-Penrose inverse, and the unitary block
factorization A = U [[SQ, SP], [0, 0]] U* with QQ* + PP* = I_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (DEFAULT_TOL, DimensionMismatchError, PreconditionError, Tolerance, _guarded,
                     _ldexp, _named_overflow, conj_transpose)

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


def _prepared(a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """(b, e, order): b = 2**-e a with its largest real or imaginary part in
    [0.5, 1) and its rows sorted by decreasing norm, row i of b being row
    order[i] of 2**-e a, a through the input guard (`kernel._guarded`),
    which gives e. The norms have the bits of np.linalg.norm(b, axis=1),
    and the sort, stable, gives np.argsort(-norms, kind="stable")."""
    b, exp = _guarded(a)
    b = np.ascontiguousarray(b)
    if exp:
        b = _ldexp(b, -exp)
    norms = [math.sqrt(x) for x in np.add.reduce((b.conj() * b).real, axis=1).tolist()]
    order = sorted(range(len(norms)), key=norms.__getitem__, reverse=True)
    return b.take(order, axis=0), exp, order


def _lapack_svd(b: np.ndarray, compute_uv: bool):
    """np.linalg.svd(b), its LinAlgError raised as SvdConvergenceError."""
    try:
        return np.linalg.svd(b, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc


def svd(a: np.ndarray) -> SVDResult:
    """Full SVD by LAPACK (through numpy), with exact power-of-two scaling.

    The input passes the package's input guard: one that is not 2-D raises
    DimensionMismatchError, and a NaN or infinite entry PreconditionError.
    The input is first scaled by the power of two that brings its largest
    real or imaginary part into [0.5, 1), and the scaling is undone on s, so
    svd(2**e * a) is exactly 2**e times svd(a), with the same u and v. The
    rows are sorted by decreasing norm, rows of equal norm in their order,
    before the Householder reduction, which keeps it row-wise stable on
    rows of widely different size (Cox & Higham 1998); the rows of u are
    put back in the input's order afterwards. The rank-only calls
    (`numerical_rank`, `rank_scaled`, `index`) decompose the same prepared
    input for its singular values alone.
    """
    b, exp, order = _prepared(a)
    u_sorted, s, vh = _lapack_svd(b, compute_uv=True)
    # row order[i] of u is row i of u_sorted
    u = u_sorted.take(sorted(range(len(order)), key=order.__getitem__), axis=0)
    return SVDResult(u=u, s=np.ldexp(s, exp) if exp else s, v=conj_transpose(vh))


def _singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values of `svd(a)` without u and v: the same scaled,
    row-sorted input, decomposed by LAPACK for values alone (gesdd with
    JOBZ='N'). They agree with svd(a).s to rounding, not bit for bit, and
    _singular_values(2**e * a) is exactly 2**e times _singular_values(a)."""
    b, exp, _ = _prepared(a)
    s = _lapack_svd(b, compute_uv=False)
    return np.ldexp(s, exp) if exp else s


def rank_scaled(a: np.ndarray, scale: float, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank with the singular-value cutoff referenced to max(sigma_max, scale):
    the `rank` of the record with reference `scale`, read from the singular
    values alone of B = 2^-e A against 2^-e scale (inf beyond the float range)."""
    from .drazin import _analyse

    return _analyse(a, tol, square=False, values_only=True, ref=scale).rank


def numerical_rank(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff, read from the
    singular values alone."""
    return rank_scaled(a, 0.0, tol)


def pinv_scaled(a: np.ndarray, scale: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse with the cutoff referenced to max(sigma_max, scale):
    the `pinv` of the record with reference `scale`, 2^-e B^+ over the singular
    values that rank(B) keeps; an entry beyond the float range is +-inf."""
    from .drazin import _analyse

    return _analyse(a, tol, square=False, ref=scale).pinv


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

    qhat = Q (SQ)^D, sigma_tilde = Q ((SQ)^D)^3, qtilde = Q (SQ)^CE (read
    by `_block`), and delta / delta_hat / delta_tilde are the orthogonal
    projectors qhat qhat^+, sigma_tilde sigma_tilde^+, qtilde qtilde^+.
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
    """Rebuild the matrix from its factors. A factor whose shape disagrees
    with n (U is n x n) and r raises DimensionMismatchError that names it; a
    NaN entry of any factor or an infinite one of U, Q or P is named as such,
    and an entry beyond the float range of the product as the overflow of
    Sigma, which carries all of the matrix's scale."""
    n, r = np.shape(h.u)[0] if np.ndim(h.u) else 0, h.r
    parts = (("U", h.u, (n, n)), ("Sigma", h.sigma, (r,)), ("Q", h.q, (r, r)),
             ("P", h.p, (r, n - r)))
    for name, part, shape in parts:
        if np.shape(part) != shape:
            raise DimensionMismatchError(
                f"{name} of the factorization is {np.shape(part)}, not {shape} (n = {n}, r = {r})")
    for name, part, _ in parts:
        if np.isnan(part).any() or (name != "Sigma" and np.isinf(part).any()):
            raise PreconditionError(f"{name} of the factorization has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.hstack([h.sigma_mat @ h.q, h.sigma_mat @ h.p])
        return _named_overflow("Sigma of the factorization", _guarded, _block_form(h, top))[0]


def _block(h: HSDecomp, rec, part: str) -> np.ndarray:
    """The part `part` of `rec`, the record of the A that h factors, in the basis
    of h: (SQ)^D = U1* A^D U1 (Wang 2016), and qhat, sigma_tilde and qtilde as
    V1* X U1, X = "cmp", "mpdmp", "cce", U1 the first r columns of U, V1* = [Q P] U*."""
    u1 = h.u[:, : h.r]
    left = conj_transpose(u1) if part == "drazin" else np.hstack([h.q, h.p]) @ conj_transpose(h.u)
    with np.errstate(over="ignore", invalid="ignore"):
        return left @ getattr(rec, part) @ u1


def hs_derived(h: HSDecomp, tol: Tolerance = DEFAULT_TOL) -> HSDerived:
    """All six derived blocks in the basis of h, read from one record of the
    matrix h factors; blocks equal up to a power of two share a projector."""
    from .drazin import _analyse

    return _derived(h, _analyse(hs_reconstruct(h), tol))


def _derived(h: HSDecomp, rec) -> HSDerived:
    """`hs_derived`, read from `rec`, the record of the matrix h factors."""
    blocks, deltas, keys = [_block(h, rec, part) for part in ("cmp", "mpdmp", "cce")], {}, []
    for name, x in zip(("qhat", "sigma_tilde", "qtilde"), blocks):
        m = _named_overflow(f"the derived block {name}", rec._of, x)
        keys.append((x.shape, (m.unit.a + 0).tobytes()))  # x scaled to [0.5, 1), -0 as +0
        if keys[-1] not in deltas:
            deltas[keys[-1]] = x @ m.pinv
    return HSDerived(*blocks, *(deltas[key] for key in keys))
