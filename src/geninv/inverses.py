"""Composite generalized inverses: DMP, MPD, CMP, MPDMP, core-EP and CCE,
plus the closed forms used as cross-checks.

Each inverse is built by direct composition of Moore-Penrose and Drazin
products; block closed forms are only consulted to cross-validate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drazin import _analyse
from .factor import _block_form, _core_blocks, pinv
from .kernel import DEFAULT_TOL, Tolerance, approx_eq

__all__ = [
    "ClosedFormMismatchError",
    "InverseReport",
    "dmp",
    "mpd",
    "cmp_inverse",
    "mpdmp",
    "core_ep_inverse",
    "cce_inverse",
    "mpdmp_pinv",
    "greville_forms",
    "inverse_report",
]


class ClosedFormMismatchError(RuntimeError):
    """Direct computation and block closed form disagree (never expected)."""


@dataclass(frozen=True)
class InverseReport:
    """All generalized inverses of one matrix plus index/rank metadata."""

    mp: np.ndarray
    drazin: np.ndarray
    dmp: np.ndarray
    mpd: np.ndarray
    cmp: np.ndarray
    mpdmp: np.ndarray
    core_ep: np.ndarray
    cce: np.ndarray
    index: int
    rank: int


def dmp(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """a^D a a^+."""
    return _analyse(a, tol).dmp


def mpd(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """a^+ a a^D."""
    return _analyse(a, tol).mpd


def cmp_inverse(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """a^+ core(a) a^+."""
    return _analyse(a, tol).cmp


def mpdmp(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """a^+ a^D a^+."""
    return _analyse(a, tol).mpdmp


def core_ep_inverse(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """a^k (a^(k+1))^+ with k = index(a)."""
    return _analyse(a, tol).core_ep


def cce_inverse(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """a^+ a (core-EP inverse) a a^+."""
    return _analyse(a, tol).cce


def mpdmp_pinv(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of the MPDMP matrix, cross-checked against the
    block closed form U [[st^+ Q, st^+ P], [0, 0]] U*."""
    rec = _analyse(a, tol)
    x = pinv(rec.mpdmp, tol)
    h = rec.hs
    st_pinv = pinv(_core_blocks(h, tol)[2], tol)
    closed = _block_form(h, np.hstack([st_pinv @ h.q, st_pinv @ h.p]))
    if not approx_eq(x, closed, tol):
        raise ClosedFormMismatchError(
            "MPDMP pseudoinverse disagrees with its block closed form"
        )
    return x


def greville_forms(a: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """DMP and MPD from Moore-Penrose inverses of powers:
    (a^k (a^(2k+1))^+ a^(k+1) a^+,  a^+ a^(k+1) (a^(2k+1))^+ a^k)."""
    rec = _analyse(a, tol)
    k, p, b = rec.index, rec.pinv, rec.unit
    # t and the powers are those of 2**-e a; the scales cancel in each product
    t, bk, bk1 = b.power_pinv(2 * k + 1), b.power(k), b.power(k + 1)
    return bk @ t @ bk1 @ p, p @ bk1 @ t @ bk


def inverse_report(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> InverseReport:
    """Compute every inverse of a square matrix in one pass."""
    rec = _analyse(a, tol)
    return InverseReport(
        mp=rec.pinv,
        drazin=rec.drazin,
        dmp=rec.dmp,
        mpd=rec.mpd,
        cmp=rec.cmp,
        mpdmp=rec.mpdmp,
        core_ep=rec.core_ep,
        cce=rec.cce,
        index=rec.index,
        rank=rec.rank,
    )
