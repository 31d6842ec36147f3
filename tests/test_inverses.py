import numpy as np
import pytest

from geninv import (
    ClosedFormMismatchError,
    PreconditionError,
    approx_eq,
    cce_inverse,
    cmp_inverse,
    conj_transpose,
    core_ep_inverse,
    core_nilpotent,
    diff_norm,
    dmp,
    drazin,
    greville_forms,
    hs_decompose,
    hs_derived,
    hs_reconstruct,
    index,
    inverse_report,
    mat_pow,
    mpd,
    mpdmp,
    mpdmp_pinv,
    numerical_rank,
    pinv,
)
from geninv.ensembles import EnsembleSpec, gen

from conftest import random_complex


# expected values below were computed with the exact rational oracle
# (see test_exact) and frozen here as floats

def test_dmp_fixtures(a1, a2, a3):
    assert np.allclose(dmp(a1), [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(dmp(a2), [[1, 0, 0], [1, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(dmp(a3), [[0.5, 0, 0], [0, 0, 0], [0.5, 0, 0]], atol=1e-12)


def test_mpd_fixtures(a1, a2, a3):
    assert np.allclose(mpd(a1), [[0.5, 0, 0.25], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(mpd(a2), [[1, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(mpd(a3), [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)


def test_cmp_fixtures(a1, a3, rng):
    assert np.allclose(cmp_inverse(a3), [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(cmp_inverse(a1), [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert approx_eq(cmp_inverse(a), np.linalg.inv(a))


def test_mpdmp_fixtures(a1, a2, rng):
    assert np.allclose(mpdmp(a2), [[1, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(mpdmp(a1), [[0.125, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert approx_eq(mpdmp(a), np.linalg.matrix_power(np.linalg.inv(a), 3))


def test_core_ep_inverse(a1, rng):
    assert np.allclose(core_ep_inverse(a1), [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]],
                       atol=1e-12)
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert approx_eq(core_ep_inverse(a), np.linalg.inv(a))
    nil = np.eye(3, 3, 1, dtype=complex)
    assert np.allclose(core_ep_inverse(nil), 0.0, atol=1e-12)


def test_core_ep_inverse_defining_properties(rng):
    specs = [EnsembleSpec(size=5, count=10, seed=81, kind="generic"),
             EnsembleSpec(size=5, count=10, seed=82, kind="fixed_index", index=2),
             EnsembleSpec(size=5, count=10, seed=83, kind="fixed_rank", rank=3)]
    for spec in specs:
        for a in spec and gen(spec):
            x = core_ep_inverse(a)
            k = index(a)
            ak = mat_pow(a, k)
            proj = ak @ pinv(ak)
            assert approx_eq(x @ a @ x, x)
            assert approx_eq(proj @ x, x)
            xs = conj_transpose(x)
            assert approx_eq(proj @ xs, xs)


def test_cce_inverse(a1, rng):
    assert np.allclose(cce_inverse(a1), [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]],
                       atol=1e-12)
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert approx_eq(cce_inverse(a), np.linalg.inv(a))
    nil = np.eye(3, 3, 1, dtype=complex)
    assert np.allclose(cce_inverse(nil), 0.0, atol=1e-12)
    assert approx_eq(cce_inverse(a1) @ a1 @ cce_inverse(a1), cce_inverse(a1))


def test_mpdmp_pinv(a1, a2, rng):
    # the matrix for the second fixture is an orthogonal projector
    m2 = mpdmp(a2)
    assert approx_eq(mpdmp_pinv(a2), m2)
    assert np.allclose(mpdmp_pinv(a1), [[8, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-9)
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert approx_eq(mpdmp_pinv(a), np.linalg.matrix_power(a, 3))


def test_mpdmp_pinv_dual_path_on_ensembles():
    specs = [EnsembleSpec(size=4, count=15, seed=84, kind="generic"),
             EnsembleSpec(size=5, count=15, seed=85, kind="fixed_rank", rank=3),
             EnsembleSpec(size=5, count=10, seed=86, kind="core_ep")]
    for spec in specs:
        for a in gen(spec):
            x = mpdmp_pinv(a)  # raises on closed-form mismatch
            assert approx_eq(x, pinv(mpdmp(a)))


@pytest.mark.parametrize("e", (-40, -2, 2, 40))
def test_mpdmp_pinv_scales_exactly(e):
    a = gen(EnsembleSpec(size=4, count=1, seed=3, kind="core_ep"))[0]
    assert np.array_equal(mpdmp_pinv(2.0 ** e * a), 2.0 ** (3 * e) * mpdmp_pinv(a))


@pytest.mark.xfail(raises=ClosedFormMismatchError, strict=True,
                   reason="FOUND 25: misses its closed form on a matrix with cond 647")
@pytest.mark.parametrize("e", (0, -20))
def test_mpdmp_pinv_closed_form_check_at_every_scale(e):
    # judged on B = 2^-e a, not where eq_abs swamps a result that scales by 2^(3e)
    mpdmp_pinv(2.0 ** e * gen(EnsembleSpec(5, 6, 11, "generic"))[3])


TINY, HUGE = np.diag([5e-324, 0.0]), np.full((4, 4), 2.0 ** 1022)


@pytest.mark.parametrize("func, a, block", (
    (lambda a: hs_derived(hs_decompose(a)), TINY, "the derived block qhat"),
    (lambda a: hs_derived(hs_decompose(a)), HUGE, "Sigma of the factorization"),
    (mpdmp_pinv, TINY, "the MPDMP matrix"),
    (mpdmp_pinv, HUGE, "the pseudoinverse of the MPDMP matrix"),
    (lambda a: hs_reconstruct(hs_decompose(a)), HUGE, "Sigma of the factorization"),
), ids=("hs_derived tiny", "hs_derived huge", "mpdmp_pinv tiny", "mpdmp_pinv huge",
        "hs_reconstruct huge"))
def test_overflowed_block_is_named_not_the_input(func, a, block):
    # A is finite, but (SQ)^D = 2^1074 for TINY and Sigma = 2^1024, up to
    # rounding, for HUGE; the named error comes first, with no overflow
    # warning before it
    with pytest.raises(PreconditionError, match=f"^{block} overflows float64$"):
        func(a)


def test_greville_forms(a1, a3):
    g_dmp, g_mpd = greville_forms(a1)
    assert diff_norm(g_dmp, dmp(a1)) <= 1e-9
    assert diff_norm(g_mpd, mpd(a1)) <= 1e-9
    g_dmp, g_mpd = greville_forms(a3)
    assert diff_norm(g_mpd, mpd(a3)) <= 1e-9
    eye = np.eye(3, dtype=complex)
    g_dmp, g_mpd = greville_forms(eye)
    assert np.allclose(g_dmp, eye, atol=1e-12)
    assert np.allclose(g_mpd, eye, atol=1e-12)


def _hs_mpd_block(h):
    from geninv.drazin import drazin as _drazin

    n = h.u.shape[0]
    core_d = _drazin(h.core)
    qhat = h.q @ core_d
    right = core_d @ h.sigma_mat @ h.p
    out = np.zeros((n, n), dtype=complex)
    out[: h.r, : h.r] = conj_transpose(h.q) @ qhat
    out[: h.r, h.r :] = conj_transpose(h.q) @ qhat @ right
    out[h.r :, : h.r] = conj_transpose(h.p) @ qhat
    out[h.r :, h.r :] = conj_transpose(h.p) @ qhat @ right
    return h.u @ out @ conj_transpose(h.u)


def test_block_form_consistency(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = random_complex(rng, n, n)
        if rng.random() < 0.5:
            r = int(rng.integers(1, n + 1))
            a = random_complex(rng, n, r) @ random_complex(rng, r, n)
        h = hs_decompose(a)
        from geninv.drazin import drazin as _drazin

        core_d = _drazin(h.core)
        dmp_block = np.zeros((n, n), dtype=complex)
        dmp_block[: h.r, : h.r] = core_d
        assert approx_eq(dmp(a), h.u @ dmp_block @ conj_transpose(h.u))
        assert approx_eq(mpd(a), _hs_mpd_block(h))


def test_unique_solution_of_projector_system(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_complex(rng, n, n)
        if rng.random() < 0.5:
            a = random_complex(rng, n, 2) @ random_complex(rng, 2, n)
        p = pinv(a)
        d = drazin(a)
        x = d @ p
        assert approx_eq(x @ (a @ p), x)
        assert approx_eq(x @ a, d)
        y = p @ d
        assert approx_eq((p @ a) @ y, y)
        assert approx_eq(a @ y, d)


def test_drazin_sandwich_identity(rng):
    for a in gen(EnsembleSpec(size=5, count=20, seed=87, kind="fixed_index", index=2)):
        d = drazin(a)
        lhs = d @ mpd(a)
        rhs = dmp(a) @ d
        assert approx_eq(lhs, rhs)
        assert approx_eq(lhs, d @ d)


def test_outer_inverse_ranks(a1, a2, a3, rng):
    samples = [a1, a2, a3] + gen(EnsembleSpec(size=5, count=15, seed=88,
                                              kind="fixed_index", index=2))
    for a in samples:
        k = index(a)
        rk = numerical_rank(mat_pow(a, k))
        assert numerical_rank(dmp(a)) == rk
        assert numerical_rank(mpd(a)) == rk


def test_inverse_report(a1):
    rep = inverse_report(a1)
    assert rep.index == 2
    assert rep.rank == 2
    assert np.allclose(rep.mp, pinv(a1), atol=1e-14)
    assert np.allclose(rep.cmp, [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    # every member satisfies its defining residuals
    assert approx_eq(a1 @ rep.mp @ a1, a1)
    assert approx_eq(rep.drazin @ a1, a1 @ rep.drazin)
    assert approx_eq(rep.dmp @ a1 @ rep.dmp, rep.dmp)
    assert approx_eq(rep.mpd @ a1 @ rep.mpd, rep.mpd)
    core = core_nilpotent(a1).core
    assert approx_eq(a1 @ rep.cmp, core @ rep.mp)
    assert approx_eq(rep.cmp @ a1, rep.mp @ core)
    assert approx_eq(rep.mpdmp @ mat_pow(a1, 3) @ rep.mpdmp, rep.mpdmp)
    assert approx_eq(rep.core_ep @ a1 @ rep.core_ep, rep.core_ep)
    assert approx_eq(rep.cce @ a1 @ rep.cce, rep.cce)
