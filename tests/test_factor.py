import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geninv import (
    SvdConvergenceError,
    Tolerance,
    ZeroMatrixError,
    approx_eq,
    conj_transpose,
    diff_norm,
    fro_norm,
    hs_decompose,
    hs_derived,
    hs_reconstruct,
    inverse_report,
    is_core_ep,
    numerical_rank,
    pinv,
    pinv_scaled,
    rank_scaled,
    svd,
)
from geninv.drazin import drazin, index
from geninv.ensembles import EnsembleSpec, gen
from geninv.factor import _prepared, _singular_values

from conftest import random_complex


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(res.s, [3.0, 1.0])
    # columns defined up to phase; reconstruction is the contract
    assert np.allclose(res.reconstruct(), np.diag([3.0, 1.0]), atol=1e-12)


def test_svd_zero():
    res = svd(np.zeros((2, 3), dtype=complex))
    assert np.array_equal(res.s, [0.0, 0.0])
    assert np.allclose(res.reconstruct(), 0.0)


def test_svd_fixture_reconstruction(a1):
    res = svd(a1)
    assert diff_norm(res.reconstruct(), a1) <= 1e-10 * (1 + fro_norm(a1))
    assert res.s[2] <= 1e-12 * res.s[0]


def test_svd_invariants_random(rng):
    for _ in range(60):
        m, n = rng.integers(1, 9, 2)
        a = random_complex(rng, m, n)
        if rng.random() < 0.3:  # rank-deficient case
            r = int(rng.integers(0, min(m, n) + 1))
            a = (random_complex(rng, m, r) @ random_complex(rng, r, n)
                 if r else np.zeros((m, n), dtype=complex))
        res = svd(a)
        assert np.all(np.diff(res.s) <= 1e-12)
        assert np.all(res.s >= 0.0)
        assert diff_norm(res.reconstruct(), a) <= 1e-9 * (1 + fro_norm(a))
        assert fro_norm(conj_transpose(res.u) @ res.u - np.eye(m)) <= 1e-9
        assert fro_norm(conj_transpose(res.v) @ res.v - np.eye(n)) <= 1e-9


def test_svd_matches_reference_singular_values(rng):
    for _ in range(25):
        a = random_complex(rng, 6, 4)
        mine = svd(a).s
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(mine, ref, atol=1e-10 * (1 + ref[0]))


def test_numerical_rank_examples(a1, a3):
    assert numerical_rank(a1) == 2
    assert numerical_rank(np.eye(5, dtype=complex)) == 5
    assert numerical_rank(a3) == 2
    assert numerical_rank(np.zeros((3, 3), dtype=complex)) == 0


def test_pinv_fixture_values(a1, a2):
    assert np.allclose(pinv(a1), [[0.5, -0.25, 0], [0, 0, 0], [0, 0.5, 0]], atol=1e-12)
    assert np.allclose(pinv(a2), [[1, 0, 0], [0, 0, 0], [-1, 1, 0]], atol=1e-12)
    assert np.array_equal(pinv(np.zeros((3, 2), dtype=complex)),
                          np.zeros((2, 3), dtype=complex))


def test_pinv_drops_zero_singular_values_without_a_warning():
    a = np.diag([2.0, 0.0, 1e-300]).astype(complex)
    assert np.array_equal(pinv(a), np.diag([0.5, 0.0, 0.0]))
    assert np.array_equal(pinv(np.zeros((2, 3), dtype=complex)), np.zeros((3, 2)))


def test_pinv_penrose_residuals(rng):
    for _ in range(80):
        m, n = rng.integers(1, 9, 2)
        a = random_complex(rng, m, n)
        x = pinv(a)
        bound = 1e-8 * (1 + fro_norm(a))
        assert diff_norm(a @ x @ a, a) <= bound
        assert diff_norm(x @ a @ x, x) <= bound
        assert fro_norm(conj_transpose(a @ x) - a @ x) <= bound
        assert fro_norm(conj_transpose(x @ a) - x @ a) <= bound


def test_hs_decompose_fixture(a1, a3):
    h = hs_decompose(a1)
    assert h.r == 2
    assert diff_norm(hs_reconstruct(h), a1) <= 1e-10 * (1 + fro_norm(a1))
    h3 = hs_decompose(a3)
    eye2 = np.eye(2, dtype=complex)
    gram = h3.q @ conj_transpose(h3.q) + h3.p @ conj_transpose(h3.p)
    assert fro_norm(gram - eye2) <= 1e-10


def test_hs_decompose_unitary(rng):
    q, _ = np.linalg.qr(random_complex(rng, 4, 4))
    h = hs_decompose(q)
    assert h.r == 4
    assert h.p.shape == (4, 0)
    assert np.allclose(h.sigma, 1.0, atol=1e-12)
    assert fro_norm(h.q @ conj_transpose(h.q) - np.eye(4)) <= 1e-10


def test_hs_decompose_errors():
    with pytest.raises(ZeroMatrixError):
        hs_decompose(np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        hs_decompose(np.ones((2, 3), dtype=complex))


def test_hs_reconstruct_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = random_complex(rng, n, n)
        h = hs_decompose(a)
        assert diff_norm(hs_reconstruct(h), a) <= 1e-9 * (1 + fro_norm(a))
        gram = h.q @ conj_transpose(h.q) + h.p @ conj_transpose(h.p)
        assert fro_norm(gram - np.eye(h.r)) <= 1e-9


def _block_form(h, top_left, top_right):
    n = h.u.shape[0]
    out = np.zeros((n, n), dtype=complex)
    out[: h.r, : h.r] = top_left
    out[: h.r, h.r :] = top_right
    return h.u @ out @ conj_transpose(h.u)


def test_block_forms_of_pinv_and_drazin(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = random_complex(rng, n, n)
        if rng.random() < 0.5:
            r = int(rng.integers(1, n + 1))
            a = random_complex(rng, n, r) @ random_complex(rng, r, n)
        h = hs_decompose(a)
        sig_inv = np.diag(1.0 / h.sigma).astype(complex)
        mp_block = np.zeros((n, n), dtype=complex)
        mp_block[:, : h.r] = np.vstack([conj_transpose(h.q) @ sig_inv,
                                        conj_transpose(h.p) @ sig_inv])
        assert approx_eq(pinv(a), h.u @ mp_block @ conj_transpose(h.u))
        core_d = drazin(h.core)
        d_form = _block_form(h, core_d, core_d @ core_d @ h.sigma_mat @ h.p)
        assert approx_eq(drazin(a), d_form)


def test_hs_derived_projectors(a1, rng):
    for a in [a1, random_complex(rng, 5, 5),
              random_complex(rng, 5, 2) @ random_complex(rng, 2, 5)]:
        der = hs_derived(hs_decompose(a))
        for proj in (der.delta, der.delta_hat, der.delta_tilde):
            assert fro_norm(proj - conj_transpose(proj)) <= 1e-10 * (1 + fro_norm(proj))
            assert approx_eq(proj @ proj, proj)


def test_hs_derived_nonsingular_core(rng):
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    h = hs_decompose(a)
    der = hs_derived(h)
    core_inv = np.linalg.inv(h.core)
    assert approx_eq(der.qhat, h.q @ core_inv)
    assert approx_eq(der.delta, np.eye(h.r, dtype=complex))


def test_block_conditions_conjunction_tracks_core_ep(a1, a3, rng):
    # no single block vanishing is equivalent to core-EP on its own
    # (a3 has P* qhat = 0 yet is not core-EP); the conjunction is
    from geninv import core_ep_block_conditions, is_core_ep as _ce

    samples = [a1, a3, random_complex(rng, 4, 4) + 3 * np.eye(4)]
    samples += gen(EnsembleSpec(size=4, count=10, seed=6, kind="core_ep"))
    for a in samples:
        conds = core_ep_block_conditions(hs_decompose(a))
        assert all(conds) == _ce(a)
    assert not is_core_ep(a3)
    der = hs_derived(hs_decompose(a3))
    assert fro_norm(conj_transpose(hs_decompose(a3).p) @ der.qhat) <= 1e-9


def test_projector_annihilates_coupling_when_it_kills_p(rng):
    # whenever delta P vanishes, P* delta Q must vanish too
    samples = [np.diag([2.0, 0.0]).astype(complex),
               random_complex(rng, 4, 4) + 3 * np.eye(4)]
    samples += gen(EnsembleSpec(size=4, count=10, seed=5, kind="ep"))
    triggered = 0
    for a in samples:
        h = hs_decompose(a)
        der = hs_derived(h)
        if fro_norm(der.delta @ h.p) <= 1e-10:
            triggered += 1
            assert fro_norm(conj_transpose(h.p) @ der.delta @ h.q) <= 1e-9
    assert triggered >= 3


def test_rank_cutoff_override(a1):
    # an absurdly large cutoff factor collapses everything to rank zero
    loose = Tolerance(rank_rel=10.0)
    assert numerical_rank(a1, loose) == 0


KERNEL_SIZES = (1, 2, 5, 12, 16, 17, 24, 33)


def _kernel_inputs(rng, n):
    """Square, tall and wide inputs of order n, one of rank n // 2 and
    one with a zero column."""
    r = n // 2
    with_zero_column = random_complex(rng, n, n)
    with_zero_column[:, r] = 0.0
    return [random_complex(rng, n, n), random_complex(rng, n + 3, n),
            random_complex(rng, n, n + 3),
            random_complex(rng, n + 2, r) @ random_complex(rng, r, n),
            with_zero_column]


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_svd_kernel_against_lapack(n, rng):
    for a in _kernel_inputs(rng, n):
        m, k = a.shape
        res = svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(res.s - ref)) <= 1e-12 * ref[0]
        assert fro_norm(conj_transpose(res.u) @ res.u - np.eye(m)) <= 1e-12
        assert fro_norm(conj_transpose(res.v) @ res.v - np.eye(k)) <= 1e-12
        assert diff_norm(res.reconstruct(), a) <= 1e-12 * (1 + fro_norm(a))


def test_svd_kernel_rank_matches_lapack(rng):
    compared = 0
    for n in KERNEL_SIZES:
        for a in _kernel_inputs(rng, n):
            ref = np.linalg.svd(a, compute_uv=False)
            cut = Tolerance().rank_cutoff(*a.shape) * ref[0]
            if np.any((ref > cut / 10) & (ref < cut * 10)):
                continue
            assert numerical_rank(a) == np.count_nonzero(ref > cut)
            compared += 1
    assert compared >= 30


@settings(max_examples=40, deadline=None)
@given(st.integers(-300, 300), st.integers(1, 7), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_svd_exact_under_power_of_two_scaling(e, m, n, seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, m, n)
    base, scaled = svd(a), svd(a * 2.0 ** e)
    assert np.array_equal(scaled.s, np.ldexp(base.s, e))
    assert np.array_equal(scaled.u, base.u)
    assert np.array_equal(scaled.v, base.v)


@pytest.mark.parametrize("e", (-900, 900))
def test_svd_exact_where_gram_entries_would_leave_the_float_range(e, rng):
    # (2^900)^2 overflows and (2^-900)^2 underflows: only the power-of-two
    # pre-scaling keeps the Gram entries in range
    a = random_complex(rng, 6, 4)
    base, scaled = svd(a), svd(a * 2.0 ** e)
    assert np.array_equal(scaled.s, np.ldexp(base.s, e))
    assert np.array_equal(scaled.u, base.u)
    assert np.array_equal(scaled.v, base.v)


def _subnormal_coupling():
    # a 2 x 2 block of order 1e-160 beside an entry of 1: the block's
    # products are subnormal, and the block lies below every rank cutoff
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0], a[1, 1], a[1, 2] = 1.0, 1e-160, (2 + 1j) * 1e-160
    a[2, 1], a[2, 2] = 0.5e-160, 1e-160j
    return a


def _reference_prepared(a):
    """(B[order], e, order): B = 2^-e a with its largest real or imaginary
    part in [0.5, 1), and order the stable argsort of its row norms,
    decreasing."""
    parts = np.array(a, dtype=np.complex128, order="C").view(np.float64)
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    b = np.ldexp(parts, -e).view(np.complex128)
    order = np.argsort(-np.linalg.norm(b, axis=1), kind="stable")
    return b[order], e, order


def _reference_svd(a):
    """(u, s, v) by the contract of `svd`: np.linalg.svd of the sorted B of
    `_reference_prepared`, u unpermuted and s scaled back."""
    b, e, order = _reference_prepared(a)
    u_sorted, s, vh = np.linalg.svd(b)
    u = np.empty_like(u_sorted)
    u[order] = u_sorted
    return u, np.ldexp(s, e), vh.conj().T, e


def _reference_pinv(a):
    """2^-e pinv(B), pinv(B) = v diag(1/s) u* over the singular values of B
    above eps max(m, n) 64 s_max."""
    u, s, v, e = _reference_svd(a)
    s = np.ldexp(s, -e)
    m, n = u.shape[0], v.shape[0]
    cutoff = float(np.finfo(np.float64).eps) * max(m, n) * 64.0 * (s[0] if len(s) else 0.0)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    smat = np.zeros((n, m), dtype=np.complex128)
    smat[: len(s), : len(s)] = np.diag(s_inv)
    x = v @ smat @ u.conj().T
    return np.ldexp(x.view(np.float64), -e).view(np.complex128)


def _input_forms(rng):
    """The forms a public svd or pinv input may take: lists, real, int and
    view inputs, inputs already in [0.5, 1), scaled ones and ones with
    rows of widely different size."""
    a = random_complex(rng, 4, 3)
    unit = a / (2 * np.abs(a.view(np.float64)).max())  # largest part 0.5
    ints = rng.integers(-3, 4, (3, 5))
    graded = random_complex(rng, 5, 5) * 2.0 ** np.arange(0, -50, -10)[:, None]
    return {"complex": a, "unit": unit, "unit_t": unit.T.copy(), "scaled": 2.0 ** 300 * a,
            "tiny": 2.0 ** -300 * a, "list": a.tolist(), "real": a.real.copy(),
            "real_list": a.real.tolist(), "int": ints, "int_list": ints.tolist(),
            "int32": ints.astype(np.int32), "view": conj_transpose(a), "strided": a[::2],
            "graded": graded, "rank_one": np.outer(a[:, 0], a[0]), "zero": np.zeros((2, 3)),
            "single": np.array([[0.75]]),
            # squared row norms 0.25 and 0.25 + 2^-54 have the same square
            # root, so the stable sort keeps the rows in place
            "tied": np.array([[0.5, 0], [0.5, 2.0 ** -27]], dtype=complex),
            # rows of equal norm: a permutation, repeated rows, zero rows
            "permutation": np.eye(5, dtype=complex)[[3, 0, 4, 1, 2]] * (1 - 1j),
            "repeated": a[[1, 0, 1, 2, 0, 1]], "zero_rows": np.vstack([a[:2], 0 * a[:2], a[2:]]),
            # largest parts near 2^1000 and 2^-1000
            "huge": 2.0 ** 1000 * a, "minute": 2.0 ** -1000 * a}


FORM_NAMES = tuple(_input_forms(np.random.default_rng(0)))


@pytest.mark.parametrize("form", FORM_NAMES)
def test_svd_input_contract(form, rng):
    a = _input_forms(rng)[form]
    res = svd(a)
    u, s, v, _ = _reference_svd(a)
    for got, want in ((res.u, u), (res.s, s), (res.v, v)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("form", FORM_NAMES)
def test_singular_values_input_contract(form, rng):
    a = _input_forms(rng)[form]
    b, e, order = _reference_prepared(a)
    assert _prepared(a)[2] == order.tolist()
    assert _singular_values(a).tobytes() == np.ldexp(np.linalg.svd(b, compute_uv=False),
                                                     e).tobytes()


@pytest.mark.parametrize("form", FORM_NAMES)
def test_pinv_input_contract(form, rng):
    a = _input_forms(rng)[form]
    assert pinv(a).tobytes() == _reference_pinv(a).tobytes()


def test_svd_leaves_its_input_as_it_is(rng):
    a = _input_forms(rng)["unit"]
    before = a.copy()
    svd(a)
    pinv(a)
    assert a.tobytes() == before.tobytes()


def test_subnormal_coupling_is_below_every_cutoff():
    a = _subnormal_coupling()
    assert numerical_rank(a) == 1
    assert index(a) == 1
    assert approx_eq(pinv(a), np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert np.isfinite(drazin(a)).all()


@st.composite
def finite_matrices(draw):
    """1-5 x 1-5 complex matrices whose parts range over every float of
    magnitude up to 2^1000 (zeros and subnormals included), so that the
    singular values stay in the float range."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    parts = st.floats(min_value=-2.0 ** 1000, max_value=2.0 ** 1000)
    re, im = (np.array(draw(st.lists(parts, min_size=m * n, max_size=m * n)))
              for _ in range(2))
    return (re + 1j * im).reshape(m, n)


@pytest.mark.parametrize("call", (numerical_rank, index, lambda a: rank_scaled(a, 1.0)))
def test_values_only_convergence_failure_is_typed(call, a1, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SvdConvergenceError, match="did not converge") as info:
        call(a1)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@settings(max_examples=100, deadline=None)
@given(finite_matrices())
@example(_subnormal_coupling())
def test_svd_of_finite_input_is_finite_or_raises(a):
    try:
        res = svd(a)
    except SvdConvergenceError:
        return
    assert all(np.isfinite(x).all() for x in (res.u, res.s, res.v))


# rank(A) and A^+ are read at unit scale, on the record of B = 2^-e A, as
# every other part is; the A-level formulas below are the earlier route,
# kept as the reference inside the float range.

def _a_level_rank(a, scale, tol=Tolerance()):
    """Singular values of A itself counted against the cutoff referenced to
    max(sigma_max(A), scale)."""
    s = _singular_values(a)
    cutoff = tol.rank_cutoff(*np.shape(a)) * max(float(s[0]) if len(s) else 0.0, scale)
    return sum(x > cutoff for x in s.tolist())


def _a_level_pinv(a, scale, tol=Tolerance()):
    """v diag(1/s) u* from svd(A) itself, over the s above the cutoff
    referenced to max(sigma_max(A), scale)."""
    res = svd(a)
    m, n = res.u.shape[0], res.v.shape[0]
    cutoff = tol.rank_cutoff(m, n) * max(float(res.s[0]) if len(res.s) else 0.0, scale)
    smat = np.zeros((n, m), dtype=complex)
    k = len(res.s)
    smat[:k, :k] = np.diag([1.0 / x if x > cutoff else 0.0 for x in res.s.tolist()])
    return res.v @ smat @ conj_transpose(res.u)


def _seeded_inputs(seed):
    rng = np.random.default_rng(seed)
    low_rank = random_complex(rng, 6, 2) @ random_complex(rng, 2, 5)
    graded = random_complex(rng, 4, 4) * 2.0 ** np.arange(0, -40, -10)[:, None]
    return {"square": random_complex(rng, 5, 5), "wide": random_complex(rng, 3, 6),
            "low_rank": low_rank, "graded": graded, "real": rng.standard_normal((4, 3)),
            "zero": np.zeros((3, 2))}


@pytest.mark.parametrize("e", (-300, 0, 300))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_rank_and_pinv_read_at_unit_scale_match_the_a_level_formulas(seed, e):
    for name, a in _seeded_inputs(seed).items():
        a = 2.0 ** e * a
        top = float(np.abs(a).max()) or 2.0 ** e
        # references below, between and above the singular values of A, and
        # the edges: NaN and -inf read as 0, +inf keeps no singular value
        for scale in (0.0, 1e-6 * top, 1e-15 * top, 100.0 * top, math.nan, -math.inf, math.inf):
            assert rank_scaled(a, scale) == _a_level_rank(a, scale), (name, scale)
            assert pinv_scaled(a, scale).tobytes() == _a_level_pinv(a, scale).tobytes()
        assert numerical_rank(a) == _a_level_rank(a, 0.0)
        assert pinv(a).tobytes() == _a_level_pinv(a, 0.0).tobytes()


def test_rank_where_sigma_of_a_overflows():
    # sigma_max(A) = 4 2^1022 = 2^1024 is beyond the float range; that of
    # B = A / 2^1023 is 2, and every route reads rank 1
    a = np.full((4, 4), 2.0 ** 1022)
    assert numerical_rank(a) == index(a) == inverse_report(a).rank == 1
    assert rank_scaled(a, 0.0) == 1


def test_pinv_where_an_entry_overflows_is_inf_not_nan():
    # A^+ = diag(1/5e-324, 0) = diag(2^1074, 0): its entry is +inf, the
    # same as the record's A^+, with numpy's overflow warning; the zero
    # entries stay zero
    a = np.diag([5e-324, 0.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        x, report = pinv(a), inverse_report(a)
    want = np.array([[np.inf, 0], [0, 0]], dtype=complex)
    assert x.tobytes() == report.mp.tobytes() == want.tobytes()
    assert numerical_rank(a) == report.rank == 1


def test_reference_beyond_the_float_range_reads_rank_zero_without_a_warning():
    # 1e300 against B = 2^999 A is beyond the float range: the reference
    # reads as inf, so no singular value passes, and neither raises nor warns
    a = 2.0 ** -1000 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_scaled(a, 1e300) == 0
        x = pinv_scaled(a, 1e300)
    assert x.tobytes() == np.zeros((2, 2), dtype=complex).tobytes()
    assert rank_scaled(a, -1e300) == numerical_rank(a) == 2
