import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geninv import (
    DimensionMismatchError,
    PreconditionError,
    Tolerance,
    approx_eq,
    cmatrix,
    conj_transpose,
    diff_norm,
    fro_norm,
    mat_pow,
    matmul,
)
from geninv.exact import RMatrix, exact_inv
from geninv.kernel import _PLAIN_BAND, _compare, _exponent, _guarded, eq_scale

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_complex = st.builds(complex, finite, finite)


def square_matrices(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: arrays(np.complex128, (n, n), elements=small_complex)
    )


def test_cmatrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        cmatrix([1, 2, 3])
    with pytest.raises(ValueError):
        cmatrix([[]])


@pytest.mark.parametrize("data", (1.0, [1, 2, 3], [[[1.0]]]))
def test_cmatrix_rejects_non_matrix_as_dimension_mismatch(data):
    # the input guard the analysis record uses
    with pytest.raises(DimensionMismatchError):
        cmatrix(data)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, complex(1, np.nan)))
def test_cmatrix_rejects_non_finite_entries(bad):
    with pytest.raises(PreconditionError):
        cmatrix([[1, 2], [bad, 4]])


_TINIEST = float(np.nextafter(0.0, 1.0))
_LARGEST = float(np.finfo(np.float64).max)


@pytest.mark.parametrize("a", [
    np.zeros((2, 3)), np.zeros((2, 0)), np.array([[_TINIEST, 0], [0, -3 * _TINIEST * 1j]]),
    np.array([[2.0 ** -1060, 1j * 2.0 ** -1030], [0, -2.0 ** -1040]]),
    np.array([[2.0 ** -1022 * (1 - 1j)]]), np.array([[1e-310 + 3e-320j, 0.75]]),
    np.array([[_LARGEST, -_LARGEST * 1j], [1, 0]]), np.array([[2.0 ** 1023, 0], [0, -1j]]),
    np.array([[1e307 - 1.5e308j, 3.0]]), np.array([[0.5, -1.0], [2.0, 3j]]),
], ids=["zero", "empty", "subnormal", "subnormal_mixed", "least_normal", "subnormal_beside_0.75",
        "largest", "2^1023", "near_overflow", "ordinary"])
def test_guard_gives_the_exponent_of_its_input(a):
    # the guard reads e in the scan that tests finiteness
    b, e = _guarded(a)
    assert b.dtype == np.complex128 and np.array_equal(b, a)
    assert e == _exponent(a)
    if b.size and b.any():
        top = np.abs(np.ldexp(b.view(np.float64), -e)).max()
        assert 0.5 <= top < 1.0


def test_conj_transpose_examples():
    assert np.array_equal(conj_transpose(cmatrix([[0, 1], [0, 0]])),
                          cmatrix([[0, 0], [1, 0]]))
    assert conj_transpose(cmatrix([[1j]]))[0, 0] == -1j


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_conj_transpose_involution(a):
    assert np.array_equal(conj_transpose(conj_transpose(a)), a)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_fro_norm_conjugation_invariant(a):
    assert fro_norm(a) == pytest.approx(fro_norm(conj_transpose(a)), rel=1e-12, abs=1e-12)


def test_matmul_identity(a1):
    assert np.array_equal(matmul(np.eye(3, dtype=complex), a1), a1)


def test_matmul_associativity_matches_repeated_squaring(a1):
    triple = matmul(matmul(a1, a1), a1)
    assert np.allclose(triple, mat_pow(a1, 3), atol=1e-12)


def test_matmul_fixture_product(a3, b3):
    expected = cmatrix([[4, 0, 0], [0, 0, 0], [4, 0, 0]])
    assert np.array_equal(matmul(a3, b3), expected)


def test_matmul_shape_check():
    with pytest.raises(DimensionMismatchError):
        matmul(np.ones((2, 3), dtype=complex), np.ones((2, 3), dtype=complex))


SHAPE_ERRORS = {
    "ragged rows": (lambda: RMatrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "exact product": (lambda: RMatrix([[1, 2]]) @ RMatrix([[1, 2]]), ValueError,
                      r"cannot multiply \(1, 2\) by \(1, 2\)"),
    "exact sum": (lambda: RMatrix([[1, 2]]) + RMatrix([[1], [2]]), ValueError,
                  r"shape mismatch \(1, 2\) vs \(2, 1\)"),
    "exact inverse of 1x2": (lambda: exact_inv(RMatrix([[1, 2]])), ValueError,
                             "inverse of non-square matrix"),
    "power of 2x3": (lambda: mat_pow(np.ones((2, 3), dtype=complex), 2),
                     DimensionMismatchError, r"power of non-square matrix \(2, 3\)"),
    "diff_norm of 2x2 and 2x3": (lambda: diff_norm(np.ones((2, 2)), np.ones((2, 3))),
                                 DimensionMismatchError, r"shape mismatch \(2, 2\) vs \(2, 3\)"),
}


@pytest.mark.parametrize("call, error, match", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS)
def test_shape_errors_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_approx_eq_fixtures(a1, a2):
    assert approx_eq(a1, a1)
    bump = a1.copy()
    bump[0, 0] += 1e-13
    assert approx_eq(a1, bump)
    assert not approx_eq(a1, a2)


def test_approx_eq_dimension_check(a1):
    with pytest.raises(DimensionMismatchError):
        approx_eq(a1, np.ones((2, 2), dtype=complex))


@settings(max_examples=60, deadline=None)
@given(square_matrices(), square_matrices())
def test_approx_eq_reflexive_symmetric(a, b):
    assert approx_eq(a, a)
    if a.shape == b.shape:
        assert approx_eq(a, b) == approx_eq(b, a)
        assert diff_norm(a, b) == diff_norm(b, a)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eq_abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(eq_rel=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    t = Tolerance(rank_rel=1e-12)
    assert t.rank_cutoff(3, 5) == 1e-12
    auto = Tolerance().rank_cutoff(3, 5)
    assert auto == pytest.approx(np.finfo(float).eps * 5 * 64)


def test_approx_eq_where_squares_of_entries_overflow():
    # (2^520)^2 overflows: an unscaled norm reads both sides as inf
    eye = np.eye(2, dtype=complex)
    assert not approx_eq(2.0 ** 520 * eye, 2.0 ** 521 * eye)
    assert approx_eq(2.0 ** 520 * eye, 2.0 ** 520 * eye)
    assert fro_norm(2.0 ** 600 * eye) == 2.0 ** 600 * np.sqrt(2.0)
    assert diff_norm(2.0 ** -600 * eye, 0 * eye) == 2.0 ** -600 * np.sqrt(2.0)


@pytest.mark.parametrize("e", (-100, 0, 100))
def test_fro_norm_unchanged_at_ordinary_scales(e, rng):
    for n in (1, 3, 8):
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 2.0 ** e
        assert fro_norm(a) == np.linalg.norm(a)


@pytest.mark.parametrize("e", (-401, -400, 400, 401))
def test_fro_norm_equals_the_scaled_norm_at_the_unscaled_bound(e, rng):
    # within 2^±400 the norm is taken unscaled, beyond it 2^e ||2^-e a||;
    # scaling by 2^e is exact, so both give the bits of the scaled form
    for n in (1, 3, 8):
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
            * 2.0 ** rng.integers(-40, 1, (n, n))
        b /= 2 * np.abs(b.view(np.float64)).max()
        a = np.ldexp(b.view(np.float64), e).view(np.complex128)
        assert _exponent(a) == e
        assert fro_norm(a) == float(np.ldexp(np.linalg.norm(b), e))


def _scaled_rule(a) -> float:
    """The Frobenius norm by the rule of `fro_norm` without its band: e the
    exponent of the largest real or imaginary part, the plain norm when e
    lies in [-400, 400], else 2^e ||2^-e a||."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    if -400 <= e <= 400:
        return float(np.linalg.norm(a))
    return float(np.ldexp(np.linalg.norm(np.ldexp(parts, -e).view(np.complex128)), e))


# exponents at and beside both edges of the unscaled rule (2^+-400) and of
# the plain-norm band, and far beyond them; at 2^-530 the squares are
# subnormal, so that the plain norm is finite, nonzero and inexact
EDGE_EXPONENTS = (0, 399, 400, 401, 600, 1000, -359, -360, -361, -399, -400, -401,
                  -530, -600)


@st.composite
def edge_matrices(draw, shape=None):
    """0-4 x 0-4 complex matrices at one of EDGE_EXPONENTS, each part offset
    by 0 to -700 binary orders, so that tiny parts sit beside huge ones and
    some are subnormal or zero."""
    m, n = shape or (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    e = draw(st.sampled_from(EDGE_EXPONENTS))
    mant = draw(arrays(np.float64, (m, n, 2), elements=st.floats(-1, 1)))
    offset = draw(arrays(np.int64, (m, n, 2), elements=st.sampled_from((0, 0, -1, -52, -300, -700))))
    return np.ldexp(mant, e + offset).view(np.complex128)[..., 0]


def _same_bits(x: float, y: float) -> bool:
    return float.hex(x) == float.hex(y)


# the plain norm at each edge of the band, exactly, and one step outside
BAND_EDGE_MATRICES = [np.array([[_PLAIN_BAND[0]]]), np.array([[_PLAIN_BAND[1]]]),
                      np.array([[np.nextafter(_PLAIN_BAND[0], 0)]]),
                      np.array([[np.nextafter(_PLAIN_BAND[1], np.inf)]])]


@settings(max_examples=300, deadline=None)
@given(edge_matrices(), st.sampled_from(("complex", "float", "int", "list", "view")))
@example(np.zeros((2, 3), dtype=complex), "complex")
@example(np.zeros((0, 3), dtype=complex), "complex")
@example(np.zeros((0, 0), dtype=complex), "list")
@example(np.full((2, 2), 5e-324 + 5e-324j), "complex")
@example(np.diag([2.0 ** 600, 5e-324]), "float")
def test_fro_norm_has_the_bits_of_the_scaled_rule(a, form):
    if form == "float":
        a = a.real.copy()
    elif form == "int":
        # up to 2^40, so that an integer dot would overflow
        a = np.rint(np.ldexp(a.real, -_exponent(a) + 40)).astype(np.int64)
    elif form == "list":
        a = a.tolist()
    elif form == "view":
        a = conj_transpose(a)
    assert _same_bits(fro_norm(a), _scaled_rule(a))


@pytest.mark.parametrize("a", BAND_EDGE_MATRICES + [2.0 ** k * np.eye(3) for k in (
    -601, -600, -401, -400, -399, 399, 400, 401, 600)])
def test_fro_norm_at_the_band_edges(a):
    for x in (a, a.astype(complex), 1j * a, conj_transpose(a)):
        assert _same_bits(fro_norm(x), _scaled_rule(x))


FLOOR = Tolerance().eq_abs + Tolerance().eq_rel


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.tuples(edge_matrices(shape), edge_matrices(shape))))
@example((np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)))
@example((np.zeros((0, 2), dtype=complex), np.zeros((0, 2), dtype=complex)))
@example((2.0 ** 600 * np.eye(2, dtype=complex), 2.0 ** 600 * np.eye(2, dtype=complex)))
# residuals at the floor eq_abs + eq_rel, under which the norms are not read,
# one ulp above it, and just far enough above it to fail
@example((np.full((1, 1), FLOOR, dtype=complex), np.zeros((1, 1), dtype=complex)))
@example((np.full((1, 1), np.nextafter(FLOOR, 1.0), dtype=complex),
          np.zeros((1, 1), dtype=complex)))
@example((np.full((1, 1), FLOOR * (1 + 1e-6), dtype=complex), np.zeros((1, 1), dtype=complex)))
def test_check_of_a_pair_is_diff_norm_against_eq_scale(pair):
    a, b = pair
    for x, y in ((a, b), (conj_transpose(a), conj_transpose(b)), (a, a)):
        residual = diff_norm(x, y)
        assert _compare(x, y, Tolerance()) == (residual <= eq_scale(x, y), residual)
        assert _same_bits(_compare(x, y, Tolerance())[1], residual)


def test_check_of_a_pair_checks_the_shapes():
    with pytest.raises(DimensionMismatchError):
        _compare(np.ones((2, 3)), np.ones((3, 2)), Tolerance())


@pytest.mark.parametrize("field", ("eq_abs", "eq_rel", "rank_rel"))
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, None, True, np.True_, "1e-9", 1j))
def test_tolerance_rejects_non_finite(field, bad):
    # Tolerance(eq_abs=nan) would make approx_eq(I, I) False, rank_rel=nan
    # would give numerical_rank(I) == 0, eq_abs=None would fail at the
    # first comparison, and rank_rel=True would read as 1.0. Only rank_rel
    # may be None, which selects the default cutoff.
    if (field, bad) == ("rank_rel", None):
        assert Tolerance(rank_rel=None).rank_cutoff(2, 2) == np.finfo(float).eps * 2 * 64
        return
    with pytest.raises(ValueError):
        Tolerance(**{field: bad})


def test_tolerance_accepts_numpy_and_int_fields():
    tol = Tolerance(eq_abs=np.float32(1e-10), eq_rel=np.float64(1e-9), rank_rel=np.int64(1))
    assert tol.rank_cutoff(3, 3) == 1
    assert Tolerance(eq_abs=1, eq_rel=2, rank_rel=1e-3).eq_rel == 2
