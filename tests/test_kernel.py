import numpy as np
import pytest
from hypothesis import given, settings
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
from geninv.kernel import _exponent

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


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, complex(1, np.nan)))
def test_cmatrix_rejects_non_finite_entries(bad):
    with pytest.raises(PreconditionError):
        cmatrix([[1, 2], [bad, 4]])


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
