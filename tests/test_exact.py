"""The rational oracle must reproduce the worked fixture values exactly."""

import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geninv.exact import (
    QC,
    RMatrix,
    exact_cce,
    exact_cmp,
    exact_core_ep,
    exact_core_part,
    exact_dmp,
    exact_drazin,
    exact_index,
    exact_inv,
    exact_mpd,
    exact_mpdmp,
    exact_pinv,
    exact_rank,
)

A1 = RMatrix([[2, 0, 1], [0, 0, 2], [0, 0, 0]])
A2 = RMatrix([[1, 0, 0], [1, 0, 1], [0, 0, 0]])
A3 = RMatrix([[2, 0, 0], [0, 0, 0], [2, 2, 0]])


def rm(rows):
    return RMatrix(rows)


def test_qc_arithmetic():
    z = QC(1, 2) * QC(3, -1)
    assert z == QC(5, 5)
    assert QC(1, 1) / QC(1, 1) == QC(1)
    assert (QC(2, 3) / QC(0, 1)) == QC(3, -2)
    assert QC(1, -2).conj() == QC(1, 2)
    with pytest.raises(ZeroDivisionError):
        QC(1) / QC(0)


def test_rank_and_index():
    assert exact_rank(A1) == 2
    assert exact_index(A1) == 2
    assert exact_index(A2) == 2
    assert exact_index(A3) == 2
    assert exact_index(RMatrix.identity(3)) == 0
    assert exact_index(RMatrix.zeros(3, 3)) == 1


def test_pinv_fixture_values():
    assert exact_pinv(A1) == rm([[F(1, 2), F(-1, 4), 0], [0, 0, 0], [0, F(1, 2), 0]])
    assert exact_pinv(A2) == rm([[1, 0, 0], [0, 0, 0], [-1, 1, 0]])
    assert exact_pinv(RMatrix.identity(4)) == RMatrix.identity(4)
    assert exact_pinv(RMatrix.zeros(2, 3)) == RMatrix.zeros(3, 2)


def test_pinv_satisfies_penrose_exactly():
    for a in (A1, A2, A3, rm([[1, 1j], [0, 2], [3, 0]])):
        x = exact_pinv(a)
        assert (a @ x @ a - a).is_zero()
        assert (x @ a @ x - x).is_zero()
        assert ((a @ x).conj_t() - a @ x).is_zero()
        assert ((x @ a).conj_t() - x @ a).is_zero()


def test_drazin_fixture_values():
    assert exact_drazin(A1) == rm([[F(1, 2), 0, F(1, 4)], [0, 0, 0], [0, 0, 0]])
    assert exact_drazin(A3) == rm([[F(1, 2), 0, 0], [0, 0, 0], [F(1, 2), 0, 0]])
    nil = rm([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert exact_drazin(nil).is_zero()


def test_drazin_equations_exactly():
    for a in (A1, A2, A3):
        d = exact_drazin(a)
        k = exact_index(a)
        assert (a.power(k + 1) @ d - a.power(k)).is_zero()
        assert (d @ a @ d - d).is_zero()
        assert (a @ d - d @ a).is_zero()


def test_composite_fixture_values():
    assert exact_dmp(A1) == rm([[F(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_mpd(A1) == rm([[F(1, 2), 0, F(1, 4)], [0, 0, 0], [0, 0, 0]])
    assert exact_mpdmp(A2) == rm([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_dmp(A2) == rm([[1, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert exact_mpd(A2) == rm([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_dmp(A3) == rm([[F(1, 2), 0, 0], [0, 0, 0], [F(1, 2), 0, 0]])
    assert exact_cmp(A3) == rm([[F(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_mpd(A3) == rm([[F(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_core_part(A1) == rm([[2, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_oracle_only_values_used_downstream():
    assert exact_cmp(A1) == rm([[F(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_mpdmp(A1) == rm([[F(1, 8), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_core_ep(A1) == rm([[F(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_cce(A1) == rm([[F(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exact_pinv(A3) == rm([[F(1, 2), 0, 0], [F(-1, 2), 0, F(1, 2)], [0, 0, 0]])


def test_to_complex_round_trip():
    c = A1.to_complex()
    assert c.dtype == np.complex128
    assert np.array_equal(c, np.array([[2, 0, 1], [0, 0, 2], [0, 0, 0]], dtype=complex))


def test_complex_entries_exact():
    a = rm([[QC(1, 1), 0], [0, QC(0, -2)]])
    x = exact_pinv(a)
    assert x == rm([[QC(F(1, 2), F(-1, 2)), 0], [0, QC(0, F(1, 2))]])


# ---- properties of the oracle on small Gaussian-rational matrices

ENTRIES = st.builds(lambda p, q, s, t: QC(F(p, q), F(s, t)),
                    st.integers(-4, 4), st.integers(1, 3),
                    st.integers(-2, 2), st.integers(1, 3))


@st.composite
def gaussian_rational_matrices(draw, square=False):
    """Rank-deficient, zero and full-rank matrices of 1-5 rows and columns
    with rational or Gaussian-rational entries: a product of m x r and
    r x n factors, or (square only) an upper triangle whose zeros on the
    diagonal give nilpotent parts of index above 1."""
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    real = draw(st.booleans())
    entry = ENTRIES.map(lambda x: QC(x.re)) if real else ENTRIES
    if square and draw(st.booleans()):
        return rm([[draw(entry) if j > i or (j == i and draw(st.booleans())) else 0
                    for j in range(n)] for i in range(n)])
    r = draw(st.integers(0, min(m, n)))
    if r == 0:
        return RMatrix.zeros(m, n)
    f = rm([[draw(entry) for _ in range(r)] for _ in range(m)])
    g = rm([[draw(entry) for _ in range(n)] for _ in range(r)])
    return f @ g


@settings(max_examples=60, deadline=None)
@given(gaussian_rational_matrices(), st.data())
def test_arithmetic_matches_qc_arithmetic_entry_by_entry(a, data):
    # the per-entry definitions on QC scalars are the reference
    (m, k), n = a.shape, data.draw(st.integers(1, 5))
    b = rm([[data.draw(ENTRIES) for _ in range(n)] for _ in range(k)])
    c = rm([[data.draw(ENTRIES) for _ in range(k)] for _ in range(m)])
    assert (a @ b).rows == [[sum((x * y for x, y in zip(row, col)), QC(0))
                             for col in zip(*b.rows)] for row in a.rows]
    assert (a + c).rows == [[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, c.rows)]
    assert (a - c).rows == [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, c.rows)]
    assert a.conj_t().rows == [[x.conj() for x in col] for col in zip(*a.rows)]
    assert a == rm(a.rows) and a.is_zero() == (not any(x for r in a.rows for x in r))
    want = np.array([[complex(x) for x in r] for r in a.rows], dtype=np.complex128)
    assert a.to_complex().tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(gaussian_rational_matrices())
def test_pinv_meets_the_penrose_equations_exactly(a):
    x = exact_pinv(a)
    assert x.shape == a.shape[::-1]
    assert a @ x @ a == a
    assert x @ a @ x == x
    assert (a @ x).conj_t() == a @ x
    assert (x @ a).conj_t() == x @ a


@settings(max_examples=80, deadline=None)
@given(gaussian_rational_matrices(square=True))
def test_inverse_and_drazin_equations_exactly(a):
    n = a.shape[0]
    if exact_rank(a) == n:
        assert exact_inv(a) @ a == RMatrix.identity(n)
        assert a @ exact_inv(a) == RMatrix.identity(n)
    else:
        with pytest.raises(ValueError):
            exact_inv(a)
    d, k = exact_drazin(a), exact_index(a)
    assert a.power(k + 1) @ d == a.power(k)
    assert d @ a @ d == d
    assert a @ d == d @ a


# ---- regression: every exact value stays the same, bit for bit

def _int_matrix(seed, n):
    return rm(np.random.default_rng(seed).integers(-3, 4, (n, n)).tolist())


PINNED_MATRICES = (
    A1, A2, A3,
    rm([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    _int_matrix(1, 4), _int_matrix(2, 5), _int_matrix(3, 5),
    rm([[QC(1, 1), 2, 0], [0, QC(0, -1), 1], [0, 0, 0]]),
    rm([[1j, 1, 0, 0], [0, 0, 1 + 2j, 0], [2, 0, 0, 1], [0, 0, 0, 0]]),
    rm([[F(1, 2), QC(1, F(-1, 3)), 0], [0, 0, 2], [0, 0, 0]]),
)

# sha256 of repr(f(a).rows) over PINNED_MATRICES, recorded with the
# per-entry Fraction implementation that the integer arrays replaced
PINNED_DIGESTS = {
    "exact_pinv": "d3aadadc46c053708a4047b0e9c7cb8f95a374d06e6404c6aa0f9f0b4e9a23b7",
    "exact_drazin": "13c21d577242d1ca77de06573dd1466757c9d8c62394a14ff79429ca8fdf7ee3",
    "exact_dmp": "ebadfe993437857478720bf5a5065130e0c52dab72c3e1e9520504914cf87d36",
    "exact_mpd": "e667781c2d912509340754e55e36f5b222cc40d6f13c9e8d2853e2c617d0379f",
    "exact_cmp": "76d6c0a15d71a67ea9b413f3e606adb64cd6f70de78a2d745c4504b1c0ff745c",
    "exact_mpdmp": "78a3b0e1c064f49802dce123bb7ea4c633c16a5f1d29f219cbe1dcd55e1e6170",
    "exact_core_ep": "8aa822abc8863f4bd951fef014598c48fc561d3dbe9a71e9e1e8ca239c7848d4",
    "exact_cce": "2642d7ca509030b54af333d109f61916e76e24f0c83ec0fe1fd18a70d638e37d",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_exact_values_are_pinned(name):
    f = globals()[name]
    h = hashlib.sha256()
    for a in PINNED_MATRICES:
        h.update(repr(f(a).rows).encode())
    assert h.hexdigest() == PINNED_DIGESTS[name]
