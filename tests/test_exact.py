"""The rational oracle must reproduce the worked fixture values exactly."""

import hashlib
import itertools
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import exact
from geninv.drazin import _analyse
from geninv.verify import _SUITES, _kep_pairs, solution_family
from geninv.exact import (
    QC,
    RMatrix,
    _rref,
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


def test_entries_repr_negation_and_hash():
    # public methods the oracle itself never calls
    m = RMatrix([[F(1, 2), QC(0, -3)], [2, QC(F(1, 3), 1)]])
    assert all(m[i, j] == m.rows[i][j] for i in range(2) for j in range(2))
    assert repr(m) == "RMatrix([['1/2', '(0-3j)'], ['2', '(1/3+1j)']])"
    q = QC(F(1, 3), -2)
    assert repr(q) == "(1/3-2j)" and repr(-q) == "(-1/3+2j)"
    assert -q == QC(0) - q == QC(F(-1, 3), 2)
    assert hash(QC(F(2, 4), 1)) == hash(QC(F(1, 2), F(3, 3)))
    assert len({QC(1), QC(F(2, 2)), QC(1, 0)}) == 1


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


@pytest.mark.parametrize("rows", [
    [[3, -2], [0, 2**70]],
    np.array([[3, -2], [0, 7]]),
    np.array([[1, 0], [-5, 2]], dtype=np.int32),
    [[True, False], [False, True]],
    [[F(1, 2), F(-3, 4)], [2, 0]],
    [[0.5, 1.25], [-3.0, 0.0]],
    [[1j, 2 + 0.5j], [0, 1]],
    [[QC(F(1, 3), 2), 0], [1, QC(0, -1)]],
], ids=["int", "int64", "int32", "bool", "fraction", "float", "complex", "qc"])
def test_construction_keeps_one_stored_form(rows):
    # integer entries skip the per-entry QC; every kind of entry must give
    # what the QC path gives, with Python ints throughout
    a = rm(rows)
    assert _stored(a) == _stored(rm([[QC.of(x) for x in r] for r in rows]))
    assert all(type(x) is int for x in (*a._re.flat, *a._im.flat, a._den))


def test_numpy_integers_do_not_wrap_in_products():
    # 2^160 passes any fixed-width integer: a stored np.int64 would wrap
    assert (rm(np.array([[3, 2**40], [1, 2]])).power(4)
            == rm([[3, 2**40], [1, 2]]).power(4))


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
    assert a.conj().rows == [[x.conj() for x in r] for r in a.rows]
    assert a.T.rows == [list(col) for col in zip(*a.rows)]
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


@settings(max_examples=60, deadline=None)
@given(gaussian_rational_matrices())
def test_real_rows_reduce_as_gaussian_rows(a):
    # a matrix with no imaginary part is reduced on its real rows alone,
    # i a on Gaussian rows; a unit scalar leaves the RREF as it is
    assume(not a._im.any())
    ia = rm([[QC(0, 1) * x for x in r] for r in a.rows])
    assert ia._im.any() or a.is_zero()
    red, ired = _rref(a), _rref(ia)
    assert red.rref == ired.rref
    assert red.pivots == ired.pivots


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


def _stored(m) -> str:
    """The stored form of an exact matrix as text: its shape, common
    denominator and integer real and imaginary parts, which pin its values
    and no repr."""
    return repr((m.shape, m._den, m._re.tolist(), m._im.tolist()))


# sha256 of _stored(f(a)) over PINNED_MATRICES, recorded from values that
# give the digests of repr(f(a).rows) pinned before, which had been
# recorded with the per-entry Fraction implementation the integer arrays
# replaced
PINNED_DIGESTS = {
    "exact_pinv": "89c6f4beb2bc7f32764a1f8f29e843d79adc4255e29681106acc27812717e656",
    "exact_drazin": "3576738171ef945fc6e444297b84bce52d3154318b2596042e4f64b69aa0cdaa",
    "exact_dmp": "b2b2628b16c1eef65f3a8fa9e57d6a25bb2d2a6557cd004989578703fbd39cb8",
    "exact_mpd": "de35cb4f2c189c72c0d6df5228580b4d6c7018d30858ef003ec1146da35a2b82",
    "exact_cmp": "9320739fd6f56638455e1e38ebcb459a3bfcd84edaaa20982393eef3154bc0d7",
    "exact_mpdmp": "9afa9a0f7ac7642513da57b8716d0aa6dfbb9473e9ee117caf0b23df35313990",
    "exact_core_ep": "df4c0c34c876690cfa8a98c3dc37a60dfdf80db55c8b42a538a86c9d53d40743",
    "exact_cce": "658a29ef5f0795798c9c5490db2d22584468a3cea8d09a8e1a016fa037dd0387",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_exact_values_are_pinned(name):
    f = globals()[name]
    h = hashlib.sha256()
    for a in PINNED_MATRICES:
        h.update(_stored(f(a)).encode())
    assert h.hexdigest() == PINNED_DIGESTS[name]


# _rref calls of each exact_* call on one matrix, in the order of
# RREF_FUNCS: every reduction is kept by its input's stored form, so no
# input is reduced twice, an idempotent power included; a nonsingular
# matrix is reduced once, and its inverse replayed from that reduction
RREF_FUNCS = ("exact_index", "exact_pinv", "exact_drazin", "exact_core_part", "exact_dmp",
              "exact_mpd", "exact_cmp", "exact_mpdmp", "exact_core_ep", "exact_cce")
RREF_COUNTS = (
    (A1, (3, 2, 4, 4, 5, 5, 5, 5, 4, 5)),                 # index 2
    (rm([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), (3, 2, 3, 3, 4, 4, 4, 4, 3, 4)),  # J3
    (_int_matrix(2, 5), (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),  # nonsingular
    (PINNED_MATRICES[8], (2, 2, 3, 3, 4, 4, 4, 4, 3, 4)),  # Gaussian, index 1
    (rm([[1, 1], [0, 0]]), (1, 2, 2, 2, 3, 3, 3, 3, 2, 2)),  # A^2 = A
    (rm([[1, 0, 0], [0, 1, 0], [0, 0, 0]]), (1, 2, 2, 2, 2, 2, 2, 2, 2, 2)),  # g A f = f* A g*
)


@pytest.mark.parametrize("a, counts", RREF_COUNTS,
                         ids=["A1", "J3", "int5", "gaussian", "idempotent", "projector"])
def test_exact_record_reduces_each_power_once(monkeypatch, a, counts):
    inputs, rref = [], exact._rref

    def spy(m):
        inputs.append(_stored(m))
        return rref(m)

    monkeypatch.setattr(exact, "_rref", spy)
    got = []
    for name in RREF_FUNCS:
        inputs.clear()
        getattr(exact, name)(a)
        assert len(set(inputs)) == len(inputs), name
        got.append(len(inputs))
    assert tuple(got) == counts


# RREF matrices formed by each exact_* call on the matrices of RREF_COUNTS,
# in the order of RREF_FUNCS: only those that `_factors` reads, so that a
# nonsingular matrix forms none
RREF_FORMED = (
    (0, 1, 1, 1, 2, 2, 2, 2, 1, 2),  # A1
    (0, 1, 1, 1, 2, 2, 2, 2, 1, 2),  # J3
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),  # int5
    (0, 1, 1, 1, 1, 1, 1, 1, 1, 2),  # gaussian
    (0, 1, 1, 1, 1, 1, 1, 1, 1, 1),  # idempotent
    (0, 1, 1, 1, 1, 1, 1, 1, 1, 1),  # projector
)


@pytest.mark.parametrize("a, formed", [(a, f) for (a, _), f in zip(RREF_COUNTS, RREF_FORMED)],
                         ids=["A1", "J3", "int5", "gaussian", "idempotent", "projector"])
def test_exact_record_forms_only_what_it_reads(monkeypatch, a, formed):
    # `_over` forms each RREF and each inverse, one per `_inv` of a nonempty
    # matrix; a stored form is normalized on its real part alone whenever
    # its imaginary part is all zero
    counts, over, of, inv = Counter(), exact._over, RMatrix._of, exact._ExactAnalysis._inv

    def over_spy(*args):
        counts["over"] += 1
        return over(*args)

    def of_spy(re, im, den=1):
        counts["zero im"] += im is not None and not any(im.flat)
        return of(re, im, den)

    def inv_spy(rec, m):
        counts["inverse"] += m.shape[0] > 0
        return inv(rec, m)

    monkeypatch.setattr(exact, "_over", over_spy)
    monkeypatch.setattr(RMatrix, "_of", staticmethod(of_spy))
    monkeypatch.setattr(exact._ExactAnalysis, "_inv", inv_spy)
    got, zero_im = [], []
    for name in RREF_FUNCS:
        counts.clear()
        getattr(exact, name)(a)
        got.append(counts["over"] - counts["inverse"])
        zero_im.append(counts["zero im"])
    assert tuple(got) == formed
    assert zero_im == [0] * len(RREF_FUNCS)


@pytest.mark.parametrize("a", [a for a, _ in RREF_COUNTS],
                         ids=["A1", "J3", "int5", "gaussian", "idempotent", "projector"])
def test_exact_verdicts_reduce_nothing_after_the_inverses(monkeypatch, a):
    rec = exact._ExactAnalysis(a)
    for name in ("pinv", "drazin", "dmp", "mpd", "cmp", "mpdmp", "core_ep", "cce"):
        getattr(rec, name)
    inputs, rref = [], exact._rref
    monkeypatch.setattr(exact, "_rref", lambda m: inputs.append(m) or rref(m))
    assert {type(getattr(rec, v)) for v in ("is_ep", "is_core_ep", "is_k_ep")} == {bool}
    assert inputs == []


def _stored_ints(a):
    return _stored(a), {type(x) for x in (*a._re.flat, *a._im.flat, a._den)}


def _four_dot_product(x, y):
    a, b, c, d = x._re, x._im, y._re, y._im  # (a + bi)(c + di)
    return RMatrix._of(a.dot(c) - b.dot(d), a.dot(d) + b.dot(c), x._den * y._den)


SQUARE_3 = [a for a in PINNED_MATRICES if a.shape == (3, 3)] + [
    rm([[F(1, 2), 0, F(-3, 4)], [0, 2, 0], [1, 0, 0]])]


@pytest.mark.parametrize("x", SQUARE_3)
@pytest.mark.parametrize("y", SQUARE_3)
def test_product_equals_the_four_dot_product(x, y):
    # real x real is one integer product, real x Gaussian and the rest four;
    # both leave the stored form of the general formula, with Python ints
    assert _stored_ints(x @ y) == _stored_ints(_four_dot_product(x, y))


def _full_rank_factors(m):
    """m = f g: f the pivot columns of m, g the nonzero rows of its RREF."""
    red = _rref(m)
    return m._sub(slice(None), red.pivots), red.rref._sub(slice(len(red.pivots)), slice(None))


def _macduffee(m):
    """m^+ = g* (f* m g*)^-1 f* for m = f g."""
    f, g = _full_rank_factors(m)
    gs, fs = g.conj_t(), f.conj_t()
    return gs @ exact_inv(fs @ m @ gs) @ fs


def _cline(a, k):
    """a^D = f (g a f)^-1 g for a^k = f g."""
    f, g = _full_rank_factors(a.power(k))
    return f @ exact_inv(g @ a @ f) @ g


@pytest.mark.parametrize("a", PINNED_MATRICES[4:] + (
    rm([[1j, 2, 0], [1, 1 - 1j, 0], [0, 3, F(1, 2)]]),
), ids=["int4", "int5a", "int5b", "gaussian1", "gaussian2", "gaussian3", "gaussian_inv"])
def test_exact_values_equal_the_general_expressions(a):
    # the general forms are the reference; at index 0 they run on A^0 = I =
    # I I with (A^0)^+ = I, and must still give the oracle's A^-1
    k = exact_index(a)
    p, d = _macduffee(a), _cline(a, k)
    ce = d @ a.power(k) @ _macduffee(a.power(k))
    core = a @ d @ a
    want = {"exact_pinv": p, "exact_drazin": d, "exact_core_part": core,
            "exact_dmp": d @ a @ p, "exact_mpd": p @ a @ d, "exact_cmp": p @ core @ p,
            "exact_mpdmp": p @ d @ p, "exact_core_ep": ce, "exact_cce": p @ a @ ce @ a @ p}
    assert {name: _stored(getattr(exact, name)(a)) for name in want} == {
        name: _stored(x) for name, x in want.items()}


# ---- exact against float verdicts on every small matrix

VERDICTS = ("index", "is_ep", "is_core_ep", "is_k_ep")
# (index, EP, core-EP, k-EP) classes of every n x n matrix over `entries`
VERDICT_CLASSES = {
    (2, (-1, 0, 1)): {(0, True, True, True): 48, (1, False, False, False): 16,
                      (1, True, True, True): 9, (2, False, True, True): 8},
    (3, (0, 1)): {(0, True, True, True): 174, (1, False, False, False): 198,
                  (1, True, True, True): 44, (2, False, False, False): 66,
                  (2, False, True, True): 18, (3, False, True, True): 12},
}


@pytest.mark.parametrize("n, entries", VERDICT_CLASSES)
def test_exact_verdicts_equal_the_float_ones(n, entries):
    classes = Counter()
    for flat in itertools.product(entries, repeat=n * n):
        a = np.array(flat).reshape(n, n)
        rec, ex = _analyse(a.astype(complex), gi.DEFAULT_TOL), exact._ExactAnalysis(rm(a))
        got = tuple(getattr(ex, v) for v in VERDICTS)
        assert got == tuple(getattr(rec, v) for v in VERDICTS), a
        assert ex.rank == rec.rank, a
        d = ex.drazin.to_complex()
        assert np.linalg.norm(rec.drazin - d) <= 1e-13 * np.linalg.norm(d), a
        classes[got] += 1
    assert classes == VERDICT_CLASSES[n, entries]


def test_exact_record_judges_by_stored_form(monkeypatch):
    # equal stored forms hold with residual 0 and are not subtracted;
    # unequal ones fail with the float norm of their difference
    rec, want, subtracted = exact._ExactAnalysis(A1), (A1 - A2).to_complex(), []
    real = RMatrix.__sub__
    monkeypatch.setattr(RMatrix, "__sub__", lambda x, y: subtracted.append(y) or real(x, y))
    assert rec._compare(A1 @ A1, rec.power(2)) == (True, 0.0) and not subtracted
    assert rec._compare(A1, A2) == (False, np.linalg.norm(want)) and subtracted == [A2]


def _m(code):
    """The 2 x 2 matrix whose entries, row by row, are written in "-0+"."""
    return np.array(["-0+".index(c) - 1 for c in code]).reshape(2, 2)


# Every pair (a, b) of 2 x 2 {-1, 0, 1} matrices with A^D != 0 and a != b
# that a relation holds for, "a b" in the code of `_m`, by the relations that
# hold on the exact record: the 80 that hold one alone separate the relations.
# tools/census.py finds them among all 6,561 pairs.
HELD_PAIRS = {
    ("cmp",): "--00 ---+, --00 --+-, -0-0 ---+, -0-0 -+--, -0+0 --+-, -0+0 -+++, "
              "-+00 -+--, -+00 -+++, 0-0- --+-, 0-0- +---, 0-0+ ---+, 0-0+ +-++, "
              "00-- -+--, 00-- +---, 00-+ ---+, 00-+ ++-+, 00+- --+-, 00+- +++-, "
              "00++ -+++, 00++ +-++, 0+0- -+--, 0+0- +++-, 0+0+ -+++, 0+0+ ++-+, "
              "+-00 +---, +-00 +-++, +0-0 +---, +0-0 ++-+, +0+0 +-++, +0+0 +++-, "
              "++00 ++-+, ++00 +++-",
    ("dmp",): "--00 --0-, --00 --0+, -+00 -+0-, -+00 -+0+, 00-- -0--, 00-- +0--, "
              "00-+ -0-+, 00-+ +0-+, 00+- -0+-, 00+- +0+-, 00++ -0++, 00++ +0++, "
              "+-00 +-0-, +-00 +-0+, ++00 ++0-, ++00 ++0+",
    ("mpd",): "-0-0 -0--, -0-0 -0-+, -0+0 -0+-, -0+0 -0++, 0-0- --0-, 0-0- +-0-, "
              "0-0+ --0+, 0-0+ +-0+, 0+0- -+0-, 0+0- ++0-, 0+0+ -+0+, 0+0+ ++0+, "
              "+0-0 +0--, +0-0 +0-+, +0+0 +0+-, +0+0 +0++",
    ("drazin",): "--00 -00-, -0-0 -00-, -0+0 -00-, -+00 -00-, 0-0- -00-, 0-0+ +00+, "
                 "00-- -00-, 00-+ +00+, 00+- -00-, 00++ +00+, 0+0- -00-, 0+0+ +00+, "
                 "+-00 +00+, +0-0 +00+, +0+0 +00+, ++00 +00+",
    ("dmp", "mpd", "cmp", "drazin"): "-000 -00-, -000 -00+, 000- -00-, 000- +00-, "
                                     "000+ -00+, 000+ +00+, +000 +00-, +000 +00+",
}


def _held_pairs():
    """(relations, a, b) for each pair of HELD_PAIRS, a and b as codes."""
    return [(kinds, *pair.split()) for kinds, pairs in HELD_PAIRS.items()
            for pair in pairs.split(", ")]


def _records_2x2():
    """(float record, exact record) of every 2 x 2 {-1, 0, 1} matrix, by code."""
    return {code: (_analyse(_m(code).astype(complex), gi.DEFAULT_TOL),
                   exact._ExactAnalysis(rm(_m(code))))
            for code in map("".join, itertools.product("-0+", repeat=4))}


def test_exact_suite_verdicts_equal_the_float_ones():
    # every suite is judged unchanged on both records, each record judging
    # its own identities: a single-matrix suite on every 2 x 2 {-1, 0, 1}
    # matrix; a pair suite, one whose row's source draws pairs, on (a, core
    # a) for each and on the held pairs, with the left operands k-EP where
    # the source forces them to be
    recs = _records_2x2()
    pairs = [tuple((r, r.core) for r in both) for both in recs.values()] + [
        tuple(zip(recs[a], recs[b])) for _, a, b in _held_pairs()]
    verdicts = Counter()
    for name, suite in _SUITES.items():
        subjects = pairs if suite.pairwise else recs.values()
        if suite.source is _kep_pairs:
            subjects = [s for s in pairs if s[1][0].is_k_ep]
        for subject in subjects:
            # a skip note, or the truth value of each identity
            fl, ex = (j if isinstance(j, str) else [h for _, h, _ in j]
                      for j in map(suite.judge, subject))
            assert fl == ex, (name, subject[1])
            if not isinstance(ex, str):
                assert all(ex), (name, subject[1])
                verdicts[suite.pairwise] += len(ex)
    assert verdicts == {False: 3171, True: 411}


def test_relations_separate_on_exact_pairs():
    # the pinned pairs hold exactly the relations they are listed under, on
    # the exact record with the second operand an RMatrix, and float agrees
    recs, held = _records_2x2(), Counter()
    for kinds, a, b in _held_pairs():
        fl, ex = recs[a]
        for rec, operand in ((ex, rm(_m(b))), (fl, _m(b))):
            assert tuple(k.value for k in gi.OrderKind
                         if gi.leq(rec, operand, k).holds) == kinds, (a, b)
        held[kinds] += 1
    assert held == {("cmp",): 32, ("dmp",): 16, ("mpd",): 16, ("drazin",): 16,
                    ("dmp", "mpd", "cmp", "drazin"): 8}


def _orbits_3x3():
    """(representative, orbit size) of each orbit of the 19,683 3 x 3
    {-1, 0, 1} matrices under A -> G A G^T, G a signed permutation. A matrix
    is coded by its entries + 1 as base-3 digits, row by row, which is its
    position in `itertools.product`; an orbit is represented by its least
    code."""
    mats = np.array(list(itertools.product((-1, 0, 1), repeat=9))).reshape(-1, 3, 3)
    digits = 3 ** np.arange(8, -1, -1)
    codes = [((mats[:, p][:, :, p] * np.outer(s, s)).reshape(-1, 9) + 1) @ digits
             for p in itertools.permutations(range(3))
             for s in map(np.array, itertools.product((-1, 1), repeat=3))]
    reps, sizes = np.unique(np.min(codes, axis=0), return_counts=True)
    return [(mats[code], int(size)) for code, size in zip(reps, sizes)]


# per suite, the 3 x 3 orbit representatives judged on every identity and
# those each skip note took
ORBIT_SUBJECTS = {
    "core_ep_equiv": (927, {}),
    "core_ep_collapse": (625, {"not_core_ep_skipped": 302}),
    "six_part": (625, {"not_core_ep_skipped": 302}),
    "ass": (927, {}),
    "five_way_mp": (926, {"zero_skipped": 1}),
    "five_way_core": (927, {}),
    "commute_lemma": (927, {}),
    "ew2": (927, {}),
    "adf": (927, {}),
    "orders_kep": (927, {}),
    "cce_conditional": (876, {"zero_skipped": 1, "hypothesis_skipped": 50}),
}


def test_every_suite_holds_exactly_on_every_3x3_orbit():
    # every inverse X of G A G^T is G X G^T, so each exact verdict, skip
    # rule and class is an orbit invariant, and judging one matrix of each
    # orbit judges all 19,683: a single-matrix suite on the record, a pair
    # suite on (record, core part)
    orbits = _orbits_3x3()
    assert len(orbits) == 927 and sum(size for _, size in orbits) == 19_683
    judged, collapse = Counter(), Counter()
    for a, size in orbits:
        rec = exact._ExactAnalysis(rm(a))
        for name, suite in _SUITES.items():
            out = suite.judge((rec, rec.core) if suite.pairwise else rec)
            if isinstance(out, str):
                judged[name, out] += 1
                continue
            for label, holds, _ in out:
                assert holds, (name, label, a)
                judged[name, label] += 1
        if rec.index >= 2:
            collapse[rec.is_core_ep, rec.dmp == rec.drazin, rec.mpd == rec.drazin] += size
    want = Counter()
    for name, (every, notes) in ORBIT_SUBJECTS.items():
        want.update({(name, label): every for label, _ in _SUITES[name].identities})
        want.update({(name, note): count for note, count in notes.items()})
    assert judged == want
    # the converse of the collapse, by matrices: of index >= 2, the 576
    # core-EP ones have DMP = MPD = A^D, and of the 1,440 others none has
    # both, 240 DMP = A^D alone and 240 MPD = A^D alone
    assert collapse == {(True, True, True): 576, (False, False, False): 960,
                        (False, True, False): 240, (False, False, True): 240}


def test_exact_record_is_its_own_unit():
    rec = exact._ExactAnalysis(A1)
    assert rec._exp == 0 and rec.unit is rec


@pytest.mark.parametrize("fn", [exact_index, exact_drazin, exact_core_part, exact_dmp,
                                exact_mpd, exact_cmp, exact_mpdmp, exact_core_ep, exact_cce])
def test_exact_square_functions_reject_a_rectangular_matrix(fn):
    # as the float side does, through its one square check; the
    # pseudoinverse takes any shape
    a = rm([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(gi.DimensionMismatchError, match="square matrix required"):
        fn(a)
    assert exact_pinv(a).shape == (3, 2)


# the functions of a pair, each as (a, b) -> its verdicts; the core upper
# bound takes a alone and judges it against its own core part
PAIR_FUNCS = {
    "leq": lambda a, b: tuple(gi.leq(a, b, kind).holds for kind in gi.OrderKind),
    "dmp_order_characterizations": gi.dmp_order_characterizations,
    "mpd_order_characterizations": gi.mpd_order_characterizations,
    "core_upper_bound_check": lambda a, b: tuple(r.holds for r in gi.core_upper_bound_check(a)),
}
# a pair that only the DMP relation holds for, one only MPD, and a 3 x 3 pair
OPERAND_PAIRS = (("--00", "--0-"), ("0-0-", "--0-"), (A1, A3))


@pytest.mark.parametrize("name, operand", [
    (name, kind) for name in PAIR_FUNCS for kind in ("matrix", "record")
    if name != "core_upper_bound_check" or kind == "matrix"])
def test_pair_functions_take_an_exact_operand(name, operand, monkeypatch):
    # an exact record takes an RMatrix, or an exact record, as its second
    # operand, builds no record for it and gives the float verdicts
    built, real_init = [], exact._ExactAnalysis.__init__

    def recording(self, a, *args, **kwargs):
        built.append(a)
        real_init(self, a, *args, **kwargs)

    for a, b in OPERAND_PAIRS:
        a, b = (rm(_m(x)) if isinstance(x, str) else x for x in (a, b))
        rec, other = exact._ExactAnalysis(a), exact._ExactAnalysis(b) if operand == "record" else b
        monkeypatch.setattr(exact._ExactAnalysis, "__init__", recording)
        got = PAIR_FUNCS[name](rec, other)
        monkeypatch.undo()
        assert built == []
        assert got == PAIR_FUNCS[name](a.to_complex(), b.to_complex()), (name, a, b)


@pytest.mark.parametrize("name", [n for n in PAIR_FUNCS if n != "core_upper_bound_check"])
def test_operand_of_the_other_kind_rejected(name):
    # float and exact arithmetic never mix: a matrix or record of the other
    # kind raises TypeError on either record
    a = np.array([[1, 1], [0, 0]])
    fl, ex = _analyse(a.astype(complex), gi.DEFAULT_TOL), exact._ExactAnalysis(rm(a))
    for rec, operand in ((ex, a), (ex, a.astype(complex)), (ex, fl), (fl, ex)):
        with pytest.raises(TypeError):
            PAIR_FUNCS[name](rec, operand)


@pytest.mark.parametrize("which", ["q1", "q2"])
def test_solution_family_runs_on_the_exact_record(which):
    # the member is checked exactly against its equation inside the call,
    # and it is the float member up to rounding
    a, f = rm([[1, 1], [0, 0]]), rm([[1, 2], [3, 4]])
    x = solution_family(exact._ExactAnalysis(a), f, which)
    want = solution_family(a.to_complex(), f.to_complex(), which)
    assert isinstance(x, RMatrix)
    assert np.linalg.norm(x.to_complex() - want) <= 1e-14 * np.linalg.norm(want)


def _constructed_pair_classes(seed=7, per_class=25):
    """`per_class` exact records of 3 x 3 {-1, 0, 1} matrices of each class,
    drawn with `seed`: "core_ep", core-EP, singular and with A^D != 0; and
    "index_1", of index 1 and not EP."""
    rng, out = np.random.default_rng(seed), {"core_ep": [], "index_1": []}
    while min(map(len, out.values())) < per_class:
        rec = exact._ExactAnalysis(rm(rng.integers(-1, 2, (3, 3))))
        if rec.is_core_ep and rec.index >= 1 and not rec.drazin.is_zero():
            cls = "core_ep"
        elif rec.index == 1 and not rec.is_ep:
            cls = "index_1"
        else:
            continue
        if len(out[cls]) < per_class:
            out[cls].append(rec)
    return out


# B = A + L Z R, whose relation to A each (L, R) constructs: the inverse g
# of A under that relation has g L = 0 and R g = 0, so g B = g A, B g = A g
CONSTRUCTED = {
    gi.OrderKind.DMP: (lambda r: r.power(0) - r.a @ r.pinv, lambda r: r.power(0) - r.drazin @ r.a),
    gi.OrderKind.MPD: (lambda r: r.power(0) - r.a @ r.drazin, lambda r: r.power(0) - r.pinv @ r.a),
    gi.OrderKind.CMP: (lambda r: r.power(0) - r.a @ r.pinv, lambda r: r.power(0) - r.pinv @ r.a),
    gi.OrderKind.DRAZIN: (lambda r: r.power(0) - r.a @ r.drazin,
                          lambda r: r.power(0) - r.drazin @ r.a),
}


def test_constructed_pairs_hold_their_relation_exactly():
    # with integer Z in [-3, 3]: the chosen relation always holds; on a
    # core-EP A, whose DMP, MPD and CMP inverses are A^D, all four hold; on
    # an index-1 A that is not EP, only the chosen one. Draws with B = A
    # are skipped.
    rng, tested = np.random.default_rng(11), Counter()
    for cls, recs in _constructed_pair_classes().items():
        for rec in recs:
            for kind, (left, right) in CONSTRUCTED.items():
                b = rec.a + left(rec) @ rm(rng.integers(-3, 4, (3, 3))) @ right(rec)
                if b == rec.a:
                    continue
                holds = {k for k in gi.OrderKind if gi.leq(rec, b, k).holds}
                assert holds == (set(gi.OrderKind) if cls == "core_ep" else {kind}), (cls, kind)
                tested[cls, kind.value] += 1
    # of 25 draws each: the rest had L Z R = 0
    assert tested == {("core_ep", "dmp"): 23, ("core_ep", "mpd"): 23, ("core_ep", "cmp"): 24,
                      ("core_ep", "drazin"): 21, ("index_1", "dmp"): 21, ("index_1", "mpd"): 22,
                      ("index_1", "cmp"): 22, ("index_1", "drazin"): 25}


def test_wqrt_criterion_exact_equals_float():
    # the criterion reads (CMP)^+ from the record of the CMP inverse and
    # judges through the record of A, so it runs on the exact record; the
    # zero matrix has rank 0 on both
    verdicts = Counter()
    for flat in itertools.product((-1, 0, 1), repeat=4):
        a = np.array(flat).reshape(2, 2)
        recs = (_analyse(a.astype(complex), gi.DEFAULT_TOL), exact._ExactAnalysis(rm(a)))
        if not a.any():
            for rec in recs:
                with pytest.raises(gi.PreconditionError):
                    gi.wqrt_criterion(rec)
            continue
        fl, ex = map(gi.wqrt_criterion, recs)
        assert fl == ex, a
        verdicts[ex] += 1
    assert verdicts == {True: 64, False: 16}


# ---- float against exact on integer matrices of prescribed index

def _prescribed_index_matrices(seed=5):
    """A = P (C + J_k) P^-1 with C a nonsingular integer matrix (entries in
    [-3, 3]), J_k the nilpotent Jordan block of order k = 2..5, n = max(5,
    k + 1)..8, and P = L U for unit-triangular integer L, U (entries in
    [-2, 2]); of 300 draws, those with max|a| <= 200, each with its true
    index k."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(300):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(max(5, k + 1), 9))
        c = rng.integers(-3, 4, (n - k, n - k))
        while exact_rank(rm(c.tolist())) < n - k:
            c = rng.integers(-3, 4, (n - k, n - k))
        lower = np.tril(rng.integers(-2, 3, (n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(-2, 3, (n, n)), 1) + np.eye(n, dtype=np.int64)
        p = lower @ upper
        p_inv = np.rint(np.linalg.inv(p)).astype(np.int64)
        assert np.array_equal(p @ p_inv, np.eye(n, dtype=np.int64))
        block = np.zeros((n, n), dtype=np.int64)
        block[:n - k, :n - k] = c
        block[n - k:, n - k:] = np.eye(k, k, 1, dtype=np.int64)
        a = p @ block @ p_inv
        if np.abs(a).max() <= 200:
            out.append((a, k))
    return out


ORACLE_PAIRS = (("mp", exact_pinv), ("drazin", exact_drazin), ("dmp", exact_dmp),
                ("mpd", exact_mpd), ("cmp", exact_cmp), ("mpdmp", exact_mpdmp),
                ("core_ep", exact_core_ep), ("cce", exact_cce))


def test_float_inverses_match_the_oracle_at_prescribed_index():
    # A^(2k+1) has a condition number of about cond(C)^(2k+1): A^D formed
    # through it misses on most of these matrices, A^D formed from A^k and
    # A^(k+1) alone on one
    matrices = _prescribed_index_matrices()
    wrong_index, errors = 0, []
    for a, k in matrices:
        rep = gi.inverse_report(a.astype(complex))
        if rep.index != k:
            wrong_index += 1
            continue
        exact = rm(a.tolist())
        assert exact_index(exact) == k
        for name, oracle in ORACLE_PAIRS:
            want = oracle(exact).to_complex()
            x = getattr(rep, name)
            errors.append(np.linalg.norm(x - want) / np.linalg.norm(want))
    assert len(matrices) == 52
    # both read index 4 as 5: the singular values of their A^5 nearest the
    # rank cutoff lie within half a decade of it
    assert wrong_index == 2
    assert np.all(np.isfinite(errors))
    # the one miss is a 7 x 7 matrix of index 2: its Drazin inverse, and the
    # DMP, MPD and CMP inverses built from it, are off by about 1e-7
    assert sum(e > 1e-8 for e in errors) == 4
    assert np.median(errors) < 1e-13


@pytest.mark.xfail(strict=True, reason="the sigma_max(B)^j cutoff drops a nonzero "
                   "singular value of A^4 and A^5, so the core part is read as "
                   "rank 2 instead of 3")
def test_float_inverses_match_the_oracle_where_a_power_sits_below_the_cutoff():
    # 7 x 7, true index 4: the third singular value of A^4 (rank 3) lies 1.8
    # decades below the cutoff; A^5 loses the same one, so the index is
    # still read right, but every inverse built on A^k is about 100% off
    a, k = _prescribed_index_matrices(seed=6)[4]
    exact = rm(a.tolist())
    assert (a.shape, k, exact_index(exact)) == ((7, 7), 4, 4)
    rep = gi.inverse_report(a.astype(complex))
    assert rep.index == k
    for name, oracle in ORACLE_PAIRS:
        want = oracle(exact).to_complex()
        x = getattr(rep, name)
        assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want), name
