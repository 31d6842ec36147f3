"""One analysis per matrix: the input guard, SVD calls counted against
distinct SVD inputs and powers against distinct (base, exponent) pairs, and
no record left behind for the cyclic garbage collector."""

import dataclasses
import gc
import importlib
import inspect
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import DimensionMismatchError, PreconditionError, cli
from geninv.drazin import _analyse, _Analysis, _Derived, _once
from geninv.ensembles import KINDS, EnsembleSpec, gen
from geninv.exact import RMatrix, _ExactAnalysis, exact_inv
from geninv.verify import SUITE_IDS, run_suite, solution_family, verify_system

from conftest import random_complex

SQUARE_ONLY = (gi.index, gi.drazin, gi.is_core_ep, gi.hs_decompose)
EYE = np.eye(3, dtype=complex)
# every public function that takes a matrix, called on it alone or with the
# identity as its other operand
GUARDED = {
    "cmatrix": gi.cmatrix, "svd": gi.svd, "pinv": gi.pinv, "pinv_scaled": lambda a: gi.pinv_scaled(a, 1.0),
    "numerical_rank": gi.numerical_rank, "rank_scaled": lambda a: gi.rank_scaled(a, 1.0),
    "hs_decompose": gi.hs_decompose, "index": gi.index, "drazin": gi.drazin,
    "group_inverse": gi.group_inverse, "core_nilpotent": gi.core_nilpotent,
    "projectors": gi.projectors, "spectral_projector": gi.spectral_projector, "dmp": gi.dmp,
    "mpd": gi.mpd, "cmp_inverse": gi.cmp_inverse, "mpdmp": gi.mpdmp,
    "core_ep_inverse": gi.core_ep_inverse, "cce_inverse": gi.cce_inverse,
    "mpdmp_pinv": gi.mpdmp_pinv, "greville_forms": gi.greville_forms,
    "inverse_report": gi.inverse_report, "is_ep": gi.is_ep, "is_core_ep": gi.is_core_ep,
    "is_k_ep": gi.is_k_ep, "core_ep_equiv_report": gi.core_ep_equiv_report,
    "wqrt_criterion": gi.wqrt_criterion, "core_upper_bound_check": gi.core_upper_bound_check,
    "leq": lambda a: gi.leq(a, EYE, gi.OrderKind.DMP),
    "leq_b": lambda b: gi.leq(EYE, b, gi.OrderKind.DMP),
    "dmp_order": lambda a: gi.dmp_order_characterizations(a, EYE),
    "dmp_order_b": lambda b: gi.dmp_order_characterizations(EYE, b),
    "mpd_order": lambda a: gi.mpd_order_characterizations(a, EYE),
    "mpd_order_b": lambda b: gi.mpd_order_characterizations(EYE, b),
    "verify_system": lambda a: gi.verify_system(a, gi.SYSTEM_IDS[0]),
    "solution_family": lambda a: gi.solution_family(a, EYE, "q1"),
    "solution_family_f": lambda f: gi.solution_family(EYE, f, "q1"),
}


@pytest.mark.parametrize("func", GUARDED.values(), ids=GUARDED)
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, complex(0, -np.inf),
                                 complex(1, np.nan)))
def test_non_finite_entry_rejected(func, bad):
    a = EYE.copy()
    a[1, 2] = bad
    with pytest.raises(PreconditionError):
        func(a)


@pytest.mark.parametrize("values_only", (False, True))
def test_overflowing_power_is_named_not_the_input(values_only):
    # B = 0.9 J, J the 100 x 100 matrix of ones, is finite, but B^160 =
    # 0.9^160 100^159 J overflows float64: the error names that power
    rec = _analyse(0.9 * np.ones((100, 100)), gi.DEFAULT_TOL, values_only=values_only)
    want = "^power 160 of the matrix, scaled to parts below 1, overflows float64$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PreconditionError, match=want):
            rec._rank_of_power(160)
        if not values_only:
            with pytest.raises(PreconditionError, match=want):
                rec.power_pinv(160)
    assert rec._rank_of_power(2) == 1


@pytest.mark.parametrize("func", SQUARE_ONLY)
def test_non_square_rejected(func):
    with pytest.raises(DimensionMismatchError):
        func(np.ones((2, 3), dtype=complex))


def test_pinv_takes_rectangular():
    assert gi.pinv(np.ones((2, 3), dtype=complex)).shape == (3, 2)


@pytest.mark.parametrize("func", GUARDED.values(), ids=GUARDED)
@pytest.mark.parametrize("shape", ((), (3,), (2, 2, 2)))
def test_non_matrix_rejected(func, shape):
    want = f"^2-D matrix required, got ndim={len(shape)}$"
    with pytest.raises(DimensionMismatchError, match=want):
        func(np.ones(shape))


# every public function of a factorization h, reached through `hs_reconstruct`
OF_FACTORIZATION = {f.__name__: f for f in (
    gi.hs_reconstruct, gi.hs_derived, gi.core_ep_block_conditions, gi.cmp_ep_criterion,
    gi.mpdmp_ep_criterion, gi.cce_ep_criterion, gi.mpdmp_ep_consequences,
    gi.dmp_pinv_commute_criterion)}


FACTOR_NAMES = {"u": "U", "sigma": "Sigma", "q": "Q", "p": "P"}


@pytest.mark.parametrize("func", OF_FACTORIZATION.values(), ids=OF_FACTORIZATION)
@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("part", ("u", "q", "p", "sigma"))
def test_non_finite_factor_named(func, bad, part, a1):
    # the factorization comes from the caller: its bad entry is not an
    # overflow, but for an infinite Sigma, which carries the matrix's scale
    h = gi.hs_decompose(a1)
    x = getattr(h, part).copy()
    x.flat[0] = bad
    want = (f"^{FACTOR_NAMES[part]} of the factorization has a non-finite entry$"
            if part != "sigma" or np.isnan(bad) else "^Sigma of the factorization overflows")
    with pytest.raises(PreconditionError, match=want):
        func(dataclasses.replace(h, **{part: x}))


@pytest.mark.parametrize("func", OF_FACTORIZATION.values(), ids=OF_FACTORIZATION)
@pytest.mark.parametrize("change, part", (
    (lambda h: {"r": 1}, "Sigma"), (lambda h: {"sigma": h.sigma[:1]}, "Sigma"),
    (lambda h: {"u": h.u[:2]}, "U"), (lambda h: {"q": h.q[:1]}, "Q"),
    (lambda h: {"p": h.p.T}, "P")), ids=("r", "sigma", "u", "q", "p"))
def test_factor_shape_disagreeing_with_r_named(func, change, part, a1):
    # U is n x n, Sigma holds r values, Q is r x r and P is r x (n - r)
    h = gi.hs_decompose(a1)
    with pytest.raises(DimensionMismatchError, match=f"^{part} of the factorization is "):
        func(dataclasses.replace(h, **change(h)))


# the library modules whose `__all__` the package re-exports
LIBRARY = ("kernel", "factor", "drazin", "inverses", "classify", "orders", "ensembles", "verify")
# public functions the guard tests above do not call on a bad matrix: the
# kernel's arithmetic helpers take any array, and these take specifications
ANY_ARRAY = {"approx_eq", "conj_transpose", "diff_norm", "eq_scale", "fro_norm", "mat_pow",
             "matmul"}
TAKES_A_SPEC = {"gen", "idempotent_core_samples", "run_suite"}


def test_package_reexports_each_library_modules_all():
    for name in LIBRARY:
        module = importlib.import_module(f"geninv.{name}")
        assert all(getattr(gi, x) is getattr(module, x) for x in module.__all__), name


def _public_functions() -> set:
    return {x for name in LIBRARY for x in importlib.import_module(f"geninv.{name}").__all__
            if inspect.isfunction(getattr(gi, x))}


def test_every_public_function_meets_a_guard_test():
    public = _public_functions()
    # a lambda of GUARDED tests the function it calls
    called = set().union(*(f.__code__.co_names for f in GUARDED.values()
                           if f.__name__ == "<lambda>"))
    excluded = ANY_ARRAY | TAKES_A_SPEC | set(OF_FACTORIZATION)
    assert public - set(GUARDED) - called - excluded == set()
    assert excluded <= public and not excluded & set(GUARDED)


# aim 3's scaling law: each public function of one matrix, by the power k
# of 2^e that its result is multiplied by when the matrix is: every matrix
# of the result scales by 2^(k e), and a rank, index or verdict is unchanged
SCALING = {
    "pinv": -1, "numerical_rank": 0, "index": 0, "drazin": -1, "group_inverse": -1,
    "dmp": -1, "mpd": -1, "cmp_inverse": -1, "core_ep_inverse": -1, "cce_inverse": -1,
    "greville_forms": -1, "mpdmp": -3, "mpdmp_pinv": 3, "is_ep": 0, "is_core_ep": 0,
    "is_k_ep": 0, "spectral_projector": 0, "projectors": 0, "wqrt_criterion": 0,
    "core_nilpotent": 1, "cmatrix": 1,
}
# public functions the scaling table leaves out: those of a matrix and a
# second operand or reference, and those whose result is a factorization
# or a report rather than one matrix, rank or verdict
TWO_OPERANDS = {"leq", "dmp_order_characterizations", "mpd_order_characterizations",
                "solution_family", "pinv_scaled", "rank_scaled"}
FACTORS_AND_REPORTS = {"svd", "hs_decompose", "inverse_report", "core_ep_equiv_report",
                       "core_upper_bound_check", "verify_system"}


def _scaled(x, k: int):
    """x times 2^k as comparable data: each matrix as its shape and the bytes
    of its parts, each scaled exactly; each part of a tuple or dataclass in
    turn; a rank, index or verdict as itself."""
    if isinstance(x, np.ndarray):
        return x.shape, np.ldexp(np.ascontiguousarray(x).view(np.float64), k).tobytes()
    if dataclasses.is_dataclass(x):
        x = tuple(getattr(x, f.name) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(_scaled(y, k) for y in x)
    return x


def _scaling_outcome(func, a, k: int):
    """func(a) times 2^k (`_scaled`), or the error it raises."""
    try:
        return _scaled(func(a), k)
    except gi.IndexTooLargeError as exc:
        return repr(exc)


@pytest.mark.parametrize("name", SCALING)
@pytest.mark.parametrize("e", (40, -40, 300, -300))
def test_result_scales_by_its_power_of_two(name, e, a1):
    func, degree = getattr(gi, name), SCALING[name]
    samples = [a1] + [gen(EnsembleSpec(4, 1, 7, kind, **param))[0] for kind, param in
                      (("core_ep", {}), ("fixed_index", {"index": 1}),
                       ("fixed_index", {"index": 2}), ("generic", {}))]
    for i, a in enumerate(samples):
        assert (_scaling_outcome(func, 2.0 ** e * a, 0)
                == _scaling_outcome(func, a, degree * e)), (name, i)


def test_every_public_function_of_one_matrix_has_a_scaling_law():
    public = _public_functions()
    excluded = (ANY_ARRAY | TAKES_A_SPEC | set(OF_FACTORIZATION) | TWO_OPERANDS
                | FACTORS_AND_REPORTS)
    assert public - set(SCALING) - excluded == set()
    assert excluded <= public and not excluded & set(SCALING)


# two more laws, by part of the record: under a unitary similarity
# A -> Q A Q* each matrix part X becomes Q X Q* and a rank, index or
# verdict is unchanged; under the adjoint, X(A*) = X'(A)* for the dual X'
# named here (a rank, index or verdict is unchanged). The core-EP and CCE
# inverses of A* are no part of A's record (the dual core-EP inverse is
# not computed): their dual is None, a named exclusion of the adjoint law.
LAWS = {"rank": "rank", "index": "index", "core": "core", "mpdmp": "mpdmp", "pinv": "pinv",
        "drazin": "drazin", "dmp": "mpd", "mpd": "dmp", "cmp": "cmp", "core_ep": None,
        "cce": None, "is_ep": "is_ep", "is_core_ep": "is_core_ep", "is_k_ep": "is_k_ep"}


def _cayley(rng, n: int) -> RMatrix:
    """The unitary Q = (I - S)(I + S)^-1 of a skew-Hermitian S = M - M*, M
    with Gaussian-integer entries of parts in [-1, 1]."""
    m = rng.integers(-1, 2, (n, n)) + 1j * rng.integers(-1, 2, (n, n))
    s, eye = RMatrix(m - m.conj().T), RMatrix.identity(n)
    return (eye - s) @ exact_inv(eye + s)


def _law_inputs(n: int) -> tuple:
    """A fixed Cayley unitary and 15 matrices at size n: five integer ones
    in [-3, 3], five singular ones (a product through size n - 1 or n - 2)
    and five core-EP ones Q' ((C + 4I) ⊕ T J_k T^-1) Q'*, each with its own
    Cayley Q', C integer in [-3, 3], J_k the k x k nilpotent Jordan block
    and T unit upper triangular, so of index k in [1, n - 1]."""
    rng = np.random.default_rng(240 + n)
    out = [RMatrix(rng.integers(-3, 4, (n, n))) for _ in range(5)]
    for r in (n - 1, n - 2, n - 1, n - 2, n - 1):
        out.append(RMatrix(rng.integers(-2, 3, (n, r)) @ rng.integers(-2, 3, (r, n))))
    for k in (1 + j % (n - 1) for j in range(5)):
        block = np.zeros((n, n), dtype=int)
        block[:n - k, :n - k] = rng.integers(-3, 4, (n - k, n - k)) + 4 * np.eye(n - k, dtype=int)
        t = np.eye(k, dtype=int) + np.triu(rng.integers(-2, 3, (k, k)), 1)
        block[n - k:, n - k:] = t @ np.eye(k, k=1, dtype=int) @ np.round(np.linalg.inv(t))
        q = _cayley(rng, n)
        out.append(q @ RMatrix(block) @ q.conj_t())
    return _cayley(rng, n), out


def _similar(q: RMatrix, x):
    return q @ x @ q.conj_t() if isinstance(x, RMatrix) else x


def _adjoint(x):
    return x.conj_t() if isinstance(x, RMatrix) else x


# the inputs of `_law_inputs` by index, per size
LAW_INDICES = {3: {0: 4, 1: 9, 2: 2}, 4: {0: 4, 1: 8, 2: 2, 3: 1},
               5: {0: 5, 1: 7, 2: 1, 3: 1, 4: 1}, 6: {0: 5, 1: 6, 2: 1, 3: 1, 4: 1, 5: 1}}


@pytest.mark.parametrize("n", LAW_INDICES)
def test_exact_record_meets_the_similarity_and_adjoint_laws(n):
    # each law as equality of stored forms, with no tolerance: every other
    # exact test trusts this record
    q, inputs = _law_inputs(n)
    indices = Counter()
    for a in inputs:
        rec, similar, adjoint = (_ExactAnalysis(m) for m in (a, q @ a @ q.conj_t(), a.conj_t()))
        for name, dual in LAWS.items():
            assert getattr(similar, name) == _similar(q, getattr(rec, name)), name
            if dual is not None:
                assert getattr(adjoint, name) == _adjoint(getattr(rec, dual)), name
        indices[rec.index] += 1
    assert indices == LAW_INDICES[n]


def test_every_part_of_the_record_has_its_laws():
    assert set(LAWS) == set(PART_DEGREES) and set(LAWS.values()) - {None} <= set(LAWS)


def test_empty_matrix_accepted():
    # the block factorization writes P as r x 0 for a nonsingular matrix
    assert gi.pinv(np.zeros((2, 0), dtype=complex)).shape == (0, 2)


def _key(a):
    return repr(a.shape).encode() + a.tobytes()


def _recorded(monkeypatch, module, name, key, calls=None):
    """Calls of `name` from every geninv module, each recorded as key(args)
    in `calls` (a new list if None).

    The modules come from sys.modules: geninv.drazin is the function."""
    real = getattr(sys.modules[module], name)
    calls = [] if calls is None else calls

    def recording(*args, **kwargs):
        calls.append(key(*args))
        return real(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("geninv.") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.fixture
def full_svd_inputs(monkeypatch):
    """Every input of a full SVD (`factor.svd`), as shape plus bytes."""
    return _recorded(monkeypatch, "geninv.factor", "svd", lambda a, *_: _key(a))


@pytest.fixture
def svd_inputs(monkeypatch, full_svd_inputs):
    """Every SVD input, full or values-only (`factor._singular_values`), as
    shape plus bytes."""
    calls = _recorded(monkeypatch, "geninv.factor", "_singular_values", _key)
    return _recorded(monkeypatch, "geninv.factor", "svd", lambda a, *_: _key(a), calls)


@pytest.fixture
def power_inputs(monkeypatch):
    """Every matrix power formed, as (base shape plus bytes, exponent)."""
    return _recorded(monkeypatch, "geninv.kernel", "mat_pow", lambda a, k: (_key(a), k))


SINGLE_MATRIX = (
    "pinv", "numerical_rank", "index", "drazin", "core_nilpotent", "projectors",
    "spectral_projector", "dmp", "mpd", "cmp_inverse", "mpdmp", "core_ep_inverse",
    "cce_inverse", "mpdmp_pinv", "greville_forms", "inverse_report", "is_ep",
    "is_core_ep", "is_k_ep", "wqrt_criterion", "core_ep_equiv_report",
    "core_upper_bound_check", "hs_decompose",
)


# calls whose answer is a rank or an index, read from singular values alone
RANK_ONLY = ("numerical_rank", "index")


@pytest.mark.parametrize("name", SINGLE_MATRIX)
def test_each_svd_input_decomposed_once(name, a1, svd_inputs, full_svd_inputs):
    getattr(gi, name)(a1)
    assert svd_inputs
    assert len(svd_inputs) == len(set(svd_inputs))
    if name in RANK_ONLY:
        assert full_svd_inputs == []


class _CountedBytes(np.ndarray):
    """An array that counts the calls of its `tobytes` in `keyed`."""

    def tobytes(self, *args, **kwargs):
        self.keyed += 1
        return super().tobytes(*args, **kwargs)


def test_power_keyed_once_however_often_looked_up(a1):
    # each decomposition is looked up by its power j; the input key of B^j
    # (shape and bytes) is formed once, when B^j is first decomposed
    rec = _analyse(a1, gi.DEFAULT_TOL).unit
    square = rec._powers[2] = rec.power(2).view(_CountedBytes)
    square.keyed = 0
    rec._svd(2), rec._sigma(2)
    assert (rec.index, rec.drazin.shape) == (2, (3, 3))  # reads B^2 again
    assert rec._svd(2) is rec._svd(2) and square.keyed == 1
    assert len(rec._svds) == 3  # B, B^2 and B^3


def test_inverse_report_svd_calls_at_most_index_plus_one(a1, svd_inputs):
    # A and the powers B^2 ... B^(k+1) of the index search; A^D and the
    # core-EP inverse need no other
    rep = gi.inverse_report(a1)
    assert rep.index == 2
    assert len(svd_inputs) <= rep.index + 1


CLI_RUNS = [["compute", "--which", w] for w in
            ("mp", "group", "drazin", "dmp", "mpd", "cmp", "mpdmp", "core-ep", "cce")]
CLI_RUNS += [["classify"], ["order", "--relation", "all"], ["hs"]]


def _run_cli(argv, a1, b3, tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    cli.save_matrix(str(a_path), a1)
    cli.save_matrix(str(b_path), b3)
    if argv[0] == "order":
        argv = argv + ["--a", str(a_path), "--b", str(b_path)]
    elif argv[0] == "hs":
        argv = argv + ["-i", str(a_path), "-o", str(tmp_path / "hs")]
    else:
        argv = argv + ["-i", str(a_path)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == (3 if "group" in argv else 0)
    if code == 0:
        json.loads(out.getvalue())


def _ep_singular():
    u = np.linalg.qr(random_complex(np.random.default_rng(3), 4, 4))[0]
    return u @ np.diag([2.0, 1 + 1j, 0.5j, 0.0]) @ u.conj().T


# `hs` reads qhat, sigma_tilde and qtilde from the CMP, MPDMP and CCE
# inverses in the record of A; blocks equal up to a power of two share one
# decomposition, as all three zero blocks do when SQ is nilpotent, and
# qhat = qtilde in value, not bit for bit, when SQ is nonsingular (as for
# every EP matrix): no SVD input repeats
CLI_CASES = {" ".join(argv): (argv, None) for argv in CLI_RUNS}
CLI_CASES.update({
    "hs ep": (["hs"], _ep_singular()),
    "hs nonsingular": (["hs"], random_complex(np.random.default_rng(4), 4, 4) + 3 * np.eye(4)),
    "hs nilpotent": (["hs"], np.array([[0, 1, 2], [0, 0, 1j], [0, 0, 0]])),
})


@pytest.mark.parametrize("argv, matrix", CLI_CASES.values(), ids=CLI_CASES)
def test_cli_decomposes_each_svd_input_once(argv, matrix, a1, b3, tmp_path, svd_inputs):
    _run_cli(argv, a1 if matrix is None else matrix, b3, tmp_path)
    assert svd_inputs
    assert len(svd_inputs) == len(set(svd_inputs))


def test_classify_decomposes_only_powers_of_b(a1, b3, tmp_path, svd_inputs):
    # the block conditions read (SQ)^D from the record of B = 2^-e A, so
    # `classify` decomposes B, B^2 and B^3 of the index search (a1 has
    # index 2) and no block of the factorization
    _run_cli(["classify"], a1, b3, tmp_path)
    b = _analyse(a1, gi.DEFAULT_TOL).unit.a
    assert svd_inputs == [_key(np.linalg.matrix_power(b, j)) for j in (1, 2, 3)]


POWER_CALLS = {
    "inverse_report": gi.inverse_report,
    "core_ep_equiv_report": gi.core_ep_equiv_report,
    "verify_system_a101": lambda a: verify_system(a, "a101"),
}


@pytest.mark.parametrize("name", POWER_CALLS)
def test_each_power_formed_once(name, a1, power_inputs):
    POWER_CALLS[name](a1)
    assert power_inputs
    assert len(power_inputs) == len(set(power_inputs))


@pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: " ".join(argv))
def test_cli_forms_each_power_once(argv, a1, b3, tmp_path, power_inputs):
    _run_cli(argv, a1, b3, tmp_path)
    assert len(power_inputs) == len(set(power_inputs))


def test_drazin_power_of_core_ep_formed_once_at_any_scale(a1, power_inputs):
    # A^D is 2^-e B^D (here B = 2^-42 A), so C^(k+1), C the core-EP inverse
    # of B, is formed on the record of B only
    r = _analyse(2.0 ** 40 * a1, gi.DEFAULT_TOL)
    d = r.drazin
    assert np.array_equal(d, 2.0 ** -42 * r.unit.drazin)
    assert r.index == 2
    assert power_inputs.count((_key(r.unit.core_ep), 3)) == 1


# Each part of the record and the power of 2^e it scales by, A = 2^e B.
PART_DEGREES = {"rank": 0, "index": 0, "core": 1, "mpdmp": -3, "pinv": -1, "drazin": -1,
                "dmp": -1, "mpd": -1, "cmp": -1, "core_ep": -1, "cce": -1,
                "is_ep": 0, "is_core_ep": 0, "is_k_ep": 0}


@pytest.mark.parametrize("e", (2, 40, -40, 300, -300))
@pytest.mark.parametrize("kind", ("a1", "core_ep", "nilpotent"))
def test_record_of_a_reads_every_part_scaled_from_b(kind, e, a1):
    m = a1 / 4 if kind == "a1" else gi.gen(EnsembleSpec(4, 1, 3, kind))[0]
    rec = _analyse(2.0 ** e * m, gi.DEFAULT_TOL)
    b, f = rec.unit, 2.0 ** rec._exp
    assert rec._exp != 0 and b.unit is b
    for name, degree in PART_DEGREES.items():
        assert np.array_equal(getattr(rec, name), getattr(b, name) * f ** degree), name
    for j in (0, 1, 2):
        assert np.array_equal(rec.power(j), b.power(j) * f ** j)
    assert rec.hs.u is b.hs.u and rec.hs.r == b.hs.r
    assert np.array_equal(rec.hs.q, b.hs.q) and np.array_equal(rec.hs.p, b.hs.p)
    assert np.array_equal(rec.hs.sigma, b.hs.sigma * f)
    assert rec._svds == {} and rec._powers == {} and rec._pinvs == {} and rec._ranks == {}


def test_a_part_read_on_the_class_is_its_descriptor():
    # help() and other readers of the class find each part with its docstring
    for cls, name, doc in ((_Derived, "index", "The least k with rank(A^k)"),
                           (_Analysis, "hs", "U [[SQ, SP], [0, 0]] U*")):
        part = getattr(cls, name)
        assert isinstance(part, _once) and part is cls.__dict__[name]
        assert part.__doc__.startswith(doc)


@pytest.mark.parametrize("build", (lambda a: _analyse(8 * a, gi.DEFAULT_TOL),
                                   lambda a: _ExactAnalysis(RMatrix(a.real.astype(int)))),
                         ids=("float", "exact"))
def test_record_compares_and_hashes_by_identity(build, a1):
    # a record is a per-call cache, not a value: two records of one matrix
    # are two objects, and each is its own key (the float one's unit, of
    # B = a1 / 4, is a third)
    rec, other = build(a1), build(a1)
    assert rec == rec and rec.unit == rec.unit and rec != other
    assert len({rec, rec.unit, other}) == (2 if rec.unit is rec else 3)


def test_no_record_outlives_its_call(a1):
    # a record that refers to itself stays alive, with its SVDs, powers
    # and inverses, until the cyclic collector runs; a1 / 4 is its own B
    gc.collect()
    gc.disable()
    try:
        for suite in SUITE_IDS:
            run_suite(suite, EnsembleSpec(4, 2, 0, "fixed_index", index=2))
        for a in (a1, a1 / 4):
            gi.drazin(a)
            gi.inverse_report(a)
            gi.core_ep_equiv_report(a)
        alive = sum(isinstance(o, _Analysis) for o in gc.get_objects())
    finally:
        gc.enable()
    assert alive == 0


@pytest.mark.parametrize("name", ("index", "drazin", "core_ep_inverse", "inverse_report"))
def test_nonsingular_input_decomposes_only_itself(name, rng, svd_inputs, full_svd_inputs):
    a = random_complex(rng, 6, 6) + 3 * np.eye(6)
    getattr(gi, name)(a)
    assert len(svd_inputs) == 1
    if name in RANK_ONLY:
        assert full_svd_inputs == []


def test_rank_scaled_decomposes_for_values_alone(a1, svd_inputs, full_svd_inputs):
    assert gi.rank_scaled(a1, 8.0) == 2
    assert svd_inputs == [_key(a1 / 4)]
    assert full_svd_inputs == []


def test_rank_zero_power_ends_the_index_search(svd_inputs, full_svd_inputs):
    # the ranks of B ... B^5 fall from 5 to 1 and B^6 has rank 0, so B^7
    # is not decomposed
    for a in gen(EnsembleSpec(6, 3, 0, "nilpotent")):
        svd_inputs.clear()
        assert gi.index(a) == 6
        b = _analyse(a, gi.DEFAULT_TOL).unit
        assert svd_inputs == [_key(b.power(j)) for j in range(1, 7)]
    assert full_svd_inputs == []


def test_index_search_ends_at_n_when_ranks_never_settle():
    # float rank reads need not decrease: with ranks 3, 2, 3, 2, 3 for
    # A ... A^5 of a 4 x 4 matrix the search reads A^(n+1) last and returns n
    class Ranks(_Derived):
        _exp = 0
        a = np.zeros((4, 4))

        def __init__(self):
            self.reads = []

        def _rank_of_power(self, j):
            self.reads.append(j)
            assert j <= 10, "the search has no bound"
            return 3 if j % 2 else 2

    rec = Ranks()
    assert rec.index == 4
    assert rec.reads == [1, 2, 3, 4, 5]


def _spec(n, count, seed, kind):
    return EnsembleSpec(n, count, seed, kind, rank=n // 2 if kind == "fixed_rank" else None,
                        index=min(2, n) if kind == "fixed_index" else None)


def _rank_only_matrices(source):
    if source == "prescribed_index":
        from test_exact import _prescribed_index_matrices

        return [a.astype(complex) for seed in range(5, 10)
                for a, _ in _prescribed_index_matrices(seed)]
    return [a for n in range(2, 17) for seed in range(3) for a in gen(_spec(n, 2, seed, source))]


@pytest.mark.parametrize("source", KINDS + ("prescribed_index",))
def test_rank_only_calls_agree_with_the_full_record(source):
    # values-only singular values differ from those of the full SVD by
    # rounding alone, which moves no rank or index read here
    tol = gi.DEFAULT_TOL
    for a in _rank_only_matrices(source):
        for e in (0, 40, -300):
            b, scale = 2.0 ** e * a, 2.0 ** (e + 30) * np.abs(a).max()
            rec = _analyse(b, tol)
            assert gi.index(b) == rec.index
            assert gi.numerical_rank(b) == rec.rank
            assert gi.rank_scaled(b, scale) == _analyse(b, tol, ref=scale).rank


@settings(max_examples=40, deadline=None)
@given(st.integers(-300, 300), st.sampled_from(KINDS), st.integers(2, 8), st.integers(0, 3))
def test_rank_only_calls_exact_under_power_of_two_scaling(e, kind, n, seed):
    a = gen(_spec(n, 1, seed, kind))[0]
    assert gi.index(2.0 ** e * a) == gi.index(a)
    assert gi.numerical_rank(2.0 ** e * a) == gi.numerical_rank(a)


@pytest.fixture
def record_calls(monkeypatch):
    """Calls the analysis record makes, counted by name: its rank decisions
    and inversions, and the SVDs and powers the drazin module forms."""
    drazin_module = sys.modules["geninv.drazin"]
    calls = dict.fromkeys(("_read_rank", "_invert_power", "svd", "mat_pow"), 0)
    for name in calls:
        owner = _Analysis if name.startswith("_") else drazin_module
        real = getattr(owner, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("e", (0, 2, 40, -40, 300, -300))
def test_spectral_work_done_once_at_any_scale(a1, e, record_calls):
    # the index search, A^⊕ and A^D run on the record of B = a1 / 4 only:
    # ranks of B, B^2 and B^3, pinvs of B and B^3, SVDs of B, B^2 and B^3,
    # and powers B^2, B^3 and C^3, C the core-EP inverse of B (k = 2); B^1
    # is B itself, and its rank the one the index search starts from
    rep = gi.inverse_report(2.0 ** e * a1 / 4)
    assert rep.index == 2
    assert record_calls == {"_read_rank": 3, "_invert_power": 2, "svd": 3, "mat_pow": 3}


NONSINGULAR = {
    "gaussian": random_complex(np.random.default_rng(7), 4, 4) + 3 * np.eye(4),
    "diagonal": np.diag([0.75, -2.0, 1j, 0.5]).astype(complex),
    "permutation": np.eye(4, dtype=complex)[[2, 0, 3, 1]],
    "triangular": np.triu(np.ones((4, 4), dtype=complex)),
}


@pytest.mark.parametrize("e", (0, 40, -40, 300, -300))
@pytest.mark.parametrize("name", NONSINGULAR)
def test_nonsingular_spectral_work(name, e, record_calls):
    # one SVD, whose rank ends the index search at 0 and whose pinv is
    # (B^1)^+; A^⊕ = B^0 (B^1)^+ and A^D = C^1 B^0 keep their general
    # forms, whose products with I fix the signs of zeros; B^0 is formed as
    # I by np.eye, so the one power `mat_pow` forms is C^1
    rep = gi.inverse_report(2.0 ** e * NONSINGULAR[name])
    assert (rep.index, rep.rank) == (0, 4)
    assert record_calls == {"_read_rank": 1, "_invert_power": 1, "svd": 1, "mat_pow": 1}


def test_suites_spectral_work(record_calls):
    # five records of 6x6 nilpotent matrices end their index search at the
    # rank-0 power B^6, and their core-EP inverse reads the rank of B^7 from
    # the SVD its pseudoinverse takes; every pseudoinverse reads the rank it
    # keeps, also in the 30 records that read no other rank (10 each of the
    # DMP inverse in five_way_mp and in cce_conditional, and of CMP); no
    # record of the core block SQ is built; a record that evaluates a row
    # with I forms it once, as B^0, by np.eye, not by `mat_pow`
    for suite in SUITE_IDS:
        run_suite(suite, EnsembleSpec(6, 10, 0, "fixed_index", index=2))
    assert record_calls == {"_read_rank": 412, "_invert_power": 270, "svd": 412, "mat_pow": 382}


@pytest.mark.parametrize("suite", ("core_ep_equiv", "core_ep_collapse", "six_part"))
@pytest.mark.parametrize("kind", ("core_ep", "fixed_index"))
def test_core_ep_verdict_evaluated_once_per_sample(suite, kind, monkeypatch):
    # the core_ep class check of a sample, the skip rule and each of the
    # seven core_ep_equiv rows all ask for the verdict, a part of the record,
    # which is evaluated on the record of B and read from there on that of A
    verdict = vars(sys.modules["geninv.drazin"]._Derived)["is_core_ep"]
    calls, real = [], verdict.compute

    def counting(rec):
        if not rec._exp:
            calls.append(rec)
        return real(rec)

    monkeypatch.setattr(verdict, "compute", counting)
    rep = run_suite(suite, EnsembleSpec(5, 4, 3, kind, index=2 if kind == "fixed_index" else None))
    assert len(calls) == rep.samples == 4


SECOND_OPERAND = {
    "leq": lambda a, b: gi.leq(a, b, "dmp"),
    "dmp_order_characterizations": gi.dmp_order_characterizations,
    "solution_family": lambda a, b: solution_family(a, b, "q1"),
}


@pytest.mark.parametrize("name", SECOND_OPERAND)
def test_second_operand_builds_no_record(name, a1, b3, monkeypatch):
    # the second operand goes through the input guard and the size check
    # as an array: the records built are those of a1 and of a1 / 4
    built = []
    real_init = _Analysis.__init__

    def recording(self, a, *args, **kwargs):
        built.append(a)
        real_init(self, a, *args, **kwargs)

    monkeypatch.setattr(_Analysis, "__init__", recording)
    SECOND_OPERAND[name](a1, b3)
    assert [m.tobytes() for m in built] == [a1.tobytes(), (a1 / 4).tobytes()]


@pytest.mark.parametrize("name", SECOND_OPERAND)
def test_second_operand_not_a_matrix_rejected(name, a1):
    with pytest.raises(DimensionMismatchError):
        SECOND_OPERAND[name](a1, np.ones(3))
