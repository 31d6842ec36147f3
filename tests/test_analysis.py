"""One analysis per matrix: the input guard, SVD calls counted against
distinct SVD inputs and powers against distinct (base, exponent) pairs, and
no record left behind for the cyclic garbage collector."""

import gc
import io
import json
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import geninv as gi
from geninv import DimensionMismatchError, PreconditionError, cli
from geninv.drazin import _analyse, _Analysis
from geninv.ensembles import EnsembleSpec
from geninv.verify import SUITE_IDS, run_suite, solution_family, verify_system

from conftest import random_complex

SQUARE_ONLY = (gi.index, gi.drazin, gi.is_core_ep, gi.hs_decompose)


@pytest.mark.parametrize("func", (gi.pinv,) + SQUARE_ONLY)
@pytest.mark.parametrize("bad", (np.nan, np.inf, complex(0, -np.inf)))
def test_non_finite_entry_rejected(func, bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(PreconditionError):
        func(a)


@pytest.mark.parametrize("func", SQUARE_ONLY)
def test_non_square_rejected(func):
    with pytest.raises(DimensionMismatchError):
        func(np.ones((2, 3), dtype=complex))


def test_pinv_takes_rectangular():
    assert gi.pinv(np.ones((2, 3), dtype=complex)).shape == (3, 2)


@pytest.mark.parametrize("func", (gi.pinv, gi.numerical_rank, gi.drazin, gi.index))
@pytest.mark.parametrize("shape", ((), (3,), (2, 2, 2)))
def test_non_matrix_rejected(func, shape):
    with pytest.raises(DimensionMismatchError):
        func(np.ones(shape))


def test_empty_matrix_accepted():
    # the block factorization writes P as r x 0 for a nonsingular matrix
    assert gi.pinv(np.zeros((2, 0), dtype=complex)).shape == (0, 2)


def _key(a):
    return repr(a.shape).encode() + a.tobytes()


def _recorded(monkeypatch, module, name, key):
    """Calls of `name` from every geninv module, each recorded as key(args).

    The modules come from sys.modules: geninv.drazin is the function."""
    real = getattr(sys.modules[module], name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(key(*args))
        return real(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("geninv.") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.fixture
def svd_inputs(monkeypatch):
    """Every SVD input, as shape plus bytes."""
    return _recorded(monkeypatch, "geninv.factor", "svd", lambda a, *_: _key(a))


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


@pytest.mark.parametrize("name", SINGLE_MATRIX)
def test_each_svd_input_decomposed_once(name, a1, svd_inputs):
    getattr(gi, name)(a1)
    assert svd_inputs
    assert len(svd_inputs) == len(set(svd_inputs))


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


@pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: " ".join(argv))
def test_cli_decomposes_each_svd_input_once(argv, a1, b3, tmp_path, svd_inputs):
    _run_cli(argv, a1, b3, tmp_path)
    assert svd_inputs
    assert len(svd_inputs) == len(set(svd_inputs))


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


def test_record_of_b_shares_powers_and_svds(a1):
    rec = _analyse(a1, gi.DEFAULT_TOL)
    assert rec.unit is not rec and rec.unit.unit is rec.unit
    assert rec.unit._powers is rec._powers and rec.unit._svds is rec._svds
    assert np.array_equal(rec.power(2), 16 * rec.unit.power(2))
    assert rec.factors.u is rec.unit.factors.u
    assert np.array_equal(rec.factors.s, 4 * rec.unit.factors.s)


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
def test_nonsingular_input_decomposes_only_itself(name, rng, svd_inputs):
    a = random_complex(rng, 6, 6) + 3 * np.eye(6)
    getattr(gi, name)(a)
    assert len(svd_inputs) == 1


@pytest.fixture
def record_calls(monkeypatch):
    """Calls the analysis record makes, counted by function name."""
    drazin_module = sys.modules["geninv.drazin"]
    calls = dict.fromkeys(("_rank_from", "_pinv_from", "svd", "mat_pow"), 0)
    for name in calls:
        real = getattr(drazin_module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(drazin_module, name, counting)
    return calls


@pytest.mark.parametrize("e", (0, 2, 40, -40, 300, -300))
def test_spectral_work_done_once_at_any_scale(a1, e, record_calls):
    # the index search, A^⊕ and A^D run on the record of B = a1 / 4 only:
    # ranks of B, B^2, B^3 and A, pinvs of A and B^3, SVDs of B, B^2, B^3,
    # and powers B, B^2, B^3 and C^3, C the core-EP inverse of B (k = 2)
    rep = gi.inverse_report(2.0 ** e * a1 / 4)
    assert rep.index == 2
    assert record_calls == {"_rank_from": 4, "_pinv_from": 2, "svd": 3, "mat_pow": 4}


def test_suites_spectral_work(record_calls):
    for suite in SUITE_IDS:
        run_suite(suite, EnsembleSpec(6, 10, 0, "fixed_index", index=2))
    assert record_calls == {"_rank_from": 442, "_pinv_from": 301, "svd": 452, "mat_pow": 562}


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
