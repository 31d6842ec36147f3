import itertools
import warnings

import numpy as np
import pytest

from geninv import (
    DimensionMismatchError,
    InternalCheckError,
    PreconditionError,
    UnknownSuiteError,
    UnknownSystemError,
    approx_eq,
    cmatrix,
    dmp_pinv_commute_criterion,
    mpd,
    pinv,
    core_nilpotent,
    fro_norm,
)
from geninv.cli import _RESIDUALS
from geninv.drazin import _analyse
from geninv.ensembles import KINDS, EnsembleSpec, InvalidSpecError, _records, gen
from geninv.factor import _block
from geninv.kernel import DEFAULT_TOL, _check
from geninv.verify import (
    SUITE_IDS,
    SYSTEM_IDS,
    _SUITES,
    _SYSTEMS,
    _dmp_pinv_commutes,
    run_suite,
    solution_family,
    verify_system,
)

from conftest import random_complex

NON_CONDITIONAL_SYSTEMS = [s for s in SYSTEM_IDS if s != "kj43"]


@pytest.mark.parametrize("system", NON_CONDITIONAL_SYSTEMS)
def test_designated_solutions_and_refutations(system, a1, a2, a3):
    for a in (a1, a2, a3):
        rep = verify_system(a, system, seed=17)
        assert rep.failures == 0, rep.breakdown
        eq_residuals = [v["worst_residual"] for k, v in rep.breakdown.items()
                        if k != "perturbation_refutation"]
        assert max(eq_residuals) <= 1e-9
        assert rep.breakdown["perturbation_refutation"]["worst_residual"] > 1e-4
        assert rep.breakdown["perturbation_refutation"]["samples"] == 10


def test_perturbation_that_breaks_no_equation_is_a_failure(a1):
    # with min_violation = inf no perturbation refutes the solution: all 10
    # are failures, and the worst residual is the smallest of the violations,
    # recomputed here from the same draws on B = a1 / 4
    rep = verify_system(a1, "a2", seed=17, min_violation=np.inf)
    entry = rep.breakdown["perturbation_refutation"]
    assert (entry["samples"], entry["failures"], rep.failures) == (10, 10, 10)
    assert not rep.passed
    rec, (solution, eqs) = _analyse(a1 / 4, DEFAULT_TOL), _SYSTEMS["a2"]
    x, rng, violations = solution(rec), np.random.default_rng(17), []
    for _ in range(10):
        e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        xp = x + 1e-2 * (e / np.linalg.norm(e))
        violations.append(max(fro_norm(lhs - rhs) for lhs, rhs in
                              (sides(rec, xp) for _, sides in eqs)))
    assert entry["worst_residual"] == min(violations) == pytest.approx(4.93e-3, rel=1e-3)


def test_perturbation_whose_violation_is_nan_refutes_nothing(a1):
    # at step 1e160, x A^3 x overflows and its distance from x is NaN: no
    # equation is shown broken, so each perturbation is a failure
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_system(a1, "a1", seed=17, perturbations=3, step=1e160)
    assert rep.breakdown["perturbation_refutation"]["failures"] == 3 and not rep.passed


def test_overflowing_perturbation_warns_nothing_and_reports_nan(a1):
    # the same overflow leaks no numpy warning, and the NaN violations make
    # the worst residual NaN rather than the inf it starts from
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_system(a1, "a1", seed=17, perturbations=3, step=1e160)
    entry = rep.breakdown["perturbation_refutation"]
    assert entry["failures"] == 3 and np.isnan(entry["worst_residual"])


@pytest.mark.parametrize("name, value", (
    ("step", np.nan), ("step", np.inf), ("step", 0.0), ("step", -1e-2), ("step", True),
    ("min_violation", np.nan), ("perturbations", -1), ("perturbations", 2.0),
    ("perturbations", True), ("seed", -1), ("seed", 1.5), ("seed", False)))
def test_refutation_argument_that_would_pass_vacuously_or_crash_rejected(a1, name, value):
    with pytest.raises(ValueError, match=f"^{name} must"):
        verify_system(a1, "a2", **{name: value})


def test_no_perturbations_and_a_numpy_integer_seed_accepted(a1):
    rep = verify_system(a1, "a2", seed=np.int64(17), perturbations=0)
    assert rep.passed and "perturbation_refutation" not in rep.breakdown


def test_projector_system_requires_core_ep(a1):
    with pytest.raises(PreconditionError):
        verify_system(a1, "kj43")


def test_projector_system_on_core_ep_samples():
    for a in gen(EnsembleSpec(size=5, count=5, seed=161, kind="core_ep")):
        rep = verify_system(a, "kj43", seed=17)
        assert rep.failures == 0
        assert rep.breakdown["perturbation_refutation"]["worst_residual"] > 1e-4


@pytest.mark.xfail(strict=True, reason="FOUND 29: the A^3 (A^+ A^D A^+) product carries the "
                   "cond^3 rounding of a matrix with cond 647, 1.23e-8 against 5.57e-9")
@pytest.mark.parametrize("e", (0, -20))
def test_projector_system_on_an_ill_conditioned_core_ep_matrix(e):
    rep = verify_system(2.0 ** e * gen(EnsembleSpec(5, 6, 11, "generic"))[3], "kj43")
    assert rep.breakdown["a3_x_eq_spectral_projector"]["failures"] == 0


def test_unknown_system(a1):
    with pytest.raises(UnknownSystemError):
        verify_system(a1, "nonsense")


def test_unknown_system_checked_before_the_matrix():
    with pytest.raises(UnknownSystemError):
        verify_system(np.ones((2, 3)), "nope")


def test_solution_family_zero_member(a1):
    zero = np.zeros((3, 3), dtype=complex)
    x = solution_family(a1, zero, "q1")
    assert approx_eq(x, mpd(a1))


def test_solution_family_random_members(a1, a3, rng):
    core1 = core_nilpotent(a1).core
    p1 = pinv(a1)
    for _ in range(10):
        f = random_complex(rng, 3, 3)
        x = solution_family(a1, f, "q1")
        assert approx_eq(x @ a1, p1 @ core1)
    core3 = core_nilpotent(a3).core
    p3 = pinv(a3)
    for _ in range(10):
        f = random_complex(rng, 3, 3)
        x = solution_family(a3, f, "q2")
        assert approx_eq(a3 @ x, core3 @ p3)


@pytest.mark.parametrize("which, label", (("q1", "xa_eq_mp_core"), ("q2", "ax_eq_core_mp")))
def test_solution_family_members_pass_the_cmp_rows(which, label, a1, a3, rng):
    # the family equation is the row `geninv compute --which cmp` reports
    sides = dict(_RESIDUALS["cmp"])[label]
    for a in (a1, a3, 2.0 ** 40 * a3):
        rec = _analyse(a, DEFAULT_TOL)
        for _ in range(5):
            x = solution_family(a, random_complex(rng, 3, 3) / fro_norm(a), which)
            assert _check(sides(rec, x), rec._compare)[0]


@pytest.mark.xfail(raises=InternalCheckError, strict=True,
                   reason="FOUND 26: the rounding of f (I - a a^+) a grows with |f| |a|, "
                   "the threshold only with |x a|")
@pytest.mark.parametrize("which", ("q1", "q2"))
def test_solution_family_member_of_a_large_f(a1, which):
    solution_family(a1, 1e10 * np.ones((3, 3)), which)


def test_solution_family_rejects_unknown_kind(a1):
    with pytest.raises(ValueError):
        solution_family(a1, np.zeros((3, 3), dtype=complex), "q9")


@pytest.mark.parametrize("which", ("q1", "q2"))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_solution_family_rejects_non_finite_f(a1, which, bad):
    f = np.zeros((3, 3), dtype=complex)
    f[0, 1] = bad
    with pytest.raises(PreconditionError):
        solution_family(a1, f, which)


def test_solution_family_rejects_size_mismatch(a1):
    with pytest.raises(DimensionMismatchError):
        solution_family(a1, np.zeros((2, 2), dtype=complex), "q1")


def test_system_report_does_not_depend_on_scale():
    # A^k formed from 2^300 A itself overflows; the system is evaluated on
    # B = 2^-e A, which is the same at both scales
    a = gen(EnsembleSpec(5, 6, 11, "core_ep"))[2]
    rep = verify_system(a, "a101", seed=17)
    assert rep.passed
    assert verify_system(2.0**300 * a, "a101", seed=17).to_dict() == rep.to_dict()


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nonsense", EnsembleSpec(size=3, count=2))


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_no_spec_is_an_invalid_spec(suite):
    # "ass" seeds its witnesses from the first spec; no suite reports zero
    # samples as passed
    with pytest.raises(InvalidSpecError):
        run_suite(suite, [])


SUITE_SPECS = {
    "core_ep_equiv": [EnsembleSpec(size=5, count=8, seed=31, kind="core_ep"),
                      EnsembleSpec(size=5, count=8, seed=32, kind="generic")],
    "core_ep_collapse": EnsembleSpec(size=4, count=10, seed=33, kind="core_ep"),
    "six_part": EnsembleSpec(size=4, count=8, seed=34, kind="core_ep"),
    "ass": [EnsembleSpec(size=4, count=6, seed=35, kind="generic"),
            EnsembleSpec(size=4, count=6, seed=36, kind="fixed_rank", rank=2)],
    "five_way_mp": [EnsembleSpec(size=4, count=6, seed=37, kind="generic"),
                    EnsembleSpec(size=4, count=6, seed=38, kind="ep"),
                    EnsembleSpec(size=4, count=6, seed=39, kind="fixed_index", index=2)],
    "five_way_core": [EnsembleSpec(size=4, count=6, seed=40, kind="generic"),
                      EnsembleSpec(size=4, count=6, seed=41, kind="fixed_rank", rank=2)],
    "commute_lemma": EnsembleSpec(size=5, count=10, seed=42, kind="generic"),
    "ew2": EnsembleSpec(size=5, count=10, seed=43, kind="generic"),
    "adf": EnsembleSpec(size=4, count=10, seed=44, kind="generic"),
    "orders_kep": EnsembleSpec(size=4, count=8, seed=45, kind="generic"),
    "cce_conditional": [EnsembleSpec(size=4, count=6, seed=46, kind="ep"),
                        EnsembleSpec(size=4, count=6, seed=47, kind="generic")],
}


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_suites_pass_on_their_ensembles(suite):
    rep = run_suite(suite, SUITE_SPECS[suite])
    assert rep.failures == 0, rep.breakdown
    assert rep.passed
    assert rep.samples > 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("suite", SUITE_IDS)
def test_every_suite_passes_on_every_kind_at_small_n(suite, kind):
    # at n = 2 every nilpotent and fixed_index sample, and some k_ep ones,
    # have A^2 = 0 != A, whose core block SQ is rounding noise; the suites
    # read the DMP inverse, 0 there, in its place, so dmp_pinv_commutes holds
    failed = {}
    for n in (1, 2, 3, 4, 6):
        for seed in (0, 1):
            spec = EnsembleSpec(n, 10, seed, kind, rank=1 if kind == "fixed_rank" else None,
                                index=min(2, n) if kind == "fixed_index" else None)
            rep = run_suite(suite, spec)
            if not rep.passed:
                failed[n, seed] = {k: v["failures"] for k, v in rep.breakdown.items()
                                   if v["failures"]}
    assert not failed


SUITE_BREAKDOWNS = {
    "core_ep_equiv": [("defining_commutation", 16), ("mpdmp_is_drazin_cubed", 16),
                      ("mpdmp_dmp_is_drazin_fourth", 16),
                      ("mpdmp_commutes_with_matrix", 16),
                      ("mpdmp_commutes_with_core", 16),
                      ("mpdmp_commutes_with_drazin", 16),
                      ("mpdmp_drazin_is_dmp_fourth", 16)],
    "core_ep_collapse": [("dmp_eq_drazin", 10), ("mpd_eq_drazin", 10),
                         ("cmp_eq_drazin", 10), ("dmp_eq_mpd", 10),
                         ("mpdmp_dmp_iff_mpdmp_mpd", 10)],
    "six_part": [("mpd_commutes_matrix", 8), ("mpd_commutes_drazin", 8),
                 ("mpd_commutes_core", 8), ("mpdmp_commutes_mpd", 8),
                 ("core_eq_cmp_a2", 8), ("core_eq_mpd_a2", 8), ("core_eq_dmp_a2", 8),
                 ("qa_core_eq_core", 8), ("core_qa_eq_core", 8)],
    "ass": [("product_iff_idempotent_power", 24), ("idempotent_power_iff_range", 24)],
    "five_way_mp": [("dmp_pinv_commutes", 18), ("cmp_eq_mpd_a", 18), ("cmp_eq_a_dmp", 18),
                    ("cmp_eq_mpd_astar", 18), ("cmp_eq_astar_dmp", 18)],
    "five_way_core": [("dmp_core_commute_iff_null", 12),
                      ("mpd_core_commute_iff_range", 12),
                      ("core_fixed_by_dmp_iff_idempotent_power", 12),
                      ("core_fixed_by_mpd_iff_mp_fixes_power", 12),
                      ("core_fixed_by_cmp_iff_mp_fixes_power", 12)],
    "commute_lemma": [("drazin_mpd_eq_dmp_drazin", 10), ("drazin_mpd_eq_drazin_sq", 10),
                      ("dmp_drazin_eq_drazin_sq", 10)],
    "ew2": [("core_upper_bound_dmp", 10), ("core_upper_bound_mpd", 10),
            ("core_upper_bound_cmp", 10), ("core_upper_bound_drazin", 10)],
    "adf": [("dmp_characterizations_agree", 15), ("mpd_characterizations_agree", 15)],
    "orders_kep": [("four_relations_agree", 8)],
    "cce_conditional": [("qualified", 12), ("cmp_ep_iff_cce_commutes", 12)],
}


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_suite_breakdown_labels_pinned(suite):
    rep = run_suite(suite, SUITE_SPECS[suite])
    got = [(label, entry["samples"]) for label, entry in rep.breakdown.items()]
    assert got == SUITE_BREAKDOWNS[suite]


def test_suite_report_shape():
    rep = run_suite("ew2", EnsembleSpec(size=3, count=4, seed=1))
    d = rep.to_dict()
    assert d["suite"] == "ew2"
    assert d["samples"] == 4
    assert d["passed"] is True
    assert set(d["breakdown"]) == {f"core_upper_bound_{k}"
                                   for k in ("dmp", "mpd", "cmp", "drazin")}
    for entry in d["breakdown"].values():
        assert entry["samples"] == 4


def test_ass_suite_includes_idempotent_core_witnesses():
    spec = EnsembleSpec(size=4, count=5, seed=81, kind="generic")
    rep = run_suite("ass", spec)
    assert rep.samples == 10  # witnesses double the sample count
    assert rep.failures == 0


def test_cce_conditional_reports_qualified_count():
    rep = run_suite("cce_conditional",
                    [EnsembleSpec(size=4, count=6, seed=46, kind="ep"),
                     EnsembleSpec(size=4, count=6, seed=47, kind="generic")])
    assert rep.breakdown["qualified"]["samples"] >= 6


@pytest.mark.parametrize("suite, spec, note", (
    ("core_ep_collapse", EnsembleSpec(5, 6, 0, "fixed_rank", rank=2), "not_core_ep_skipped"),
    ("five_way_mp", EnsembleSpec(4, 3, 0, "fixed_rank", rank=0), "zero_skipped")))
def test_skip_rule_notes_each_sample_and_judges_no_identity(suite, spec, note):
    rep = run_suite(suite, spec)
    assert rep.samples == spec.count and rep.passed
    assert [(label, e["samples"]) for label, e in rep.breakdown.items()] == [(note, spec.count)]


@pytest.mark.parametrize("e", (0, 40, -40, 300, -300))
def test_cce_hypothesis_skip(e):
    # index 2 and not core-EP, so (SQ)^CE != (SQ)^D; no ensemble kind draws
    # one. The skip is read on the record of 2^-e DMP, the same at any e
    a = np.array([[-1, -1, -1], [-1, -1, -1], [-1, 1, 0]], dtype=complex)
    rec = _analyse(2.0 ** e * a, DEFAULT_TOL)
    assert (rec.index, rec.is_core_ep) == (2, False)
    assert _SUITES["cce_conditional"].judge(rec) == "hypothesis_skipped"


def _block_subjects():
    """Every nonzero 3 x 3 0-1 matrix, and every kind at n = 1-12 (seeds 0
    and 1, 8 samples each), as records; zero samples are left out."""
    grids = (np.array(flat).reshape(3, 3) for flat in itertools.product((0, 1), repeat=9))
    recs = [_analyse(a.astype(complex), DEFAULT_TOL) for a in grids if a.any()]
    for kind in KINDS:
        for n in range(1, 13):
            for seed in (0, 1):
                spec = EnsembleSpec(n, 8, seed, kind, rank=1 if kind == "fixed_rank" else None,
                                    index=min(2, n) if kind == "fixed_index" else None)
                recs += [rec for rec in _records(spec, DEFAULT_TOL) if rec.rank]
    return recs


def test_block_statements_equal_their_dmp_forms():
    # The suites read the two block statements on SQ from the record of the
    # DMP inverse A^D A A^+ = U diag((SQ)^D, 0) U*, which rests on two
    # identities: A^D A (I - AA^+) = U [[0, (SQ)^D SP], [0, 0]] U*, and, for
    # any T of index k, T^CE = T^D P_R(T^k), which is T^D iff T^D is EP.
    # The paper's block forms stay public and read (SQ)^D = U1* A^D U1 and
    # (SQ)^CE = U1* A^CE U1 from the record of A, U1 the first r columns of
    # U, and qhat, sigma_tilde and qtilde as V1* X U1, X the CMP, MPDMP and
    # CCE inverse, V1* = [Q P] U*; each must give the same answer as its
    # product form, Q (SQ)^D, Q ((SQ)^D)^3 and Q (SQ)^CE
    subjects, hypothesis_fails, block_fails = _block_subjects(), 0, 0
    for rec in subjects:
        h = rec.hs
        assert dmp_pinv_commute_criterion(h) == _dmp_pinv_commutes(rec)[0], rec.a
        u1 = h.u[:, : h.r]
        core_ce, core_d = u1.conj().T @ rec.core_ep @ u1, _block(h, rec, "drazin")
        fails = not rec._compare(core_ce, core_d)[0]
        assert fails == (not rec._of(rec.dmp).is_ep), rec.a
        hypothesis_fails += fails
        products = (h.q @ core_d, h.q @ core_d @ core_d @ core_d, h.q @ core_ce)
        block_fails += not all(rec._compare(_block(h, rec, part), x)[0]
                               for part, x in zip(("cmp", "mpdmp", "cce"), products))
    assert (len(subjects), hypothesis_fails, block_fails) == (2008, 48, 0)


def test_verify_system_accepts_complex_fixture():
    a = cmatrix([[1j, 0], [0, 0]])
    rep = verify_system(a, "a2", seed=3)
    assert rep.failures == 0
