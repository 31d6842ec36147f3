import numpy as np
import pytest

from geninv import (
    DimensionMismatchError,
    PreconditionError,
    UnknownSuiteError,
    UnknownSystemError,
    approx_eq,
    cmatrix,
    mpd,
    pinv,
    core_nilpotent,
)
from geninv.ensembles import EnsembleSpec, gen
from geninv.verify import (
    SUITE_IDS,
    SYSTEM_IDS,
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


def test_projector_system_requires_core_ep(a1):
    with pytest.raises(PreconditionError):
        verify_system(a1, "kj43")


def test_projector_system_on_core_ep_samples():
    for a in gen(EnsembleSpec(size=5, count=5, seed=161, kind="core_ep")):
        rep = verify_system(a, "kj43", seed=17)
        assert rep.failures == 0
        assert rep.breakdown["perturbation_refutation"]["worst_residual"] > 1e-4


def test_unknown_system(a1):
    with pytest.raises(UnknownSystemError):
        verify_system(a1, "nonsense")


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


def test_verify_system_accepts_complex_fixture():
    a = cmatrix([[1j, 0], [0, 0]])
    rep = verify_system(a, "a2", seed=3)
    assert rep.failures == 0
