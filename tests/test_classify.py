import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geninv import (
    PreconditionError,
    approx_eq,
    cce_ep_criterion,
    cce_inverse,
    cmp_ep_criterion,
    cmp_inverse,
    core_ep_block_conditions,
    core_ep_equiv_report,
    dmp,
    dmp_pinv_commute_criterion,
    drazin,
    hs_decompose,
    is_core_ep,
    is_ep,
    is_k_ep,
    mpd,
    mpdmp,
    mpdmp_ep_consequences,
    mpdmp_ep_criterion,
    pinv,
    wqrt_criterion,
)
from geninv.ensembles import EnsembleSpec, gen, idempotent_core_samples

from conftest import random_complex


def test_is_ep_examples(a1, rng):
    herm = random_complex(rng, 4, 4)
    herm = herm + herm.conj().T
    assert is_ep(herm)
    assert not is_ep(a1)
    q, _ = np.linalg.qr(random_complex(rng, 4, 4))
    assert is_ep(q)


def test_is_core_ep_examples(a1, a2):
    assert not is_core_ep(a1)
    assert not is_core_ep(a2)
    for a in gen(EnsembleSpec(size=5, count=10, seed=91, kind="core_ep")):
        assert is_core_ep(a)


def test_is_k_ep_examples(a3, rng):
    for a in gen(EnsembleSpec(size=4, count=5, seed=92, kind="ep")):
        assert is_k_ep(a)
    assert not is_k_ep(a3)
    for a in gen(EnsembleSpec(size=4, count=5, seed=93, kind="nilpotent")):
        assert is_k_ep(a)


def test_block_conditions_examples(a1, rng):
    conds = core_ep_block_conditions(hs_decompose(a1))
    assert not all(conds)
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert core_ep_block_conditions(hs_decompose(a)) == (True, True, True)
    sample = gen(EnsembleSpec(size=5, count=1, seed=94, kind="core_ep"))[0]
    assert core_ep_block_conditions(hs_decompose(sample)) == (True, True, True)


def test_equiv_report_fixture(a1):
    rep = core_ep_equiv_report(a1)
    assert not rep.is_core_ep
    assert set(rep.core_ep_conditions.values()) == {False}
    assert len(rep.core_ep_conditions) == 7
    assert rep.flags == ()
    assert rep.block_conditions == {"a": True, "b": True, "c": False}
    assert all(r >= 0 for r in rep.residuals.values())


def test_equiv_report_core_ep_samples():
    for a in gen(EnsembleSpec(size=5, count=10, seed=95, kind="core_ep")):
        rep = core_ep_equiv_report(a)
        assert rep.is_core_ep
        assert set(rep.core_ep_conditions.values()) == {True}
        assert rep.flags == ()


def test_equiv_report_nonsingular(rng):
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    rep = core_ep_equiv_report(a)
    assert rep.is_core_ep and rep.is_ep and rep.is_k_ep
    assert set(rep.core_ep_conditions.values()) == {True}
    inv3 = np.linalg.matrix_power(np.linalg.inv(a), 3)
    assert approx_eq(mpdmp(a), inv3)


def test_equiv_report_zero_matrix():
    rep = core_ep_equiv_report(np.zeros((3, 3), dtype=complex))
    assert rep.is_core_ep
    assert rep.block_conditions == {}


def _constructed_samples(n=4, count=8):
    samples = []
    samples += gen(EnsembleSpec(size=n, count=count, seed=101, kind="core_ep"))
    samples += gen(EnsembleSpec(size=n, count=count, seed=102, kind="ep"))
    samples += gen(EnsembleSpec(size=n, count=count, seed=103, kind="fixed_index", index=2))
    samples += gen(EnsembleSpec(size=n, count=count, seed=104, kind="nilpotent"))
    samples += idempotent_core_samples(n, count, seed=105)
    return samples


def _random_samples(n=4, count=8):
    samples = []
    samples += gen(EnsembleSpec(size=n, count=count, seed=106, kind="generic"))
    samples += gen(EnsembleSpec(size=n, count=count, seed=107, kind="fixed_rank", rank=2))
    samples += gen(EnsembleSpec(size=n, count=count, seed=108, kind="integer_small"))
    return samples


@pytest.mark.parametrize("criterion,direct", [
    (lambda a, h: cmp_ep_criterion(h), lambda a: is_ep(cmp_inverse(a))),
    (lambda a, h: mpdmp_ep_criterion(h), lambda a: is_ep(mpdmp(a))),
    (lambda a, h: cce_ep_criterion(h), lambda a: is_ep(cce_inverse(a))),
    (lambda a, h: wqrt_criterion(a), lambda a: is_ep(cmp_inverse(a))),
], ids=["cmp", "mpdmp", "cce", "wqrt"])
def test_ep_criteria_match_direct_tests(criterion, direct, a1, a2, a3):
    for a in [a1, a2, a3] + _constructed_samples() + _random_samples():
        if not np.any(a != 0):
            continue
        h = hs_decompose(a)
        assert criterion(a, h) == direct(a)


def test_dmp_pinv_commute_criterion_matches_direct(a1, a2, a3):
    assert dmp_pinv_commute_criterion(hs_decompose(np.diag([2.0, 0.0]).astype(complex)))
    for a in [a1, a2, a3] + _constructed_samples() + _random_samples():
        if not np.any(a != 0):
            continue
        d = drazin(a)
        gp = pinv(dmp(a))
        assert dmp_pinv_commute_criterion(hs_decompose(a)) == approx_eq(gp @ d, d @ gp)


def test_wqrt_fixtures(a1, a3, rng):
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert wqrt_criterion(a) == is_ep(cmp_inverse(a))
    assert wqrt_criterion(a1) == is_ep(cmp_inverse(a1))
    assert wqrt_criterion(a3) == is_ep(cmp_inverse(a3))
    with pytest.raises(PreconditionError):
        wqrt_criterion(np.zeros((2, 2), dtype=complex))


def test_mpdmp_ep_consequences(a2, rng):
    residuals = mpdmp_ep_consequences(hs_decompose(a2))
    assert max(residuals) <= 1e-9
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert max(mpdmp_ep_consequences(hs_decompose(a))) <= 1e-9
    failing = gen(EnsembleSpec(size=5, count=1, seed=109, kind="fixed_rank", rank=3))[0]
    assert not mpdmp_ep_criterion(hs_decompose(failing))
    with pytest.raises(PreconditionError):
        mpdmp_ep_consequences(hs_decompose(failing))


def test_core_ep_collapse_on_constructed_samples():
    for a in gen(EnsembleSpec(size=5, count=15, seed=110, kind="core_ep")):
        d = drazin(a)
        assert approx_eq(dmp(a), d)
        assert approx_eq(mpd(a), d)
        assert approx_eq(cmp_inverse(a), d)
        assert approx_eq(dmp(a), mpd(a))


def test_k_ep_collapse_biconditional(a3):
    samples = [a3] + _constructed_samples() + _random_samples()
    for a in samples:
        d = drazin(a)
        collapse = (approx_eq(cmp_inverse(a), d) and approx_eq(dmp(a), d)
                    and approx_eq(mpd(a), d))
        assert collapse == is_k_ep(a)


def test_six_identities_on_core_ep_samples():
    from geninv import core_nilpotent

    for a in gen(EnsembleSpec(size=4, count=10, seed=111, kind="core_ep")):
        p = pinv(a)
        h_inv = mpd(a)
        m = mpdmp(a)
        d = drazin(a)
        core = core_nilpotent(a).core
        a2_ = a @ a
        assert approx_eq(h_inv @ a, a @ h_inv)
        assert approx_eq(h_inv @ d, d @ h_inv)
        assert approx_eq(h_inv @ core, core @ h_inv)
        assert approx_eq(m @ h_inv, h_inv @ m)
        assert approx_eq(core, cmp_inverse(a) @ a2_)
        assert approx_eq(core, h_inv @ a2_)
        assert approx_eq(core, dmp(a) @ a2_)
        q_a = p @ a
        assert approx_eq(q_a @ core, core)
        assert approx_eq(core @ q_a, core)


@st.composite
def class_samples(draw):
    """One sample of a class with core-EP and non-core-EP members, n <= 6."""
    kind = draw(st.sampled_from(["core_ep", "generic", "fixed_index", "k_ep", "nilpotent"]))
    n = draw(st.integers(2, 6))
    index = draw(st.integers(0, min(3, n))) if kind == "fixed_index" else None
    seed = draw(st.integers(0, 2**32 - 1))
    return gen(EnsembleSpec(size=n, count=1, seed=seed, kind=kind, index=index))[0]


@settings(max_examples=40, deadline=None)
@given(class_samples(), st.integers(-300, 300))
def test_equiv_report_unchanged_under_power_of_two_scaling(a, e):
    # the conditions are evaluated on 2^-e' a, the same matrix at every
    # scale, and the block tests on factors whose Sigma is scaled into
    # [0.5, 1)
    rep, scaled = core_ep_equiv_report(a), core_ep_equiv_report(a * 2.0 ** e)
    assert (scaled.is_ep, scaled.is_core_ep, scaled.is_k_ep) == (rep.is_ep, rep.is_core_ep,
                                                                 rep.is_k_ep)
    # the public predicates are evaluated on the same 2^-e' a
    predicates = (is_ep, is_core_ep, is_k_ep)
    assert [p(a * 2.0 ** e) for p in predicates] == [p(a) for p in predicates]
    assert scaled.core_ep_conditions == rep.core_ep_conditions
    assert scaled.block_conditions == rep.block_conditions
    assert scaled.flags == rep.flags
    assert scaled.residuals == rep.residuals


def test_block_conditions_of_core_ep_samples_at_extreme_scales():
    # at 2^-155 the product P* qhat would be 2^155 times its rounding
    # noise, which an absolute floor reads as nonzero, if Sigma were not
    # scaled into [0.5, 1) first
    for a in gen(EnsembleSpec(size=4, count=4, seed=1, kind="core_ep")):
        for e in (0, -155, -250, 155, 250):
            assert core_ep_block_conditions(hs_decompose(a * 2.0 ** e)) == (True, True, True)


def test_is_k_ep_at_extreme_scales():
    # A^k of 2^300 A would overflow, and of 2^-300 A underflow, if formed
    # unscaled
    for a in gen(EnsembleSpec(size=5, count=8, seed=3, kind="k_ep")):
        assert is_k_ep(a)
        for e in (-300, -150, 150, 300):
            assert is_k_ep(a * 2.0 ** e)
