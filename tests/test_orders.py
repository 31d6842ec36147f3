import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geninv import (
    DimensionMismatchError,
    OrderKind,
    PreconditionError,
    core_ep_block_conditions,
    core_ep_equiv_report,
    core_nilpotent,
    core_upper_bound_check,
    dmp_order_characterizations,
    hs_decompose,
    leq,
    mpd_order_characterizations,
)
from geninv.ensembles import EnsembleSpec, gen

from conftest import random_complex


def test_leq_fixture_pair(a3, b3):
    expected = {"drazin": True, "dmp": True, "mpd": False, "cmp": False}
    for kind in OrderKind:
        rep = leq(a3, b3, kind)
        assert rep.holds == expected[kind.value]
        assert rep.kind == kind
        passes = (rep.left_residual <= 1e-9) and (rep.right_residual <= 1e-9)
        assert passes == rep.holds


def test_leq_reflexive_on_equal_inputs(a1, rng):
    for a in [a1, random_complex(rng, 4, 4)]:
        for kind in OrderKind:
            assert leq(a, a, kind).holds


def test_leq_accepts_string_kind(a3, b3):
    assert leq(a3, b3, "drazin").holds
    assert not leq(a3, b3, "mpd").holds


def test_leq_shape_errors(a1):
    with pytest.raises(DimensionMismatchError):
        leq(a1, np.ones((2, 2), dtype=complex), OrderKind.DMP)
    with pytest.raises(DimensionMismatchError):
        leq(np.ones((2, 3), dtype=complex), np.ones((2, 3), dtype=complex),
            OrderKind.DMP)


def test_core_upper_bound_fixture(a1):
    reports = core_upper_bound_check(a1)
    assert len(reports) == 4
    for rep in reports:
        assert rep.holds
        assert max(rep.left_residual, rep.right_residual) <= 1e-9


def test_core_upper_bound_nilpotent():
    for a in gen(EnsembleSpec(size=4, count=5, seed=121, kind="nilpotent")):
        assert all(rep.holds for rep in core_upper_bound_check(a))


def test_core_upper_bound_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = random_complex(rng, n, n)
        assert all(rep.holds for rep in core_upper_bound_check(a))


def test_dmp_characterizations(a1, a2, a3, b3, rng):
    assert dmp_order_characterizations(a3, b3) == (True, True, True)
    assert len(set(dmp_order_characterizations(a1, a2))) == 1
    core = core_nilpotent(a1).core
    assert dmp_order_characterizations(a1, core) == (True, True, True)
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert dmp_order_characterizations(a, a) == (True, True, True)


def test_mpd_characterizations(a3, b3, a1):
    assert mpd_order_characterizations(a3, b3) == (False, False, False)
    core = core_nilpotent(a1).core
    assert mpd_order_characterizations(a1, core) == (True, True, True)
    eye = np.eye(3, dtype=complex)
    assert mpd_order_characterizations(eye, eye) == (True, True, True)


def test_characterizations_agree_on_random_pairs(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = random_complex(rng, n, n)
        if rng.random() < 0.5:
            a = random_complex(rng, n, 2) @ random_complex(rng, 2, n)
        b = random_complex(rng, n, n)
        assert len(set(dmp_order_characterizations(a, b))) == 1
        assert len(set(mpd_order_characterizations(a, b))) == 1


def test_k_ep_inputs_make_all_relations_agree(rng):
    kep = gen(EnsembleSpec(size=4, count=15, seed=122, kind="k_ep"))
    for a in kep:
        b = random_complex(rng, 4, 4)
        outcomes = {leq(a, b, kind).holds for kind in OrderKind}
        assert len(outcomes) == 1
        assert all(rep.holds for rep in core_upper_bound_check(a))


@pytest.mark.parametrize("func", (functools.partial(leq, kind=OrderKind.DMP),
                                  dmp_order_characterizations,
                                  mpd_order_characterizations),
                         ids=("leq", "dmp_characterizations", "mpd_characterizations"))
def test_non_finite_second_operand_rejected(func, a3, b3):
    b = b3.copy()
    b[0, 0] = np.nan
    with pytest.raises(PreconditionError):
        func(a3, b)


@st.composite
def scaled_pairs(draw):
    """(a, b, e): a fixed_index or core_ep sample with n <= 6, b its core
    part or a second sample of the same class and size, and e in [-300, 300]."""
    kind = draw(st.sampled_from(["fixed_index", "core_ep"]))
    n = draw(st.integers(2, 6))
    index = draw(st.integers(0, min(3, n))) if kind == "fixed_index" else None
    seed = draw(st.integers(0, 2**32 - 1))
    a, other = gen(EnsembleSpec(size=n, count=2, seed=seed, kind=kind, index=index))
    b = core_nilpotent(a).core if draw(st.booleans()) else other
    return a, b, draw(st.integers(-300, 300))


def _scale_dependent_answers(a, b):
    return (core_ep_block_conditions(hs_decompose(a)),
            dmp_order_characterizations(a, b),
            mpd_order_characterizations(a, b),
            tuple(leq(a, b, kind).holds for kind in OrderKind))


# index 4: A^4 of 2^300 a overflows where the power form is taken unscaled
_CORE_EP_INDEX_4 = gen(EnsembleSpec(5, 3, 4, "core_ep"))[0]


@settings(max_examples=40, deadline=None)
@example((_CORE_EP_INDEX_4, core_nilpotent(_CORE_EP_INDEX_4).core, 300))
@given(scaled_pairs())
def test_block_and_order_decisions_unchanged_under_power_of_two_scaling(pair):
    # the block tests run with Sigma scaled into [0.5, 1), the orders on
    # (2^-e' a, 2^-e' b): both see the same matrices at every scale
    a, b, e = pair
    scaled_a, scaled_b = a * 2.0 ** e, b * 2.0 ** e
    assert _scale_dependent_answers(scaled_a, scaled_b) == _scale_dependent_answers(a, b)
    for x in (a, scaled_a):
        if np.any(x != 0):
            assert (tuple(core_ep_equiv_report(x).block_conditions.values())
                    == core_ep_block_conditions(hs_decompose(x)))
