import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geninv import (
    IndexTooLargeError,
    approx_eq,
    core_ep_inverse,
    core_nilpotent,
    diff_norm,
    drazin,
    fro_norm,
    index,
    mat_pow,
    numerical_rank,
    projectors,
    spectral_projector,
)
from geninv.ensembles import EnsembleSpec, gen
from geninv.factor import pinv_scaled

from conftest import random_complex


def test_index_examples(a1, a3):
    assert index(a1) == 2
    assert index(np.eye(3, dtype=complex)) == 0
    assert index(a3) == 2
    assert index(np.zeros((4, 4), dtype=complex)) == 1


def test_index_zero_iff_full_rank(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        a = random_complex(rng, n, n)
        if rng.random() < 0.4:
            r = int(rng.integers(0, n + 1))
            a = (random_complex(rng, n, r) @ random_complex(rng, r, n)
                 if r else np.zeros((n, n), dtype=complex))
        assert (index(a) == 0) == (numerical_rank(a) == n)


def test_drazin_fixture_values(a1, a2):
    assert np.allclose(drazin(a1), [[0.5, 0, 0.25], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(drazin(a2), [[1, 0, 0], [1, 0, 0], [0, 0, 0]], atol=1e-12)


def test_drazin_nilpotent_jordan_block():
    j3 = np.eye(3, 3, 1, dtype=complex)
    assert np.array_equal(drazin(j3), np.zeros((3, 3), dtype=complex))


def test_drazin_rotated_nilpotent_is_exactly_zero():
    for a in gen(EnsembleSpec(size=5, count=10, seed=3, kind="nilpotent")):
        assert np.array_equal(drazin(a), np.zeros((5, 5), dtype=complex))


def test_drazin_equations_random(rng):
    specs = [EnsembleSpec(size=6, count=25, seed=71, kind="generic"),
             EnsembleSpec(size=6, count=25, seed=72, kind="fixed_index", index=2),
             EnsembleSpec(size=5, count=25, seed=73, kind="fixed_rank", rank=3)]
    for spec in specs:
        for a in gen(spec):
            d = drazin(a)
            k = index(a)
            bound = 1e-8 * (1 + fro_norm(a)) ** 3
            assert diff_norm(mat_pow(a, k + 1) @ d, mat_pow(a, k)) <= bound
            assert diff_norm(d @ a @ d, d) <= bound
            assert diff_norm(a @ d, d @ a) <= bound


def test_drazin_stable_when_exponent_is_raised(rng):
    for a in gen(EnsembleSpec(size=5, count=15, seed=74, kind="fixed_index", index=2)):
        k = index(a) + 1
        smax = np.linalg.norm(a, 2)
        higher = (mat_pow(a, k)
                  @ pinv_scaled(mat_pow(a, 2 * k + 1), smax ** (2 * k + 1))
                  @ mat_pow(a, k))
        assert approx_eq(drazin(a), higher)


@st.composite
def fixed_index_samples(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(3, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    return gen(EnsembleSpec(size=n, count=1, seed=seed, kind="fixed_index", index=k))[0]


@settings(max_examples=40, deadline=None)
@given(fixed_index_samples(), st.integers(-300, 300))
def test_index_and_inverses_exact_under_power_of_two_scaling(a, e):
    # powers are formed from 2^-e a, so the index search and the
    # sigma_max^j cutoffs see the same numbers at every scale
    scaled = a * 2.0 ** e
    assert index(scaled) == index(a)
    assert np.array_equal(drazin(scaled), drazin(a) * 2.0 ** -e)
    assert np.array_equal(core_ep_inverse(scaled), core_ep_inverse(a) * 2.0 ** -e)


def test_group_inverse(a1):
    assert np.allclose(
        drazin(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)
    from geninv import group_inverse
    assert np.allclose(group_inverse(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)
    assert np.allclose(group_inverse(np.diag([2.0, 0.0]).astype(complex)),
                       np.diag([0.5, 0.0]), atol=1e-12)
    with pytest.raises(IndexTooLargeError):
        group_inverse(a1)


def test_core_nilpotent_trivial_cases(rng):
    nil = np.eye(4, 4, 1, dtype=complex)
    cn = core_nilpotent(nil)
    assert np.allclose(cn.core, 0.0, atol=1e-12)
    assert np.allclose(cn.nilpotent, nil, atol=1e-12)

    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    cn = core_nilpotent(a)
    assert approx_eq(cn.core, a)
    assert fro_norm(cn.nilpotent) <= 1e-9 * (1 + fro_norm(a))


def test_core_nilpotent_fixture(a1):
    cn = core_nilpotent(a1)
    assert np.allclose(cn.core, [[2, 0, 1], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert np.allclose(cn.nilpotent, [[0, 0, 0], [0, 0, 2], [0, 0, 0]], atol=1e-12)
    assert cn.index == 2


def test_core_nilpotent_invariants(rng):
    for a in gen(EnsembleSpec(size=5, count=20, seed=75, kind="fixed_index", index=2)):
        cn = core_nilpotent(a)
        scale = (1 + fro_norm(a)) ** 2
        assert diff_norm(cn.core + cn.nilpotent, a) <= 1e-9 * scale
        assert fro_norm(cn.core @ cn.nilpotent) <= 1e-8 * scale
        assert fro_norm(cn.nilpotent @ cn.core) <= 1e-8 * scale
        assert fro_norm(mat_pow(cn.nilpotent, cn.index)) <= 1e-8 * scale
        assert index(cn.core) <= 1
        assert numerical_rank(cn.core) == numerical_rank(mat_pow(a, cn.index))


def test_projectors(a1, rng):
    q, _ = np.linalg.qr(random_complex(rng, 4, 4))
    p_a, q_a = projectors(q)
    assert np.allclose(p_a, np.eye(4), atol=1e-10)
    assert np.allclose(q_a, np.eye(4), atol=1e-10)

    p_a, q_a = projectors(a1)
    assert np.allclose(p_a, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    p_a, q_a = projectors(np.zeros((2, 3), dtype=complex))
    assert np.allclose(p_a, 0.0) and np.allclose(q_a, 0.0)

    for m in (p_a, q_a):
        assert approx_eq(m, m.conj().T.copy()) and approx_eq(m @ m, m)


def test_spectral_projector(a1, rng):
    a = random_complex(rng, 4, 4) + 3 * np.eye(4)
    assert approx_eq(spectral_projector(a), np.eye(4, dtype=complex))
    nil = np.eye(3, 3, 1, dtype=complex)
    assert np.allclose(spectral_projector(nil), 0.0, atol=1e-12)
    sp = spectral_projector(a1)
    assert np.allclose(sp, [[1, 0, 0.5], [0, 0, 0], [0, 0, 0]], atol=1e-12)
    assert approx_eq(sp @ sp, sp)
    assert approx_eq(sp @ a1, a1 @ sp)
