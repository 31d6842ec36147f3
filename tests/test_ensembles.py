import numpy as np
import pytest

from geninv import (
    InternalCheckError,
    approx_eq,
    drazin,
    index,
    is_core_ep,
    is_ep,
    is_k_ep,
    mat_pow,
    numerical_rank,
)
from geninv import ensembles
from geninv.ensembles import (
    _PARAMETERS,
    KINDS,
    EnsembleSpec,
    InvalidSpecError,
    gen,
    idempotent_core_samples,
)


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=0, count=1)
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=17, count=1)
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=3, count=0)
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=3, count=1, kind="weird")
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=3, count=1, kind="fixed_rank")
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=3, count=1, kind="fixed_rank", rank=4)
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=3, count=1, kind="fixed_index")
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(size=3, count=1, seed=-1)
    # a class refuses a parameter it does not take, instead of ignoring it
    for kind in KINDS:
        taken = {_PARAMETERS[kind]: 2} if kind in _PARAMETERS else {}
        for field in {"rank", "index"} - set(taken):
            with pytest.raises(InvalidSpecError, match=f"{kind} takes no {field}"):
                EnsembleSpec(size=3, count=2, kind=kind, **taken, **{field: 2})
    with pytest.raises(InvalidSpecError, match="fixed_rank takes no index"):
        EnsembleSpec(size=3, count=2, kind="fixed_rank", rank=2, index=7)
    # every number an integer, a numpy one too, but no float and no bool
    for size, count, kwargs in ((2.5, 1, {}), (3, 1.5, {}), (3, 2, {"seed": 1.5}),
                                (3, 2, {"kind": "fixed_rank", "rank": 1.5}),
                                (3, 2, {"kind": "fixed_index", "index": np.float64(1)}),
                                (True, 1, {}), (3, True, {}), (3, 2, {"seed": np.True_}),
                                (None, 1, {})):
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            EnsembleSpec(size, count, **kwargs)
    spec = EnsembleSpec(np.int64(3), np.int32(2), np.uint8(4), "fixed_rank", rank=np.int16(1))
    assert len(gen(spec)) == 2
    # idempotent_core_samples takes the checks of its three numbers from the spec
    for args, match in (((0, 1), "size"), ((17, 1), "size"), ((5, 0), "count"),
                        ((5, -2), "count"), ((5, 1, -1), "seed"), ((2.5, 1), "integer"),
                        ((5, 1.5), "integer"), ((5, True), "integer")):
        with pytest.raises(InvalidSpecError, match=match):
            idempotent_core_samples(*args)


def test_reproducible_and_order_independent():
    spec = EnsembleSpec(size=4, count=6, seed=7, kind="generic")
    first = gen(spec)
    second = gen(spec)
    for x, y in zip(first, second):
        assert np.array_equal(x, y)
    # sample i depends only on (seed, i), not on count
    longer = gen(EnsembleSpec(size=4, count=10, seed=7, kind="generic"))
    for i in range(6):
        assert np.array_equal(first[i], longer[i])


def test_seed_changes_samples():
    a = gen(EnsembleSpec(size=4, count=1, seed=1, kind="generic"))[0]
    b = gen(EnsembleSpec(size=4, count=1, seed=2, kind="generic"))[0]
    assert not np.array_equal(a, b)


def test_core_ep_samples_pass_defining_identity():
    for a in gen(EnsembleSpec(size=5, count=50, seed=131, kind="core_ep")):
        assert is_core_ep(a)


def test_core_ep_ensemble_rejects_a_sample_that_is_not_core_ep(monkeypatch):
    # an idempotent that is not EP: its core part is itself, which its
    # pseudoinverse does not commute with
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, :2] = 1
    assert not is_core_ep(bad)
    monkeypatch.setattr(ensembles, "_sample", lambda spec, rng: bad)
    with pytest.raises(InternalCheckError, match="not core-EP"):
        gen(EnsembleSpec(4, 2, 0, "core_ep"))
    assert len(gen(EnsembleSpec(4, 2, 0, "generic"))) == 2


def test_fixed_index_samples():
    for k in (0, 1, 2, 3, 5):
        spec = EnsembleSpec(size=5, count=10, seed=132 + k, kind="fixed_index", index=k)
        for a in gen(spec):
            assert index(a) == k


def test_fixed_rank_samples():
    for r in (0, 1, 3, 5):
        spec = EnsembleSpec(size=5, count=8, seed=140 + r, kind="fixed_rank", rank=r)
        for a in gen(spec):
            assert numerical_rank(a) == r


def test_nilpotent_samples():
    from geninv import rank_scaled

    for a in gen(EnsembleSpec(size=5, count=10, seed=150, kind="nilpotent")):
        assert np.array_equal(drazin(a), np.zeros((5, 5), dtype=complex))
        smax = float(np.linalg.norm(a, 2))
        assert rank_scaled(mat_pow(a, 5), smax ** 5) == 0


def test_ep_samples():
    for a in gen(EnsembleSpec(size=5, count=10, seed=151, kind="ep")):
        assert is_ep(a)
        assert index(a) <= 1


def test_k_ep_samples():
    for a in gen(EnsembleSpec(size=5, count=10, seed=152, kind="k_ep")):
        assert is_k_ep(a)


def test_integer_small_samples():
    for a in gen(EnsembleSpec(size=4, count=10, seed=153, kind="integer_small")):
        assert np.all(a.imag == 0)
        assert np.all(a.real == np.round(a.real))
        assert np.all(np.abs(a.real) <= 3)


def test_idempotent_core_samples():
    for a in idempotent_core_samples(5, 10, seed=154):
        k = index(a)
        assert approx_eq(mat_pow(a, k + 1), mat_pow(a, k))
