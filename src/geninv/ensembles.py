"""Seeded random matrix ensembles with prescribed rank, index, or class.

Every sample is generated from its own child seed derived from
(ensemble seed, sample position), so generation order never matters and a
spec always reproduces the same sequence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .drazin import _analyse
from .kernel import DEFAULT_TOL, InternalCheckError, Tolerance

__all__ = [
    "InvalidSpecError",
    "EnsembleSpec",
    "KINDS",
    "gen",
    "idempotent_core_samples",
]

MAX_SIZE = 16
# each class that takes a parameter, with the EnsembleSpec field that holds it
_PARAMETERS = {"fixed_rank": "rank", "fixed_index": "index"}


class InvalidSpecError(ValueError):
    """The ensemble description is out of range or inconsistent."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a random ensemble: size, count, seed and class.

    A class in `_PARAMETERS` requires the field it names there (rank or
    index), from 0 to size. Every number is an integer: an int or anything
    else that `operator.index` takes (a numpy integer), but not a bool.
    """

    size: int
    count: int
    seed: int = 0
    kind: str = "generic"
    rank: int | None = None
    index: int | None = None

    def __post_init__(self) -> None:
        for name in ("size", "count", "seed", "rank", "index"):
            value = getattr(self, name)
            if value is not None or name in ("size", "count", "seed"):
                _integer(name, value)
        if not (1 <= self.size <= MAX_SIZE):
            raise InvalidSpecError(f"size must be in [1, {MAX_SIZE}], got {self.size}")
        if self.count < 1:
            raise InvalidSpecError(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown class {self.kind!r}")
        field = _PARAMETERS.get(self.kind)
        if field is not None:
            value = getattr(self, field)
            if value is None or not (0 <= value <= self.size):
                raise InvalidSpecError(f"{self.kind} needs 0 <= {field} <= {self.size}")


def _integer(name: str, value) -> None:
    """Raise InvalidSpecError unless `value` is an integer and not a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}") from None


def _rng_for(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def _cgauss(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonsingular n x n with singular values in [1/2, 2]."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    s = rng.uniform(0.5, 2.0, n)
    return _haar_unitary(rng, n) @ np.diag(s).astype(complex) @ _haar_unitary(rng, n)


def _strict_upper(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.triu(_cgauss(rng, n, n), k=1)


def _zeros(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.complex128)


def _jordan(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.eye(n, n, 1, dtype=np.complex128)


def _similar(rng: np.random.Generator, n: int, r: int, core, nil) -> np.ndarray:
    """U (C ⊕ N) U*: a Haar U, then C = core(rng, r), then N = nil(rng, n - r),
    drawn in that order. Every class of a core and a nilpotent block."""
    u = _haar_unitary(rng, n)
    block = np.zeros((n, n), dtype=np.complex128)
    block[:r, :r] = core(rng, r)
    block[r:, r:] = nil(rng, n - r)
    return u @ block @ u.conj().T


def _core_rank(rng: np.random.Generator, n: int) -> int:
    """The drawn size of the core block, in [1, n - 1] (1 at n = 1)."""
    return int(rng.integers(1, n)) if n > 1 else 1


# one sampler (spec, rng) -> matrix per class; KINDS lists them in this order
_SAMPLERS = {
    "generic": lambda spec, rng: _cgauss(rng, spec.size, spec.size),
    "fixed_rank": lambda spec, rng: (_cgauss(rng, spec.size, spec.rank)
                                     @ _cgauss(rng, spec.rank, spec.size)),
    "fixed_index": lambda spec, rng: _similar(rng, spec.size, spec.size - spec.index,
                                              _well_conditioned, _jordan),
    "core_ep": lambda spec, rng: _similar(rng, spec.size, _core_rank(rng, spec.size),
                                          _well_conditioned, _strict_upper),
    "ep": lambda spec, rng: _similar(rng, spec.size, _core_rank(rng, spec.size),
                                     _well_conditioned, _zeros),
    "k_ep": lambda spec, rng: _SAMPLERS["ep" if rng.random() < 0.5 else "nilpotent"](spec, rng),
    "nilpotent": lambda spec, rng: _similar(rng, spec.size, 0, _zeros, _strict_upper),
    "integer_small": lambda spec, rng: (rng.integers(-3, 4, (spec.size, spec.size))
                                        .astype(np.complex128)),
}
KINDS = tuple(_SAMPLERS)


def _sample(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One sample matrix of the class of `spec`."""
    return _SAMPLERS[spec.kind](spec, rng)


def _records(spec: EnsembleSpec, tol: Tolerance) -> list:
    """The samples of `spec` as analysis records, so that a sample checked
    here is not analysed a second time by its caller: a core_ep sample
    must be core-EP under `tol`."""
    recs = [_analyse(_sample(spec, _rng_for(spec.seed, i)), tol) for i in range(spec.count)]
    if spec.kind == "core_ep" and not all(rec.is_core_ep for rec in recs):
        raise InternalCheckError("constructed sample is not core-EP")
    return recs


def gen(spec: EnsembleSpec, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Generate spec.count samples, deterministic given spec.seed."""
    return [rec.a for rec in _records(spec, tol)]


def idempotent_core_samples(size: int, count: int, seed: int = 0) -> list[np.ndarray]:
    """Samples U (I_r + N) U* whose core part is idempotent (a^(k+1) = a^k)."""
    EnsembleSpec(size, count, seed)  # InvalidSpecError for what gen refuses
    rngs = (_rng_for(seed, i) for i in range(count))
    return [_similar(rng, size, _core_rank(rng, size),
                     lambda rng, r: np.eye(r, dtype=np.complex128), _strict_upper) for rng in rngs]
