"""Seeded random matrix ensembles with prescribed rank, index, or class.

Every sample is generated from its own child seed derived from
(ensemble seed, sample position), so generation order never matters and a
spec always reproduces the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classify import is_core_ep
from .drazin import _analyse
from .kernel import DEFAULT_TOL, InternalCheckError, Tolerance

__all__ = [
    "InvalidSpecError",
    "EnsembleSpec",
    "KINDS",
    "gen",
    "idempotent_core_samples",
]

KINDS = (
    "generic",
    "fixed_rank",
    "fixed_index",
    "core_ep",
    "ep",
    "k_ep",
    "nilpotent",
    "integer_small",
)

MAX_SIZE = 16


class InvalidSpecError(ValueError):
    """The ensemble description is out of range or inconsistent."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a random ensemble: size, count, seed and class.

    rank is required by fixed_rank, index by fixed_index; both must not
    exceed size.
    """

    size: int
    count: int
    seed: int = 0
    kind: str = "generic"
    rank: int | None = None
    index: int | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.size <= MAX_SIZE):
            raise InvalidSpecError(f"size must be in [1, {MAX_SIZE}], got {self.size}")
        if self.count < 1:
            raise InvalidSpecError(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown class {self.kind!r}")
        if self.kind == "fixed_rank":
            if self.rank is None or not (0 <= self.rank <= self.size):
                raise InvalidSpecError(f"fixed_rank needs 0 <= rank <= {self.size}")
        if self.kind == "fixed_index":
            if self.index is None or not (0 <= self.index <= self.size):
                raise InvalidSpecError(f"fixed_index needs 0 <= index <= {self.size}")


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


def _block_diag(c: np.ndarray, n_block: np.ndarray) -> np.ndarray:
    r, m = c.shape[0], n_block.shape[0]
    out = np.zeros((r + m, r + m), dtype=np.complex128)
    out[:r, :r] = c
    out[r:, r:] = n_block
    return out


def _jordan_nilpotent(k: int) -> np.ndarray:
    return np.eye(k, k, 1, dtype=np.complex128)


def _sample(spec: EnsembleSpec, rng: np.random.Generator, tol: Tolerance):
    """One sample: a matrix, or for core_ep the record its class check
    analysed."""
    n = spec.size
    if spec.kind == "generic":
        return _cgauss(rng, n, n)
    if spec.kind == "fixed_rank":
        r = spec.rank
        if r == 0:
            return np.zeros((n, n), dtype=np.complex128)
        return _cgauss(rng, n, r) @ _cgauss(rng, r, n)
    if spec.kind == "fixed_index":
        k = spec.index
        u = _haar_unitary(rng, n)
        block = _block_diag(_well_conditioned(rng, n - k), _jordan_nilpotent(k))
        return u @ block @ u.conj().T
    if spec.kind == "core_ep":
        r = int(rng.integers(1, n)) if n > 1 else 1
        u = _haar_unitary(rng, n)
        block = _block_diag(_well_conditioned(rng, r), _strict_upper(rng, n - r))
        rec = _analyse(u @ block @ u.conj().T, tol)
        if not is_core_ep(rec, tol):
            raise InternalCheckError("constructed sample is not core-EP")
        return rec
    if spec.kind == "ep":
        r = int(rng.integers(1, n)) if n > 1 else 1
        u = _haar_unitary(rng, n)
        block = _block_diag(_well_conditioned(rng, r),
                            np.zeros((n - r, n - r), dtype=np.complex128))
        return u @ block @ u.conj().T
    if spec.kind == "k_ep":
        inner = replace(spec, kind="ep" if rng.random() < 0.5 else "nilpotent")
        return _sample(inner, rng, tol)
    if spec.kind == "nilpotent":
        u = _haar_unitary(rng, n)
        return u @ _strict_upper(rng, n) @ u.conj().T
    if spec.kind == "integer_small":
        return rng.integers(-3, 4, (n, n)).astype(np.complex128)
    raise InvalidSpecError(f"unknown class {spec.kind!r}")


def _records(spec: EnsembleSpec, tol: Tolerance) -> list:
    """The samples of `spec` as analysis records, so that a sample checked
    here is not analysed a second time by its caller."""
    return [_analyse(_sample(spec, _rng_for(spec.seed, i), tol), tol)
            for i in range(spec.count)]


def gen(spec: EnsembleSpec, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Generate spec.count samples, deterministic given spec.seed."""
    return [rec.a for rec in _records(spec, tol)]


def idempotent_core_samples(size: int, count: int, seed: int = 0) -> list[np.ndarray]:
    """Samples U (I_r + N) U* whose core part is idempotent (a^(k+1) = a^k)."""
    out = []
    for i in range(count):
        rng = _rng_for(seed, i)
        r = int(rng.integers(1, size)) if size > 1 else 1
        u = _haar_unitary(rng, size)
        block = _block_diag(np.eye(r, dtype=np.complex128),
                            _strict_upper(rng, size - r))
        out.append(u @ block @ u.conj().T)
    return out
