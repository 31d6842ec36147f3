"""Seeded inputs, operations and output checks of the benchmark workloads.

Matrices are built here from their block structure rather than with
geninv.gen, so the inputs stay fixed when the library's ensembles change
and each matrix's rank, index, Drazin inverse and core part are known from
how it was built. Every workload is a deterministic sequence of operations
indexed by position: operation j depends only on (seed, j). The kind of
operation j (command, class, size) depends only on j modulo the workload's
cycle length, and runs measure whole cycles, so every run measures the same
mix; the seed changes the numbers, not the amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import geninv
from geninv import SUITE_IDS, EnsembleSpec, cli, exact, verify

# Relative threshold for residuals and for the distance to a reference
# result; the reference scale is the product of the operand norms, so the
# test is unchanged when A is multiplied by a power of two.
TAU = 1e-8
# Absolute entrywise tolerance of acceptance criterion 04 (float vs exact).
ORACLE_TOL = 1e-8


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _holds(lhs, rhs, lhs_factors, rhs_factors) -> bool:
    """||lhs - rhs|| against TAU times the products of the norms of the
    factors on each side; a power of A is passed as repeated factors so
    that the rounding noise of a power that is zero in exact arithmetic
    stays below the threshold."""
    scale = math.prod(_norm(f) for f in lhs_factors) + math.prod(_norm(f) for f in rhs_factors)
    return _norm(lhs - rhs) <= TAU * scale


def _close(x, ref, scale: float) -> bool:
    return bool(np.all(np.isfinite(x))) and _norm(x - ref) <= TAU * scale


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- matrices

def _cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def _haar(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _well_conditioned(rng, n):
    """Nonsingular n x n with singular values in [1/2, 2]."""
    s = rng.uniform(0.5, 2.0, n)
    return _haar(rng, n) @ np.diag(s).astype(complex) @ _haar(rng, n)


def _bidiagonal_nilpotent(rng, m):
    """Nilpotent of index m: superdiagonal moduli in [1/2, 2], random phases.

    Powers of a dense strictly upper triangular matrix become too
    ill-conditioned to carry a well-defined numerical index at n = 12; this
    block keeps the index a property of the input, not of rounding.
    """
    sup = rng.uniform(0.5, 2.0, max(m - 1, 0)) * np.exp(2j * np.pi * rng.random(max(m - 1, 0)))
    return np.diag(sup, 1).astype(complex) if m > 1 else np.zeros((m, m), complex)


def _jordan(k):
    return np.eye(k, k, 1, dtype=complex)


def _block_diag(c, nil):
    r, m = c.shape[0], nil.shape[0]
    out = np.zeros((r + m, r + m), dtype=complex)
    out[:r, :r] = c
    out[r:, r:] = nil
    return out


@dataclass
class Built:
    """An input matrix with the answers known from its construction.

    a0 is the unscaled matrix and a = 2**scale_exp * a0 the input. The
    reference Drazin inverse and core part belong to a0. ep, core_ep and
    k_ep are None where the construction does not decide them.
    """

    kind: str
    a0: np.ndarray
    rank: int
    index: int
    drazin0: np.ndarray
    core0: np.ndarray
    power_rank: int  # rank(a^index)
    ep: bool | None = None
    core_ep: bool | None = None
    k_ep: bool | None = None
    scale_exp: int = 0

    @property
    def n(self) -> int:
        return self.a0.shape[0]

    @property
    def c(self) -> float:
        return 2.0 ** self.scale_exp

    @property
    def a(self) -> np.ndarray:
        return self.a0 * self.c

    def pinv0(self) -> np.ndarray:
        return _truncated_pinv(self.a0, self.rank)


def _truncated_pinv(a, r):
    if r == 0:
        return np.zeros(a.shape[::-1], dtype=complex)
    u, s, vh = np.linalg.svd(a)
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def _unitary_block(rng, kind, c, nil, rank, index, ep):
    u = _haar(rng, c.shape[0] + nil.shape[0])
    uh = u.conj().T
    zero = np.zeros_like(nil)
    cinv = np.linalg.inv(c) if c.size else c
    return Built(kind, u @ _block_diag(c, nil) @ uh, rank, index,
                 u @ _block_diag(cinv, zero) @ uh, u @ _block_diag(c, zero) @ uh,
                 power_rank=c.shape[0], ep=ep, core_ep=True, k_ep=True)


def build_matrix(rng, kind: str, n: int, part: int = 1) -> Built:
    """One matrix of the named class at size n (see README.md for classes).

    part is the nilpotent block size of core_ep and the rank of ep, in
    [1, n - 1]; it is an argument rather than drawn from rng because it
    sets how many SVDs an operation makes, and a seed should change the
    numbers, not the amount of work.
    """
    if kind == "generic":
        a = _cgauss(rng, n, n)
        inv = np.linalg.inv(a)
        return Built(kind, a, n, 0, inv, a, n, ep=True, core_ep=True, k_ep=True)
    if kind in ("fixed_index2", "fixed_index3"):
        k = int(kind[-1])
        return _unitary_block(rng, kind, _well_conditioned(rng, n - k), _jordan(k),
                              n - 1, k, ep=False)
    if kind == "core_ep":
        m = part
        return _unitary_block(rng, kind, _well_conditioned(rng, n - m),
                              _bidiagonal_nilpotent(rng, m), n - 1, m, ep=(m == 1))
    if kind == "ep":
        r = part
        return _unitary_block(rng, kind, _well_conditioned(rng, r),
                              np.zeros((n - r, n - r), complex), r, 1, ep=True)
    if kind == "nilpotent":
        return _unitary_block(rng, kind, np.zeros((0, 0), complex),
                              _bidiagonal_nilpotent(rng, n), n - 1, n, ep=False)
    if kind == "fixed_rank":
        # U [[C, S], [0, 0]] U*: rank r and index 1 exactly, group inverse
        # U [[C^-1, C^-2 S], [0, 0]] U*, core part the matrix itself.
        r = (3 * n) // 4
        c = _well_conditioned(rng, r)
        s = _cgauss(rng, r, n - r)
        u = _haar(rng, n)
        top = np.zeros((n, n), complex)
        top[:r, :r], top[:r, r:] = c, s
        cinv = np.linalg.inv(c)
        dtop = np.zeros((n, n), complex)
        dtop[:r, :r], dtop[:r, r:] = cinv, cinv @ cinv @ s
        a = u @ top @ u.conj().T
        return Built(kind, a, r, 1, u @ dtop @ u.conj().T, a, r)
    if kind == "integer_small":
        return _integer_built(rng.integers(-3, 4, (n, n)))
    raise ValueError(kind)


def _int_rank(rows) -> int:
    """Exact rank of an integer matrix by elimination over the rationals."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    while rows:
        piv = rows.pop()
        c = next(j for j, x in enumerate(piv) if x)
        rank += 1
        reduced = []
        for r in rows:
            if r[c]:
                r = [piv[c] * x - r[c] * y for x, y in zip(r, piv)]
                g = math.gcd(*r)
                if g:
                    r = [x // g for x in r]
            if any(r):
                reduced.append(r)
        rows = reduced
    return rank


def _integer_built(ints) -> Built:
    """Exact rank and index of an integer matrix; the reference Drazin
    inverse is A^k (A^(2k+1))^+ A^k with the pseudoinverse truncated at the
    exact rank."""
    n = ints.shape[0]
    obj = ints.astype(object)
    ranks, power = [n], np.identity(n, dtype=int).astype(object)
    while True:
        power = power.dot(obj)
        ranks.append(_int_rank(power.tolist()))
        if ranks[-1] == ranks[-2]:
            break
    k = len(ranks) - 2
    a = ints.astype(complex)
    if k == 0:
        d = np.linalg.inv(a)
    else:
        ak = np.linalg.matrix_power(a, k)
        d = ak @ _truncated_pinv(np.linalg.matrix_power(a, 2 * k + 1), ranks[k]) @ ak
    return Built("integer_small", a, ranks[1], k, d, a @ d @ a, ranks[k])


# ----------------------------------------------------------- reference math

def reference_inverse(b: Built, which: str) -> np.ndarray:
    """The named inverse of b.a from the construction (scale undone exactly)."""
    a0, d, p = b.a0, b.drazin0, b.pinv0()
    if which == "mp":
        x = p
    elif which in ("drazin", "group"):
        x = d
    elif which == "dmp":
        x = d @ a0 @ p
    elif which == "mpd":
        x = p @ a0 @ d
    elif which == "cmp":
        x = p @ b.core0 @ p
    elif which == "mpdmp":
        x = p @ d @ p
    elif which in ("core-ep", "cce"):
        ak = np.linalg.matrix_power(a0, b.index)
        x = d @ ak @ _truncated_pinv(ak, b.power_rank)
        if which == "cce":
            x = p @ a0 @ x @ a0 @ p
    else:
        raise ValueError(which)
    return x / b.c


def penrose_ok(a, x) -> bool:
    ax, xa = a @ x, x @ a
    return (_holds(ax @ a, a, (a, x, a), (a,))
            and _holds(xa @ x, x, (x, a, x), (x,))
            and _holds(ax.conj().T, ax, (a, x), (a, x))
            and _holds(xa.conj().T, xa, (x, a), (x, a)))


def drazin_ok(a, x, k: int) -> bool:
    ak = np.linalg.matrix_power(a, k)
    return (_holds(ak @ a @ x, ak, (a,) * (k + 1) + (x,), (a,) * k)
            and _holds(x @ a @ x, x, (x, a, x), (x,))
            and _holds(a @ x, x @ a, (a, x), (x, a)))


# --------------------------------------------------------------- operations

class Op:
    """One timed operation: run() is timed, check() and digest() are not.

    run() looks library functions up when it is called, never earlier, so
    that in the traced run the wrappers are the ones called.
    """

    def run(self):
        raise NotImplementedError

    def check(self, out) -> bool:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def io_bytes(self, out) -> int:
        return 0

    def cleanup(self) -> None:
        pass


class Workload:
    """A deterministic sequence of operations built from one seed."""

    name = ""
    cycle = 1          # operations per cycle; kinds repeat within it
    cycle_seconds = 20.0  # a cycle's time at the seed commit, roughly
    pool_size = 0      # inputs built at set-up; later ones are built on demand
    trace_ops = 0      # operations in one traced pass

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._inputs = [self.make(k) for k in range(self.pool_size)]

    def input(self, k: int):
        return self._inputs[k] if k < len(self._inputs) else self.make(k)

    def make(self, k: int):
        raise NotImplementedError

    def op(self, j: int) -> Op:
        raise NotImplementedError

    def warm_op(self) -> Op:
        """A small operation of the workload's kind, run once before timing
        so that imports and first-call set-up are done."""
        raise NotImplementedError

    def warm(self) -> None:
        op = self.warm_op()
        op.check(op.run())
        op.cleanup()


# ---- cli_mixed

CLI_COMMANDS = ("mp", "group", "drazin", "dmp", "mpd", "cmp", "mpdmp", "core-ep",
                "cce", "classify", "order", "hs")
CLI_CLASSES = ("generic", "fixed_index2", "fixed_index3", "core_ep", "ep",
               "nilpotent", "integer_small")
CLI_CYCLE = len(CLI_COMMANDS) * len(CLI_CLASSES)  # every (command, class) pair once
# Every 5th request of a cycle (16 of 84) is scaled by 2**e; 5 is prime to
# the 12 commands, 7 classes and 9 sizes, so every command, class and size
# gets scaled inputs.
CLI_SCALED_EVERY = 5
CLI_SCALE_STRATA = 8      # e runs through 8 equal strata of [-300, 300]


def write_matrix(path: Path, a: np.ndarray) -> None:
    path.write_text(json.dumps({
        "rows": int(a.shape[0]), "cols": int(a.shape[1]),
        "data": [[[float(x.real), float(x.imag)] for x in row] for row in a],
    }) + "\n")


def matrix_from_obj(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["data"]])


def read_matrix(path: Path) -> np.ndarray:
    return matrix_from_obj(json.loads(path.read_text()))


@dataclass
class CliRequest:
    j: int
    command: str
    built: Built


class CliOp(Op):
    def __init__(self, req: CliRequest, workdir: Path):
        self.req = req
        b = req.built
        self.dir = workdir / f"req{req.j}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.a_path = self.dir / "a.json"
        write_matrix(self.a_path, b.a)
        cmd = req.command
        if cmd == "classify":
            self.argv = ["classify", "-i", str(self.a_path)]
        elif cmd == "order":
            self.b_path = self.dir / "b.json"
            write_matrix(self.b_path, b.core0 * b.c)
            self.argv = ["order", "--a", str(self.a_path), "--b", str(self.b_path),
                         "--relation", "all"]
        elif cmd == "hs":
            self.out_dir = self.dir / "hs"
            self.argv = ["hs", "-i", str(self.a_path), "-o", str(self.out_dir)]
        else:
            self.argv = ["compute", "-i", str(self.a_path), "--which", cmd]

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def _files(self):
        return sorted(p for p in self.dir.rglob("*.json"))

    def io_bytes(self, out) -> int:
        return len(out[1].encode()) + sum(p.stat().st_size for p in self._files())

    def digest(self, out) -> str:
        return _digest(out[0], out[1], *[p.read_bytes() for p in self._files()])

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self, out) -> bool:
        code, text = out
        b, cmd = self.req.built, self.req.command
        if cmd == "group" and b.index > 1:
            return code == 3
        if code != 0:
            return False
        res = json.loads(text)
        if cmd == "order":
            return all(res[k]["holds"] for k in ("dmp", "mpd", "cmp", "drazin"))
        if cmd == "hs":
            return self._check_hs(res)
        if res["rank"] != b.rank or res["index"] != b.index:
            return False
        if cmd == "classify":
            truth = {"is_ep": b.ep, "is_core_ep": b.core_ep, "is_k_ep": b.k_ep}
            return not res["flags"] and all(
                res[key] == want for key, want in truth.items() if want is not None)
        x = matrix_from_obj(res["matrix"])
        ref = reference_inverse(b, cmd)
        if not _close(x, ref, max(_norm(ref), _norm(b.pinv0()) / b.c)):
            return False
        # the equations are homogeneous: test them on the unscaled pair,
        # where powers of A cannot overflow
        if cmd == "mp":
            return penrose_ok(b.a0, x * b.c)
        if cmd in ("drazin", "group"):
            return drazin_ok(b.a0, x * b.c, b.index)
        return True

    def _check_hs(self, res) -> bool:
        b = self.req.built
        r = res["rank"]
        if r != b.rank:
            return False
        u, sigma, q, p = (read_matrix(self.out_dir / f"{name}.json")
                          for name in ("U", "Sigma", "Q", "P"))
        top = np.hstack([sigma @ q, sigma @ p])
        block = np.zeros((b.n, b.n), complex)
        block[:r, :] = top
        eye_n, eye_r = np.eye(b.n), np.eye(r)
        return (_holds(u @ block @ u.conj().T, b.a, (u, block, u), (b.a,))
                and _holds(u @ u.conj().T, eye_n, (u, u), (eye_n,))
                and _holds(q @ q.conj().T + p @ p.conj().T, eye_r, (q, q), (eye_r,)))


class CliMixed(Workload):
    """In-process CLI requests, each on a matrix file no earlier request read."""

    name = "cli_mixed"
    cycle = CLI_CYCLE
    pool_size = CLI_CYCLE
    trace_ops = 36

    def make(self, j: int) -> CliRequest:
        rng = rng_for(self.seed, 0, j)
        i = j % CLI_CYCLE
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        kind = CLI_CLASSES[i % len(CLI_CLASSES)]
        n = 4 + i % 9
        built = build_matrix(rng, kind, n, part=1 + (i // len(CLI_CLASSES)) % (n - 1))
        if i % CLI_SCALED_EVERY == CLI_SCALED_EVERY - 1:
            stratum = (i // CLI_SCALED_EVERY) % CLI_SCALE_STRATA
            width = 600 // CLI_SCALE_STRATA
            lo = -300 + stratum * width
            built.scale_exp = int(rng.integers(lo, lo + width + 1))
        return CliRequest(j, command, built)

    def op(self, j) -> Op:
        return CliOp(self.input(j), self.workdir)

    def warm_op(self) -> Op:
        return CliOp(CliRequest(-1, "drazin", build_matrix(rng_for(0, 9), "fixed_index2", 4)),
                     self.workdir)


# ---- verify_suites

def _suite_specs(suite: str, seed: int):
    """Ensemble specs per suite, with the classes the acceptance tests use.

    Sample counts differ by suite so that each run_suite call costs about
    the same; that keeps the latency percentiles from jumping between the
    costs of different suites as the number of operations in a run varies.
    """
    E = EnsembleSpec
    return {
        "core_ep_equiv": [E(5, 2, seed, "core_ep"), E(5, 2, seed + 1, "generic")],
        "core_ep_collapse": E(5, 2, seed, "core_ep"),
        "six_part": E(5, 2, seed, "core_ep"),
        "ass": [E(5, 1, seed, "generic"), E(5, 1, seed + 1, "fixed_rank", rank=2)],
        "five_way_mp": [E(5, 1, seed, "generic"), E(5, 1, seed + 1, "ep"),
                        E(5, 1, seed + 2, "fixed_index", index=2)],
        "five_way_core": [E(5, 2, seed, "generic"), E(5, 2, seed + 1, "fixed_rank", rank=2)],
        "commute_lemma": E(6, 6, seed, "generic"),
        "ew2": E(6, 4, seed, "generic"),
        "adf": E(5, 3, seed, "generic"),
        "orders_kep": E(5, 3, seed, "generic"),
        "cce_conditional": [E(5, 2, seed, "ep"), E(5, 2, seed + 1, "generic")],
    }[suite]


def expected_samples(suite: str, specs) -> int:
    specs = [specs] if not isinstance(specs, list) else specs
    total = sum(s.count for s in specs)
    return 2 * total if suite == "ass" else total


class SuiteOp(Op):
    def __init__(self, suite, specs):
        self.suite, self.specs = suite, specs

    def run(self):
        return verify.run_suite(self.suite, self.specs)

    def check(self, rep) -> bool:
        return rep.passed and rep.samples == expected_samples(self.suite, self.specs)

    def digest(self, rep) -> str:
        return _digest(json.dumps(rep.to_dict(), sort_keys=True))


class VerifySuites(Workload):
    """run_suite over every suite in turn, each call on fresh ensemble seeds."""

    name = "verify_suites"
    cycle = 6 * len(SUITE_IDS)
    pool_size = cycle
    trace_ops = len(SUITE_IDS)

    def make(self, j):
        suite = SUITE_IDS[j % len(SUITE_IDS)]
        base = int(rng_for(self.seed, 1, j).integers(0, 2**31))
        return suite, _suite_specs(suite, base)

    def op(self, j) -> Op:
        return SuiteOp(*self.input(j))

    def warm_op(self) -> Op:
        return SuiteOp("ew2", EnsembleSpec(3, 1, 0, "generic"))


# ---- factor_large

FACTOR_FUNCS = ("pinv", "numerical_rank", "index", "drazin", "hs_decompose")
FACTOR_MATRICES = ((24, "fixed_index2"), (32, "fixed_rank"), (48, "fixed_index3"),
                   (24, "fixed_rank"), (32, "fixed_index3"), (48, "fixed_rank"))


class FactorOp(Op):
    def __init__(self, func: str, built: Built):
        self.func, self.built = func, built

    def run(self):
        return getattr(geninv, self.func)(self.built.a)

    def digest(self, out) -> str:
        if self.func == "hs_decompose":
            return _digest(out.u.tobytes(), out.sigma.tobytes(), out.q.tobytes(),
                           out.p.tobytes(), out.r)
        return _digest(out.tobytes() if isinstance(out, np.ndarray) else out)

    def check(self, out) -> bool:
        b, a = self.built, self.built.a
        if self.func == "pinv":
            return penrose_ok(a, out)
        if self.func == "numerical_rank":
            return out == b.rank
        if self.func == "index":
            return out == b.index
        if self.func == "drazin":
            return drazin_ok(a, out, b.index)
        if out.r != b.rank:
            return False
        block = np.zeros((b.n, b.n), complex)
        block[:out.r, :] = np.hstack([out.sigma_mat @ out.q, out.sigma_mat @ out.p])
        eye_r = np.eye(out.r)
        return (_holds(out.u @ block @ out.u.conj().T, a, (out.u, block, out.u), (a,))
                and _holds(out.q @ out.q.conj().T + out.p @ out.p.conj().T, eye_r,
                           (out.q, out.q), (eye_r,)))


class FactorLarge(Workload):
    """Each function of FACTOR_FUNCS on matrices of size 24, 32 and 48.

    One operation is one function call on one matrix: a whole function
    list takes 1.5 s to 6.5 s at these sizes, which would leave too few
    operations in a run for a tail percentile.
    """

    name = "factor_large"
    cycle = len(FACTOR_MATRICES) * len(FACTOR_FUNCS)
    pool_size = len(FACTOR_MATRICES)
    trace_ops = 3 * len(FACTOR_FUNCS)

    def make(self, m):
        n, kind = FACTOR_MATRICES[m % len(FACTOR_MATRICES)]
        return build_matrix(rng_for(self.seed, 2, m), kind, n)

    def op(self, j):
        return FactorOp(FACTOR_FUNCS[j % len(FACTOR_FUNCS)], self.input(j // len(FACTOR_FUNCS)))

    def warm_op(self) -> Op:
        return FactorOp("drazin", build_matrix(rng_for(0, 9), "fixed_index2", 6))


# ---- exact_oracle

EXACT_PAIRS = (("pinv", "exact_pinv"), ("drazin", "exact_drazin"), ("dmp", "exact_dmp"),
               ("mpd", "exact_mpd"), ("cmp_inverse", "exact_cmp"),
               ("mpdmp", "exact_mpdmp"), ("core_ep_inverse", "exact_core_ep"),
               ("cce_inverse", "exact_cce"))
# Mostly n = 5, so that the tail percentile (about p60 at ~25 operations a
# run) falls inside the n = 5 costs rather than at the step down to n = 4.
EXACT_SIZES = (5, 4, 5, 3, 5)


class OracleOp(Op):
    """One oracle comparison: one float inverse and its exact counterpart."""

    def __init__(self, ints, pair):
        self.ints, self.pair = ints, pair

    def run(self):
        float_name, exact_name = self.pair
        return (getattr(geninv, float_name)(self.ints.astype(complex)),
                getattr(exact, exact_name)(exact.RMatrix(self.ints.tolist())))

    def check(self, out) -> bool:
        x, want = out
        return bool(np.abs(x - want.to_complex()).max() <= ORACLE_TOL)

    def digest(self, out) -> str:
        x, want = out
        return _digest(x.tobytes(), repr(want.rows))


class ExactOracle(Workload):
    """Float inverses against the exact Gaussian-rational oracle.

    One operation is one (matrix, inverse) comparison, so a cycle has 160
    operations of 24 kinds and its percentiles are smoother than those of
    whole matrices, whose costs fall into three clusters by size.
    """

    name = "exact_oracle"
    cycle = 4 * len(EXACT_SIZES) * len(EXACT_PAIRS)
    pool_size = 4 * len(EXACT_SIZES)
    trace_ops = len(EXACT_SIZES) * len(EXACT_PAIRS)

    def make(self, m):
        n = EXACT_SIZES[m % len(EXACT_SIZES)]
        return rng_for(self.seed, 3, m).integers(-3, 4, (n, n))

    def op(self, j):
        return OracleOp(self.input(j // len(EXACT_PAIRS)), EXACT_PAIRS[j % len(EXACT_PAIRS)])

    def warm_op(self) -> Op:
        return OracleOp(np.array([[1, 2, 0], [0, 0, 1], [0, 0, 0]]), EXACT_PAIRS[-1])


WORKLOADS = {w.name: w for w in (CliMixed, VerifySuites, FactorLarge, ExactOracle)}

