"""Float against exact on every small integer matrix and pair.

    python tools/census.py

For every 3x3 matrix with entries in {-1, 0, 1} (19,683) and every 4x4
0-1 matrix (65,536), prints the count per (index, EP, core-EP, k-EP)
class of the exact record, the number of matrices whose float rank,
index or verdicts differ from the exact ones, the worst relative
Frobenius error of the float Drazin inverse against the exact one, and
the wall time, with the time spent in each record (building it and
reading its parts and its suite verdicts). It then judges every suite of
`verify._SUITES` on both records of every matrix, each record judging its
own identities: a single-matrix suite the record, a pair suite (one whose
row's source draws pairs) the record and its core part. Per suite it
prints the verdict count, the float verdicts that differ from the exact
ones, the exact verdicts that fail and the skip rules that differ.

On every nonzero 3x3 matrix with entries in {-1, 0, 1} (19,682) it then
judges each block EP criterion, `cmp_ep_criterion`, `mpdmp_ep_criterion`
and `cce_ep_criterion` (float, on the factors of the float record),
against the exact test "X is EP", X the CMP, MPDMP or CCE inverse of the
exact record, and prints per criterion the matrices whose X is EP, the
differences and the time.

The pair pass then judges every pair of 2x2 matrices with entries in
{-1, 0, 1} (6,561) and a seeded sample of pairs of the 3x3 set on both
records: the pair suites, with the exact failures whose left operand is
k-EP (the domain of `orders_kep`), and `orders.leq` under each relation,
with the pairs it holds for. It counts the held pairs with A^D != 0 and
a != b by the relations that hold for them, and on the full 2x2 set
tests each relation for reflexivity, transitivity over every chain of
held pairs and antisymmetry, counting the antisymmetry failures whose two
matrices have A^D = B^D = 0 (where g = 0 makes every relation hold).

Float misses no rank at these sizes, so the census certifies the
identities and the exact path, not the float cutoffs. Imports geninv from
the `src` beside this script.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from collections import Counter
from pathlib import Path

# BLAS single-threaded, as in the benchmark; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from geninv import (DEFAULT_TOL, OrderKind, cce_ep_criterion, cmp_ep_criterion,  # noqa: E402
                    leq, mpdmp_ep_criterion)
from geninv.drazin import _analyse  # noqa: E402
from geninv.exact import RMatrix, _ExactAnalysis  # noqa: E402
from geninv.verify import _SUITES  # noqa: E402

SETS = ((3, (-1, 0, 1)), (4, (0, 1)))
# the block EP criteria, by the inverse X whose EP-ness each tests, on this set
CRITERIA = {"cmp": cmp_ep_criterion, "mpdmp": mpdmp_ep_criterion, "cce": cce_ep_criterion}
CRITERION_SET = (3, (-1, 0, 1))
# the pair pass: the full 2x2 set, and this many pairs of the 3x3 set
PAIR_SETS = ((2, (-1, 0, 1), None), (3, (-1, 0, 1), 10_000))
PAIR_SEED = 0
VERDICTS = ("index", "is_ep", "is_core_ep", "is_k_ep")
SUITE_COUNTS = ("verdicts", "differences", "exact failures", "skip differences")
PAIR_SUITES = {name: s for name, s in _SUITES.items() if s.pairwise}
# each record of an integer matrix, by the name its time is summed under
RECORDS = {"float": lambda a: _analyse(a.astype(complex), DEFAULT_TOL),
           "exact": lambda a: _ExactAnalysis(RMatrix(a))}


def timed(spent: dict, key: str, work, *args):
    """work(*args), its time added to spent[key]."""
    start = time.perf_counter()
    out = work(*args)
    spent[key] += time.perf_counter() - start
    return out


def read(make, a):
    """The record make(a) and its ((index, EP, core-EP, k-EP), rank, A^D)."""
    rec = make(a)
    return rec, (tuple(getattr(rec, v) for v in VERDICTS), rec.rank, rec.drazin)


def judge(suite, rec):
    """The suite's verdicts on the subject it takes of one matrix: the
    record, or for a pair suite the record and its core part."""
    return suite.judge((rec, rec.core) if suite.pairwise else rec)


def tally(count: dict, fl, ex) -> None:
    """Count the float and the exact verdicts `fl` and `ex` on one subject,
    each a skip note or (label, holds, ...) per identity, into `count`."""
    if isinstance(fl, str) or isinstance(ex, str):
        count["skip differences"] += fl != ex
        return
    count["verdicts"] += len(ex)
    count["differences"] += sum(f[1] != e[1] for f, e in zip(fl, ex))
    count["exact failures"] += sum(not e[1] for e in ex)


def census(n: int, entries: tuple) -> None:
    start = time.perf_counter()
    classes, differ, worst = Counter(), Counter(), 0.0
    counts = {name: dict.fromkeys(SUITE_COUNTS, 0) for name in _SUITES}
    spent = dict.fromkeys(RECORDS, 0.0)
    for flat in itertools.product(entries, repeat=n * n):
        a = np.array(flat).reshape(n, n)
        (rec, fl), (ex, got) = (timed(spent, key, read, make, a) for key, make in RECORDS.items())
        classes[got[0]] += 1
        differ["rank"] += fl[1] != got[1]
        differ["index"] += fl[0][0] != got[0][0]
        differ["verdicts"] += fl[0][1:] != got[0][1:]
        d = got[2].to_complex()
        err, ref = np.linalg.norm(fl[2] - d), np.linalg.norm(d)
        worst = max(worst, err / ref if ref else (0.0 if err == 0 else np.inf))
        for name, suite in _SUITES.items():
            tally(counts[name], *(timed(spent, key, judge, suite, r)
                                  for key, r in zip(RECORDS, (rec, ex))))
    print(f"{n}x{n}, entries in {{{', '.join(map(str, entries))}}}: {sum(classes.values()):,} matrices")
    print("  (index, EP, core-EP, k-EP): count")
    for cls, count in sorted(classes.items()):
        print(f"    {cls}: {count:,}")
    print("  float/exact differences: " + ", ".join(f"{k} {v}" for k, v in differ.items()))
    print(f"  worst relative Drazin error: {worst:.2g}")
    print("  suite: " + ", ".join(SUITE_COUNTS))
    for name, count in counts.items():
        print(f"    {name}: " + ", ".join(f"{v:,}" for v in count.values()))
    print(f"    all: {sum(c['verdicts'] for c in counts.values()):,} verdicts")
    print(f"  wall time: {time.perf_counter() - start:.1f} s; "
          + ", ".join(f"{key} record {t:.1f} s" for key, t in spent.items()), flush=True)


def criterion_verdicts(name: str, h, ex) -> tuple[bool, bool]:
    """(the block criterion of the inverse `name` on the float factors h,
    the exact test that this inverse of the exact record ex is EP)."""
    return CRITERIA[name](h), ex._of(getattr(ex, name)).is_ep


def criterion_pass(n: int, entries: tuple) -> None:
    """Each block EP criterion (float) against the exact test "X is EP" on
    every nonzero n x n matrix over `entries`; see the module docstring."""
    start, total = time.perf_counter(), 0
    counts = {name: Counter() for name in CRITERIA}
    spent = dict.fromkeys(CRITERIA, 0.0)
    for flat in itertools.product(entries, repeat=n * n):
        a = np.array(flat).reshape(n, n)
        if not a.any():
            continue
        total += 1
        h, ex = RECORDS["float"](a).hs, RECORDS["exact"](a)
        for name in CRITERIA:
            f, e = timed(spent, name, criterion_verdicts, name, h, ex)
            counts[name].update(ep=e, differences=f != e)
    print(f"{n}x{n} block EP criteria, entries in {{{', '.join(map(str, entries))}}}: "
          f"{total:,} nonzero matrices")
    print("  criterion (X): X is EP (exact), differences, time")
    for name, c in counts.items():
        print(f"    {CRITERIA[name].__name__} ({name}): {c['ep']:,}, {c['differences']:,}, "
              f"{spent[name]:.1f} s")
    print(f"  wall time: {time.perf_counter() - start:.1f} s", flush=True)


def axioms(held: set, size: int, zero) -> tuple[int, int, int, int, int]:
    """(reflexive matrices, chains a <= b <= c, chains with a <= c failing,
    antisymmetry failures, those with A^D = B^D = 0) of one relation, held
    for the pairs (i, j) in `held` of `size` matrices, zero(i) telling
    whether A^D = 0 for matrix i; each failure of antisymmetry is an
    unordered pair of distinct matrices that relate both ways."""
    after = {}
    for i, j in held:
        after.setdefault(i, set()).add(j)
    chains = [(i, k) for i, j in held for k in after.get(j, ())]
    both = [(i, j) for i, j in held if i < j and (j, i) in held]
    return (sum((i, i) in held for i in range(size)), len(chains),
            sum((i, k) not in held for i, k in chains), len(both),
            sum(zero(i) and zero(j) for i, j in both))


def pair_pass(n: int, entries: tuple, sample: int | None) -> None:
    """Judge every pair of n x n matrices over `entries`, or `sample` pairs
    drawn with PAIR_SEED, on both records; see the module docstring."""
    start = time.perf_counter()
    mats = list(itertools.product(entries, repeat=n * n))
    if sample is None:
        pairs = list(itertools.product(range(len(mats)), repeat=2))
    else:
        pairs = np.random.default_rng(PAIR_SEED).integers(len(mats), size=(sample, 2)).tolist()

    @functools.lru_cache(maxsize=1024)  # holds the 2x2 set; a sample seldom repeats
    def record(key: str, i: int):
        return RECORDS[key](np.array(mats[i]).reshape(n, n))

    def zero(i: int) -> bool:
        return record("exact", i).drazin.is_zero()

    counts = {name: Counter() for name in PAIR_SUITES}
    relations = {kind: Counter() for kind in OrderKind}
    held = {kind: set() for kind in OrderKind}
    for i, j in pairs:
        fl, ex = ((record(key, i), record(key, j)) for key in RECORDS)
        for name, suite in PAIR_SUITES.items():
            f, e = suite.judge(fl), suite.judge(ex)
            tally(counts[name], f, e)
            if ex[0].is_k_ep:
                counts[name]["k-EP left"] += sum(not v[1] for v in e)
        for kind in OrderKind:
            f, e = leq(*fl, kind).holds, leq(*ex, kind).holds
            relations[kind].update(verdicts=1, differences=f != e, held=e)
            if e:
                held[kind].add((i, j))
    by_relations = Counter(
        tuple(kind.value for kind in OrderKind if (i, j) in held[kind])
        for i, j in set().union(*held.values())
        if i != j and not zero(i))
    what = f"{len(pairs):,} pairs" + (f" drawn with seed {PAIR_SEED}" if sample else "")
    print(f"{n}x{n} pairs, entries in {{{', '.join(map(str, entries))}}}: {what}")
    print("  suite: verdicts, differences, exact failures (with a k-EP left operand)")
    for name, c in counts.items():
        print(f"    {name}: {c['verdicts']:,}, {c['differences']:,}, "
              f"{c['exact failures']:,} ({c['k-EP left']:,})")
    print("  relation: verdicts, differences, held")
    for kind, c in relations.items():
        print(f"    {kind.value}: {c['verdicts']:,}, {c['differences']:,}, {c['held']:,}")
    print(f"  held with A^D != 0 and a != b: {sum(by_relations.values()):,}"
          + "".join(f"; {' '.join(k)} {v:,}" for k, v in sorted(
              by_relations.items(), key=lambda kv: (len(kv[0]), -kv[1], kv[0]))))
    if sample is None:
        print("  relation: reflexive, chains, transitivity failures, "
              "antisymmetry failures (with A^D = B^D = 0)")
        for kind in OrderKind:
            r, c, t, s, z = axioms(held[kind], len(mats), zero)
            print(f"    {kind.value}: {r:,} of {len(mats):,}, {c:,}, {t:,}, {s:,} ({z:,})")
    print(f"  wall time: {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    for n, entries in SETS:
        census(n, entries)
    criterion_pass(*CRITERION_SET)
    for n, entries, sample in PAIR_SETS:
        pair_pass(n, entries, sample)
