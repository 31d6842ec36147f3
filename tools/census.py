"""Float against exact on every small integer matrix.

    python tools/census.py

For every 3x3 matrix with entries in {-1, 0, 1} (19,683) and every 4x4
0-1 matrix (65,536), prints the count per (index, EP, core-EP, k-EP)
class of the exact record, the number of matrices whose float rank,
index or verdicts differ from the exact ones, the worst relative
Frobenius error of the float Drazin inverse against the exact one, and
the wall time, with the time spent in each record (building it and
reading its parts and its suite verdicts). It then judges the suites
that exact arithmetic reaches (`verify._exact_reach`) on both records of
every matrix, each record judging its own identities, and prints per
suite the verdict count, the float verdicts that differ from the exact
ones, the exact verdicts that fail and the skip rules that differ. Every
single-matrix suite is in that reach, so each matrix is judged in this one
pass. Float misses no rank at this size, so the census certifies the
identities and the exact path, not the float cutoffs. Imports geninv from
the `src` beside this script.
"""

from __future__ import annotations

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

from geninv import DEFAULT_TOL  # noqa: E402
from geninv.drazin import _analyse  # noqa: E402
from geninv.exact import RMatrix, _ExactAnalysis  # noqa: E402
from geninv.verify import _exact_reach  # noqa: E402

SETS = ((3, (-1, 0, 1)), (4, (0, 1)))
VERDICTS = ("index", "is_ep", "is_core_ep", "is_k_ep")
SUITE_COUNTS = ("verdicts", "differences", "exact failures", "skip differences")
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


def suite_verdicts(suites: dict, recs, counts: dict, spent: dict) -> None:
    """Judge each of `suites` on the float and the exact record `recs` of
    one matrix, count into `counts` and add each record's time to `spent`."""
    for name, suite in suites.items():
        fl, ex = (timed(spent, key, suite.judge, r) for key, r in zip(RECORDS, recs))
        count = counts[name]
        if isinstance(fl, str) or isinstance(ex, str):
            count["skip differences"] += fl != ex
            continue
        count["verdicts"] += len(ex)
        count["differences"] += sum(f[1] != e[1] for f, e in zip(fl, ex))
        count["exact failures"] += sum(not e[1] for e in ex)


def census(n: int, entries: tuple) -> None:
    start = time.perf_counter()
    classes, differ, worst = Counter(), Counter(), 0.0
    suites = _exact_reach()
    counts = {name: dict.fromkeys(SUITE_COUNTS, 0) for name in suites}
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
        suite_verdicts(suites, (rec, ex), counts, spent)
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


if __name__ == "__main__":
    for n, entries in SETS:
        census(n, entries)
