"""Float against exact on every small integer matrix.

    python tools/census.py

For every 3x3 matrix with entries in {-1, 0, 1} (19,683) and every 4x4
0-1 matrix (65,536), prints the count per (index, EP, core-EP, k-EP)
class of the exact record, the number of matrices whose float rank,
index or verdicts differ from the exact ones, the worst relative
Frobenius error of the float Drazin inverse against the exact one, and
the wall time, with the time spent in each record (building it and
reading its parts and its suite verdicts). It then runs the rows of the seven suites that exact
arithmetic reaches on both records of every matrix, each record judging
its own identities, and prints per suite the verdict count, the float
verdicts that differ from the exact ones, the exact verdicts that fail
and the skip rules that differ. Float misses no rank at this size, so
the census certifies the identities and the exact path, not the float
cutoffs. Imports geninv from the `src` beside this script.
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
from geninv.kernel import _check  # noqa: E402
from geninv.verify import _SUITES  # noqa: E402

SETS = ((3, (-1, 0, 1)), (4, (0, 1)))
VERDICTS = ("index", "is_ep", "is_core_ep", "is_k_ep")
# the suites whose rows exact arithmetic reaches, with the one row it does not
SUITES = ("core_ep_equiv", "core_ep_collapse", "six_part", "ass", "five_way_mp",
          "five_way_core", "commute_lemma")
NOT_EXACT = ("dmp_pinv_commutes",)
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


def skip_note(suite, rec):
    return next((note for note, applies in suite.skips if applies(rec)), None)


def verdicts(rows, rec) -> list:
    return [_check(sides(rec), rec._compare)[0] for sides in rows]


def suite_verdicts(recs, counts: dict, spent: dict) -> None:
    """Run the rows of SUITES on the float and the exact record `recs` of
    one matrix, each judged by its own record, count into `counts` and add
    each record's time to `spent`."""
    for name in SUITES:
        suite, count = _SUITES[name], counts[name]
        fl, ex = (timed(spent, key, skip_note, suite, r) for key, r in zip(RECORDS, recs))
        count["skip differences"] += fl != ex
        if fl is not None or ex is not None:
            continue
        rows = [sides for label, sides in suite.identities if label not in NOT_EXACT]
        fl, ex = (timed(spent, key, verdicts, rows, r) for key, r in zip(RECORDS, recs))
        count["verdicts"] += len(rows)
        count["differences"] += sum(f != e for f, e in zip(fl, ex))
        count["exact failures"] += ex.count(False)


def census(n: int, entries: tuple) -> None:
    start = time.perf_counter()
    classes, differ, worst = Counter(), Counter(), 0.0
    counts = {name: dict.fromkeys(SUITE_COUNTS, 0) for name in SUITES}
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
        suite_verdicts((rec, ex), counts, spent)
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
