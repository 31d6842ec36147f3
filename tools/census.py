"""Float against exact on every small integer matrix.

    python tools/census.py

For every 3x3 matrix with entries in {-1, 0, 1} (19,683) and every 4x4
0-1 matrix (65,536), prints the count per (index, EP, core-EP, k-EP)
class of the exact record, the number of matrices whose float rank,
index or verdicts differ from the exact ones, the worst relative
Frobenius error of the float Drazin inverse against the exact one, and
the wall time. Imports geninv from the `src` beside this script.
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

SETS = ((3, (-1, 0, 1)), (4, (0, 1)))
VERDICTS = ("index", "is_ep", "is_core_ep", "is_k_ep")


def census(n: int, entries: tuple) -> None:
    start = time.perf_counter()
    classes, differ, worst = Counter(), Counter(), 0.0
    for flat in itertools.product(entries, repeat=n * n):
        a = np.array(flat).reshape(n, n)
        rec, ex = _analyse(a.astype(complex), DEFAULT_TOL), _ExactAnalysis(RMatrix(a))
        got = tuple(getattr(ex, v) for v in VERDICTS)
        classes[got] += 1
        differ["rank"] += rec.rank != ex.rank
        differ["index"] += rec.index != ex.index
        differ["verdicts"] += tuple(getattr(rec, v) for v in VERDICTS[1:]) != got[1:]
        d = ex.drazin.to_complex()
        err, ref = np.linalg.norm(rec.drazin - d), np.linalg.norm(d)
        worst = max(worst, err / ref if ref else (0.0 if err == 0 else np.inf))
    print(f"{n}x{n}, entries in {{{', '.join(map(str, entries))}}}: {sum(classes.values()):,} matrices")
    print("  (index, EP, core-EP, k-EP): count")
    for cls, count in sorted(classes.items()):
        print(f"    {cls}: {count:,}")
    print("  float/exact differences: " + ", ".join(f"{k} {v}" for k, v in differ.items()))
    print(f"  worst relative Drazin error: {worst:.2g}")
    print(f"  wall time: {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    for n, entries in SETS:
        census(n, entries)
