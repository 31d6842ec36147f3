"""Hashes of the benchmark's operation outputs, for comparing two trees.

    python tools/op_digests.py TREE
    python tools/op_digests.py PARENT CHANGE

With one tree, imports TREE/src/geninv and TREE/bench/workloads.py,
changing neither, runs one full cycle of each workload at seeds 0 and 401
and prints one sha256 over the op digests per (seed, workload). Two trees
whose lines agree give bit-identical outputs on every benchmark operation.
With two, runs each tree in its own interpreter, one after the other,
prints their lines side by side and exits 1 if any pair differs, 2 if
either run fails. The work directory is fixed, since `geninv hs` prints
the paths it writes; a run holds a lock on it for each cycle, so runs
started at once wait for each other.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# BLAS single-threaded, as in the benchmark; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEEDS = (0, 401)
WORK = Path(tempfile.gettempdir()) / "geninv-op-digests"
LOCK = WORK.with_name(WORK.name + ".lock")


def cycle_digest(workloads, name: str, seed: int) -> str:
    """The sha256 over the op digests of one full cycle of workload `name`
    of the `workloads` module at `seed`, built fresh in the fixed work
    directory WORK and run without warming, under an exclusive lock on
    LOCK, so that two runs at once take turns. An operation that raises
    hashes its exception type and message. `tools/ab.py` checks its trees
    with this function too, so both tools print the same hash for one
    (seed, workload)."""
    with open(LOCK, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # a second run waits: WORK is shared
        shutil.rmtree(WORK, ignore_errors=True)
        wl, h = workloads.WORKLOADS[name](seed, WORK), hashlib.sha256()
        try:
            for j in range(wl.cycle):
                op = wl.op(j)
                try:
                    h.update(op.digest(op.run()).encode())
                except Exception as exc:  # an operation that raises is an output too
                    h.update(f"{type(exc).__name__}: {exc}".encode())
                op.cleanup()
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    return h.hexdigest()


def compare(parent: str, change: str) -> int:
    """Print the lines of both trees side by side: 1 if any pair differs,
    2 if either run fails."""
    lines = []
    for tree in (parent, change):
        run = subprocess.run([sys.executable, __file__, tree], stdout=subprocess.PIPE, text=True)
        if run.returncode:
            print(f"error: op_digests.py {tree} exited with {run.returncode}", file=sys.stderr)
            return 2
        lines.append(run.stdout.splitlines())
    for p, c in itertools.zip_longest(*lines, fillvalue=""):
        print(f"{p:<97} | {c}" + ("" if p == c else "  DIFFERS"))
    return int(lines[0] != lines[1])


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        return compare(*argv)
    if len(argv) != 1:
        print("usage: op_digests.py TREE | op_digests.py PARENT CHANGE", file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import geninv
    import workloads

    if Path(geninv.__file__).resolve().parent != tree / "src" / "geninv":
        sys.exit(f"error: imported geninv from {geninv.__file__}, not {tree}")
    for seed in SEEDS:
        for name, cls in workloads.WORKLOADS.items():
            digest = cycle_digest(workloads, name, seed)
            print(f"seed {seed:3d} {name:14s} {cls.cycle:4d} ops {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
