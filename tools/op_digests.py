"""Hashes of the benchmark's operation outputs, for comparing two trees.

    python tools/op_digests.py TREE
    python tools/op_digests.py PARENT CHANGE

With one tree, imports TREE/src/geninv and TREE/bench/workloads.py as
TREE/bench/run.py does, changing neither, runs one full cycle of each workload at seeds 0 and 401
and prints one sha256 over the op digests per (seed, workload). Two trees
whose lines agree give bit-identical outputs on every benchmark operation.
With two, runs each tree in its own interpreter, one after the other,
prints their lines side by side and exits 1 if any pair differs, 2 if
either run fails. Below a pair that differs it names the ops behind it,
one line each: the op index, and for `cli_mixed` the command and the
matrix class, read from one more cycle of that workload in each tree.
The work directory is fixed, since `geninv hs` prints the paths it
writes; a run holds a lock on it for each cycle, so runs started at once
wait for each other.
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


def op_digests(workloads, name: str, seed: int) -> list[tuple[str, str]]:
    """(label, digest) per op of one full cycle of workload `name` of the
    `workloads` module at `seed`, built fresh in the fixed work directory
    WORK and run without warming, under an exclusive lock on LOCK, so that
    two runs at once take turns. The label is the op index, and for a CLI
    op its command and matrix class; an operation that raises digests as
    its exception type and message."""
    with open(LOCK, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # a second run waits: WORK is shared
        shutil.rmtree(WORK, ignore_errors=True)
        wl, out = workloads.WORKLOADS[name](seed, WORK), []
        try:
            for j in range(wl.cycle):
                op = wl.op(j)
                try:
                    digest = op.digest(op.run())
                except Exception as exc:  # an operation that raises is an output too
                    digest = f"{type(exc).__name__}: {exc}"
                req = getattr(op, "req", None)  # a CLI op's request
                label = f"op {j}" + (f" {req.command} {req.built.kind}" if req else "")
                out.append((label, digest))
                op.cleanup()
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    return out


def cycle_digest(workloads, name: str, seed: int) -> str:
    """The sha256 over the op digests (`op_digests`) of one full cycle of
    workload `name` at `seed`."""
    h = hashlib.sha256()
    for _, digest in op_digests(workloads, name, seed):
        h.update(digest.encode())
    return h.hexdigest()


def _import_tree(tree: str):
    """The `workloads` module of TREE/bench, imported by TREE/bench/run.py's
    `import_library`, which imports geninv from TREE/src and exits if it
    comes from anywhere else."""
    sys.path.insert(0, str(Path(tree).resolve() / "bench"))
    import run

    return run.import_library()


def print_ops(tree: str, name: str, seed: str) -> None:
    """Print one tab-separated (label, digest) line per op of one cycle of
    workload `name` at `seed` of TREE."""
    for label, digest in op_digests(_import_tree(tree), name, int(seed)):
        print(f"{label}\t{digest}")


def _run(tree: str, *cycle: str) -> list[str] | None:
    """The stdout lines, from a fresh interpreter, of this script on TREE,
    or with `cycle` = (workload, seed) of `print_ops`; None, said on
    stderr, if the run fails."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import op_digests; op_digests.print_ops(*sys.argv[1:])")
    argv = ["-c", code, tree, *cycle] if cycle else [__file__, tree]
    run = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, text=True)
    if run.returncode:
        print(f"error: op_digests.py on {tree} {' '.join(cycle)} exited with {run.returncode}",
              file=sys.stderr)
        return None
    return run.stdout.splitlines()


def compare(parent: str, change: str) -> int:
    """Print the lines of both trees side by side, and below a pair that
    differs the ops behind it: 1 if any pair differs, 2 if a run fails."""
    lines = [_run(tree) for tree in (parent, change)]
    if None in lines:
        return 2
    for p, c in itertools.zip_longest(*lines, fillvalue=""):
        print(f"{p:<97} | {c}" + ("" if p == c else "  DIFFERS"), flush=True)
        if p != c and p and c:
            _, seed, name = p.split()[:3]
            ops = [_run(tree, name, seed) for tree in (parent, change)]
            if None in ops:
                return 2
            for po, co in zip(*ops):
                if po != co:
                    print("    " + po.split("\t")[0], flush=True)
    return int(lines[0] != lines[1])


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        return compare(*argv)
    if len(argv) != 1:
        print("usage: op_digests.py TREE | op_digests.py PARENT CHANGE", file=sys.stderr)
        return 2
    workloads = _import_tree(argv[0])
    for seed in SEEDS:
        for name, cls in workloads.WORKLOADS.items():
            digest = cycle_digest(workloads, name, seed)
            print(f"seed {seed:3d} {name:14s} {cls.cycle:4d} ops {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
