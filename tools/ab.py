"""Time a change against its parent in one paired, interleaved run.

    python tools/ab.py PARENT CHANGE --workload W --rounds N [--seed S]

Starts three worker processes: two for PARENT and one for CHANGE. Each
imports its tree's `src/geninv` and `bench/workloads.py`, changing
neither, with BLAS on one thread, and builds workload W at seed S. The
workers run one at a time, in one work directory. Each first hashes the
op digests of one whole cycle with `op_digests.cycle_digest`, the function
whose hash `tools/op_digests.py` prints, so ab prints the hash that
op_digests prints for (S, W); if PARENT and CHANGE differ, the tool exits
1 before any timing. Then each round runs one whole cycle on every worker,
in an order rotated by one each round, and sums the `op.run()` times of
the cycle. It prints, for CHANGE, the median ratio of its cycle time to
the mean of the two PARENT workers' in the same round (below 1 is
faster), the interquartile range of the ratios and the rounds won; and
the same for the second PARENT worker against the first, the A/A null,
which shows the noise floor of the run itself, a per-process offset
included. Judging CHANGE against the mean of two PARENT processes halves
that offset's weight in its ratio. This adds evidence; `bench/run.py` and
`BENCHMARK.json` stay the benchmark's contract.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS single-threaded, as in the benchmark; set before numpy is imported,
# and inherited by the workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from op_digests import cycle_digest  # noqa: E402  (beside this file)


def worker(tree: str, workload: str, seed: int, workdir: str) -> None:
    """Build and warm the workload, answer `ready`, then serve one command
    per line of stdin: `digest` answers `op_digests.cycle_digest` for the
    workload and seed, `time` runs a cycle and answers the sum of its
    `op.run()` times in seconds."""
    tree_path = Path(tree).resolve()
    sys.path[:0] = [str(tree_path / "src"), str(tree_path / "bench")]
    import geninv
    import workloads

    if Path(geninv.__file__).resolve().parent != tree_path / "src" / "geninv":
        sys.exit(f"error: imported geninv from {geninv.__file__}, not {tree_path}")
    wl = workloads.WORKLOADS[workload](seed, Path(workdir))
    wl.warm()
    reply = sys.stdout
    print("ready", file=reply, flush=True)
    for command in sys.stdin:
        if command.strip() == "digest":
            print(cycle_digest(workloads, workload, seed), file=reply, flush=True)
            continue
        total = 0.0
        for j in range(wl.cycle):
            op = wl.op(j)
            start = time.perf_counter()
            try:
                op.run()
            except Exception:  # an operation that raises is timed too
                pass
            total += time.perf_counter() - start
            op.cleanup()
        print(repr(total), file=reply, flush=True)


class Worker:
    """One worker process and its command pipe, started once the worker
    before it is ready, since all of them share one work directory."""

    def __init__(self, tree: str, args, workdir: str):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", tree, args.workload, str(args.seed), workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ask(None)

    def ask(self, command: str | None) -> str:
        """The worker's answer to `command`, or its next line for None."""
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return line.strip()

    def close(self) -> None:
        """End of input stops the worker; one that does not stop is killed."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def summary(label: str, ratios: list[float]) -> str:
    q1, median, q3 = np.percentile(ratios, (25, 50, 75))
    wins = sum(r < 1.0 for r in ratios)
    return (f"{label}: median ratio {median:.4f}, IQR {q3 - q1:.4f} ({q1:.4f}-{q3:.4f}), "
            f"faster in {wins} of {len(ratios)} rounds")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        worker(argv[1], argv[2], int(argv[3]), argv[4])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix="geninv-ab-")
    names = ("parent", "change", "parent2")
    workers = {}
    try:
        for name, tree in zip(names, (args.parent, args.change, args.parent)):
            workers[name] = Worker(tree, args, workdir)
        digests = {name: w.ask("digest") for name, w in workers.items()}
        if digests["parent"] != digests["change"]:
            print(f"error: op digests differ: parent {digests['parent']}, "
                  f"change {digests['change']}", file=sys.stderr)
            return 1
        print(f"{args.workload} seed {args.seed}: op digests agree ({digests['parent']})")
        times = {name: [] for name in names}
        start = time.perf_counter()
        for r in range(args.rounds):
            for name in names[r % 3:] + names[:r % 3]:
                times[name].append(float(workers[name].ask("time")))
        parents = [(p + q) / 2 for p, q in zip(times["parent"], times["parent2"])]
        print(f"{args.rounds} rounds in {time.perf_counter() - start:.1f} s; "
              f"median parent cycle {np.median(parents) * 1e3:.1f} ms")
        print(summary("change/mean(parent, parent2)",
                      [t / p for t, p in zip(times["change"], parents)]))
        print(summary("null parent2/parent",
                      [t / p for t, p in zip(times["parent2"], times["parent"])]))
    finally:
        for w in workers.values():
            w.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
