"""geninv benchmark: one workload per run, closed loop, one client, one thread.

    python3 bench/run.py --workload cli_mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs a fixed pass of operations untraced and traced, checks that both give
bit-identical outputs, and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One client in one process with no extra threads: BLAS runs single-threaded.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def import_library():
    """Import geninv from this checkout's src/ and nowhere else."""
    if not (SRC / "geninv" / "__init__.py").is_file():
        sys.exit(f"error: no geninv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import geninv
    if Path(geninv.__file__).resolve().parent != SRC / "geninv":
        sys.exit(f"error: imported geninv from {geninv.__file__}, not {SRC}")
    import workloads
    return workloads


def measure_setup(workload: str, seed: int):
    """Wall times of fresh interpreters that import geninv and build the
    workload's inputs, each followed by a calibration sample."""
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        samples.append(calibration.sample())
    return times, samples


class OutputCheckError(RuntimeError):
    """An output check could not run."""


def run_op(op, errors: collections.Counter):
    """Time op.run(); returns (seconds, output or None if it raised).

    An operation that raises counts as failed; the exception's type is
    counted in `errors` and shown in the run's table."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        errors[type(exc).__name__] += 1
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, out


def check_op(op, out) -> bool:
    if out is None:
        return False
    try:
        return bool(op.check(out))
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        raise OutputCheckError(f"{type(op).__name__}: {exc!r}") from exc


def timed_loop(wl, seconds: float):
    """A fixed amount of work: as many whole cycles as fit in `seconds` at
    the workload's nominal cycle time, at least one. Fixed work keeps the
    set of operations, and so every percentile's rank, the same between
    runs on a busy or an idle host and between program versions. Returns
    the operation times, a calibration sample taken after each, the failure
    count and the exceptions raised, by type."""
    latencies, samples, failed, errors = [], [], 0, collections.Counter()
    for j in range(wl.cycle * max(1, int(seconds / wl.cycle_seconds))):
        op = wl.op(j)
        dt, out = run_op(op, errors)
        latencies.append(dt)
        failed += not check_op(op, out)
        op.cleanup()
        samples.append(calibration.sample())
    return latencies, samples, failed, errors


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution over
    their ranks. Operation costs cluster by kind, and a single order
    statistic jumps across the gaps between clusters from run to run; the
    weighted mean moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf[np.isfinite(log_pdf)].max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def tail_quantile(n: int):
    """The highest quantile with TAIL_BEYOND samples beyond it, or None."""
    return (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else None


def end_to_end(wl, seed, seconds):
    """End-to-end metrics; times are scaled to the calibration's reference
    speed (see calibration.py), raw figures go to the notes."""
    setup_raw, setup_cal = measure_setup(wl.name, seed)
    setup_s = statistics.median(calibration.to_reference(setup_raw, setup_cal))
    raw, samples, failed, errors = timed_loop(wl, seconds)
    latencies = calibration.to_reference(raw, samples)
    attempted = len(latencies)
    busy = sum(latencies)
    speed = sum(raw) / busy
    tail_q = tail_quantile(attempted)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((attempted - failed) / busy, "1/s"),
        "latency_p50_ms": (hd_quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_tail_ms": ((hd_quantile(latencies, tail_q) if tail_q else max(latencies)) * 1e3,
                            "ms"),
        "pass_share": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": (f"median of {SETUP_REPEATS} fresh interpreters, "
                    f"raw {statistics.median(setup_raw):.4f} s"),
        "ops_per_s": (f"{attempted - failed} passed ops in {busy:.2f} s of operation time; "
                      f"host ran at {1 / speed:.3f} of reference speed"),
        "latency_p50_ms": f"Harrell-Davis, {attempted} samples",
        "latency_tail_ms": (f"Harrell-Davis p{100 * tail_q:.1f}, {attempted} samples, "
                            f"{TAIL_BEYOND} beyond" if tail_q else
                            f"max of {attempted} samples: too few for a tail"),
        "pass_share": (f"fail_share {failed / attempted:.4f} = {failed} of {attempted}"
                       + "".join(f", {n} raised {name}" for name, n in errors.items())),
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return metrics, notes, attempted, failed, tail_q is not None


def traced(wl, seconds, trace_path):
    """A fixed pass of operations, traced and untraced, repeated in pairs
    while time allows; at least one pair.

    The first pass is traced, so that it sees its inputs fresh; later pairs
    alternate which half runs first, so that the overhead estimate does not
    favour either. Per-layer counts come from the first traced pass, the
    overhead from all pairs, and every pass must give bit-identical outputs.
    """
    from tracing import Tracer
    ops = range(wl.trace_ops)
    attempted = failed = 0
    errors = collections.Counter()
    busy = {True: 0.0, False: 0.0}
    digests = {}
    first = None
    start, pair_s = time.perf_counter(), 0.0
    pairs = 0
    while first is None or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        for tracing_on in ((True, False) if pairs % 2 == 0 else (False, True)):
            tracer = Tracer()
            if tracing_on:
                tracer.install()
            try:
                for j in ops:
                    op = wl.op(j)
                    tracer.op = j
                    dt, out = run_op(op, errors)
                    busy[tracing_on] += dt
                    attempted += 1
                    failed += not check_op(op, out)
                    digest = None if out is None else op.digest(out)
                    if digests.setdefault(j, digest) != digest:
                        raise OutputCheckError(f"op {j}: traced and untraced outputs differ")
                    if out is not None:
                        tracer.count("cli.bytes_io", op.io_bytes(out))
                    op.cleanup()
            finally:
                tracer.uninstall()
            if tracing_on and first is None:
                first = tracer
        pair_s = time.perf_counter() - pair_start
        pairs += 1
    first.write(trace_path)
    metrics = first.layer_metrics(len(ops))
    metrics["trace.overhead_share"] = (1.0 - busy[False] / busy[True], "1")
    return metrics, attempted, failed


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args, workloads) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm()
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed = traced(wl, args.seconds, trace_path)
            print(f"workload {wl.name} seed {args.seed} traced pass of {wl.trace_ops} ops, "
                  f"spans in {trace_path.relative_to(ROOT)}")
            for key, (value, unit) in metrics.items():
                print(f"  {key:28s} {value:14.6g} {unit}")
            correct = True
        else:
            metrics, notes, attempted, failed, correct = end_to_end(wl, args.seed, args.seconds)
            print(f"workload {wl.name} seed {args.seed} seconds {args.seconds}")
            for key, (value, unit) in metrics.items():
                print(f"  {key:16s} {value:12.6g} {unit:4s} ({notes[key]})")
    except OutputCheckError as exc:
        print(f"error: output check could not run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(correct, attempted, failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is per workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


WORKLOAD_NAMES = ("cli_mixed", "verify_suites", "factor_large", "exact_oracle")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import geninv, build the inputs and exit (times set-up)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = import_library()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, WORK / "setup")
        return 0
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
