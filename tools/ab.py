"""Time a change against its parent with the benchmark itself.

    python tools/ab.py PARENT CHANGE [--workload W] [--pairs N] [--seed S]

Copies each tree's `src/`, `bench/` and `BENCHMARK.json` into two sibling
directories with equal-length names under one temporary directory, since
the latencies may depend on the checkout's directory. Exits 2 before any
run unless both `bench/` trees and both `BENCHMARK.json` files are
byte-identical. Then, for each workload (all of BENCHMARK.json's unless W
is given) and each seed S to S+N-1, runs the benchmark's command with
`--trace 0` and its run length on both sides, alternating which side runs
first. A run that fails, or whose last line is not a result, exits 2.

Per workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict: `gain` when the change won at least nine tenths of the pairs and
the medians differ by more than the parent's quartile spread; `worse` when
the change's median is worse than the parent's by more than the metric's
bound; `unresolved` when the parent's quartile spread is wider than that
bound, unless every run of the change beat every run of the parent; and
`no worse` otherwise. The last line is the `bench_pairs` JSON object that
`BENCH_*.json` files carry. An A/A run, `ab.py TREE TREE`, shows the noise
floor. `setup_s` spreads past its bound between runs of one tree: a `gain`
on it from one 10-pair batch needs a second batch at other seeds
(`--seed 11`) before it is believed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COPIED = ("src", "bench", "BENCHMARK.json")
IDENTICAL = ("bench", "BENCHMARK.json")


def tree_bytes(path: Path) -> dict[str, bytes]:
    """Every file under `path` (or `path` itself) by relative name."""
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    return {str(p.relative_to(path)): p.read_bytes() for p in files}


def median_q1_q3(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(x, 4) for x in (statistics.median(values), q1, q3)]


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One cell of `bench_pairs`: the runs of both sides, as the benchmark
    printed them, in pair order, with their quartiles, wins and verdict."""
    sign = 1 if better == "higher" else -1
    pq, cq = median_q1_q3(parent), median_q1_q3(change)
    lead, spread = sign * (cq[0] - pq[0]), pq[2] - pq[1]
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if 10 * won >= 9 * len(parent) and lead > spread:
        verdict = "gain"
    elif lead < -bound * abs(pq[0]):
        verdict = "worse"
    elif spread > bound * abs(pq[0]) and min(sign * c for c in change) <= max(
            sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"parent": parent, "change": change, "parent_median_q1_q3": pq,
            "change_median_q1_q3": cq, "change_better": won, "verdict": verdict}


def run(side: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or "metrics" not in result:
        print(f"error: the {side.name} run of {workload} at seed {seed} failed "
              f"(exit code {proc.returncode})", file=sys.stderr)
        sys.exit(2)
    return result


def pairs(sides: list[Path], config: dict, workload: str, seeds: range) -> dict:
    """Alternating runs of both sides at each seed, summarised per metric."""
    runs = {side.name: [] for side in sides}
    for i, seed in enumerate(seeds):
        for side in sides[::-1] if i % 2 else sides:
            runs[side.name].append(run(side, config["command"], workload, seed,
                                       config["run_seconds"]))
    entry = {"workload": workload, "seeds": [seeds[0], seeds[-1]], "pairs": len(seeds),
             "failed_ops": {name: sum(r["failed"] for r in rs) for name, rs in runs.items()}}
    for metric in config["end_to_end"]:
        name = metric["name"]
        parent, change = ([round(r["metrics"][name]["value"], 4) for r in runs[s.name]]
                          for s in sides)
        cell = entry[name] = summary(parent, change, metric["better"], metric["bound"])
        print(f"{workload:14s} {name:16s} parent {cell['parent_median_q1_q3']}  "
              f"change {cell['change_median_q1_q3']}  won {cell['change_better']} of "
              f"{len(seeds)}  {cell['verdict']}", flush=True)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    with tempfile.TemporaryDirectory(prefix="geninv-ab-") as tmp:
        sides = [Path(tmp) / "parent", Path(tmp) / "change"]
        for tree, side in zip((args.parent, args.change), sides):
            side.mkdir()
            for name in COPIED:
                if (tree / name).is_dir():
                    shutil.copytree(tree / name, side / name,
                                    ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
                else:
                    shutil.copy2(tree / name, side / name)
        for name in IDENTICAL:
            if tree_bytes(sides[0] / name) != tree_bytes(sides[1] / name):
                print(f"error: {name} differs between {args.parent} and {args.change}",
                      file=sys.stderr)
                return 2
        config = json.loads((sides[0] / "BENCHMARK.json").read_text())
        names = [w["name"] for w in config["workloads"]]
        seeds = range(args.seed, args.seed + args.pairs)
        entries = [pairs(sides, config, w, seeds)
                   for w in ([args.workload] if args.workload else names)]
    print(json.dumps({"bench_pairs": entries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
