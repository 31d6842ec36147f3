"""Tests of the benchmark itself: traced counts repeat exactly, and tracing
changes no result.

    python3 -m pytest -q bench/selftest.py

Each test runs a short prefix of every workload's traced pass, so the
whole file takes well under a minute.
"""

from __future__ import annotations

import importlib
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

workloads = run.import_library()
from tracing import Tracer  # noqa: E402

# Short prefixes that still reach every kind of operation of each workload
# at least once (factor_large: all five functions on its first matrix).
PREFIX = {"cli_mixed": 12, "verify_suites": 11, "factor_large": 5, "exact_oracle": 8}
EXACT_COUNTS = ("calls", "factor.svd.distinct_share", "verify.checks", "ensembles.samples")
SEED = 7


def _pass(name: str, traced: bool):
    """Run the prefix once; returns (per-layer metrics or None, digests)."""
    workdir = run.WORK / f"selftest-{name}"
    wl = workloads.WORKLOADS[name](SEED, workdir)
    tracer = Tracer()
    if traced:
        tracer.install()
    digests = []
    try:
        for j in range(PREFIX[name]):
            op = wl.op(j)
            tracer.op = j
            out = op.run()
            digests.append(op.digest(out))
            tracer.count("cli.bytes_io", op.io_bytes(out))
            op.cleanup()
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return (tracer.layer_metrics(PREFIX[name]) if traced else None), digests


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_traced_counts_repeat_and_outputs_match_untraced(name):
    first, traced_digests = _pass(name, traced=True)
    second, _ = _pass(name, traced=True)
    _, plain_digests = _pass(name, traced=False)
    counts = {key: value for key, (value, _) in first.items()
              if key.endswith(".calls") or key in EXACT_COUNTS}
    assert counts == {key: second[key][0] for key in counts}
    assert counts["factor.svd.calls"] > 0
    assert traced_digests == plain_digests


def test_uninstall_restores_every_function():
    # geninv.drazin names the function; the modules come from importlib
    drazin_mod = importlib.import_module("geninv.drazin")
    orders_mod = importlib.import_module("geninv.orders")
    before = (drazin_mod.svd, dict(orders_mod._INVERSE_FOR_KIND))
    tracer = Tracer()
    tracer.install()
    assert drazin_mod.svd is not before[0]
    assert orders_mod._INVERSE_FOR_KIND["dmp"] is not before[1]["dmp"]
    tracer.uninstall()
    assert (drazin_mod.svd, dict(orders_mod._INVERSE_FOR_KIND)) == before


def test_nested_calls_get_parent_spans_and_self_time_excludes_children():
    import geninv
    a = geninv.cmatrix([[2, 0, 1], [0, 0, 2], [0, 0, 0]])
    tracer = Tracer()
    tracer.install()
    try:
        geninv.drazin(a)
    finally:
        tracer.uninstall()
    top = tracer.spans[0]
    assert top[1:4] == [-1, "drazin", "drazin"]
    svd_parents = {tracer.spans[s[1]][3] for s in tracer.spans if s[3] == "svd"}
    assert svd_parents <= {"index", "drazin", "rank_scaled", "pinv_scaled"}
    self_ns = tracer.self_times_ns()
    assert 0 <= self_ns[0] < top[5] - top[4]
    assert sum(self_ns) == top[5] - top[4]
