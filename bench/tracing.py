"""Spans around the public functions of every geninv module, recorded from
outside the library.

install() replaces each public function in each geninv module namespace
with a wrapper, including names a module imported from another one (such
as geninv.drazin.svd or geninv.cli.index) and functions held in module-level
dicts (such as geninv.orders._INVERSE_FOR_KIND), so that a nested call gets
the calling span as its parent. A span's layer is the module that defines
the function. uninstall() puts the originals back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("cli", "verify", "ensembles", "classify", "orders", "inverses", "drazin",
          "factor", "kernel", "exact")
MODULES = ("geninv",) + tuple(f"geninv.{name}" for name in LAYERS)


def _report_checks(report) -> int:
    return sum(entry["samples"] for entry in report.breakdown.values())


# Counters taken from a function's result at its span boundary.
RESULT_COUNTERS = {
    ("ensembles", "gen"): ("ensembles.samples", len),
    ("ensembles", "idempotent_core_samples"): ("ensembles.samples", len),
    ("verify", "run_suite"): ("verify.checks", _report_checks),
    ("verify", "verify_system"): ("verify.checks", _report_checks),
}


class Tracer:
    """Spans kept in memory as (op, parent, layer, name, start_ns, end_ns),
    plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.svd_inputs: list[bytes] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- wrapping

    def _wrap(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        layer, name = fn.__module__.split(".")[-1], fn.__name__
        spans, stack, svd_inputs = self.spans, self._stack, self.svd_inputs
        is_svd = (layer, name) == ("factor", "svd")
        counter = RESULT_COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, stack[-1] if stack else -1, layer, name, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[4] = time.perf_counter_ns()
            try:
                if is_svd:
                    a = args[0] if args else kwargs["a"]
                    svd_inputs.append(repr(a.shape).encode() + a.tobytes())
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result

        self._wrappers[id(fn)] = traced
        return traced

    @staticmethod
    def _is_library_function(obj) -> bool:
        return (inspect.isfunction(obj) and obj.__module__.startswith("geninv.")
                and not obj.__name__.startswith("_"))

    def install(self) -> None:
        for mod_name in MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if self._is_library_function(value) and not attr.startswith("_"):
                    self._patched.append((mod, attr, value, False))
                    setattr(mod, attr, self._wrap(value))
                elif isinstance(value, dict):
                    for key, fn in list(value.items()):
                        if self._is_library_function(fn):
                            self._patched.append((value, key, fn, True))
                            value[key] = self._wrap(fn)

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._patched):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- results

    def write(self, path: Path) -> None:
        keys = ("op", "parent", "layer", "name", "start_ns", "end_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")

    def self_times_ns(self) -> list[int]:
        """Span duration minus the part of its interval its children cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for span in self.spans:
            if span[1] >= 0:
                children.setdefault(span[1], []).append((span[4], span[5]))
        out = []
        for i, span in enumerate(self.spans):
            covered, end = 0, span[4]
            for start, stop in sorted(children.get(i, ())):
                start = max(start, end)
                if stop > start:
                    covered += stop - start
                    end = stop
            out.append(span[5] - span[4] - covered)
        return out

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times, each divided by ops."""
        self_ns = self.self_times_ns()
        calls = {layer: 0 for layer in LAYERS}
        self_ms = {layer: 0.0 for layer in LAYERS}
        named: dict[tuple[str, str], int] = {}
        svd_ms = 0.0
        for span, ns in zip(self.spans, self_ns):
            layer = span[2]
            calls[layer] += 1
            self_ms[layer] += ns / 1e6
            named[(layer, span[3])] = named.get((layer, span[3]), 0) + 1
            if (layer, span[3]) == ("factor", "svd"):
                svd_ms += ns / 1e6
        svd_calls = named.get(("factor", "svd"), 0)
        distinct = len({hashlib.sha256(b).digest() for b in self.svd_inputs})
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / ops, "count/op")
            out[f"{layer}.self_ms"] = (self_ms[layer] / ops, "ms/op")
        out["factor.svd.calls"] = (svd_calls / ops, "count/op")
        out["factor.svd.distinct_share"] = (distinct / svd_calls if svd_calls else 0.0, "1")
        out["factor.svd.ms_per_call"] = (svd_ms / svd_calls if svd_calls else 0.0, "ms")
        out["drazin.index.calls"] = (named.get(("drazin", "index"), 0) / ops, "count/op")
        out["kernel.approx_eq.calls"] = (named.get(("kernel", "approx_eq"), 0) / ops, "count/op")
        out["verify.checks"] = (self.counts.get("verify.checks", 0) / ops, "count/op")
        out["ensembles.samples"] = (self.counts.get("ensembles.samples", 0) / ops, "count/op")
        out["cli.bytes_io"] = (self.counts.get("cli.bytes_io", 0) / ops, "B/op")
        return out
