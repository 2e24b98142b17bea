"""Spans around the package's public entry points, and the per-layer metrics.

`Tracer.install` replaces module attributes (and three `MtbddManager`
methods) with wrappers that record one span per call: id, parent, name,
start, end, the request it served and a few counters read at the boundary.
The package resolves these names at call time (`cli` calls
`bif.parse_bif`, `reach.conditional_query` calls its module's
`final_states`), so calls made inside the package are traced too. Spans
stay in memory until `write`. Nothing is wrapped unless `install` runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
import weakref
from collections import defaultdict
from statistics import mean

from bnmc import bif, chain, cli, mtbdd, oracle, reach, symbolic


def _space(bn) -> int:
    return math.prod(len(v.domain) for v in bn.variables)


def _bytes(text) -> bytes:
    return text.encode("utf-8") if isinstance(text, str) else text


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # manager -> span id of the compile_network call that created it
        self._compiled: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, owner, attr: str, name: str, counters=None) -> None:
        """Replace `owner.attr` by a traced call; `counters(span, args, result)`
        returns extra span fields, read after the span closes (result is None
        when the call raised)."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
                if counters is not None:
                    span.update(counters(span, args, result))

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _compile_counters(self, span, args, sym) -> dict:
        if sym is None:
            return {}
        self._compiled[sym.manager] = span["id"]
        return {
            "live_nodes": sym.manager.live_nodes,
            "joint_nodes": sym.manager.node_count(sym.joint),
        }

    def _infer_counters(self, span, args, result) -> dict:
        mgr = args[0].manager
        return {"compile": self._compiled.get(mgr), "live_nodes": mgr.live_nodes}

    def install(self) -> None:
        w = self._wrap
        w(bif, "parse_bif", "bif.parse_bif", lambda s, a, r: {"bytes": len(_bytes(a[0]))})
        w(chain, "build_mc", "chain.build_mc",
          lambda s, a, mc: {} if mc is None else {"states": len(mc.states)})
        w(reach, "conditional_query", "reach.conditional_query")
        w(reach, "final_states", "reach.final_states")
        w(reach, "reach_probability", "reach.reach_probability")
        w(symbolic, "compile_network", "symbolic.compile_network", self._compile_counters)
        w(symbolic, "infer", "symbolic.infer", self._infer_counters)
        w(oracle, "oracle_infer", "oracle.oracle_infer", lambda s, a, r: {"space": _space(a[0])})
        w(cli, "main", "cli.main")
        for op in ("apply", "restrict", "sum_abstract"):
            w(mtbdd.MtbddManager, op, f"mtbdd.{op}")

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter_ns", "spans": self.spans}, fh)


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from closed spans; see README.md."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    ms = lambda ns: ns / 1e6
    dur = lambda s: s["end"] - s["start"]

    def self_ns(s):
        return dur(s) - sum(dur(c) for c in children[s["id"]])

    def under(parent_name, child_name):
        """(time in ns, calls) of child spans per parent span."""
        parents = by_name[parent_name]
        kids = [c for p in parents for c in children[p["id"]] if c["name"] == child_name]
        return sum(map(dur, kids)) / len(parents), len(kids) / len(parents)

    # Calls that raised carry no counters; failed runs still get metrics.
    compiles = [s for s in by_name["symbolic.compile_network"] if "live_nodes" in s]
    builds = [s for s in by_name["chain.build_mc"] if "states" in s]
    infers = by_name["symbolic.infer"]
    # Live nodes of each manager after its last infer (or its compile).
    live_end = {c["id"]: c["live_nodes"] for c in compiles}
    for s in infers:
        if s.get("compile") is not None:
            live_end[s["compile"]] = s["live_nodes"]
    growth = sum(live_end[c["id"]] - c["live_nodes"] for c in compiles)
    tagged = sum(1 for s in infers if s.get("compile") is not None)
    assignments = [
        _MASS_CALLS.get(s.get("error"), 0) * s["space"] for s in by_name["oracle.oracle_infer"]
    ]
    restrict_ns, restrict_calls = under("symbolic.infer", "mtbdd.restrict")
    sum_ns, sum_calls = under("symbolic.infer", "mtbdd.sum_abstract")
    product_ns, _ = under("symbolic.compile_network", "mtbdd.apply")
    final_ns, _ = under("reach.conditional_query", "reach.final_states")
    sweep_ns, sweeps = under("reach.conditional_query", "reach.reach_probability")
    return {
        "bif.parse_ms": (ms(mean(map(dur, by_name["bif.parse_bif"]))), "ms"),
        "bif.bytes": (mean(s["bytes"] for s in by_name["bif.parse_bif"]), "bytes"),
        "symbolic.compile_ms": (ms(mean(map(dur, compiles))), "ms"),
        "symbolic.tables_ms": (ms(mean(map(self_ns, compiles))), "ms"),
        "mtbdd.product_ms": (ms(product_ns), "ms"),
        "mtbdd.joint_nodes": (mean(c["joint_nodes"] for c in compiles), "count"),
        "symbolic.infer_ms": (ms(mean(map(dur, infers))), "ms"),
        "mtbdd.restrict_ms": (ms(restrict_ns), "ms"),
        "mtbdd.restrict_calls": (restrict_calls, "count"),
        "mtbdd.sum_abstract_ms": (ms(sum_ns), "ms"),
        "mtbdd.sum_abstract_calls": (sum_calls, "count"),
        "mtbdd.live_nodes": (max(live_end.values()), "count"),
        "mtbdd.nodes_per_query": (growth / tagged, "count"),
        "chain.build_ms": (ms(mean(map(dur, builds))), "ms"),
        "chain.states": (mean(s["states"] for s in builds), "count"),
        "chain.final_states_ms": (ms(final_ns), "ms"),
        "reach.sweep_ms": (ms(sweep_ns), "ms"),
        "reach.sweeps": (sweeps, "count"),
        "oracle.infer_ms": (ms(mean(map(dur, by_name["oracle.oracle_infer"]))), "ms"),
        "oracle.assignments": (mean(assignments), "count"),
        "cli.self_ms": (ms(mean(map(self_ns, by_name["cli.main"]))), "ms"),
    }


# Full-joint passes an oracle_infer call makes, by how it ended.
_MASS_CALLS = {None: 2, "IllConditionedQueryError": 1}
