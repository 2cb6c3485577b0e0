"""Spans around the benchmark's calls into franklopt, and the per-layer
metrics derived from them.

A span is opened by the benchmark's own code around one call into a
public function of a layer.  Its name is ``<layer>.<function>``; it
holds start and end (``time.perf_counter``), the index of the enclosing
span, the run id, and the counts the call returned (nodes, rows,
bytes, ...).  Spans stay in memory and are written out when the run
ends.  Spans inside ``src/`` are not recorded here.
"""

from __future__ import annotations

import time

LAYERS = ("solver", "models", "lp", "families", "verify", "reference", "cli")


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "counts")

    def __init__(self, tracer: "Tracer", name: str, counts: dict):
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else -1
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def set(self, **counts) -> None:
        self.counts.update(counts)


class _NullSpan:
    """What an untraced run gets: the same calls, nothing recorded."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **counts) -> None:
        pass


_NULL = _NullSpan()


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[_Span] = []
        self.stack: list[int] = []

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        return _Span(self, name, counts)

    def records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run": self.run_id,
                "counts": s.counts,
            }
            for s in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


# Per-layer metric names and units, in report order.  A metric whose
# layer is not exercised by a workload reads 0 there.
PER_LAYER_UNITS = {
    "solver.calls": "count",
    "solver.busy_s": "s",
    "solver.nodes": "count",
    "solver.propagations": "count",
    "solver.prune_ratio": "ratio",
    "solver.nodes_per_s": "1/s",
    "solver.oracle_cold_s": "s",
    "solver.oracle_warm_s": "s",
    "models.build_calls": "count",
    "models.build_s": "s",
    "models.rows": "count",
    "models.check_calls": "count",
    "models.check_s": "s",
    "models.rows_per_s": "1/s",
    "models.rejected": "count",
    "lp.export_s": "s",
    "lp.parse_s": "s",
    "lp.bytes": "bytes",
    "lp.export_mb_per_s": "MB/s",
    "lp.parse_mb_per_s": "MB/s",
    "families.calls": "count",
    "families.clone_s": "s",
    "families.text_s": "s",
    "families.closure_s": "s",
    "verify.checkers_s": "s",
    "verify.check_items": "count",
    "verify.cache_write_s": "s",
    "verify.cache_read_s": "s",
    "verify.cache_records": "count",
    "reference.lookups": "count",
    "reference.lookup_s": "s",
    "cli.calls": "count",
    "cli.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``trace.overhead_s`` needs the untraced rounds and is filled in by
    the caller.
    """

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def count(key, name):
        return sum(s["counts"][key] for s in named(name))

    m: dict[str, float] = {}

    solves = named("solver.solve")
    nodes = sum(s["counts"]["nodes"] for s in solves)
    props = sum(s["counts"]["propagations"] for s in solves)
    oracle = named("solver.exhaustive_oracle")
    m["solver.calls"] = len(solves) + len(oracle)
    m["solver.busy_s"] = sum(dur(s) for s in solves + oracle)
    m["solver.nodes"] = nodes
    m["solver.propagations"] = props
    m["solver.prune_ratio"] = _ratio(props, nodes)
    m["solver.nodes_per_s"] = _ratio(nodes, sum(dur(s) for s in solves))
    m["solver.oracle_cold_s"] = sum(dur(s) for s in oracle if s["counts"]["cold"])
    m["solver.oracle_warm_s"] = sum(dur(s) for s in oracle if not s["counts"]["cold"])

    m["models.build_calls"] = len(named("models.build"))
    m["models.build_s"] = total("models.build")
    checks = named("models.check_feasible")
    m["models.rows"] = sum(s["counts"]["rows"] for s in checks)
    m["models.check_calls"] = len(checks)
    m["models.check_s"] = sum(dur(s) for s in checks)
    m["models.rows_per_s"] = _ratio(m["models.rows"], m["models.check_s"])
    m["models.rejected"] = sum(1 for s in checks if not s["counts"]["feasible"])

    m["lp.export_s"] = total("lp.export")
    m["lp.parse_s"] = total("lp.parse_lp")
    m["lp.bytes"] = count("bytes", "lp.export")
    m["lp.export_mb_per_s"] = _ratio(m["lp.bytes"] / 1e6, m["lp.export_s"])
    m["lp.parse_mb_per_s"] = _ratio(count("bytes", "lp.parse_lp") / 1e6, m["lp.parse_s"])

    fam = [s for s in spans if s["name"].startswith("families.")]
    m["families.calls"] = len(fam)
    m["families.clone_s"] = total("families.clone_element") + total("families.sort_by_frequency")
    m["families.text_s"] = total("families.family_to_text") + total("families.family_from_text")
    m["families.closure_s"] = total("families.union_closure")

    checkers = [s for s in spans if s["name"].startswith("verify.check_")]
    m["verify.checkers_s"] = sum(dur(s) for s in checkers)
    m["verify.check_items"] = sum(s["counts"]["items"] for s in checkers)
    m["verify.cache_write_s"] = total("verify.append_cache")
    m["verify.cache_read_s"] = total("verify.load_cache")
    m["verify.cache_records"] = count("records", "verify.append_cache")

    m["reference.lookups"] = len(named("reference.lookup"))
    m["reference.lookup_s"] = total("reference.lookup")

    m["cli.calls"] = len(named("cli.main"))
    m["cli.busy_s"] = total("cli.main")

    # self time: a span's duration minus what its direct children cover
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += dur(s)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            dur(s) - child_time[i]
            for i, s in enumerate(spans)
            if s["name"].split(".", 1)[0] == layer
        )
    m["trace.spans"] = len(spans)
    return m
