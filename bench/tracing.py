"""Spans and counters recorded around the benchmark's calls into the package.

A span covers one public call made by the benchmark (never a call made
inside the package), so busy time here is the time the benchmark waited on
that layer.  Spans are kept in memory and folded into per-layer metrics
when the run ends.  An untraced run uses NullTracer, which calls straight
through and records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable


class NullTracer:
    """Tracing off: calls go straight through, counts are dropped."""

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Tracer(NullTracer):
    """Records (name, op id, start, end) per call, and named counts summed over the run.

    op_id is set by the op loop before each traced op; every span of
    one op shares it, and the op itself is their parent.
    """

    def __init__(self) -> None:
        self.op_id = -1
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.op_id, start, time.perf_counter()))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def busy(self) -> dict[str, float]:
        """Summed span durations per layer call name."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out


# Span names the workloads use, paired with the per-layer metric prefix.
SPANS = (
    "analysis.degree_spectrum",
    "analysis.enumerate",
    "analysis.automorphisms",
    "constructions.construct",
    "surface.validate",
    "surface.orient",
    "surface.genus",
    "maps.build",
    "maps.validate_simplicial",
    "maps.degree",
    "formats.dump",
    "formats.load",
    "cli.main",
)

# Counters the workloads record, with their units.
COUNTS = {
    "analysis.maps_emitted": "count",
    "analysis.witnesses": "count",
    "analysis.automorphisms.found": "count",
    "constructions.facets_built": "count",
    "formats.bytes": "bytes",
    "cli.stdout_bytes": "bytes",
}

# Spans whose call count is reported next to their busy time.
COUNTED_CALLS = (
    "analysis.degree_spectrum",
    "analysis.enumerate",
    "analysis.automorphisms",
    "constructions.construct",
    "surface.validate",
    "maps.degree",
)


def per_layer_metrics(
    tracer: Tracer, validate_hit_ratio: float, overhead_s: float
) -> dict[str, dict[str, Any]]:
    """Every per-layer metric, zero for layers the workload never called."""
    busy = tracer.busy()
    calls = tracer.calls()
    out: dict[str, dict[str, Any]] = {}
    for name in SPANS:
        out[f"{name}.busy_s"] = {"value": busy.get(name, 0.0), "unit": "s"}
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
    for name, unit in COUNTS.items():
        out[name] = {"value": tracer.counts.get(name, 0), "unit": unit}
    search_busy = busy.get("analysis.degree_spectrum", 0.0) + busy.get("analysis.enumerate", 0.0)
    emitted = tracer.counts.get("analysis.maps_emitted", 0)
    out["analysis.maps_per_busy_s"] = {
        "value": emitted / search_busy if search_busy > 0 else 0.0,
        "unit": "1/s",
    }
    out["surface.validate.hit_ratio"] = {"value": validate_hit_ratio, "unit": "ratio"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
