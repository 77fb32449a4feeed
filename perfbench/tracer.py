"""Span recording around evso's layer boundaries, from outside the program.

Tracer.install replaces module attributes that callers go through (the CLI
calls `frame_source.read_y4m`, `vprocessor` calls its module-level `ssim`, and
so on) with wrappers that record a span: name, start, end, parent and a few
counts. Spans stay in memory until the run ends. Nothing is replaced unless
install is called, so untraced runs execute the program untouched.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence


def peak_rss_mb() -> float:
    """Peak resident set size of this process since its exec (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _stream_bytes(args, kwargs, result) -> dict:
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (bytes, bytearray)):
        return {"bytes": len(source)}
    return {"bytes": source.tell()}


#: (module, attribute, counts taken from (args, kwargs, result)).
TARGETS = (
    ("frame_source", "read_y4m", _stream_bytes),
    ("similarity", "diff_series", lambda a, k, r: {"pairs": len(r.pairs)}),
    ("vprocessor", "ssim", None),
    ("fscheduler", "schedule", lambda a, k, r: {"chunks": len(r)}),
    ("vprocessor", "process", None),
    ("vprocessor", "decimate_uniform", None),
    ("vprocessor", "restrict_to_chunks", None),
    ("vprocessor", "retime_indices", None),
    ("vprocessor", "segment_streams",
     lambda a, k, r: {"bytes": sum(len(b) for b in r)}),
    ("vprocessor", "quality_report",
     lambda a, k, r: {"dropped": r.dropped_count}),
    ("empd", "build_manifest", None),
    ("empd", "serialize_xml", lambda a, k, r: {"bytes": len(r)}),
    ("empd", "parse_xml", lambda a, k, r: {"bytes": len(a[0])}),
    ("stream_sim", "load_trace", None),
    ("stream_sim", "simulate_session", lambda a, k, r: {"rows": len(r.rows)}),
)


class Tracer:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        return self._span(name, fn, args, kwargs, None)

    def _span(self, name: str, fn: Callable, args: tuple, kwargs: dict,
              count: Optional[Callable]):
        stack = self._stack()
        span = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if count is not None:
            span["counts"] = count(args, kwargs, result)
        return result

    def install(self, evso_package) -> None:
        for module_name, attr, count in TARGETS:
            module = getattr(evso_package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(f"{module_name}.{attr}",
                                                original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, name: str, fn: Callable, count) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, count)
        return traced

    def take(self) -> List[dict]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit, better. Layers an operation does not reach report 0.
PER_LAYER = {
    "frame_source.read_s": ("s", "lower"),
    "frame_source.read_mb_per_s": ("MB/s", "higher"),
    "similarity.diff_series_s": ("s", "lower"),
    "similarity.pair_ms": ("ms", "lower"),
    "similarity.ssim_calls": ("count", "lower"),
    "similarity.ssim_ms": ("ms", "lower"),
    "fscheduler.schedule_s": ("s", "lower"),
    "fscheduler.chunks": ("count", "higher"),
    "vprocessor.retime_s": ("s", "lower"),
    "vprocessor.segment_streams_s": ("s", "lower"),
    "vprocessor.segment_mb": ("MB", "lower"),
    "vprocessor.quality_report_s": ("s", "lower"),
    "vprocessor.dropped_frames": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written_mb": ("MB", "lower"),
    "empd.manifest_build_s": ("s", "lower"),
    "empd.manifest_kb": ("KB", "lower"),
    "empd.parse_xml_ms": ("ms", "lower"),
    "stream_sim.simulate_session_ms": ("ms", "lower"),
    "stream_sim.ttfb_ms": ("ms", "lower"),
    "stream_sim.connections_per_fetch": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

RETIME = ("vprocessor.process", "vprocessor.decimate_uniform",
          "vprocessor.restrict_to_chunks", "vprocessor.retime_indices")
MB_BYTES = 1024 * 1024


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def op_layers(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-layer figures of one operation's spans."""
    own = self_times(spans)
    busy: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, float] = defaultdict(float)
    for s in spans:
        busy[s["name"]] += own[s["id"]]
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        for key, value in s.get("counts", {}).items():
            counts[f"{s['name']}.{key}"] += value

    def per_call_ms(name: str) -> float:
        return 1000.0 * total[name] / calls[name] if calls[name] else 0.0

    read_s = busy["frame_source.read_y4m"]
    diff_s = busy["similarity.diff_series"]
    pairs = counts["similarity.diff_series.pairs"]
    manifest_bytes = (counts["empd.serialize_xml.bytes"]
                      or counts["empd.parse_xml.bytes"] / max(1, calls["empd.parse_xml"]))
    return {
        "frame_source.read_s": read_s,
        "frame_source.read_mb_per_s": (counts["frame_source.read_y4m.bytes"]
                                       / MB_BYTES / read_s) if read_s else 0.0,
        "similarity.diff_series_s": diff_s,
        "similarity.pair_ms": 1000.0 * diff_s / pairs if pairs else 0.0,
        "similarity.ssim_calls": calls["vprocessor.ssim"],
        "similarity.ssim_ms": per_call_ms("vprocessor.ssim"),
        "fscheduler.schedule_s": busy["fscheduler.schedule"],
        "fscheduler.chunks": counts["fscheduler.schedule.chunks"],
        "vprocessor.retime_s": sum(busy[n] for n in RETIME),
        "vprocessor.segment_streams_s": busy["vprocessor.segment_streams"],
        "vprocessor.segment_mb": counts["vprocessor.segment_streams.bytes"] / MB_BYTES,
        "vprocessor.quality_report_s": total["vprocessor.quality_report"],
        "vprocessor.dropped_frames": counts["vprocessor.quality_report.dropped"],
        "cli.self_s": busy["cli.main"],
        "empd.manifest_build_s": busy["empd.build_manifest"] + busy["empd.serialize_xml"],
        "empd.manifest_kb": manifest_bytes / 1024,
        "empd.parse_xml_ms": per_call_ms("empd.parse_xml"),
        "stream_sim.simulate_session_ms": per_call_ms("stream_sim.simulate_session"),
    }


def median_layers(per_op: Sequence[Dict[str, float]],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Median of each per-layer figure over operations; missing ones are 0."""
    out = {}
    for name in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
        else:
            values = [op[name] for op in per_op if name in op]
            out[name] = statistics.median(values) if values else 0.0
    return out
