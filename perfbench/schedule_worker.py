"""schedule_long operations in a process of their own, so its peak RSS is theirs.

Usage: python3 schedule_worker.py SERIES.json SECONDS TRACE OUT.json

One operation wraps the series with DiffSeries.from_m_diffs, calls
fscheduler.schedule, then vprocessor.retime_indices for every chunk under
every profile. Operations repeat until SECONDS have passed. With TRACE=1
operations alternate between untraced and traced. OUT.json receives each
operation's wall and processor time, the first result in full, whether
every later result equalled it, and the process's peak RSS.
"""

import json
import sys
import time

import evso
from evso import fscheduler, similarity, vprocessor
from evso.frame_source import FrameDims

from tracer import Tracer, peak_rss_mb


def operation(doc: dict) -> dict:
    series = similarity.DiffSeries.from_m_diffs(
        doc["m_diffs"], FrameDims(doc["width"], doc["height"]), doc["fps"])
    sched = fscheduler.schedule(series)
    chunks = []
    for entry in sched:
        kept = {name: list(vprocessor.retime_indices(entry.range.frame_count,
                                                     series.fps, rate))
                for name, rate in entry.rates.items()}
        chunks.append({"range": list(entry.range), "rates": entry.rates,
                       "kept": kept})
    return {"gamma": str(sched.gamma), "chunks": chunks}


def main() -> int:
    series_path, seconds, trace, out_path = sys.argv[1:5]
    with open(series_path) as fh:
        doc = json.load(fh)
    seconds, trace = float(seconds), trace == "1"
    tracer = Tracer()
    ops, spans, first, same = [], [], None, True
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install(evso)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = operation(doc)
            except Exception as exc:  # reported as a failed operation
                tracer.take()
                ops.append({"wall": time.perf_counter() - t0, "traced": traced,
                            "error": f"{type(exc).__name__}: {exc}"})
                continue
            finally:
                tracer.uninstall()
            ops.append({"wall": time.perf_counter() - t0, "traced": traced,
                        "cpu": time.process_time() - c0})
            if traced:
                spans.append(tracer.take())
            if first is None:
                first = result
            else:
                same = same and result == first
    with open(out_path, "w") as fh:
        json.dump({"ops": ops, "first": first, "same": same, "spans": spans,
                   "peak_rss_mb": peak_rss_mb()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
