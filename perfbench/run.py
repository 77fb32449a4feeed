#!/usr/bin/env python3
"""evso benchmark: seeded inputs, four workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pipeline_mixed, analyze_hd, schedule_long, stream_replay (see
README.md). With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of a traced run instead. Every invocation also writes a result file under
perfbench/results/. The program under test is the evso source tree in src/
next to this directory; it is run through its CLI and importable modules only.
"""

from __future__ import annotations

import argparse
import http.client
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy

import checks
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"
MB_BYTES = 1024 * 1024

#: Cold `evso --show-config` starts per batch run; setup_s is their median.
STARTUP_REPEATS = 7
#: Tree builds plus server starts per stream_replay run.
STREAM_SETUP_REPEATS = 5
#: Closed-loop clients: one per core, at most two.
STREAM_CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: A single CLI process that runs longer than this is killed and counted failed.
OP_TIMEOUT_S = 60
HD_SAMPLED_PAIRS = 3

#: Gated metrics. Set-up and operation costs are processor time (user +
#: system), not wall time: on a shared two-core machine wall time also holds
#: the wait for a core that other processes hold, which moved medians by
#: 15-23% from run to run while processor time moved by 2-6%. Wall times are
#: reported as details.
END_TO_END = {
    "setup_s": "s",
    "op_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no operation succeeded)."""

@dataclass
class Proc:
    wall: float
    code: int
    cpu_s: float
    stderr: str
    rss_mb: float = 0.0
    spans: Optional[list] = None


class Run:
    """State of one invocation: inputs directory, counters and findings."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = (
            workload, seed, seconds, trace)
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}
        self.wrong: List[str] = []
        self.details: Dict[str, tuple] = {}
        self._names = 0

    def name(self, stem: str) -> Path:
        self._names += 1
        return self.dir / f"{stem}{self._names}"

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures[message] = self.failures.get(message, 0) + 1

    def check(self, fn: Callable, *args):
        """Run a checker; a mismatch marks the run incorrect."""
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.wrong.append(str(exc))
            return None

    def process(self, cmd: List[str]) -> Proc:
        """Run a command to its end: wall time, exit code, processor time."""
        err_path = self.name("stderr")
        with open(err_path, "wb") as err, open(os.devnull, "wb") as null:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=null, stderr=err,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace").strip()
        err_path.unlink()
        return Proc(wall, proc.returncode, usage.ru_utime + usage.ru_stime, stderr)

    def evso(self, args: List[str], traced: bool = False) -> Proc:
        """One evso CLI command in its own process, run by cli_driver.py."""
        report = self.name("report")
        proc = self.process([sys.executable, str(BENCH / "cli_driver.py"),
                             str(report), *(["--trace"] if traced else []),
                             *map(str, args)])
        if report.exists():
            doc = json.loads(report.read_text())
            report.unlink()
            proc.rss_mb, proc.spans = doc["peak_rss_mb"], doc["spans"]
        return proc

    def startup_s(self) -> float:
        """Median processor time of a cold `evso --show-config`."""
        walls, cpus = [], []
        for _ in range(STARTUP_REPEATS):
            proc = self.evso(["--show-config"])
            if proc.code != 0:
                raise BenchError(f"evso --show-config failed: {proc.stderr}")
            walls.append(proc.wall)
            cpus.append(proc.cpu_s)
        self.detail("setup_wall_s", statistics.median(walls), "s")
        return statistics.median(cpus)

    def detail(self, name: str, value: float, unit: str) -> None:
        self.details[name] = (value, unit)


def timed_rounds(seconds: float, one_round: Callable[[], None]) -> None:
    """Whole rounds until `seconds` have passed, so every run attempts the
    same mix of operations."""
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        one_round()
        rounds += 1


def overhead(untraced: List[float], traced: List[float]) -> Dict[str, float]:
    """Median traced minus median untraced processor time of an operation."""
    if not untraced or not traced:
        return {"trace.overhead_s": 0.0, "trace.overhead_pct": 0.0}
    base, with_spans = statistics.median(untraced), statistics.median(traced)
    return {"trace.overhead_s": with_spans - base,
            "trace.overhead_pct": 100.0 * (with_spans - base) / base}


def need(values: list, what: str) -> list:
    if not values:
        raise BenchError(f"no {what} succeeded")
    return values


# ---------------------------------------------------------------------------
# Batch workloads: one CLI operation at a time
# ---------------------------------------------------------------------------

def cli_ops(run: Run, ops: List[tuple], check_first: Callable[[str, Path], bool]
            ) -> tuple:
    """Run rounds of CLI operations; return per-op walls, RSS, CPU, layer
    figures, and CPU split by tracing mode.

    ops: (key, function from the output path to CLI arguments, output is a directory,
    expected to fail). The first round is the warm-up: each first output is
    checked by check_first, and later outputs must equal it byte for byte.
    """
    reference: Dict[str, object] = {}
    walls: Dict[str, List[float]] = {key: [] for key, *_ in ops}
    rss: List[float] = []
    cpu: List[float] = []
    layer_ops: List[dict] = []
    split_cpu = {False: [], True: []}

    def one(key, build, is_dir, expect_fail, traced, warm):
        out = run.name(key)
        proc = run.evso(build(out), traced)
        run.attempted += 1
        if proc.code != 0:
            last = proc.stderr.splitlines()[-1] if proc.stderr else "no message"
            run.fail(f"{key}: exit {proc.code}: {last}")
            return
        got = checks.tree_bytes(out) if is_dir else {"": out.read_bytes()}
        if key in reference:
            if got != reference[key]:
                run.wrong.append(f"{key}: output differs from the checked one")
        elif run.check(check_first, key, out):
            reference[key] = got
        shutil.rmtree(out) if is_dir else out.unlink()
        if expect_fail or warm:
            return
        split_cpu[traced].append(proc.cpu_s)
        if traced:
            layers = tracer.op_layers(proc.spans)
            layers["cli.bytes_written_mb"] = sum(map(len, got.values())) / MB_BYTES
            layer_ops.append(layers)
        else:
            walls[key].append(proc.wall)
            rss.append(proc.rss_mb)
            cpu.append(proc.cpu_s)

    for key, build, is_dir, expect_fail in ops:
        one(key, build, is_dir, expect_fail, False, True)

    def one_round():
        for traced in ((False, True) if run.trace else (False,)):
            for key, build, is_dir, expect_fail in ops:
                one(key, build, is_dir, expect_fail, traced, False)

    timed_rounds(run.seconds, one_round)
    return walls, rss, cpu, layer_ops, split_cpu


def pipeline_mixed(run: Run) -> dict:
    """`evso pipeline` on the seeded mixed-content clip."""
    clip = run.dir / "clip.y4m"
    frames = inputs.write_y4m(clip, *inputs.PIPELINE_DIMS, inputs.PIPELINE_FPS,
                              inputs.pipeline_frames(run.seed))
    config = run.dir / "config.json"
    inputs.write_json(config, inputs.pipeline_config())
    setup = run.startup_s()
    counts = {}

    def check_first(key, tree):
        counts.update(checks.check_pipeline_tree(tree, clip, inputs.pipeline_config()))
        return True

    ops = [("pipeline", lambda out: ["--config", config, "pipeline", clip, out],
            True, False)]
    walls, rss, cpu, layer_ops, split = cli_ops(run, ops, check_first)
    runs = need(walls["pipeline"], "pipeline run")
    run.detail("pipeline_s", statistics.median(runs), "s")
    run.detail("pipeline_frames_per_s", frames * len(runs) / sum(runs), "frames/s")
    run.detail("pipeline_runs", len(runs), "count")
    run.detail("checked.chunks", counts.get("chunks", 0), "count")
    run.detail("checked.dropped_frames", counts.get("dropped_frames", 0), "count")
    return {
        "e2e": {"setup_s": setup, "op_cpu_ms": 1000.0 * statistics.median(cpu),
                "peak_rss_mb": statistics.median(rss)},
        "layers": (layer_ops, overhead(split[False], split[True])),
    }


def analyze_hd(run: Run) -> dict:
    """`evso analyze` on two long 1080p 4:2:0 clips and one odd-sized clip."""
    clips = {
        "hd_pan": inputs.hd_pan_frames(run.seed),
        "hd_burst": inputs.hd_burst_frames(run.seed),
    }
    paths = {}
    for key, frames in clips.items():
        paths[key] = run.dir / f"{key}.y4m"
        inputs.write_y4m(paths[key], *inputs.HD_DIMS, inputs.HD_FPS, frames)
    paths["odd"] = run.dir / "odd.y4m"
    inputs.write_y4m(paths["odd"], *inputs.ODD_DIMS, inputs.HD_FPS,
                     inputs.odd_frames())
    setup = run.startup_s()
    theta = checks.DEFAULTS["theta"]

    def check_first(key, out):
        clip = checks.Y4M(paths[key])
        sample = (range(len(clip) - 1) if key == "odd" else
                  inputs.sample_pairs(run.seed, len(clip) - 1, HD_SAMPLED_PAIRS))
        checks.check_analysis(json.loads(out.read_text()), clip, theta, sample)
        return True

    ops = [(key, (lambda k: lambda out: ["analyze", paths[k], "--out", out])(key),
            False, key == "odd") for key in ("hd_pan", "hd_burst", "odd")]
    walls, rss, cpu, layer_ops, split = cli_ops(run, ops, check_first)
    hd = need(walls["hd_pan"] + walls["hd_burst"], "HD analyze run")
    fps = inputs.HD_FRAMES * len(hd) / sum(hd)
    run.detail("analyze_frames_per_s", fps, "frames/s")
    run.detail("analyze_s", statistics.median(hd), "s")
    run.detail("analyze_runs", len(hd), "count")
    run.detail("odd_analyze_ok", len(walls["odd"]), "count")
    return {
        "e2e": {"setup_s": setup, "op_cpu_ms": 1000.0 * statistics.median(cpu),
                "peak_rss_mb": statistics.median(rss)},
        "layers": (layer_ops, overhead(split[False], split[True])),
    }


def schedule_long(run: Run) -> dict:
    """fscheduler.schedule plus retime_indices on a long seeded series."""
    m_diffs = inputs.schedule_series(run.seed)
    width, height = inputs.SCHEDULE_DIMS
    series = run.dir / "series.json"
    inputs.write_json(series, {"m_diffs": m_diffs, "width": width,
                               "height": height, "fps": inputs.SCHEDULE_FPS})
    setup = run.startup_s()
    out = run.dir / "worker.json"
    proc = run.process([sys.executable, str(BENCH / "schedule_worker.py"),
                        str(series), str(run.seconds), "1" if run.trace else "0",
                        str(out)])
    if proc.code != 0:
        raise BenchError(f"schedule worker failed: {proc.stderr}")
    doc = json.loads(out.read_text())
    for op in doc["ops"]:
        run.attempted += 1
        if "error" in op:
            run.fail(op["error"])
    first = doc["first"]
    if first is None:
        raise BenchError("no schedule operation succeeded")
    config = checks.full_config(None)
    gamma = Fraction(first["gamma"])
    fps = Fraction(inputs.SCHEDULE_FPS)
    chunks = [tuple(c["range"]) for c in first["chunks"]]

    def check_schedule():
        checks.expect(gamma == fps, f"gamma {gamma} is not the series rate {fps}")
        checks.check_split(chunks, checks.split_ref(
            m_diffs, config["alpha"], config["beta"], config["k_window"], gamma),
            gamma)
        checks.check_rates(chunks, [c["rates"] for c in first["chunks"]], m_diffs,
                           config, gamma)
        for (start, end), c in zip(chunks, first["chunks"]):
            for name, kept in c["kept"].items():
                checks.check_kept(kept, end - start, checks.snap(c["rates"][name]),
                                  fps, f"chunk ({start}, {end}) {name}")

    run.check(check_schedule)
    if not doc["same"]:
        run.wrong.append("schedule: a later operation differs from the checked one")
    done = [op for op in doc["ops"] if "error" not in op]
    plain = need([op["wall"] for op in done if not op["traced"]], "schedule run")

    run.detail("schedule_pairs_per_s", len(m_diffs) * len(plain) / sum(plain), "pairs/s")
    run.detail("schedule_s", statistics.median(plain), "s")
    run.detail("schedule_runs", len(plain), "count")
    run.detail("checked.chunks", len(chunks), "count")
    return {
        "e2e": {"setup_s": setup,
                "op_cpu_ms": 1000.0 * statistics.median(
                    [op["cpu"] for op in done if not op["traced"]]),
                "peak_rss_mb": doc["peak_rss_mb"]},
        "layers": ([tracer.op_layers(s) for s in doc["spans"]],
                   overhead([op["cpu"] for op in done if not op["traced"]],
                            [op["cpu"] for op in done if op["traced"]])),
    }


# ---------------------------------------------------------------------------
# stream_replay: evso serve plus closed-loop clients
# ---------------------------------------------------------------------------

class CountingConnection(http.client.HTTPConnection):
    """HTTP connection that counts the TCP connections it opens."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.opened = 0

    def connect(self):
        self.opened += 1
        super().connect()


class Server:
    """`evso serve` in its own process on an ephemeral port."""

    def __init__(self, run: Run, tree: Path):
        env = dict(run.env, PYTHONUNBUFFERED="1")
        self.report = run.name("report")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "cli_driver.py"), str(self.report),
             "serve", str(tree), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            watchdog.cancel()
        if " at http://" not in line:
            self.stop()
            raise BenchError(f"evso serve did not start: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip().rstrip("/")
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        self.rss_mb = 0.0

    def cpu_s(self) -> float:
        """Processor time (user + system) the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            timer = threading.Timer(10, self.proc.kill)
            timer.start()
            try:
                _, status, _ = os.wait4(self.proc.pid, 0)
            finally:
                timer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            if self.report.exists():
                self.rss_mb = json.loads(self.report.read_text())["peak_rss_mb"]
        self.proc.stdout.close()


def fetch(conn: CountingConnection, url: str) -> tuple:
    """GET one path; returns (body, seconds to first byte, seconds in total)."""
    start = time.perf_counter()
    conn.request("GET", "/" + url)
    resp = conn.getresponse()
    first = time.perf_counter()
    body = resp.read()
    done = time.perf_counter()
    if resp.status != 200:
        raise OSError(f"GET {url}: HTTP {resp.status}")
    return body, first - start, done - start


def stream_replay(run: Run) -> dict:
    """Client sessions against `evso serve` over a tree of many short segments."""
    clip = run.dir / "clip.y4m"
    inputs.write_y4m(clip, *inputs.STREAM_DIMS, inputs.STREAM_FPS,
                     inputs.stream_frames(run.seed))
    config = run.dir / "config.json"
    inputs.write_json(config, inputs.stream_config())

    # Set-up cost: the pipeline process plus the server until it has answered
    # its first request, in processor time (wall time as a detail).
    setups, walls, trees, server = [], [], [], None
    try:
        for _ in range(STREAM_SETUP_REPEATS):
            if server is not None:
                server.stop()
            tree = run.name("tree")
            start = time.perf_counter()
            proc = run.evso(["--config", config, "pipeline", clip, tree])
            if proc.code != 0:
                raise BenchError(f"evso pipeline failed: {proc.stderr}")
            server = Server(run, tree)
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            fetch(conn, "manifest.mpd")
            conn.close()
            walls.append(time.perf_counter() - start)
            setups.append(proc.cpu_s + server.cpu_s())
            trees.append(tree)
        run.detail("setup_wall_s", statistics.median(walls), "s")
        result = stream_sessions(run, server, trees, clip)
        result["e2e"]["setup_s"] = statistics.median(setups)
        return result
    finally:
        if server is not None:
            server.stop()


class StreamStats:
    """What the clients of one tracing mode saw."""

    def __init__(self):
        self.sessions: List[float] = []
        self.session_cpu: List[float] = []
        self.latency: List[float] = []
        self.ttfb: List[float] = []
        self.bytes = 0
        self.fetches = 0
        self.connections = 0
        self.elapsed = 0.0
        self.server_cpu = 0.0
        self.client_cpu = 0.0


def stream_sessions(run: Run, server: Server, trees: List[Path],
                    clip: Path) -> dict:
    import evso
    from evso import empd, stream_sim

    tree = trees[-1]
    disk = checks.tree_bytes(tree)
    for other in trees[:-1]:
        if checks.tree_bytes(other) != disk:
            run.wrong.append("stream: repeated pipeline runs built different trees")
    counts = run.check(checks.check_pipeline_tree, tree, clip,
                       inputs.stream_config(), ("low",)) or {}
    levels = checks.manifest_levels(disk["manifest.mpd"])
    segments = len(levels["baseline"]["urls"])
    traces = inputs.stream_traces(run.seed, segments)

    # Fallback rule: the same traces against a manifest without the low set.
    partial = {k: v for k, v in levels.items() if k != "low"}
    partial_manifest = empd.parse_xml(_without_level(disk["manifest.mpd"], "low"))
    for text in traces:
        log = stream_sim.simulate_session(
            partial_manifest, stream_sim.load_trace(io.StringIO(text)))
        run.check(checks.check_session, log.rows, text, partial)

    lock = threading.Lock()
    stats = {False: StreamStats(), True: StreamStats()}
    spans = tracer.Tracer()
    next_trace = [0]

    def session(conn: CountingConnection, st: StreamStats) -> None:
        with lock:
            text = traces[next_trace[0] % len(traces)]
            next_trace[0] += 1
        start = time.perf_counter()
        body, _, _ = fetch(conn, "manifest.mpd")
        if body != disk["manifest.mpd"]:
            raise checks.CheckFailed("served manifest differs from the file")
        cpu = time.thread_time()
        manifest = empd.parse_xml(body)
        log = stream_sim.simulate_session(
            manifest, stream_sim.load_trace(io.StringIO(text)))
        cpu = time.thread_time() - cpu
        checks.check_session(log.rows, text, levels)
        fetched = []
        for row in log.rows:
            body, ttfb, total = fetch(conn, row.segment_url)
            if body != disk[row.segment_url]:
                raise checks.CheckFailed(f"served {row.segment_url} differs from the file")
            fetched.append((ttfb, total, len(body)))
        with lock:
            st.sessions.append(time.perf_counter() - start)
            st.client_cpu += cpu
            st.session_cpu.append(cpu)
            st.fetches += len(fetched) + 1
            for ttfb, total, size in fetched:
                st.ttfb.append(ttfb)
                st.latency.append(total)
                st.bytes += size

    def client(deadline: float, st: StreamStats) -> None:
        conn = CountingConnection(server.host, server.port, timeout=10)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    run.attempted += 1
                try:
                    session(conn, st)
                except checks.CheckFailed as exc:
                    with lock:
                        run.wrong.append(str(exc))
                except Exception as exc:  # any other error fails the session
                    with lock:
                        run.fail(f"session: {type(exc).__name__}: {exc}")
                    conn.close()
        finally:
            conn.close()
            with lock:
                st.connections += conn.opened

    # A traced run alternates untraced and traced phases; the difference in
    # processor time inside evso calls per session is the tracing overhead.
    phases = [False, True] * 3 if run.trace else [False]
    for traced in phases:
        if traced:
            spans.install(evso)
        start, server_cpu = time.perf_counter(), server.cpu_s()
        deadline = start + run.seconds / len(phases)
        threads = [threading.Thread(target=client, args=(deadline, stats[traced]))
                   for _ in range(STREAM_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats[traced].elapsed += time.perf_counter() - start
        stats[traced].server_cpu += server.cpu_s() - server_cpu
        spans.uninstall()

    server.stop()
    if server.proc.returncode != 0:
        run.wrong.append(f"evso serve exited with {server.proc.returncode}")
    plain, traced = stats[False], stats[True]
    lat = need(plain.latency, "segment fetch")
    p50 = 1000.0 * statistics.median(lat)
    sessions_per_s = len(plain.sessions) / plain.elapsed
    run.detail("fetch_p50_ms", p50, "ms")
    run.detail("fetch_p90_ms", 1000.0 * statistics.quantiles(lat, n=10)[-1], "ms")
    run.detail("fetch_samples", len(lat), "count")
    run.detail("served_mb_per_s", plain.bytes / MB_BYTES / plain.elapsed, "MB/s")
    run.detail("sessions_per_s", sessions_per_s, "sessions/s")
    run.detail("session_s", statistics.median(plain.sessions), "s")
    run.detail("server_cpu_ms_per_fetch", 1000.0 * plain.server_cpu / plain.fetches, "ms")
    run.detail("clients", STREAM_CLIENTS, "count")
    run.detail("segments_per_session", segments, "count")
    run.detail("checked.chunks", counts.get("chunks", 0), "count")

    layers = tracer.op_layers(spans.take())
    layers["stream_sim.ttfb_ms"] = (1000.0 * statistics.median(traced.ttfb)
                                    if traced.ttfb else 0.0)
    layers["stream_sim.connections_per_fetch"] = (
        traced.connections / traced.fetches if traced.fetches else 0.0)
    return {
        "e2e": {"op_cpu_ms": 1000.0 * (plain.server_cpu + plain.client_cpu)
                / len(plain.sessions), "peak_rss_mb": server.rss_mb},
        "layers": ([layers], overhead(plain.session_cpu, traced.session_cpu)),
    }


def _without_level(data: bytes, level: str) -> bytes:
    ET.register_namespace("", "urn:mpeg:dash:schema:mpd:2011")
    root = ET.fromstring(data)
    for period in root:
        for aset in list(period):
            if aset.get("EVSOLevel") == level:
                period.remove(aset)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = {
    "pipeline_mixed": pipeline_mixed,
    "analyze_hd": analyze_hd,
    "schedule_long": schedule_long,
    "stream_replay": stream_replay,
}


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evso" / "__init__.py").is_file():
        print(f"error: no evso source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    if run.trace:
        layer_ops, extra = result["layers"]
        metrics = {name: {"value": value, "unit": tracer.PER_LAYER[name][0]}
                   for name, value in tracer.median_layers(layer_ops, extra).items()}
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = not run.wrong
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.trace), "time_utc": datetime.now(timezone.utc).isoformat(),
        "environment": environment(), "correct": correct,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, "wrong": run.wrong[:20], "metrics": metrics,
        "details": {k: {"value": v, "unit": u} for k, (v, u) in run.details.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    (RESULTS / f"{stamp}-{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")

    for message, count in run.failures.items():
        print(f"failed x{count}: {message}")
    for message in run.wrong[:20]:
        print(f"WRONG: {message}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in run.details.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
