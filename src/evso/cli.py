"""Command-line front end for the whole pipeline.

Subcommands mirror the processing stages: analyze (pair diffs), split and
schedule (chunking and rates), process (retiming), pipeline (everything into
one output tree), manifest, correlate, simulate, serve, and synth. Each
takes one `fscheduler.Config`: the defaults, or those of the --config file.
All outputs are written atomically: staged next to the target, then renamed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import signal
import sys
import tempfile
import time
import uuid
from dataclasses import asdict, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from . import empd, fscheduler, stream_sim
from .empd import EvsoLevel
from .errors import ChunkTooSmall, EvsoError, MalformedDocument
from .fscheduler import (PROFILE_FACTORS, Config, DiffSeries, FrameDims,
                         PairDiff, as_fps)

if TYPE_CHECKING:
    from . import vprocessor
    from .frame_source import FrameSequence, FrameStream

# The modules above are numpy-free; frame_source, similarity and vprocessor
# are imported only by the functions that read or write planes. No command
# makes a BLAS call, yet OpenBLAS starts a thread per core when numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _holds_bool(value) -> bool:
    """Whether value is, or holds at any depth, true or false. Python counts
    them as the numbers 1 and 0, so each config check would let one pass."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def format_config(config: Config) -> str:
    """One field per line, in Config's order, values in compact JSON."""
    items = list(asdict(config).items())
    lines = ["{"]
    for pos, (key, value) in enumerate(items):
        comma = "," if pos < len(items) - 1 else ""
        lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise MalformedDocument(f"number {text} is not finite")
    return value


def _read_json(path: str):
    """A JSON file's value. NaN, Infinity and numbers that overflow a float,
    such as 1e999, are refused: no output could carry them as JSON."""
    with open(path, "r") as fh:
        return json.load(fh, parse_float=_finite, parse_constant=_finite)


def load_config(path: Optional[str]) -> Config:
    """The Config of a JSON file holding any of Config's fields, or the
    defaults without one. A "profiles" object overrides the profiles it
    names; a name no level plays is refused."""
    if path is None:
        return Config()
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise MalformedDocument("a config document must be a JSON object")
    if _holds_bool(doc):
        raise MalformedDocument("config values must not be true or false")
    unknown = sorted(set(doc) - {f.name for f in fields(Config)})
    if unknown:
        raise MalformedDocument(f"unknown config keys: {', '.join(unknown)}")
    if isinstance(doc.get("profiles"), dict):
        unknown = sorted(set(doc["profiles"]) - set(PROFILE_FACTORS))
        if unknown:
            raise MalformedDocument(f"unknown profiles: {', '.join(unknown)}")
        doc["profiles"] = {**PROFILE_FACTORS, **doc["profiles"]}
    try:
        return Config(**doc)
    except (AttributeError, TypeError) as exc:
        raise MalformedDocument(f"wrongly typed config value: {exc}") from None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _write_bytes(path: str, data: bytes, staged: bool = False) -> None:
    """Write through a uniquely named sibling, so concurrent writers never
    share a temp file and readers never see a partial target. A staged path,
    in a directory that no reader sees yet, is written in place."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # Exclusive create under the umask, like the target itself would get;
    # tempfile.mkstemp would leave every output readable by its owner only.
    tmp = path if staged else os.path.join(
        parent, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        if tmp != path:
            os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write_bytes(args.out, text.encode("utf-8"))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _parse_dims(text: str) -> FrameDims:
    width, _, height = text.lower().partition("x")
    try:
        return FrameDims(int(width), int(height))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: {exc}") from exc


def _load_video(args) -> FrameSequence:
    """Every luma plane of the input, for stages that index frames."""
    from . import frame_source
    if args.input.lower().endswith(".y4m"):
        with open(args.input, "rb") as fh:
            return frame_source.read_y4m(fh)
    with _open_video(args) as clip:
        return frame_source.FrameSequence(frames=clip, fps=clip.fps)


@contextlib.contextmanager
def _open_video(args) -> Iterator[FrameStream]:
    """The input as a FrameStream, read while the with block holds it open."""
    from . import frame_source
    raw = not args.input.lower().endswith(".y4m")
    if raw and (args.dims is None or args.fps is None):
        raise EvsoError("raw input needs --dims WxH and --fps (or use a .y4m file)")
    fps = as_fps(args.fps) if raw else None
    with open(args.input, "rb") as fh:
        yield (frame_source.stream_raw_yuv(fh, args.dims, fps, args.layout)
               if raw else frame_source.stream_y4m(fh))


def _add_video_input(parser: argparse.ArgumentParser,
                     optional: bool = False) -> None:
    parser.add_argument("input", nargs="?" if optional else None,
                        help="input video (.y4m, or raw planar with --dims)")
    parser.add_argument("--dims", type=_parse_dims,
                        help="raw input geometry, e.g. 1280x720")
    parser.add_argument("--fps", help="raw input frame rate, e.g. 30 or 30000/1001")
    parser.add_argument("--layout", default="I420", choices=["I420", "YONLY"],
                        help="raw input plane layout")


def _series_to_doc(series: DiffSeries) -> dict:
    return {
        "width": series.dims.width,
        "height": series.dims.height,
        "fps": str(series.fps),
        "frame_count": series.frame_count,
        "pairs": [
            {"index": i, "m_diff": p.m_diff, "y_diff": p.y_diff,
             "ssim": p.ssim}
            for i, p in enumerate(series.pairs)
        ],
    }


def _json_ints(*values) -> tuple:
    """The values, if each is a JSON integer; true and 2.0 are not."""
    if any(type(value) is not int for value in values):
        raise TypeError(f"expected integers, got {values}")
    return values


def _series_from_doc(doc: dict) -> DiffSeries:
    try:
        pairs = []
        for pos, p in enumerate(doc["pairs"]):
            if p["index"] != pos:
                raise ValueError(f"pair at position {pos} has index {p['index']}")
            counts = _json_ints(p["m_diff"], p.get("y_diff", 0))
            ssim = p.get("ssim")
            if type(ssim) not in (int, float, type(None)):
                raise TypeError(f"pair {pos} has ssim {ssim!r}")
            pairs.append(PairDiff(*counts, ssim=ssim))
        dims = FrameDims(*_json_ints(doc["width"], doc["height"]))
        return DiffSeries(dims=dims, fps=doc["fps"], pairs=pairs)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"not an analysis document: {exc!r}") from None


def _obtain_series(args, config: Config, with_ssim: bool = False) -> DiffSeries:
    """The series in --analysis, or measured on the input as it is read."""
    analysis = getattr(args, "analysis", None)
    if analysis:
        if args.input:
            raise EvsoError("give either a video input or --analysis, not both")
        return _series_from_doc(_read_json(analysis))
    if not args.input:
        raise EvsoError("need a video input or --analysis")
    from . import similarity
    with _open_video(args) as clip:
        return similarity.diff_series(clip, config, with_ssim)


def _schedule_to_doc(sched: fscheduler.RateSchedule) -> dict:
    return {
        "frame_count": sched.frame_count,
        "fps": str(sched.fps),
        "gamma": str(sched.gamma),
        "chunks": [
            {
                "start": entry.range.start,
                "end": entry.range.end,
                "sigma": entry.sigma,
                "rates": {name: entry.rates[name]
                          for name in sorted(entry.rates)},
            }
            for entry in sched
        ],
    }


def _schedule_from_doc(doc: dict) -> fscheduler.RateSchedule:
    try:
        frame_count = _json_ints(doc["frame_count"])[0]
        entries = tuple(
            fscheduler.ChunkScheduleEntry(
                range=fscheduler.ChunkRange(*_json_ints(c["start"], c["end"])),
                sigma=c["sigma"], rates=dict(c["rates"]),
            )
            for c in doc["chunks"]
        )
        return fscheduler.RateSchedule(
            entries=entries, frame_count=frame_count,
            fps=doc["fps"], gamma=doc["gamma"],
        )
    except (ChunkTooSmall, KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"not a schedule document: {exc!r}") from None


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args, config: Config) -> int:
    series = _obtain_series(args, config, with_ssim=args.with_ssim)
    _emit(args, _dump_json(_series_to_doc(series)))
    return 0


def cmd_split(args, config: Config) -> int:
    series = _obtain_series(args, config)
    gamma = as_fps(args.gamma or series.fps)
    chunks = fscheduler.split(series, gamma=gamma, config=config)
    doc = {
        "frame_count": series.frame_count,
        "fps": str(series.fps),
        "gamma": str(gamma),
        "chunks": [{"start": c.start, "end": c.end} for c in chunks],
    }
    _emit(args, _dump_json(doc))
    return 0


def _schedule(series: DiffSeries, args, config: Config) -> fscheduler.RateSchedule:
    """Split and rate a series at --gamma, or at the source rate without it."""
    return fscheduler.schedule(series, gamma=args.gamma or None, config=config)


def cmd_schedule(args, config: Config) -> int:
    sched = _schedule(_obtain_series(args, config), args, config)
    _emit(args, _dump_json(_schedule_to_doc(sched)))
    return 0


#: Flat-rate variants by label, each a share of the source rate.
_FLAT_SHARES = {"baseline": Fraction(1), "two_thirds": Fraction(2, 3)}


def _flat(sequence: FrameSequence, label: str) -> vprocessor.ProcessedVideo:
    from . import vprocessor
    return vprocessor.decimate_uniform(
        sequence, sequence.fps * _FLAT_SHARES[label], label)


def _processed_for_profile(sequence: FrameSequence, args,
                           config: Config) -> vprocessor.ProcessedVideo:
    from . import similarity, vprocessor
    if args.profile in _FLAT_SHARES:
        return _flat(sequence, args.profile)
    series = similarity.diff_series(sequence, config)
    return vprocessor.process(sequence, _schedule(series, args, config),
                              args.profile)


def _chunk_files(directory: str) -> List[str]:
    """Names in directory of the form chunk_{i:03d}.y4m, by chunk number i:
    the only files that the writer sweeps and that a manifest lists."""
    found = filter(None, (re.fullmatch(r"chunk_(\d{3,})\.y4m", name)
                          for name in os.listdir(directory)))
    return [m[0] for m in sorted(found, key=lambda m: (int(m[1]), m[0]))]


def _write_segments(directory: str, video: vprocessor.ProcessedVideo,
                    sequence: FrameSequence, staged: bool = False) -> List[str]:
    """Write a variant's chunks into directory, through _write_bytes, and
    remove any other chunk file there: left by an earlier, longer run, it
    would pass for this run's. Returns the paths written, in chunk order."""
    from . import vprocessor
    written = []
    for i, blob in enumerate(vprocessor.segment_streams(video, sequence)):
        written.append(os.path.join(directory, f"chunk_{i:03d}.y4m"))
        _write_bytes(written[-1], blob, staged)
    for name in _chunk_files(directory):
        if os.path.join(directory, name) not in written:
            os.unlink(os.path.join(directory, name))
    return written


def cmd_process(args, config: Config) -> int:
    from . import vprocessor
    sequence = _load_video(args)
    video = _processed_for_profile(sequence, args, config)
    if args.mode == "hold":
        _write_bytes(args.out, vprocessor.hold_stream(video, sequence))
        written = [args.out]
    else:
        written = _write_segments(args.out, video, sequence)
    summary = {
        "profile": args.profile,
        "frame_count": video.frame_count,
        "kept_frames": video.kept_count,
        "avg_frame_rate": video.avg_frame_rate,
        "chunks": len(video.chunks),
        "outputs": written,
    }
    print(_dump_json(summary), end="")
    return 0


def _tree_manifest(root: str,
                   sched: fscheduler.RateSchedule) -> empd.EmpdManifest:
    """Manifest over the segment files under root/segments/<level>/.

    Every level directory holding chunk files becomes one video set. Its
    bandwidth comes from the files' total size over the clip duration, and
    the frame size from the first segment's header.
    """
    from . import frame_source
    urls: Dict[EvsoLevel, List[str]] = {}
    bandwidths: Dict[EvsoLevel, int] = {}
    dims: Optional[FrameDims] = None
    for level in EvsoLevel:
        level_dir = os.path.join(root, "segments", level.value)
        if not os.path.isdir(level_dir):
            continue
        names = _chunk_files(level_dir)
        if not names:
            continue
        urls[level] = [f"segments/{level.value}/{n}" for n in names]
        total = sum(os.path.getsize(os.path.join(level_dir, n)) for n in names)
        bandwidths[level] = math.ceil(
            Fraction(total * 8) * sched.fps / sched.frame_count)
        if dims is None:
            with open(os.path.join(level_dir, names[0]), "rb") as fh:
                dims = frame_source.stream_y4m(fh).dims
    return empd.build_manifest(
        chunk_count=len(sched.entries),
        duration_seconds=Fraction(sched.frame_count) / sched.fps,
        segments_by_level=urls, bandwidth_by_level=bandwidths,
        width=dims.width if dims else None,
        height=dims.height if dims else None,
        mime_type="video/x-yuv4mpeg",
    )


def _write_tree(root: str, sequence: FrameSequence, config: Config, args) -> dict:
    """Segments per level, manifest, schedule and quality report under root.

    Returns the chunk count and each level's bandwidth.
    """
    from . import similarity, vprocessor
    series = similarity.diff_series(sequence, config)
    sched = _schedule(series, args, config)
    ranges = tuple(entry.range for entry in sched)

    # Levels in order, then the flat shares no level plays.
    profiles = {level.value: empd.PROFILE_FOR_LEVEL[level]
                for level in EvsoLevel}
    report: Dict[str, dict] = {}
    memo: Dict[Tuple[int, int], float] = {}  # variants share held frames
    for label in dict.fromkeys([*profiles, *_FLAT_SHARES]):
        if label in _FLAT_SHARES:
            video = vprocessor.restrict_to_chunks(_flat(sequence, label), ranges)
        else:
            video = vprocessor.process(sequence, sched, profiles[label])
        if label in profiles:
            _write_segments(os.path.join(root, "segments", label), video,
                            sequence, staged=True)
        quality = vprocessor.quality_report(video, sequence, memo)
        report[label] = {
            "kept_frames": quality.kept_count,
            "avg_frame_rate": round(video.avg_frame_rate, 6),
            "mean_ssim_pct": round(quality.mean_ssim_pct, 6),
        }

    manifest = _tree_manifest(root, sched)
    _write_bytes(os.path.join(root, "manifest.mpd"),
                 empd.serialize_xml(manifest))
    _write_bytes(os.path.join(root, "schedule.json"),
                 _dump_json(_schedule_to_doc(sched)).encode())
    _write_bytes(os.path.join(root, "quality_report.json"), _dump_json({
        "frame_count": len(sequence),
        "fps": str(sequence.fps),
        "duration_seconds": float(sequence.duration_seconds),
        "chunks": len(ranges),
        "levels": report,
    }).encode())
    return {
        "chunks": len(ranges),
        "levels": {aset.evso_level.value: aset.representations[0].bandwidth
                   for aset in manifest.video_sets()},
    }


#: What pipeline writes into its output directory; nothing else there is
#: touched. manifest.mpd goes last, so it never names a missing segment.
_TREE_ENTRIES = ("segments", "schedule.json", "quality_report.json",
                 "manifest.mpd")


def cmd_pipeline(args, config: Config) -> int:
    sequence = _load_video(args)
    outdir = args.outdir
    if os.path.exists(outdir) and os.listdir(outdir) and not args.force:
        raise EvsoError(f"output dir {outdir} is not empty (use --force)")
    # Build the tree in a staging directory inside outdir and move its
    # entries over the old ones only once complete. A failed run leaves the
    # old tree as it was; the old segments/ goes whole, so no chunk of an
    # earlier, longer clip stays behind.
    os.makedirs(outdir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".stage-", dir=outdir)
    try:
        summary = _write_tree(stage, sequence, config, args)
        old_segments = os.path.join(outdir, "segments")
        if os.path.lexists(old_segments):
            os.replace(old_segments, os.path.join(stage, "old_segments"))
        for name in _TREE_ENTRIES:
            os.replace(os.path.join(stage, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    print(_dump_json({"outdir": outdir, **summary}), end="")
    return 0


def cmd_manifest(args, config: Config) -> int:
    if args.parse:
        with open(args.parse, "rb") as fh:
            manifest = empd.parse_xml(fh.read())
        doc = {
            "duration_seconds": float(manifest.duration_seconds),
            "periods": len(manifest.periods),
            "video_sets": [
                {
                    "level": aset.evso_level.value,
                    "representations": [
                        {"id": rep.id, "bandwidth": rep.bandwidth,
                         "segments": len(rep.segment_urls)}
                        for rep in aset.representations
                    ],
                }
                for aset in manifest.video_sets()
            ],
        }
        _emit(args, _dump_json(doc))
        return 0

    if not args.dir:
        raise EvsoError("need a pipeline output dir or --parse FILE")
    sched = _schedule_from_doc(_read_json(os.path.join(args.dir,
                                                       "schedule.json")))
    out = args.out or os.path.join(args.dir, "manifest.mpd")
    _write_bytes(out, empd.serialize_xml(_tree_manifest(args.dir, sched)))
    print(out)
    return 0


def cmd_correlate(args, config: Config) -> int:
    from . import frame_source, similarity
    if args.corpus:
        sequences = frame_source.build_corpus(_read_json(args.corpus))
    else:
        sequences = frame_source.standard_corpus()
    diffs: List[int] = []
    ssims: List[float] = []
    for sequence in sequences:
        series = similarity.diff_series(sequence, config,
                                        with_ssim=True)
        for pair in series.pairs:
            diffs.append(pair.m_diff)
            ssims.append(pair.ssim)
    r = similarity.pearson(diffs, ssims)
    slope, intercept = similarity.linear_fit(diffs, ssims)
    doc = {
        "pairs": len(diffs),
        "pearson_r": r,
        "fit_slope": slope,
        "fit_intercept": intercept,
    }
    _emit(args, _dump_json(doc))
    return 0


def cmd_simulate(args, config: Config) -> int:
    with open(args.manifest, "rb") as fh:
        manifest = empd.parse_xml(fh.read())
    trace = stream_sim.load_trace(args.trace)
    log = stream_sim.simulate_session(
        manifest, trace,
        default_battery=stream_sim.parse_battery(args.default_battery),
    )
    _emit(args, log.to_csv_text())
    return 0


def cmd_serve(args, config: Config) -> int:
    handle = stream_sim.serve(args.dir, host=args.host, port=args.port,
                              manifest_name=args.manifest_name)
    # A server started in the background from a script inherits SIGINT
    # ignored, and service managers stop with SIGTERM: take both as the
    # request to close the server and exit cleanly.
    previous = {sig: signal.signal(sig, signal.default_int_handler)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        # Flushed, so a script reading a pipe learns the port of --port 0.
        print(f"serving {handle.root} at {handle.url}", flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def cmd_synth(args, config: Config) -> int:
    from . import frame_source
    # synth's options carry the names of a corpus entry's keys.
    [sequence] = frame_source.build_corpus([{
        **vars(args), "kind": args.kind.replace("-", "_"),
        "width": args.dims.width, "height": args.dims.height}])
    data = frame_source.encode_y4m(list(sequence), sequence.fps)
    _write_bytes(args.out, data)
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evso",
        description="Motion-aware frame-rate scheduling for streamed video.",
    )
    parser.add_argument("--config", help="JSON file overriding the defaults")
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("analyze", help="measure per-pair frame differences")
    _add_video_input(p)
    p.add_argument("--with-ssim", action="store_true",
                   help="also score each pair's structural similarity")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("split", help="partition a video into motion chunks")
    _add_video_input(p, optional=True)
    p.add_argument("--analysis", help="reuse a JSON report from analyze")
    p.add_argument("--gamma", help="playback rate (default: source rate)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("schedule", help="assign per-chunk target rates")
    _add_video_input(p, optional=True)
    p.add_argument("--analysis", help="reuse a JSON report from analyze")
    p.add_argument("--gamma", help="playback rate (default: source rate)")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("process", help="retime a video under one profile")
    _add_video_input(p)
    p.add_argument("--profile", required=True,
                   choices=sorted(PROFILE_FACTORS) + list(_FLAT_SHARES))
    p.add_argument("--gamma", help="playback rate (default: source rate)")
    p.add_argument("--mode", default="segments", choices=["segments", "hold"],
                   help="per-chunk segment files or one held-frame stream")
    p.add_argument("--out", required=True,
                   help="segment directory, or file path with --mode hold")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("pipeline",
                       help="full run: schedule, segments, manifest, report")
    _add_video_input(p)
    p.add_argument("outdir", help="output directory")
    p.add_argument("--gamma", help="playback rate (default: source rate)")
    p.add_argument("--force", action="store_true",
                   help="write into a non-empty output directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("manifest",
                       help="rebuild or inspect a presentation manifest")
    p.add_argument("dir", nargs="?", help="pipeline output directory")
    p.add_argument("--parse", help="parse this manifest and print a summary")
    p.add_argument("--out", help="manifest output path")
    p.set_defaults(func=cmd_manifest)

    p = sub.add_parser("correlate",
                       help="correlate pair diffs with structural similarity")
    p.add_argument("--corpus", help="JSON list of synthetic clip descriptions")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("simulate", help="replay a client trace against a manifest")
    p.add_argument("manifest", help="manifest XML path")
    p.add_argument("--trace", required=True, help="client condition CSV")
    p.add_argument("--default-battery", default="high",
                   help="battery level before the first trace point")
    p.add_argument("--out", help="session CSV path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="serve a segment tree over HTTP")
    p.add_argument("dir", help="directory containing the manifest")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--manifest-name", default="manifest.mpd")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("synth", help="generate a synthetic test video")
    p.add_argument("kind", choices=["static", "moving-block", "noise"])
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--luma", type=int, default=128, help="static fill value")
    p.add_argument("--block-edge", type=int, default=16)
    p.add_argument("--velocity", type=int, default=8,
                   help="block speed in pixels per frame")
    p.add_argument("--seed", type=int, default=0, help="noise generator seed")
    # Absent options stay absent, so build_corpus supplies their defaults.
    p.add_argument("--fps", default=argparse.SUPPRESS)
    p.add_argument("--fg-luma", type=int, default=argparse.SUPPRESS)
    p.add_argument("--bg-luma", type=int, default=argparse.SUPPRESS)
    p.add_argument("--amplitude", type=int, default=argparse.SUPPRESS,
                   help="top of the noise value range")
    p.add_argument("--out", required=True, help="output .y4m path")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.show_config:
            print(format_config(config))
            return 0
        if not args.command:
            parser.print_help()
            return 2
        return args.func(args, config)
    except (EvsoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
