"""Command-line front end for the whole pipeline.

Subcommands mirror the processing stages: analyze (pair diffs), split and
schedule (chunking and rates), process (retiming), pipeline (everything into
one output tree), manifest, correlate, simulate, serve, and synth. All
outputs are written atomically: staged next to the target, then renamed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
import uuid
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import empd, frame_source, fscheduler, similarity, stream_sim, vprocessor
from .empd import EvsoLevel
from .errors import EvsoError, MalformedDocument
from .frame_source import FrameDims, FrameSequence, as_fps
from .fscheduler import PROFILE_FACTORS, RateProfile, ScheduleConfig, SplitConfig
from .similarity import DiffSeries, PairDiff, SimilarityConfig


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class PipelineConfig:
    """Every tunable of the pipeline, JSON-loadable as one flat document.

    The document's keys are the fields of the three stage configs, in order;
    their defaults live in those classes.
    """

    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)

    def to_dict(self) -> dict:
        doc = {}
        for part in (self.similarity, self.split, self.schedule):
            doc.update((f.name, getattr(part, f.name)) for f in fields(part))
        doc["taus"] = list(doc["taus"])
        doc["profiles"] = {name: list(profile.s_factors)
                           for name, profile in doc["profiles"].items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise MalformedDocument("a config document must be a JSON object")
        merged = cls().to_dict()
        unknown = sorted(set(doc) - set(merged))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(doc)
        try:
            merged["profiles"] = {
                name: RateProfile(name=name, s_factors=tuple(factors))
                for name, factors in merged["profiles"].items()
            }
            return cls(*(kind(**{f.name: merged[f.name] for f in fields(kind)})
                         for kind in (SimilarityConfig, SplitConfig,
                                      ScheduleConfig)))
        except (AttributeError, TypeError) as exc:
            raise MalformedDocument(f"wrongly typed config value: {exc}") from None


def format_config(doc: dict) -> str:
    """One top-level key per line, values in compact JSON."""
    items = list(doc.items())
    lines = ["{"]
    for pos, (key, value) in enumerate(items):
        comma = "," if pos < len(items) - 1 else ""
        lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines)


def load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    with open(path, "r") as fh:
        return PipelineConfig.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _write_bytes(path: str, data: bytes) -> None:
    """Write through a uniquely named sibling, so concurrent writers never
    share a temp file and readers never see a partial target."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # Exclusive create under the umask, like the target itself would get;
    # tempfile.mkstemp would leave every output readable by its owner only.
    tmp = os.path.join(parent,
                       f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write_text(args.out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _parse_dims(text: str) -> FrameDims:
    width, _, height = text.lower().partition("x")
    try:
        return FrameDims(int(width), int(height))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: {exc}") from exc


def _load_video(args) -> FrameSequence:
    path = args.input
    if path.lower().endswith(".y4m"):
        with open(path, "rb") as fh:
            return frame_source.read_y4m(fh)
    if args.dims is None or args.fps is None:
        raise EvsoError(
            "raw input needs --dims WxH and --fps (or use a .y4m file)"
        )
    return frame_source.read_raw_yuv(path, args.dims, as_fps(args.fps),
                                     args.layout)


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


def _series_from_doc(doc: dict) -> DiffSeries:
    try:
        pairs = []
        for pos, p in enumerate(doc["pairs"]):
            if p["index"] != pos:
                raise ValueError(f"pair at position {pos} has index {p['index']}")
            pairs.append(PairDiff(m_diff=p["m_diff"], y_diff=p.get("y_diff", 0),
                                  ssim=p.get("ssim")))
        return DiffSeries(dims=FrameDims(doc["width"], doc["height"]),
                          fps=Fraction(doc["fps"]), pairs=pairs)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"not an analysis document: {exc!r}") from None


def _obtain_series(args, config: PipelineConfig) -> DiffSeries:
    analysis = getattr(args, "analysis", None)
    if analysis:
        if args.input:
            raise EvsoError("give either a video input or --analysis, not both")
        with open(analysis, "r") as fh:
            return _series_from_doc(json.load(fh))
    if not args.input:
        raise EvsoError("need a video input or --analysis")
    return similarity.diff_series(_load_video(args), config.similarity)


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
        entries = tuple(
            fscheduler.ChunkScheduleEntry(
                range=fscheduler.ChunkRange(c["start"], c["end"]),
                sigma=c["sigma"], rates=dict(c["rates"]),
            )
            for c in doc["chunks"]
        )
        return fscheduler.RateSchedule(
            entries=entries, frame_count=doc["frame_count"],
            fps=Fraction(doc["fps"]), gamma=Fraction(doc["gamma"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"not a schedule document: {exc!r}") from None


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args, config: PipelineConfig) -> int:
    sequence = _load_video(args)
    series = similarity.diff_series(sequence, config.similarity,
                                    with_ssim=args.with_ssim)
    _emit(args, _dump_json(_series_to_doc(series)))
    return 0


def cmd_split(args, config: PipelineConfig) -> int:
    series = _obtain_series(args, config)
    gamma = as_fps(args.gamma) if args.gamma else series.fps
    plan = fscheduler.split(series, gamma=gamma, config=config.split)
    doc = {
        "frame_count": plan.frame_count,
        "fps": str(plan.fps),
        "gamma": str(gamma),
        "chunks": [{"start": c.start, "end": c.end} for c in plan],
    }
    _emit(args, _dump_json(doc))
    return 0


def _schedule(series: DiffSeries, args,
              config: PipelineConfig) -> fscheduler.RateSchedule:
    """Split and rate a series at --gamma, or at the source rate without it."""
    gamma = as_fps(args.gamma) if args.gamma else series.fps
    return fscheduler.schedule(series, gamma=gamma, split_config=config.split,
                               schedule_config=config.schedule)


def cmd_schedule(args, config: PipelineConfig) -> int:
    sched = _schedule(_obtain_series(args, config), args, config)
    _emit(args, _dump_json(_schedule_to_doc(sched)))
    return 0


def _processed_for_profile(sequence: FrameSequence, args,
                           config: PipelineConfig) -> vprocessor.ProcessedVideo:
    if args.profile == "baseline":
        return vprocessor.decimate_uniform(sequence, sequence.fps, "baseline")
    if args.profile == "two_thirds":
        return vprocessor.decimate_uniform(
            sequence, sequence.fps * Fraction(2, 3), "two_thirds")
    series = similarity.diff_series(sequence, config.similarity)
    return vprocessor.process(sequence, _schedule(series, args, config),
                              args.profile)


def cmd_process(args, config: PipelineConfig) -> int:
    sequence = _load_video(args)
    video = _processed_for_profile(sequence, args, config)
    if args.mode == "hold":
        _write_bytes(args.out, vprocessor.hold_stream(video, sequence))
        written = [args.out]
    else:
        blobs = vprocessor.segment_streams(video, sequence)
        written = []
        for i, blob in enumerate(blobs):
            path = os.path.join(args.out, f"chunk_{i:03d}.y4m")
            _write_bytes(path, blob)
            written.append(path)
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


def _bandwidth_bps(total_bytes: int, frame_count: int, fps: Fraction) -> int:
    return math.ceil(Fraction(total_bytes * 8) * fps / frame_count)


def _tree_manifest(root: str,
                   sched: fscheduler.RateSchedule) -> empd.EmpdManifest:
    """Manifest over the segment files under root/segments/<level>/.

    Every level directory holding .y4m files becomes one video set. Its
    bandwidth comes from the files' total size over the clip duration, and
    the frame size from the first segment's header.
    """
    urls: Dict[EvsoLevel, List[str]] = {}
    bandwidths: Dict[EvsoLevel, int] = {}
    dims: Optional[FrameDims] = None
    for level in EvsoLevel:
        level_dir = os.path.join(root, "segments", level.value)
        if not os.path.isdir(level_dir):
            continue
        # Shorter names first keeps chunk_NNN in numeric order past 999.
        names = sorted((n for n in os.listdir(level_dir) if n.endswith(".y4m")),
                       key=lambda n: (len(n), n))
        if not names:
            continue
        urls[level] = [f"segments/{level.value}/{n}" for n in names]
        total = sum(os.path.getsize(os.path.join(level_dir, n)) for n in names)
        bandwidths[level] = _bandwidth_bps(total, sched.frame_count, sched.fps)
        if dims is None:
            dims, _ = frame_source.sniff_y4m(os.path.join(level_dir, names[0]))
    return empd.build_manifest(
        chunk_count=len(sched.entries),
        duration_seconds=Fraction(sched.frame_count) / sched.fps,
        segments_by_level=urls, bandwidth_by_level=bandwidths,
        width=dims.width if dims else None,
        height=dims.height if dims else None,
        mime_type="video/x-yuv4mpeg",
    )


def _write_tree(root: str, sequence: FrameSequence,
                config: PipelineConfig, args) -> dict:
    """Segments per level, manifest, schedule and quality report under root.

    root is a fresh private directory, so files are written in place.
    Returns the chunk count and each level's bandwidth.
    """
    def put(rel: str, data: bytes) -> None:
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)

    series = similarity.diff_series(sequence, config.similarity)
    sched = _schedule(series, args, config)
    ranges = tuple(entry.range for entry in sched)

    videos: Dict[str, vprocessor.ProcessedVideo] = {}
    for level, profile in empd.PROFILE_FOR_LEVEL.items():
        if profile is None:
            flat = vprocessor.decimate_uniform(sequence, sequence.fps,
                                               "baseline")
            video = vprocessor.restrict_to_chunks(flat, ranges)
        else:
            video = vprocessor.process(sequence, sched, profile)
        # `blobs` must outlive this loop: the live buffers keep glibc from
        # trimming the heap top that every ssim call below reallocates.
        blobs = vprocessor.segment_streams(video, sequence)
        for i, blob in enumerate(blobs):
            put(f"segments/{level.value}/chunk_{i:03d}.y4m", blob)
        videos[level.value] = video

    manifest = _tree_manifest(root, sched)
    put("manifest.mpd", empd.serialize_xml(manifest))
    put("schedule.json", _dump_json(_schedule_to_doc(sched)).encode())

    videos["two_thirds"] = vprocessor.decimate_uniform(
        sequence, sequence.fps * Fraction(2, 3), "two_thirds")
    report: Dict[str, dict] = {}
    for label, video in videos.items():
        quality = vprocessor.quality_report(video, sequence)
        report[label] = {
            "kept_frames": quality.kept_count,
            "avg_frame_rate": round(video.avg_frame_rate, 6),
            "mean_ssim_pct": round(quality.mean_ssim_pct, 6),
        }
    quality_doc = {
        "frame_count": len(sequence),
        "fps": str(sequence.fps),
        "duration_seconds": float(sequence.duration_seconds),
        "chunks": len(ranges),
        "levels": report,
    }
    put("quality_report.json", _dump_json(quality_doc).encode())
    return {
        "chunks": len(ranges),
        "levels": {aset.evso_level.value: aset.representations[0].bandwidth
                   for aset in manifest.video_sets()},
    }


#: What pipeline writes into its output directory; nothing else there is
#: touched. manifest.mpd goes last, so it never names a missing segment.
_TREE_ENTRIES = ("segments", "schedule.json", "quality_report.json",
                 "manifest.mpd")


def cmd_pipeline(args, config: PipelineConfig) -> int:
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


def cmd_manifest(args, config: PipelineConfig) -> int:
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
    with open(os.path.join(args.dir, "schedule.json"), "r") as fh:
        sched = _schedule_from_doc(json.load(fh))
    out = args.out or os.path.join(args.dir, "manifest.mpd")
    _write_bytes(out, empd.serialize_xml(_tree_manifest(args.dir, sched)))
    print(out)
    return 0


def cmd_correlate(args, config: PipelineConfig) -> int:
    if args.corpus:
        with open(args.corpus, "r") as fh:
            sequences = frame_source.build_corpus(json.load(fh))
    else:
        sequences = frame_source.standard_corpus()
    diffs: List[int] = []
    ssims: List[float] = []
    for sequence in sequences:
        series = similarity.diff_series(sequence, config.similarity,
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


def cmd_simulate(args, config: PipelineConfig) -> int:
    with open(args.manifest, "rb") as fh:
        manifest = empd.parse_xml(fh.read())
    trace = stream_sim.load_trace(args.trace)
    log = stream_sim.simulate_session(
        manifest, trace,
        default_battery=stream_sim.parse_battery(args.default_battery),
    )
    _emit(args, log.to_csv_text())
    return 0


def cmd_serve(args, config: PipelineConfig) -> int:
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


def cmd_synth(args, config: PipelineConfig) -> int:
    fps = as_fps(args.fps)
    if args.kind == "static":
        sequence = frame_source.synth_static(args.dims, args.count, args.luma,
                                             fps)
    elif args.kind == "moving-block":
        sequence = frame_source.synth_moving_block(
            args.dims, args.count, args.block_edge, args.velocity,
            args.fg_luma, args.bg_luma, fps)
    else:
        sequence = frame_source.synth_noise(args.dims, args.count, args.seed,
                                            args.amplitude, fps)
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
                   choices=sorted(PROFILE_FACTORS) + ["baseline", "two_thirds"])
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
    p.add_argument("--fps", default="30")
    p.add_argument("--luma", type=int, default=128, help="static fill value")
    p.add_argument("--block-edge", type=int, default=16)
    p.add_argument("--velocity", type=int, default=8,
                   help="block speed in pixels per frame")
    p.add_argument("--fg-luma", type=int, default=235)
    p.add_argument("--bg-luma", type=int, default=16)
    p.add_argument("--seed", type=int, default=0, help="noise generator seed")
    p.add_argument("--amplitude", type=int, default=255,
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
            print(format_config(config.to_dict()))
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
