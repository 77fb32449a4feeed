"""Chunk retiming: drop frames to hit per-chunk target rates.

Retiming keeps the frames whose ideal playback slots land on new output
ticks. The keep rule is evaluated in exact rational arithmetic; float targets
are first snapped to the rational they intend (12.9 means 129/10), so a
300-frame chunk at factor 0.43 keeps exactly 129 frames, never 128 or 130
from rounding drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple, Union

import numpy as np

from .errors import InvalidRate, ScheduleMismatch
from .frame_source import FrameSequence, encode_y4m
from .fscheduler import ChunkRange, RateSchedule
from .similarity import ssim

#: Float targets are snapped to rationals with denominators up to this bound,
#: which absorbs binary float error while preserving every intended rate.
_RATE_SNAP_DENOMINATOR = 10 ** 9

RateLike = Union[int, float, Fraction]


def snap_rate(rate: RateLike) -> Fraction:
    """Exact rational for a target rate; floats recover their decimal intent."""
    if isinstance(rate, float):
        snapped = Fraction(rate).limit_denominator(_RATE_SNAP_DENOMINATOR)
    else:
        snapped = Fraction(rate)
    if snapped <= 0:
        raise InvalidRate(f"target rate must be positive, got {rate!r}")
    return snapped


def retime_indices(frame_count: int, source_fps: Fraction,
                   target_rate: RateLike) -> Tuple[int, ...]:
    """Local indices kept when a chunk is retimed to a slower rate.

    Frame t survives when the interval [t*r, (t+1)*r) in output ticks
    contains an integer, with r the exact target/source ratio. Index 0 is
    always kept, kept frames stay in order, and the kept count is the
    ceiling of frame_count * r.
    """
    target = snap_rate(target_rate)
    if target > source_fps:
        raise InvalidRate(
            f"target rate {target} exceeds source rate {source_fps}"
        )
    ratio = target / source_fps
    # Output tick k lies in the interval of frame floor(k / ratio).
    p, q = ratio.numerator, ratio.denominator
    return tuple(k * q // p for k in range(-(-frame_count * p // q)))


@dataclass(frozen=True)
class ProcessedChunk:
    """One retimed chunk: its range, target rate, and surviving frames."""

    range: ChunkRange
    target_rate: Fraction
    kept_indices: Tuple[int, ...]

    @property
    def kept_count(self) -> int:
        return len(self.kept_indices)


@dataclass(frozen=True)
class ProcessedVideo:
    """All chunks of one sequence retimed under one profile."""

    label: str
    chunks: Tuple[ProcessedChunk, ...]
    frame_count: int
    fps: Fraction

    @property
    def kept_count(self) -> int:
        return sum(c.kept_count for c in self.chunks)

    @property
    def kept_indices(self) -> Tuple[int, ...]:
        out: List[int] = []
        for chunk in self.chunks:
            out.extend(chunk.kept_indices)
        return tuple(out)

    @property
    def avg_frame_rate(self) -> float:
        """Kept frames divided by the clip duration in seconds."""
        return float(Fraction(self.kept_count) * self.fps / self.frame_count)


def _check_sequence(sequence: FrameSequence, frame_count: int,
                    fps: Fraction) -> None:
    if len(sequence) != frame_count:
        raise ScheduleMismatch(
            f"sequence has {len(sequence)} frames, schedule covers {frame_count}"
        )
    if sequence.fps != fps:
        raise ScheduleMismatch(
            f"sequence rate {sequence.fps} differs from schedule rate {fps}"
        )


def process(sequence: FrameSequence, rate_schedule: RateSchedule,
            profile_name: str) -> ProcessedVideo:
    """Retime every chunk of a sequence to its scheduled rate."""
    _check_sequence(sequence, rate_schedule.frame_count, rate_schedule.fps)
    chunks = []
    for entry in rate_schedule:
        if profile_name not in entry.rates:
            raise ScheduleMismatch(f"schedule has no profile {profile_name!r}")
        target = snap_rate(entry.rates[profile_name])
        local = retime_indices(entry.range.frame_count, sequence.fps, target)
        chunks.append(ProcessedChunk(
            range=entry.range, target_rate=target,
            kept_indices=tuple(entry.range.start + t for t in local),
        ))
    return ProcessedVideo(label=profile_name, chunks=tuple(chunks),
                          frame_count=len(sequence), fps=sequence.fps)


def decimate_uniform(sequence: FrameSequence, target_rate: RateLike,
                     label: str = "baseline") -> ProcessedVideo:
    """Retime a whole sequence as a single chunk at one flat rate."""
    target = snap_rate(target_rate)
    local = retime_indices(len(sequence), sequence.fps, target)
    chunk = ProcessedChunk(
        range=ChunkRange(0, len(sequence)), target_rate=target,
        kept_indices=local,
    )
    return ProcessedVideo(label=label, chunks=(chunk,),
                          frame_count=len(sequence), fps=sequence.fps)


def restrict_to_chunks(video: ProcessedVideo,
                       ranges: Tuple[ChunkRange, ...]) -> ProcessedVideo:
    """Re-segment a flat decimation along the given chunk boundaries."""
    kept = set(video.kept_indices)
    chunks = []
    for rng in ranges:
        chunks.append(ProcessedChunk(
            range=rng, target_rate=video.chunks[0].target_rate,
            kept_indices=tuple(i for i in range(rng.start, rng.end) if i in kept),
        ))
    return ProcessedVideo(label=video.label, chunks=tuple(chunks),
                          frame_count=video.frame_count, fps=video.fps)


def segment_streams(video: ProcessedVideo,
                    sequence: FrameSequence) -> List[bytes]:
    """One mono Y4M blob per chunk, timed at the chunk's target rate."""
    _check_sequence(sequence, video.frame_count, video.fps)
    return [
        encode_y4m([sequence[i] for i in chunk.kept_indices], chunk.target_rate)
        for chunk in video.chunks
    ]


def _held_planes(video: ProcessedVideo,
                 sequence: FrameSequence) -> Iterator[Tuple[np.ndarray, bool]]:
    """Walk the source positions in order. At each, yield the plane the held
    reconstruction shows there and whether it is that position's own frame:
    a kept frame, or the first frame, which is shown even when dropped."""
    kept = set(video.kept_indices)
    last_plane = None
    for pos in range(len(sequence)):
        own = pos in kept or last_plane is None
        if own:
            last_plane = sequence[pos]
        yield last_plane, own


def hold_sequence(video: ProcessedVideo,
                  sequence: FrameSequence) -> FrameSequence:
    """Source-length reconstruction: dropped frames repeat the last kept one.

    The result plays at the source rate with the source frame count, which
    makes it directly comparable to the original frame by frame.
    """
    _check_sequence(sequence, video.frame_count, video.fps)
    planes = tuple(plane for plane, _ in _held_planes(video, sequence))
    return FrameSequence(frames=planes, fps=sequence.fps)


def hold_stream(video: ProcessedVideo, sequence: FrameSequence) -> bytes:
    """Mono Y4M of the held reconstruction at the source rate."""
    held = hold_sequence(video, sequence)
    return encode_y4m(list(held), held.fps)


@dataclass(frozen=True)
class QualityReport:
    """Similarity of the held reconstruction against the source."""

    label: str
    frame_count: int
    kept_count: int
    mean_ssim: float
    per_chunk_mean_ssim: Tuple[float, ...]

    @property
    def dropped_count(self) -> int:
        return self.frame_count - self.kept_count

    @property
    def mean_ssim_pct(self) -> float:
        return self.mean_ssim * 100.0


def quality_report(video: ProcessedVideo,
                   sequence: FrameSequence) -> QualityReport:
    """Mean per-frame similarity of the held reconstruction.

    Kept frames are bit-identical to the source and score exactly 1.0
    without being recomputed; only dropped positions are measured.
    """
    _check_sequence(sequence, video.frame_count, video.fps)
    held = list(_held_planes(video, sequence))
    per_chunk = []
    total = 0.0
    for chunk in video.chunks:
        chunk_total = 0.0
        for pos in range(chunk.range.start, chunk.range.end):
            plane, own = held[pos]
            chunk_total += 1.0 if own else ssim(plane, sequence[pos])
        per_chunk.append(chunk_total / chunk.range.frame_count)
        total += chunk_total
    return QualityReport(
        label=video.label, frame_count=video.frame_count,
        kept_count=video.kept_count, mean_ssim=total / video.frame_count,
        per_chunk_mean_ssim=tuple(per_chunk),
    )
