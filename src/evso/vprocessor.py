"""Chunk retiming: drop frames to hit per-chunk target rates.

Retiming keeps the frames whose ideal playback slots land on new output
ticks. The keep rule is evaluated in exact rational arithmetic; float targets
are first snapped to the rational they intend (12.9 means 129/10), so a
300-frame chunk at factor 0.43 keeps exactly 129 frames, never 128 or 130
from rounding drift.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Iterable, List, Optional, Tuple

from .errors import InvalidRate, ScheduleMismatch
from .frame_source import FrameSequence, encode_y4m
from .fscheduler import ChunkRange, FpsLike, RateSchedule
from .similarity import ssim, ssim_work

#: Float targets are snapped to rationals with denominators up to this bound,
#: which absorbs binary float error while preserving every intended rate.
_RATE_SNAP_DENOMINATOR = 10 ** 9


def snap_rate(rate: FpsLike) -> Fraction:
    """Exact rational for a target rate; floats recover their decimal intent."""
    if isinstance(rate, float):
        snapped = Fraction(rate).limit_denominator(_RATE_SNAP_DENOMINATOR)
    else:
        snapped = Fraction(rate)
    if snapped <= 0:
        raise InvalidRate(f"target rate must be positive, got {rate!r}")
    return snapped


def retime_indices(frame_count: int, source_fps: Fraction,
                   target_rate: FpsLike) -> Tuple[int, ...]:
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
    # Output tick k lies in the interval of frame floor(k / ratio) = kq // p.
    p, q = ratio.numerator, ratio.denominator
    kept = -(-frame_count * p // q)
    return tuple(map(operator.floordiv, range(0, kept * q, q), repeat(p)))


@dataclass(frozen=True)
class ProcessedChunk:
    """One retimed chunk: its range, target rate, and surviving frames."""

    range: ChunkRange
    target_rate: Fraction
    kept_indices: Tuple[int, ...]


@dataclass(frozen=True)
class ProcessedVideo:
    """All chunks of one sequence retimed under one profile."""

    chunks: Tuple[ProcessedChunk, ...]
    frame_count: int
    fps: Fraction

    @property
    def kept_count(self) -> int:
        return sum(len(c.kept_indices) for c in self.chunks)

    @property
    def kept_indices(self) -> Tuple[int, ...]:
        return tuple(chain.from_iterable(c.kept_indices for c in self.chunks))

    @property
    def held(self) -> Tuple[int, ...]:
        """Per source position, the index the held reconstruction shows
        there: the last kept index at or before it. The walk starts at 0, so
        the first frame is shown until a later one is kept, even if dropped."""
        kept = set(self.kept_indices)
        return tuple(accumulate(
            range(self.frame_count),
            lambda shown, pos: pos if pos in kept else shown))

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


def _retime(sequence: FrameSequence,
            targets: Iterable[Tuple[ChunkRange, FpsLike]]) -> ProcessedVideo:
    """Retime each (range, target rate) of a sequence as one chunk."""
    chunks = []
    for rng, rate in targets:
        target = snap_rate(rate)
        local = retime_indices(rng.frame_count, sequence.fps, target)
        chunks.append(ProcessedChunk(
            range=rng, target_rate=target,
            kept_indices=tuple(rng.start + t for t in local),
        ))
    return ProcessedVideo(chunks=tuple(chunks), frame_count=len(sequence),
                          fps=sequence.fps)


def process(sequence: FrameSequence, rate_schedule: RateSchedule,
            profile_name: str) -> ProcessedVideo:
    """Retime every chunk of a sequence to its scheduled rate."""
    _check_sequence(sequence, rate_schedule.frame_count, rate_schedule.fps)
    if any(profile_name not in entry.rates for entry in rate_schedule):
        raise ScheduleMismatch(f"schedule has no profile {profile_name!r}")
    return _retime(sequence, ((entry.range, entry.rates[profile_name])
                              for entry in rate_schedule))


def decimate_uniform(sequence: FrameSequence,
                     target_rate: FpsLike) -> ProcessedVideo:
    """Retime a whole sequence as a single chunk at one flat rate."""
    return _retime(sequence, [(ChunkRange(0, len(sequence)), target_rate)])


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
    return ProcessedVideo(chunks=tuple(chunks), frame_count=video.frame_count,
                          fps=video.fps)


def segment_streams(video: ProcessedVideo,
                    sequence: FrameSequence) -> List[bytes]:
    """One mono Y4M blob per chunk, timed at the chunk's target rate."""
    _check_sequence(sequence, video.frame_count, video.fps)
    return [
        encode_y4m([sequence[i] for i in chunk.kept_indices], chunk.target_rate)
        for chunk in video.chunks
    ]


def hold_stream(video: ProcessedVideo, sequence: FrameSequence) -> bytes:
    """Mono Y4M of the held reconstruction: dropped frames repeat the last
    kept one. It plays at the source rate with the source frame count, so it
    compares with the original frame by frame."""
    _check_sequence(sequence, video.frame_count, video.fps)
    return encode_y4m([sequence[i] for i in video.held], sequence.fps)


@dataclass(frozen=True)
class QualityReport:
    """Similarity of the held reconstruction against the source."""

    frame_count: int
    kept_count: int
    mean_ssim: float

    @property
    def dropped_count(self) -> int:
        return self.frame_count - self.kept_count

    @property
    def mean_ssim_pct(self) -> float:
        return self.mean_ssim * 100.0


def quality_report(video: ProcessedVideo, sequence: FrameSequence,
                   memo: Optional[dict] = None) -> QualityReport:
    """Mean per-frame similarity of the held reconstruction.

    A position that shows its own frame (kept, or the first frame) is
    bit-identical to the source and scores exactly 1.0 without being
    recomputed; only the others are measured. memo maps (held index,
    position) to its score; variants of one sequence sharing it score each
    pair once.
    """
    _check_sequence(sequence, video.frame_count, video.fps)
    memo = {} if memo is None else memo
    work = ssim_work(sequence[0].shape)
    total = 0.0
    for pos, shown in enumerate(video.held):
        if (shown, pos) not in memo:
            memo[shown, pos] = (1.0 if shown == pos else
                                ssim(sequence[shown], sequence[pos], work))
        total += memo[shown, pos]
    return QualityReport(
        frame_count=video.frame_count, kept_count=video.kept_count,
        mean_ssim=total / video.frame_count,
    )
