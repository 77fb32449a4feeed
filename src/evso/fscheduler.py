"""Motion-aware chunk splitting and per-chunk frame-rate scheduling.

Splitting walks the per-pair changed-macroblock series with a rolling window
and cuts a new chunk where local variance or the instantaneous diff spikes,
provided the current chunk is already longer than the playback rate. Each
chunk then receives one target rate per battery profile from a step function
over its diff magnitudes plus a small variance bonus.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import ChunkTooSmall, WindowOutOfRange
from .similarity import DiffSeries

DEFAULT_ALPHA = 3000
DEFAULT_BETA = 15000
DEFAULT_K_WINDOW = 10

DEFAULT_TAUS = (500, 1500, 3000, 6000)
DEFAULT_DELTA = 0.0001

#: Per-profile rate factors (s1..s5), least to most aggressive. The top
#: factor of the two milder profiles is the integer 1: at the highest motion
#: band they keep the full playback rate.
PROFILE_FACTORS = {
    "evso": (0.6, 0.83, 0.9, 0.93, 1),
    "evso_plus": (0.5, 0.73, 0.83, 0.9, 1),
    "evso_plus_plus": (0.43, 0.6, 0.7, 0.8, 0.93),
}


@dataclass(frozen=True)
class SplitConfig:
    """Chunk split thresholds.

    The rolling window at frame n covers the K-1 pair diffs for frames
    n-K+1 .. n, ending with the pair (n-1, n) under test. Its mean divides
    that K-1-term sum by K; the standard deviation divides by K-1.
    """

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    k_window: int = DEFAULT_K_WINDOW

    def __post_init__(self) -> None:
        if not isinstance(self.k_window, numbers.Integral):
            raise TypeError(f"k_window must be an integer, got {self.k_window!r}")
        if self.k_window < 2:
            raise ValueError(f"k_window must be >= 2, got {self.k_window}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")


class ChunkRange(NamedTuple):
    """Frame index range [start, end) of one chunk."""

    start: int
    end: int

    @property
    def frame_count(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ChunkPlan:
    """Contiguous chunk ranges covering one sequence exactly."""

    chunks: Tuple[ChunkRange, ...]
    frame_count: int
    fps: Fraction

    def __post_init__(self) -> None:
        chunks = tuple(ChunkRange(*c) for c in self.chunks)
        object.__setattr__(self, "chunks", chunks)
        if not chunks:
            raise ValueError("a plan needs at least one chunk")
        if chunks[0].start != 0 or chunks[-1].end != self.frame_count:
            raise ValueError("chunks do not span [0, frame_count)")
        for prev, cur in zip(chunks, chunks[1:]):
            if cur.start != prev.end:
                raise ValueError("chunks are not contiguous")
        for c in chunks:
            if c.end <= c.start:
                raise ChunkTooSmall(f"chunk {c} is empty")

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self):
        return iter(self.chunks)


def rolling_stats(m_diffs: Sequence[int], n: int,
                  config: Optional[SplitConfig] = None) -> Tuple[float, float]:
    """Window mean and standard deviation at frame n.

    The window is m_diffs[n-K+1 : n], the K-1 pairs ending with (n-1, n).
    Raises WindowOutOfRange unless K <= n <= len(m_diffs).
    """
    cfg = config or SplitConfig()
    k = cfg.k_window
    if n < k or n > len(m_diffs):
        raise WindowOutOfRange(
            f"n={n} outside [{k}, {len(m_diffs)}] for window size {k}"
        )
    window = m_diffs[n - k + 1:n]
    mean = sum(window) / k
    var = sum((d - mean) ** 2 for d in window) / (k - 1)
    return mean, math.sqrt(var)


def est(series: DiffSeries, n: int, chunk_start: int, gamma: Fraction,
        config: Optional[SplitConfig] = None) -> bool:
    """Split decision at frame n for a chunk opened at chunk_start.

    True when the window deviation exceeds alpha or the pair diff (n-1, n)
    exceeds beta, and the chunk already holds strictly more than gamma
    frames. All three comparisons are strict.
    """
    cfg = config or SplitConfig()
    _, sigma = rolling_stats(series.m_diffs, n, cfg)
    spike = series.m_diffs[n - 1] > cfg.beta
    if not (sigma > cfg.alpha or spike):
        return False
    return n - chunk_start > gamma


def split(series: DiffSeries, gamma: Optional[Fraction] = None,
          config: Optional[SplitConfig] = None) -> ChunkPlan:
    """Partition a sequence into chunks at detected motion transitions.

    Every split opens a new chunk at the triggering frame; the final chunk
    absorbs whatever remains, so it alone may be gamma frames or shorter.
    gamma defaults to the nominal frame rate (chunks of at least a second).
    """
    cfg = config or SplitConfig()
    gamma = series.fps if gamma is None else Fraction(gamma)
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    starts = [0]
    for n in range(cfg.k_window, series.frame_count):
        if est(series, n, starts[-1], gamma, cfg):
            starts.append(n)
    bounds = starts + [series.frame_count]
    chunks = tuple(ChunkRange(a, b) for a, b in zip(bounds, bounds[1:]))
    return ChunkPlan(chunks=chunks, frame_count=series.frame_count,
                     fps=series.fps)


@dataclass(frozen=True)
class RateProfile:
    """Named set of five rate factors, one per motion band."""

    name: str
    s_factors: Tuple[float, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.s_factors)
        object.__setattr__(self, "s_factors", factors)
        if len(factors) != 5:
            raise ValueError(f"profile {self.name}: need 5 factors")
        for a, b in zip(factors, factors[1:]):
            if a > b:
                raise ValueError(f"profile {self.name}: factors must not decrease")
        if factors[0] <= 0 or factors[-1] > 1:
            raise ValueError(f"profile {self.name}: factors outside (0, 1]")


def default_profiles() -> Dict[str, RateProfile]:
    return {
        name: RateProfile(name=name, s_factors=factors)
        for name, factors in PROFILE_FACTORS.items()
    }


@dataclass(frozen=True)
class ScheduleConfig:
    """Rate-mapping parameters shared by every profile."""

    taus: Tuple[int, ...] = DEFAULT_TAUS
    delta: float = DEFAULT_DELTA
    profiles: Dict[str, RateProfile] = field(default_factory=default_profiles)

    def __post_init__(self) -> None:
        taus = tuple(self.taus)
        object.__setattr__(self, "taus", taus)
        if len(taus) != 4:
            raise ValueError("need exactly 4 band boundaries")
        if taus[0] <= 0 or any(a >= b for a, b in zip(taus, taus[1:])):
            raise ValueError("band boundaries must be positive and increasing")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")


def epf(d: int, profile: RateProfile, gamma: Fraction,
        taus: Sequence[int] = DEFAULT_TAUS) -> float:
    """Per-pair target rate: the band factor for d times the playback rate.

    Band lower bounds are inclusive, so d equal to a boundary takes the
    higher band's factor.
    """
    band = 0
    for bound in taus:
        if d >= bound:
            band += 1
        else:
            break
    return profile.s_factors[band] * float(gamma)


def chunk_sigma(series: DiffSeries, chunk: ChunkRange) -> float:
    """Sample standard deviation of the pair diffs fully inside a chunk.

    Pair i lies inside [start, end) when start <= i < end - 1. A single pair
    yields 0.0; a one-frame chunk has no pairs and raises ChunkTooSmall.
    """
    values = series.m_diffs[chunk.start:chunk.end - 1]
    if not values:
        raise ChunkTooSmall(f"chunk {chunk} holds no frame pairs")
    if len(values) == 1:
        return 0.0
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var)


def evf(series: DiffSeries, chunk: ChunkRange, profile: RateProfile,
        gamma: Fraction, config: Optional[ScheduleConfig] = None) -> float:
    """Chunk target rate: mean per-pair rate plus a small deviation bonus.

    The result is clamped to at most the playback rate; it is always
    positive because every band factor is.
    """
    cfg = config or ScheduleConfig()
    values = series.m_diffs[chunk.start:chunk.end - 1]
    if not values:
        raise ChunkTooSmall(f"chunk {chunk} holds no frame pairs")
    mean_rate = sum(epf(d, profile, gamma, cfg.taus) for d in values) / len(values)
    rate = mean_rate + cfg.delta * chunk_sigma(series, chunk)
    return min(rate, float(gamma))


class ChunkScheduleEntry(NamedTuple):
    """One chunk with its diff deviation and per-profile target rates."""

    range: ChunkRange
    sigma: float
    rates: Dict[str, float]


@dataclass(frozen=True)
class RateSchedule:
    """Chunk plan plus target rates for every profile."""

    entries: Tuple[ChunkScheduleEntry, ...]
    frame_count: int
    fps: Fraction
    gamma: Fraction

    @property
    def plan(self) -> ChunkPlan:
        return ChunkPlan(
            chunks=tuple(e.range for e in self.entries),
            frame_count=self.frame_count, fps=self.fps,
        )

    def rates_for(self, profile_name: str) -> Tuple[float, ...]:
        return tuple(e.rates[profile_name] for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def schedule(series: DiffSeries, gamma: Optional[Fraction] = None,
             split_config: Optional[SplitConfig] = None,
             schedule_config: Optional[ScheduleConfig] = None) -> RateSchedule:
    """Split a diff series and rate every chunk under every profile.

    A one-frame chunk (split may cut at the last frame) holds no pair of its
    own; it is rated from the pair entering it, (start-1, start), so its
    sigma is 0.0.
    """
    cfg = schedule_config or ScheduleConfig()
    gamma = series.fps if gamma is None else Fraction(gamma)
    plan = split(series, gamma=gamma, config=split_config)
    entries = []
    for chunk in plan:
        rated = (chunk if chunk.frame_count > 1
                 else ChunkRange(chunk.start - 1, chunk.end))
        rates = {
            name: evf(series, rated, profile, gamma, cfg)
            for name, profile in cfg.profiles.items()
        }
        entries.append(ChunkScheduleEntry(
            range=chunk, sigma=chunk_sigma(series, rated), rates=rates,
        ))
    return RateSchedule(entries=tuple(entries), frame_count=series.frame_count,
                        fps=series.fps, gamma=gamma)
