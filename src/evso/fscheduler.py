"""Motion-aware chunk splitting and per-chunk frame-rate scheduling.

Splitting walks the per-pair changed-macroblock series with a rolling window
and cuts a new chunk where local variance or the instantaneous diff spikes,
provided the current chunk is already longer than the playback rate. Each
chunk then receives one target rate per battery profile from a step function
over its diff magnitudes plus a small variance bonus.

This module is the numpy-free bottom of the package: it also defines the
records the other stages share (frame rates, frame geometry, per-pair
diffs) and the one `Config` of every tunable, so a saved analysis can be
scheduled and the whole configuration loaded without numpy.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import ChunkTooSmall, WindowOutOfRange

MACROBLOCK_EDGE = 16

FpsLike = Union[int, float, str, Fraction]

#: A decimal numeral as Fraction reads one: an optional sign, digits that
#: single underscores may group, an optional point and fraction, and an
#: optional exponent. Decimal alone would also take "inf", "nan" and "1_".
_DECIMAL_NUMERAL = re.compile(
    r"\s*[-+]?(?=\.?\d)(\d+(_\d+)*)?(\.(\d+(_\d+)*)?)?(e[-+]?\d+(_\d+)*)?\s*",
    re.IGNORECASE)


def exact_decimal(text: str) -> Fraction:
    """The exact value of a decimal numeral such as "29.97" or "2.5E+1".

    Fraction(text) gives the same value but expands the exponent into an
    integer of that many digits: "1e-9999999" takes seconds, and a 13-digit
    exponent hours. Decimal keeps the exponent as written, so a nonzero value
    beyond 10**±400, which no float holds, raises ValueError at once, as
    does any other text.
    """
    if not _DECIMAL_NUMERAL.fullmatch(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        value = Decimal(text)
        fits = not value or abs(value.adjusted()) <= 400
    except ArithmeticError:  # an exponent beyond even Decimal's range
        fits = False
    if not fits:
        raise ValueError(f"{text!r} does not fit a float")
    return Fraction(value)


def as_fps(value: FpsLike) -> Fraction:
    """Normalize a frame rate to an exact positive Fraction.

    Accepts ints, Fractions, "num/den" or decimal strings, and floats
    (floats go through their decimal repr, so 29.97 becomes 2997/100).
    """
    if isinstance(value, Fraction):
        fps = value
    elif isinstance(value, int) and not isinstance(value, bool):
        fps = Fraction(value)
    elif isinstance(value, float):
        fps = Fraction(str(value))
    elif isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
            if den == 0:
                raise ValueError(f"frame rate {value!r} has a zero denominator")
            fps = Fraction(num, den)
        else:
            fps = exact_decimal(text)
    else:
        raise TypeError(f"cannot interpret {value!r} as a frame rate")
    # Rates are also used as floats: 10**400 would overflow, 10**-400 read 0.
    if not math.ulp(0.0) <= fps <= sys.float_info.max:
        raise ValueError(f"frame rate must be positive and fit a float, "
                         f"got {value!r}")
    return fps


@dataclass(frozen=True)
class FrameDims:
    """Frame geometry plus the derived full-macroblock grid.

    Macroblocks are 16x16 luma samples. Partial blocks at the right/bottom
    edges are excluded from the grid, so mb_rows/mb_cols use floor division
    and a frame must be at least one macroblock in each direction.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        # 96.0 would give a float grid, and True passes as 1.
        if type(self.width) is not int or type(self.height) is not int:
            raise TypeError(f"dims must be integers, got "
                            f"{self.width!r}x{self.height!r}")
        if self.width < MACROBLOCK_EDGE or self.height < MACROBLOCK_EDGE:
            raise ValueError(
                f"dims {self.width}x{self.height} smaller than one "
                f"{MACROBLOCK_EDGE}x{MACROBLOCK_EDGE} macroblock"
            )

    @property
    def mb_rows(self) -> int:
        return self.height // MACROBLOCK_EDGE

    @property
    def mb_cols(self) -> int:
        return self.width // MACROBLOCK_EDGE

    @property
    def pixels(self) -> int:
        return self.width * self.height

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


class PairDiff(NamedTuple):
    """Difference measures for one adjacent pair of frames."""

    m_diff: int
    y_diff: int
    ssim: Optional[float] = None


@dataclass(frozen=True)
class DiffSeries:
    """Per-pair differences for one sequence, in frame order.

    `pairs[i]` describes frames (i, i+1), so a series over N frames holds
    N-1 entries. Usable both as the output of diff_series and as a directly
    constructed input to the splitter.
    """

    dims: FrameDims
    fps: Fraction
    pairs: Tuple[PairDiff, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fps", as_fps(self.fps))
        pairs = tuple(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("a diff series needs at least one pair")
        grid = self.dims.mb_rows * self.dims.mb_cols
        for pos, pair in enumerate(pairs):
            if type(pair.m_diff) is not int:  # split sums their exact squares
                raise TypeError(f"pair {pos}: m_diff {pair.m_diff!r} is no int")
            if not 0 <= pair.m_diff <= grid:
                raise ValueError(
                    f"pair {pos}: m_diff {pair.m_diff} outside [0, {grid}]"
                )
            if pair.y_diff < 0:
                raise ValueError(f"pair {pos}: negative y_diff")

    @classmethod
    def from_m_diffs(cls, m_diffs: Sequence[int], dims: FrameDims,
                     fps: FpsLike = 30) -> "DiffSeries":
        """Wrap bare changed-block counts, any integers but bools, as Python
        ints; y_diff is filled with zeros."""
        m_diffs = tuple(m_diffs)
        if bool in map(type, m_diffs):
            raise TypeError("an m_diff is a bool, not a count")
        pairs = tuple(map(PairDiff, map(operator.index, m_diffs), repeat(0)))
        return cls(dims=dims, fps=fps, pairs=pairs)

    @property
    def frame_count(self) -> int:
        return len(self.pairs) + 1

    @cached_property
    def m_diffs(self) -> Tuple[int, ...]:
        return tuple(p.m_diff for p in self.pairs)


DEFAULT_TAUS = (500, 1500, 3000, 6000)

#: Per-profile rate factors (s1..s5), least to most aggressive. The top
#: factor of the two milder profiles is the integer 1: at the highest motion
#: band they keep the full playback rate.
PROFILE_FACTORS = {
    "evso": (0.6, 0.83, 0.9, 0.93, 1),
    "evso_plus": (0.5, 0.73, 0.83, 0.9, 1),
    "evso_plus_plus": (0.43, 0.6, 0.7, 0.8, 0.93),
}


def default_profiles() -> Dict[str, Tuple[float, ...]]:
    return dict(PROFILE_FACTORS)


@dataclass(frozen=True)
class Config:
    """Every tunable of the method, in the order of the config document.

    A macroblock is "changed" only when its SAD is strictly above theta.
    A chunk ends where the rolling window's deviation exceeds alpha or the
    pair diff exceeds beta: the window at frame n covers the K-1 pair diffs
    for frames n-K+1 .. n (K is k_window), ending with the pair (n-1, n)
    under test; its mean divides their sum by K, its standard deviation by
    K-1. A chunk's rate comes from the band boundaries taus, the deviation
    bonus delta and each profile's five factors.
    """

    theta: int = 320
    alpha: float = 3000
    beta: float = 15000
    k_window: int = 10
    taus: Tuple[int, ...] = DEFAULT_TAUS
    delta: float = 0.0001
    profiles: Dict[str, Tuple[float, ...]] = field(
        default_factory=default_profiles)

    def __post_init__(self) -> None:
        # Written `not x >= 0` so that NaN is refused too.
        if not self.theta >= 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if not isinstance(self.k_window, numbers.Integral):
            raise TypeError(f"k_window must be an integer, got {self.k_window!r}")
        if self.k_window < 2:
            raise ValueError(f"k_window must be >= 2, got {self.k_window}")
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError("alpha and beta must be >= 0")
        profiles = {name: tuple(f) for name, f in self.profiles.items()}
        object.__setattr__(self, "profiles", profiles)
        for name, factors in profiles.items():
            if len(factors) != 5:
                raise ValueError(f"profile {name}: need 5 factors")
            if any(a > b for a, b in zip(factors, factors[1:])):
                raise ValueError(f"profile {name}: factors must not decrease")
            if factors[0] <= 0 or factors[-1] > 1:
                raise ValueError(f"profile {name}: factors outside (0, 1]")
        taus = tuple(self.taus)
        object.__setattr__(self, "taus", taus)
        if len(taus) != 4:
            raise ValueError("need exactly 4 band boundaries")
        if taus[0] <= 0 or any(a >= b for a, b in zip(taus, taus[1:])):
            raise ValueError("band boundaries must be positive and increasing")
        if not self.delta >= 0:
            raise ValueError("delta must be >= 0")


class ChunkRange(NamedTuple):
    """Frame index range [start, end) of one chunk."""

    start: int
    end: int

    @property
    def frame_count(self) -> int:
        return self.end - self.start


def _window(m_diffs: Sequence[int], n: int, k: int) -> Sequence[int]:
    """m_diffs[n-K+1 : n]; WindowOutOfRange unless K <= n <= len(m_diffs)."""
    if n < k or n > len(m_diffs):
        raise WindowOutOfRange(
            f"n={n} outside [{k}, {len(m_diffs)}] for window size {k}")
    return m_diffs[n - k + 1:n]


def rolling_stats(m_diffs: Sequence[int], n: int,
                  config: Optional[Config] = None) -> Tuple[float, float]:
    """Window mean and standard deviation at frame n.

    The window is m_diffs[n-K+1 : n], the K-1 pairs ending with (n-1, n).
    Raises WindowOutOfRange unless K <= n <= len(m_diffs).
    """
    k = (config or Config()).k_window
    window = _window(m_diffs, n, k)
    mean = sum(window) / k
    var = sum((d - mean) ** 2 for d in window) / (k - 1)
    return mean, math.sqrt(var)


def _deviates(m_diffs: Sequence[int], n: int, s: int, q: int,
              cfg: Config) -> bool:
    """rolling_stats' sigma > alpha at frame n, from the sum s and the sum of
    squares q of the window. Its exact variance is (K²q - (K+1)s²) / (K²(K-1));
    for counts below 2**53 the float one of rolling_stats lies within
    (K + 6)·2**-53·(var + mean²) of it, and sqrt adds one rounding. A slack
    2**13 times that leaves only near-ties to rolling_stats' own sigma."""
    k = cfg.k_window
    var = (k * k * q - (k + 1) * s * s) / (k * k * (k - 1))
    slack = (k + 6) * 2.0 ** -40 * (var + (s / k) ** 2)
    alpha2 = cfg.alpha * cfg.alpha
    if not var - slack <= alpha2 <= var + slack:
        return var > alpha2
    return rolling_stats(m_diffs, n, cfg)[1] > cfg.alpha


def est(series: DiffSeries, n: int, chunk_start: int, gamma: Fraction,
        config: Optional[Config] = None) -> bool:
    """Split decision at frame n for a chunk opened at chunk_start.

    True when the window deviation exceeds alpha or the pair diff (n-1, n)
    exceeds beta, and the chunk already holds strictly more than gamma
    frames. All three comparisons are strict.
    """
    cfg = config or Config()
    window = _window(series.m_diffs, n, cfg.k_window)
    sums = sum(window), sum(map(operator.mul, window, window))
    if not (series.m_diffs[n - 1] > cfg.beta
            or _deviates(series.m_diffs, n, *sums, cfg)):
        return False
    return n - chunk_start > gamma


def split(series: DiffSeries, gamma: Optional[FpsLike] = None,
          config: Optional[Config] = None) -> Tuple[ChunkRange, ...]:
    """Partition a sequence into contiguous chunks at motion transitions.

    Every split opens a new chunk at the triggering frame; the final chunk
    absorbs whatever remains, so it alone may be gamma frames or shorter.
    gamma defaults to the nominal frame rate (chunks of at least a second).
    """
    cfg = config or Config()
    gamma = series.fps if gamma is None else as_fps(gamma)
    d, k, beta, last = series.m_diffs, cfg.k_window, cfg.beta, series.frame_count
    # n - start > gamma exactly when n - start >= floor(gamma) + 1, so each
    # scan starts that far past a cut; it slides the window's sums s and q.
    hold = math.floor(gamma) + 1
    starts, n = [0], max(k, hold)
    while n < last:
        window = d[n - k + 1:n]
        s, q = sum(window), sum(map(operator.mul, window, window))
        while not (d[n - 1] > beta or _deviates(d, n, s, q, cfg)):
            n += 1
            if n == last:
                break
            enter, leave = d[n - 1], d[n - k]
            s, q = s + enter - leave, q + enter * enter - leave * leave
        else:
            starts.append(n)
            n += hold
    bounds = starts + [last]
    return tuple(ChunkRange(a, b) for a, b in zip(bounds, bounds[1:]))


def epf(d: int, factors: Sequence[float], gamma: Fraction,
        taus: Sequence[int] = DEFAULT_TAUS) -> float:
    """Per-pair target rate: the band factor for d times the playback rate.

    taus must increase. Band lower bounds are inclusive, so d equal to a
    boundary takes the higher band's factor.
    """
    return factors[bisect.bisect_right(taus, d)] * float(gamma)


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


def _rate(bands: Sequence[int], rates: Sequence[float], sigma: float,
          cfg: Config, playback: float) -> float:
    """evf: the mean of each pair's epf rate, looked up by its band in rates,
    plus delta times sigma, at most the playback rate."""
    mean_rate = sum(map(rates.__getitem__, bands)) / len(bands)
    return min(mean_rate + cfg.delta * sigma, playback)


def evf(series: DiffSeries, chunk: ChunkRange, factors: Sequence[float],
        gamma: Fraction, config: Optional[Config] = None) -> float:
    """Chunk target rate: mean per-pair rate plus a small deviation bonus.

    The result is clamped to at most the playback rate; it is always
    positive because every band factor is.
    """
    cfg = config or Config()
    sigma = chunk_sigma(series, chunk)  # raises ChunkTooSmall on a pairless chunk
    values = series.m_diffs[chunk.start:chunk.end - 1]
    playback = float(gamma)
    return _rate([bisect.bisect_right(cfg.taus, d) for d in values],
                 [f * playback for f in factors], sigma, cfg, playback)


class ChunkScheduleEntry(NamedTuple):
    """One chunk with its diff deviation and per-profile target rates."""

    range: ChunkRange
    sigma: float
    rates: Dict[str, float]


@dataclass(frozen=True)
class RateSchedule:
    """Chunks that tile [0, frame_count), each with its target rates."""

    entries: Tuple[ChunkScheduleEntry, ...]
    frame_count: int
    fps: Fraction
    gamma: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "fps", as_fps(self.fps))
        object.__setattr__(self, "gamma", as_fps(self.gamma))
        chunks = [ChunkRange(*e.range) for e in self.entries]
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
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def schedule(series: DiffSeries, gamma: Optional[FpsLike] = None,
             config: Optional[Config] = None) -> RateSchedule:
    """Split a diff series and rate every chunk under every profile.

    A one-frame chunk (split may cut at the last frame) holds no pair of its
    own; it is rated from the pair entering it, (start-1, start), so its
    sigma is 0.0.
    """
    cfg = config or Config()
    gamma = series.fps if gamma is None else as_fps(gamma)
    playback = float(gamma)
    rates_by_band = {name: [f * playback for f in factors]
                     for name, factors in cfg.profiles.items()}
    bands = [bisect.bisect_right(cfg.taus, d) for d in series.m_diffs]
    entries = []
    for chunk in split(series, gamma=gamma, config=cfg):
        rated = (chunk if chunk.frame_count > 1
                 else ChunkRange(chunk.start - 1, chunk.end))
        sigma = chunk_sigma(series, rated)
        chunk_bands = bands[rated.start:rated.end - 1]
        rates = {name: _rate(chunk_bands, table, sigma, cfg, playback)
                 for name, table in rates_by_band.items()}
        entries.append(ChunkScheduleEntry(range=chunk, sigma=sigma, rates=rates))
    return RateSchedule(entries=tuple(entries), frame_count=series.frame_count,
                        fps=series.fps, gamma=gamma)
