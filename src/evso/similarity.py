"""Perceptual difference measures between luma frames.

The central measure counts changed macroblocks: a 16x16 block counts as
changed when its sum of absolute luma differences exceeds a threshold, the
same scene-change test hardware encoders apply per block. Whole-plane SAD and
a windowed structural similarity score are provided alongside it for
validation experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    BlockOutOfRange,
    DegenerateInput,
    DimsMismatch,
    FrameTooSmall,
    TooFewFrames,
)
from .frame_source import MACROBLOCK_EDGE, FrameDims, FrameSequence

#: Per-macroblock SAD threshold: a block is "changed" only strictly above it.
DEFAULT_THETA = 320

#: Linear model mapping a per-pair changed-macroblock count to expected SSIM.
REGRESSION_INTERCEPT = 1.0063
REGRESSION_SLOPE = -1.5903e-5

_SSIM_EDGE = 8
_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2


@dataclass(frozen=True)
class SimilarityConfig:
    """Tunables for the macroblock difference measure."""

    theta: int = DEFAULT_THETA

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")


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
        pairs = tuple(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("a diff series needs at least one pair")
        grid = self.dims.mb_rows * self.dims.mb_cols
        for pos, pair in enumerate(pairs):
            if not 0 <= pair.m_diff <= grid:
                raise ValueError(
                    f"pair {pos}: m_diff {pair.m_diff} outside [0, {grid}]"
                )
            if pair.y_diff < 0:
                raise ValueError(f"pair {pos}: negative y_diff")

    @classmethod
    def from_m_diffs(cls, m_diffs: Sequence[int], dims: FrameDims,
                     fps: Union[int, Fraction] = 30) -> "DiffSeries":
        """Wrap bare changed-block counts; y_diff is filled with zeros."""
        pairs = tuple(PairDiff(m_diff=int(d), y_diff=0) for d in m_diffs)
        return cls(dims=dims, fps=Fraction(fps), pairs=pairs)

    @property
    def frame_count(self) -> int:
        return len(self.pairs) + 1

    @cached_property
    def m_diffs(self) -> Tuple[int, ...]:
        return tuple(p.m_diff for p in self.pairs)


def _check_same_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimsMismatch(f"frame shapes differ: {a.shape} vs {b.shape}")


def sad_y_macroblock(a: np.ndarray, b: np.ndarray,
                     mb_row: int, mb_col: int) -> int:
    """Sum of absolute luma differences over one 16x16 macroblock."""
    _check_same_dims(a, b)
    rows, cols = a.shape[0] // MACROBLOCK_EDGE, a.shape[1] // MACROBLOCK_EDGE
    if not (0 <= mb_row < rows and 0 <= mb_col < cols):
        raise BlockOutOfRange(
            f"macroblock ({mb_row}, {mb_col}) outside {rows}x{cols} grid"
        )
    r0, c0 = mb_row * MACROBLOCK_EDGE, mb_col * MACROBLOCK_EDGE
    block_a = a[r0:r0 + MACROBLOCK_EDGE, c0:c0 + MACROBLOCK_EDGE].astype(np.int64)
    block_b = b[r0:r0 + MACROBLOCK_EDGE, c0:c0 + MACROBLOCK_EDGE].astype(np.int64)
    return int(np.abs(block_a - block_b).sum())


def d_y(a: np.ndarray, b: np.ndarray, mb_row: int, mb_col: int,
        config: Optional[SimilarityConfig] = None) -> int:
    """1 when the macroblock SAD strictly exceeds theta, else 0."""
    theta = (config or SimilarityConfig()).theta
    return 1 if sad_y_macroblock(a, b, mb_row, mb_col) > theta else 0


def m_diff(a: np.ndarray, b: np.ndarray,
           config: Optional[SimilarityConfig] = None) -> int:
    """Count of changed macroblocks between two frames.

    Only full 16x16 blocks participate; partial rows/columns at the right and
    bottom edges are ignored. Equality with theta does not count as changed.
    """
    theta = (config or SimilarityConfig()).theta
    _check_same_dims(a, b)
    rows, cols = a.shape[0] // MACROBLOCK_EDGE, a.shape[1] // MACROBLOCK_EDGE
    if rows == 0 or cols == 0:
        return 0
    core_h, core_w = rows * MACROBLOCK_EDGE, cols * MACROBLOCK_EDGE
    diff = np.abs(a.astype(np.int16) - b.astype(np.int16))[:core_h, :core_w]
    sads = diff.reshape(rows, MACROBLOCK_EDGE, cols, MACROBLOCK_EDGE).sum(
        axis=(1, 3), dtype=np.int64)
    return int(np.count_nonzero(sads > theta))


def y_diff(a: np.ndarray, b: np.ndarray) -> int:
    """Whole-plane SAD, edge pixels included."""
    _check_same_dims(a, b)
    return int(np.abs(a.astype(np.int64) - b.astype(np.int64)).sum())


def _window_sums(values: np.ndarray, edge: int) -> np.ndarray:
    """Sums over every edge x edge window fully inside the plane (stride 1)."""
    table = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=np.int64)
    np.cumsum(values, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return (table[edge:, edge:] - table[:-edge, edge:]
            - table[edge:, :-edge] + table[:-edge, :-edge])


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over 8x8 uniform windows, luma only.

    Windows slide with stride 1 and only fully interior positions count.
    Per-window statistics are population moments (divide by 64) computed in
    float64; the stabilizers use the standard (0.01*255)^2 and (0.03*255)^2.
    Identical planes return exactly 1.0 without computing any window, the
    value the formula gives for them. Samples are taken as int64 (luma is
    integer), and window sums are exact in int64; below 2**53 a float64 sum
    reaches the same values.
    """
    _check_same_dims(a, b)
    if a.shape[0] < _SSIM_EDGE or a.shape[1] < _SSIM_EDGE:
        raise FrameTooSmall(
            f"plane {a.shape} smaller than an {_SSIM_EDGE}x{_SSIM_EDGE} window"
        )
    if np.array_equal(a, b):
        return 1.0
    pa = a.astype(np.int64)
    pb = b.astype(np.int64)
    area = float(_SSIM_EDGE * _SSIM_EDGE)
    s_a = _window_sums(pa, _SSIM_EDGE)
    s_b = _window_sums(pb, _SSIM_EDGE)
    s_aa = _window_sums(pa * pa, _SSIM_EDGE)
    s_bb = _window_sums(pb * pb, _SSIM_EDGE)
    s_ab = _window_sums(pa * pb, _SSIM_EDGE)
    mu_a = s_a / area
    mu_b = s_b / area
    var_a = s_aa / area - mu_a * mu_a
    var_b = s_bb / area - mu_b * mu_b
    cov = s_ab / area - mu_a * mu_b
    numer = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    denom = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(np.mean(numer / denom))


def diff_series(sequence: FrameSequence,
                config: Optional[SimilarityConfig] = None,
                with_ssim: bool = False) -> DiffSeries:
    """Measure every adjacent pair of a sequence."""
    if len(sequence) < 2:
        raise TooFewFrames(f"need >= 2 frames, got {len(sequence)}")
    cfg = config or SimilarityConfig()
    pairs = []
    for i in range(len(sequence) - 1):
        a, b = sequence[i], sequence[i + 1]
        pairs.append(PairDiff(
            m_diff=m_diff(a, b, cfg),
            y_diff=y_diff(a, b),
            ssim=ssim(a, b) if with_ssim else None,
        ))
    return DiffSeries(dims=sequence.dims, fps=sequence.fps, pairs=tuple(pairs))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1].

    Raises DegenerateInput for fewer than two points, mismatched lengths, or
    zero variance on either side.
    """
    if len(xs) != len(ys):
        raise DegenerateInput(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DegenerateInput(f"need >= 2 points, got {n}")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = sum(d * d for d in dx)
    var_y = sum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateInput("zero variance input")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares line fit; returns (slope, intercept)."""
    if len(xs) != len(ys):
        raise DegenerateInput(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DegenerateInput(f"need >= 2 points, got {n}")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0.0:
        raise DegenerateInput("zero variance in x")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var_x
    return slope, mean_y - slope * mean_x


def regression_ssim_estimate(d: float) -> float:
    """Expected SSIM for a changed-macroblock count, from the fitted line."""
    return REGRESSION_INTERCEPT + REGRESSION_SLOPE * d
