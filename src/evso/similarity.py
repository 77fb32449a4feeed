"""Perceptual difference measures between luma frames.

The central measure counts changed macroblocks: a 16x16 block counts as
changed when its sum of absolute luma differences exceeds a threshold, the
same scene-change test hardware encoders apply per block. Whole-plane SAD and
a windowed structural similarity score are provided alongside it for
validation experiments.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    BlockOutOfRange,
    DegenerateInput,
    DimsMismatch,
    FrameTooSmall,
    TooFewFrames,
)
from .frame_source import FrameSequence, FrameStream
from .fscheduler import MACROBLOCK_EDGE, Config, DiffSeries, PairDiff

#: Linear model mapping a per-pair changed-macroblock count to expected SSIM.
REGRESSION_INTERCEPT = 1.0063
REGRESSION_SLOPE = -1.5903e-5

_SSIM_EDGE = 8
_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2


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
        config: Optional[Config] = None) -> int:
    """1 when the macroblock SAD strictly exceeds theta, else 0."""
    theta = (config or Config()).theta
    return 1 if sad_y_macroblock(a, b, mb_row, mb_col) > theta else 0


#: Rows of |a - b| held at once: at 1080p, 8 macroblock rows keep the
#: (2, 128, W) work array and its strip sums in a core's L2.
_BAND_ROWS = 8 * MACROBLOCK_EDGE


def _measure_pair(a: np.ndarray, b: np.ndarray, theta: int) -> Tuple[int, int]:
    """(full 16x16 blocks whose SAD exceeds theta, whole-plane SAD) of two
    uint8 planes. Each band of rows gets its exact |a - b| as max - min in a
    (2, 128, W) work array made for this pair. Strips of 16 rows sum in
    uint16 (at most 16*255), blocks in int32 (at most 65,280); the SAD adds
    the edge columns and rows that no full block covers."""
    _check_same_dims(a, b)
    height, width = a.shape
    cols = width // MACROBLOCK_EDGE
    core_w = cols * MACROBLOCK_EDGE
    work = np.empty((2, _BAND_ROWS, width), np.uint8)
    changed = total = 0
    for r0 in range(0, height, _BAND_ROWS):
        rows = min(_BAND_ROWS, height - r0)
        d, low = work[0, :rows], work[1, :rows]
        np.maximum(a[r0:r0 + rows], b[r0:r0 + rows], out=d)
        np.minimum(a[r0:r0 + rows], b[r0:r0 + rows], out=low)
        d -= low
        core_h = rows // MACROBLOCK_EDGE * MACROBLOCK_EDGE
        strips = d[:core_h].reshape(core_h // MACROBLOCK_EDGE, MACROBLOCK_EDGE,
                                    width).sum(axis=1, dtype=np.uint16)
        sads = strips[:, :core_w].reshape(len(strips), cols, MACROBLOCK_EDGE).sum(
            axis=2, dtype=np.int32)
        changed += int(np.count_nonzero(sads > theta))
        total += (int(sads.sum(dtype=np.int64)) + int(d[core_h:].sum(dtype=np.int64))
                  + int(strips[:, core_w:].sum(dtype=np.int64)))
    return changed, total


def m_diff(a: np.ndarray, b: np.ndarray,
           config: Optional[Config] = None) -> int:
    """Count of changed macroblocks between two uint8 planes.

    Only full 16x16 blocks participate; partial rows/columns at the right and
    bottom edges are ignored. Equality with theta does not count as changed.
    """
    return _measure_pair(a, b, (config or Config()).theta)[0]


def y_diff(a: np.ndarray, b: np.ndarray) -> int:
    """Whole-plane SAD of two uint8 planes, edge pixels included."""
    return _measure_pair(a, b, 0)[1]


def _window_sums(stack: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Sums over every 8x8 window inside each plane of a C-contiguous
    (k, H, W) int32 stack, as a (k, H-7, W-7) view of stack. Adding the flat
    buffer to itself shifted by 1, 2 and 4 rows, then by 1, 2 and 4 entries,
    sums 8 rows, then 8 columns; sums that cross a row or plane edge fall
    outside the view. Each add writes the other buffer over a span shorter
    by its shift, so it reads only written entries and never its output."""
    width = stack.shape[2]
    src, dst = stack.reshape(-1), spare.reshape(-1)
    size = src.size
    for shift in (width, 2 * width, 4 * width, 1, 2, 4):
        size -= shift
        np.add(src[:size], src[shift:size + shift], out=dst[:size])
        src, dst = dst, src
    return stack[:, :1 - _SSIM_EDGE, :1 - _SSIM_EDGE]  # six swaps: stack


def ssim_work(shape: Tuple[int, int]) -> tuple:
    """Work arrays for `ssim` on planes of one shape: for one band of B =
    min(128, H-7) window rows, two (5, B+7, W) int32 window-sum buffers and
    (5, B, W-7) float64 moments, then the (H-7, W-7) float64 score map. A
    caller scoring many pairs passes one set to every call: had each call
    freed them, glibc could trim the heap top and the next call would fault
    the pages in."""
    height, width = shape
    rows, cols = height - _SSIM_EDGE + 1, width - _SSIM_EDGE + 1
    band = min(_BAND_ROWS, rows)
    return (*np.empty((2, 5, band + _SSIM_EDGE - 1, width), np.int32),
            np.empty((5, band, cols)), np.empty((rows, cols)))


def ssim(a: np.ndarray, b: np.ndarray, work: Optional[tuple] = None) -> float:
    """Mean structural similarity of two uint8 planes over 8x8 windows.

    Windows slide with stride 1 and only fully interior positions count.
    Per-window statistics are population moments (divide by 64) computed in
    float64; the stabilizers use the standard (0.01*255)^2 and (0.03*255)^2.
    Identical planes return exactly 1.0 without computing any window, the
    value the formula gives for them. Window sums of a, b, a*a, b*b and a*b
    are exact in int32 (at most 64 * 255**2 < 2**31 at any frame size). A
    plane of another dtype raises DegenerateInput. It scores one band of
    window rows at a time in `work` from `ssim_work` (fresh if not given);
    the result is the same.
    """
    _check_same_dims(a, b)
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise DegenerateInput(f"ssim takes uint8, not {a.dtype}/{b.dtype}")
    if a.shape[0] < _SSIM_EDGE or a.shape[1] < _SSIM_EDGE:
        raise FrameTooSmall(
            f"plane {a.shape} smaller than an {_SSIM_EDGE}x{_SSIM_EDGE} window"
        )
    if np.array_equal(a, b):
        return 1.0
    stack, spare, moments, scores = work or ssim_work(a.shape)
    if scores.shape != (a.shape[0] - _SSIM_EDGE + 1, a.shape[1] - _SSIM_EDGE + 1):
        raise DimsMismatch(f"work arrays for {scores.shape} windows, planes {a.shape}")
    band = moments.shape[1]
    for r0 in range(0, len(scores), band):
        r0 = min(r0, len(scores) - band)  # the last band ends at the last row
        rows = slice(r0, r0 + band + _SSIM_EDGE - 1)
        stack[0], stack[1] = a[rows], b[rows]
        np.multiply(stack[:2], stack[:2], out=stack[2:4])
        np.multiply(stack[0], stack[1], out=stack[4])
        # Scaling by 1/64 is exact: these equal the sums divided by 64.
        np.multiply(_window_sums(stack, spare), 1.0 / _SSIM_EDGE ** 2, out=moments)
        mu_a, mu_b, var_a, var_b, cov = moments
        ab = scores[r0:r0 + band]
        cov -= np.multiply(mu_a, mu_b, out=ab)
        var_a -= np.multiply(mu_a, mu_a, out=mu_a)  # mu_a, mu_b now hold squares
        var_b -= np.multiply(mu_b, mu_b, out=mu_b)
        # numer = (2 mu_a mu_b + C1)(2 cov + C2), as doubling a float is exact;
        # denom = (mu_a^2 + mu_b^2 + C1)(var_a + var_b + C2).
        numer = np.add(np.multiply(ab, 2.0, out=ab), _SSIM_C1, out=ab)
        numer *= np.add(np.multiply(cov, 2.0, out=cov), _SSIM_C2, out=cov)
        denom = np.add(np.add(mu_a, mu_b, out=mu_a), _SSIM_C1, out=mu_a)
        denom *= np.add(np.add(var_a, var_b, out=var_a), _SSIM_C2, out=var_a)
        np.divide(numer, denom, out=numer)
    return float(np.mean(scores))


def diff_series(clip: Union[FrameSequence, FrameStream],
                config: Optional[Config] = None,
                with_ssim: bool = False) -> DiffSeries:
    """Measure every adjacent pair of a clip as its second frame arrives:
    the clip is iterated once, and only the pair at hand is held."""
    theta = (config or Config()).theta
    frames = iter(clip)
    a = next(frames, None)
    work = ssim_work(a.shape) if with_ssim and a is not None else None
    pairs = []
    for b in frames:
        changed, sad = _measure_pair(a, b, theta)
        pairs.append(PairDiff(m_diff=changed, y_diff=sad,
                              ssim=ssim(a, b, work) if with_ssim else None))
        a = b
    if not pairs:
        raise TooFewFrames(f"need >= 2 frames, got {0 if a is None else 1}")
    return DiffSeries(dims=clip.dims, fps=clip.fps, pairs=tuple(pairs))


def _statistic(method, xs: Sequence[float], ys: Sequence[float]):
    """method(xs, ys) from `statistics`, raising DegenerateInput where it
    refuses mismatched lengths, fewer than two points or a constant input."""
    try:
        return method(xs, ys)
    except statistics.StatisticsError as exc:
        raise DegenerateInput(str(exc)) from None


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1]."""
    return max(-1.0, min(1.0, _statistic(statistics.correlation, xs, ys)))


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares line fit; returns (slope, intercept)."""
    return tuple(_statistic(statistics.linear_regression, xs, ys))


def regression_ssim_estimate(d: float) -> float:
    """Expected SSIM for a changed-macroblock count, from the fitted line."""
    return REGRESSION_INTERCEPT + REGRESSION_SLOPE * d
