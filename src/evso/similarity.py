"""Perceptual difference measures between luma frames.

The central measure counts changed macroblocks: a 16x16 block counts as
changed when its sum of absolute luma differences exceeds a threshold, the
same scene-change test hardware encoders apply per block. Whole-plane SAD and
a windowed structural similarity score are provided alongside it for
validation experiments.
"""

from __future__ import annotations

import math
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


def _measure_pair(a: np.ndarray, b: np.ndarray, theta: int,
                  work: Optional[np.ndarray] = None) -> Tuple[int, int]:
    """(full 16x16 blocks whose SAD exceeds theta, whole-plane SAD) of two
    uint8 planes. Each band of rows gets its exact |a - b| as max - min in
    `work`, which a caller measuring many pairs reuses. Strips of 16 rows sum
    in uint16 (at most 16*255), blocks in int32 (at most 65,280); the SAD
    adds the edge columns and rows that no full block covers."""
    _check_same_dims(a, b)
    height, width = a.shape
    cols = width // MACROBLOCK_EDGE
    core_w = cols * MACROBLOCK_EDGE
    if work is None:
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
    """Work arrays for `ssim` on planes of one shape: two (5, H, W) int32
    window-sum buffers and (6, H-7, W-7) float64 moments. A caller scoring
    many pairs passes one set to every call: had each call freed them, glibc
    could trim the heap top and the next call would fault the pages in."""
    height, width = shape
    return (*np.empty((2, 5, height, width), np.int32),
            np.empty((6, height - _SSIM_EDGE + 1, width - _SSIM_EDGE + 1)))


def ssim(a: np.ndarray, b: np.ndarray, work: Optional[tuple] = None) -> float:
    """Mean structural similarity of two uint8 planes over 8x8 windows.

    Windows slide with stride 1 and only fully interior positions count.
    Per-window statistics are population moments (divide by 64) computed in
    float64; the stabilizers use the standard (0.01*255)^2 and (0.03*255)^2.
    Identical planes return exactly 1.0 without computing any window, the
    value the formula gives for them. Window sums of a, b, a*a, b*b and a*b
    are exact in int32 (at most 64 * 255**2 < 2**31 at any frame size). A
    plane of another dtype raises DegenerateInput. It works in place in
    `work` from `ssim_work` (fresh if not given); the result is the same.
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
    stack, spare, moments = work or ssim_work(a.shape)
    if stack.shape[1:] != a.shape:
        raise DimsMismatch(f"work arrays for {stack.shape[1:]}, planes {a.shape}")
    stack[0], stack[1] = a, b
    np.multiply(stack[:2], stack[:2], out=stack[2:4])
    np.multiply(stack[0], stack[1], out=stack[4])
    # Scaling by 1/64 is exact: these equal the sums divided by 64.
    np.multiply(_window_sums(stack, spare), 1.0 / _SSIM_EDGE ** 2, out=moments[:5])
    mu_a, mu_b, var_a, var_b, cov, ab = moments
    cov -= np.multiply(mu_a, mu_b, out=ab)
    var_a -= np.multiply(mu_a, mu_a, out=mu_a)  # mu_a, mu_b now hold squares
    var_b -= np.multiply(mu_b, mu_b, out=mu_b)
    # numer = (2 mu_a mu_b + C1)(2 cov + C2), as doubling a float is exact;
    # denom = (mu_a^2 + mu_b^2 + C1)(var_a + var_b + C2).
    numer = np.add(np.multiply(ab, 2.0, out=ab), _SSIM_C1, out=ab)
    numer *= np.add(np.multiply(cov, 2.0, out=cov), _SSIM_C2, out=cov)
    denom = np.add(np.add(mu_a, mu_b, out=mu_a), _SSIM_C1, out=mu_a)
    denom *= np.add(np.add(var_a, var_b, out=var_a), _SSIM_C2, out=var_a)
    return float(np.mean(np.divide(numer, denom, out=numer)))


def diff_series(clip: Union[FrameSequence, FrameStream],
                config: Optional[Config] = None,
                with_ssim: bool = False) -> DiffSeries:
    """Measure every adjacent pair of a clip as its second frame arrives:
    the clip is iterated once, and only the pair at hand is held."""
    theta = (config or Config()).theta
    frames = iter(clip)
    a = next(frames, None)
    bands = None if a is None else np.empty((2, _BAND_ROWS, a.shape[1]), np.uint8)
    work = ssim_work(a.shape) if with_ssim and a is not None else None
    pairs = []
    for b in frames:
        changed, sad = _measure_pair(a, b, theta, bands)
        pairs.append(PairDiff(m_diff=changed, y_diff=sad,
                              ssim=ssim(a, b, work) if with_ssim else None))
        a = b
    if not pairs:
        raise TooFewFrames(f"need >= 2 frames, got {0 if a is None else 1}")
    return DiffSeries(dims=clip.dims, fps=clip.fps, pairs=tuple(pairs))


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
