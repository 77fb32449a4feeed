"""Seeded synthetic inputs for every workload.

The seed changes pixel values, block and region positions, series jitter and
client traces. It never changes the layout that decides where the splitter
cuts: section lengths, macroblock-aligned positions and the margins of every
threshold are fixed, so chunk counts, kept frames and SSIM call counts are
the same for every seed and the work per operation stays comparable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

MB = 16
#: The default thresholds suit a 2560x1600 frame: 160x100 = 16,000 blocks.
DEFAULT_GRID_BLOCKS = 16000
DEFAULT_THRESHOLDS = {"alpha": 3000, "beta": 15000,
                      "taus": (500, 1500, 3000, 6000)}

Plane = np.ndarray
FrameYUV = Tuple[Plane, Optional[Plane], Optional[Plane]]


def scaled_config(width: int, height: int) -> dict:
    """alpha, beta and taus scaled from the default grid to this frame's grid.

    A frame of G macroblocks can change at most G blocks per pair, so the
    default thresholds (sized for 16,000 blocks) never fire on small frames.
    """
    scale = (width // MB) * (height // MB) / DEFAULT_GRID_BLOCKS
    return {
        "alpha": round(DEFAULT_THRESHOLDS["alpha"] * scale),
        "beta": round(DEFAULT_THRESHOLDS["beta"] * scale),
        "taus": [max(1, round(t * scale)) for t in DEFAULT_THRESHOLDS["taus"]],
    }


def write_y4m(path: Path, width: int, height: int, fps: Fraction,
              frames: Iterable[FrameYUV], color: str = "420jpeg") -> int:
    """Write a YUV4MPEG2 file; 4:2:0 chroma planes are ceil(W/2) x ceil(H/2)."""
    header = (f"YUV4MPEG2 W{width} H{height} F{fps.numerator}:{fps.denominator}"
              f" Ip A1:1 C{color}\n").encode("ascii")
    count = 0
    with open(path, "wb") as fh:
        fh.write(header)
        for y, u, v in frames:
            fh.write(b"FRAME\n")
            fh.write(np.ascontiguousarray(y, dtype=np.uint8).tobytes())
            if color != "mono":
                fh.write(np.ascontiguousarray(u, dtype=np.uint8).tobytes())
                fh.write(np.ascontiguousarray(v, dtype=np.uint8).tobytes())
            count += 1
    return count


def _chroma(t: int, width: int, height: int, base: int) -> Tuple[Plane, Plane]:
    cw, ch = (width + 1) // 2, (height + 1) // 2
    ramp = (np.arange(cw, dtype=np.int32)[None, :]
            + np.arange(ch, dtype=np.int32)[:, None] + 3 * t + base)
    u = (ramp % 128 + 64).astype(np.uint8)
    v = ((ramp * 3) % 128 + 64).astype(np.uint8)
    return u, v


# ---------------------------------------------------------------------------
# pipeline_mixed
# ---------------------------------------------------------------------------

PIPELINE_DIMS = (192, 128)          # 12 x 8 = 96 macroblocks
PIPELINE_FPS = Fraction(30)
#: Section kind and frame count. Every section boundary changes all 96
#: blocks (a beta spike), so the splitter cuts at 40, 71 (the noise run is
#: one long spike), 120 and 160: five chunks in five different motion bands.
PIPELINE_SECTIONS = (("static", 40), ("noise", 40), ("moving", 40),
                     ("partial", 40), ("static", 30))
PIPELINE_BLOCK_EDGE = 32
PIPELINE_VELOCITY = 8
PIPELINE_REGION_BLOCKS = (6, 4)     # partial-frame noise: 24 blocks


def pipeline_frames(seed: int) -> List[FrameYUV]:
    """The mixed clip: static, full noise, moving block, partial noise, static."""
    width, height = PIPELINE_DIMS
    rng = np.random.default_rng([seed, 1])
    base = int(rng.integers(16, 81))
    # Five levels 40 apart: every section change alters every macroblock.
    static_a, moving_bg, partial_bg, static_b, moving_fg = (
        base, base + 40, base + 80, base + 120, base + 160)
    block_row = int(rng.integers(0, (height - PIPELINE_BLOCK_EDGE) // MB + 1)) * MB
    rw, rh = PIPELINE_REGION_BLOCKS
    region_x = int(rng.integers(0, width // MB - rw + 1)) * MB
    region_y = int(rng.integers(0, height // MB - rh + 1)) * MB
    span = width - PIPELINE_BLOCK_EDGE

    frames = []
    t = 0
    for kind, count in PIPELINE_SECTIONS:
        for local in range(count):
            if kind == "static":
                level = static_a if t < 80 else static_b
                y = np.full((height, width), level, dtype=np.uint8)
            elif kind == "noise":
                y = rng.integers(0, 256, (height, width), dtype=np.uint8)
            elif kind == "moving":
                step = (local * PIPELINE_VELOCITY) % (2 * span)
                x = step if step <= span else 2 * span - step
                y = np.full((height, width), moving_bg, dtype=np.uint8)
                y[block_row:block_row + PIPELINE_BLOCK_EDGE,
                  x:x + PIPELINE_BLOCK_EDGE] = moving_fg
            else:
                y = np.full((height, width), partial_bg, dtype=np.uint8)
                y[region_y:region_y + rh * MB, region_x:region_x + rw * MB] = (
                    rng.integers(0, 256, (rh * MB, rw * MB), dtype=np.uint8))
            u, v = _chroma(t, width, height, base)
            frames.append((y, u, v))
            t += 1
    return frames


def pipeline_config() -> dict:
    return scaled_config(*PIPELINE_DIMS)


# ---------------------------------------------------------------------------
# analyze_hd
# ---------------------------------------------------------------------------

HD_DIMS = (1920, 1080)
HD_FPS = Fraction(30)
HD_FRAMES = 30
HD_PAN_PX = 4
#: Odd-sized 4:2:0 clip. Its content does not depend on the seed, so its
#: outcome is the same in every run.
ODD_DIMS = (33, 17)
ODD_FRAMES = 8


def _texture(rng: np.random.Generator, height: int, width: int) -> Plane:
    coarse = rng.integers(16, 236, (height // 8 + 1, width // 8 + 1),
                          dtype=np.uint8)
    fine = np.repeat(np.repeat(coarse, 8, axis=0), 8, axis=1)[:height, :width]
    return fine


def hd_pan_frames(seed: int) -> Iterable[FrameYUV]:
    """A textured plane panning HD_PAN_PX pixels per frame, chroma panning too."""
    width, height = HD_DIMS
    rng = np.random.default_rng([seed, 2])
    tex = _texture(rng, height, width + HD_PAN_PX * HD_FRAMES)
    ctex = _texture(rng, height // 2, (width + HD_PAN_PX * HD_FRAMES) // 2)
    for t in range(HD_FRAMES):
        x = t * HD_PAN_PX
        y = tex[:, x:x + width]
        u = ctex[:, x // 2:x // 2 + width // 2]
        v = 255 - u
        yield y, u, v


def hd_burst_frames(seed: int) -> Iterable[FrameYUV]:
    """A still texture with a moving block and a five-frame noise burst."""
    width, height = HD_DIMS
    rng = np.random.default_rng([seed, 3])
    tex = _texture(rng, height, width)
    edge = 128
    row = int(rng.integers(0, (height - edge) // MB + 1)) * MB
    for t in range(HD_FRAMES):
        if 12 <= t < 17:
            y = rng.integers(0, 256, (height, width), dtype=np.uint8)
        else:
            y = tex.copy()
            x = (t * 24) % (width - edge)
            y[row:row + edge, x:x + edge] = 250
        u, v = _chroma(t, width, height, row)
        yield y, u, v


def odd_frames() -> List[FrameYUV]:
    """A valid 33x17 4:2:0 clip; chroma values stay within 100..200."""
    width, height = ODD_DIMS
    frames = []
    for t in range(ODD_FRAMES):
        y = ((np.arange(width)[None, :] * 5 + np.arange(height)[:, None] * 7
              + t * 11) % 200 + 20).astype(np.uint8)
        cw, ch = (width + 1) // 2, (height + 1) // 2
        u = ((np.arange(cw)[None, :] + np.arange(ch)[:, None] + t) % 100
             + 100).astype(np.uint8)
        frames.append((y, u, (300 - u.astype(np.int16)).astype(np.uint8)))
    return frames


# ---------------------------------------------------------------------------
# schedule_long
# ---------------------------------------------------------------------------

SCHEDULE_DIMS = (2560, 1600)        # the default 16,000-block grid
SCHEDULE_FPS = 30
#: One cycle of the series: (level, pairs). Levels sit inside the five
#: default tau bands. Entering band 4 and leaving it are the only transitions
#: whose window deviation passes alpha; a beta spike sits 35 pairs into the
#: second band-0 run. Three cuts per cycle, each more than 30 frames apart.
SCHEDULE_CYCLE = ((250, 60), (1000, 60), (2200, 60), (4500, 60),
                  (11000, 60), (250, 60))
SCHEDULE_SPIKE_OFFSET = 5 * 60 + 35
SCHEDULE_CYCLES = 8
SCHEDULE_JITTER = 40


def schedule_series(seed: int) -> List[int]:
    """Changed-block counts for SCHEDULE_CYCLES cycles of all five bands."""
    rng = np.random.default_rng([seed, 4])
    out: List[int] = []
    for _ in range(SCHEDULE_CYCLES):
        cycle_start = len(out)
        for level, count in SCHEDULE_CYCLE:
            jitter = rng.integers(-SCHEDULE_JITTER, SCHEDULE_JITTER + 1, count)
            out.extend(int(level + j) for j in jitter)
        out[cycle_start + SCHEDULE_SPIKE_OFFSET] = int(rng.integers(15001, 16001))
    return out


# ---------------------------------------------------------------------------
# stream_replay
# ---------------------------------------------------------------------------

STREAM_DIMS = (128, 96)             # 8 x 6 = 48 macroblocks
STREAM_FPS = Fraction(10)
STREAM_PERIOD = 12                  # one full-noise frame every 12 frames
STREAM_FRAMES = 366                 # 30 chunks of 12 frames and one of 7
STREAM_TRACES = 16
BATTERY_STATES = ("charging_or_full", "high", "medium", "low")


def stream_frames(seed: int) -> List[FrameYUV]:
    """A moving block with a full-noise frame every STREAM_PERIOD frames."""
    width, height = STREAM_DIMS
    rng = np.random.default_rng([seed, 5])
    bg = int(rng.integers(16, 80))
    edge = 32
    row = int(rng.integers(0, (height - edge) // MB + 1)) * MB
    span = width - edge
    frames = []
    for t in range(STREAM_FRAMES):
        if t % STREAM_PERIOD == STREAM_PERIOD - 1:
            y = rng.integers(0, 256, (height, width), dtype=np.uint8)
        else:
            step = (t * 8) % (2 * span)
            x = step if step <= span else 2 * span - step
            y = np.full((height, width), bg, dtype=np.uint8)
            y[row:row + edge, x:x + edge] = bg + 150
        u, v = _chroma(t, width, height, bg)
        frames.append((y, u, v))
    return frames


def stream_config() -> dict:
    return scaled_config(*STREAM_DIMS)


def stream_traces(seed: int, segments: int) -> List[str]:
    """Trace CSV texts; each visits every battery state in a seeded order."""
    rng = np.random.default_rng([seed, 6])
    texts = []
    quarter = max(1, segments // 4)
    for _ in range(STREAM_TRACES):
        order = rng.permutation(len(BATTERY_STATES))
        lines = ["segment_index,bandwidth_bps,battery_level"]
        for k, state in enumerate(order):
            start = k * quarter
            bandwidth = int(rng.integers(10 ** 5, 10 ** 8))
            lines.append(f"{start},{bandwidth},{BATTERY_STATES[state]}")
        texts.append("\n".join(lines) + "\n")
    return texts


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def sample_pairs(seed: int, pair_count: int, k: int) -> Sequence[int]:
    """k distinct pair indices to check against the loop reference."""
    rng = np.random.default_rng([seed, 7])
    return sorted(int(i) for i in rng.choice(pair_count, size=min(k, pair_count),
                                             replace=False))
