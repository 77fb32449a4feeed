"""Luminance frame ingestion and synthetic sequence generators.

Frames are stored as bare 8-bit luma planes; chroma present in the input is
parsed past and discarded. All sequences carry their nominal frame rate as an
exact `fractions.Fraction` so fractional rates (29.97 = 2997/100) survive the
whole pipeline without float drift.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO, Iterator, Sequence, Union

import numpy as np

from .errors import (
    BlockTooLarge,
    MalformedHeader,
    SizeMismatch,
    TruncatedFrame,
    UnsupportedColorSpace,
)

MACROBLOCK_EDGE = 16

#: Y4M color spaces accepted by read_y4m. Anything else raises
#: UnsupportedColorSpace. An absent C tag means 4:2:0 per the Y4M convention.
_Y4M_420_TAGS = frozenset({"420", "420jpeg", "420mpeg2", "420paldv"})

FpsLike = Union[int, float, str, Fraction]


def as_fps(value: FpsLike) -> Fraction:
    """Normalize a frame rate to an exact positive Fraction.

    Accepts ints, Fractions, "num/den" or decimal strings, and floats
    (floats go through their decimal repr, so 29.97 becomes 2997/100).
    """
    if isinstance(value, Fraction):
        fps = value
    elif isinstance(value, int):
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
            fps = Fraction(text)
    else:
        raise TypeError(f"cannot interpret {value!r} as a frame rate")
    if fps <= 0:
        raise ValueError(f"frame rate must be positive, got {value!r}")
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


def _uint8_plane(plane) -> np.ndarray:
    """A uint8 view of plane; other dtypes must hold integers in [0, 255]."""
    arr = np.asarray(plane)
    if arr.dtype != np.uint8:
        with np.errstate(invalid="ignore"):
            cast = arr.astype(np.uint8)
        if not np.array_equal(cast, arr):
            raise ValueError("plane values must be integers in [0, 255]")
        arr = cast
    return arr.view()


@dataclass(frozen=True)
class FrameSequence:
    """Ordered luma planes sharing one shape and one nominal frame rate.

    Each frame is a read-only (H, W) uint8 plane at least one macroblock
    each way. The sequence locks views of the arrays it is given, so the
    caller's own arrays stay writable. A plane of another dtype is cast,
    and rejected unless every value is an integer in [0, 255].
    """

    frames: tuple
    fps: Fraction

    def __post_init__(self) -> None:
        frames = tuple(_uint8_plane(plane) for plane in self.frames)
        for plane in frames:
            plane.setflags(write=False)
            if plane.ndim != 2 or plane.shape != frames[0].shape:
                raise ValueError(f"planes must share one 2-D shape, got "
                                 f"{plane.shape} and {frames[0].shape}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "fps", as_fps(self.fps))
        if frames:
            self.dims  # FrameDims rejects planes under one macroblock

    @property
    def dims(self) -> FrameDims:
        if not self.frames:
            raise ValueError("empty sequence has no dims")
        height, width = self.frames[0].shape
        return FrameDims(width, height)

    @property
    def duration_seconds(self) -> Fraction:
        return Fraction(len(self.frames)) / self.fps

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.frames)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.frames[index]


# ---------------------------------------------------------------------------
# Y4M (YUV4MPEG2)
# ---------------------------------------------------------------------------

def _chroma_420_bytes(width: int, height: int) -> int:
    """Both 4:2:0 chroma planes; odd dimensions round up."""
    return ((width + 1) // 2) * ((height + 1) // 2) * 2


def _readline(stream: BinaryIO, limit: int = 1024) -> bytes:
    """Read up to a newline; returns b"" at EOF. Never reads past the \\n."""
    out = bytearray()
    while len(out) < limit:
        byte = stream.read(1)
        if not byte:
            break
        if byte == b"\n":
            return bytes(out)
        out += byte
    if len(out) >= limit:
        raise MalformedHeader("header line exceeds 1024 bytes")
    return bytes(out)


def _parse_signature(header: bytes):
    """Frame dims, fps and color space from a YUV4MPEG2 signature line."""
    if not header.startswith(b"YUV4MPEG2"):
        raise MalformedHeader("missing YUV4MPEG2 signature")
    width = height = None
    fps = None
    color = "420"
    for token in header.split()[1:]:
        tag = token.decode("ascii", "replace")
        try:
            if tag.startswith("W"):
                width = int(tag[1:])
            elif tag.startswith("H"):
                height = int(tag[1:])
            elif tag.startswith("F"):
                num, _, den = tag[1:].partition(":")
                fps = Fraction(int(num), int(den))
            elif tag.startswith("C"):
                color = tag[1:]
        except (ValueError, ZeroDivisionError):
            raise MalformedHeader(f"bad {tag[0]} tag {tag!r}") from None
    if width is None or height is None or fps is None:
        raise MalformedHeader("header lacks one of W/H/F")
    if fps <= 0:
        raise MalformedHeader("non-positive frame rate")
    try:
        return FrameDims(width, height), fps, color
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from None


def sniff_y4m(path) -> tuple:
    """Read just the signature of a Y4M file: (dims, fps)."""
    with open(path, "rb") as fh:
        dims, fps, _ = _parse_signature(_readline(fh))
    return dims, fps


def read_y4m(source: Union[bytes, BinaryIO]) -> FrameSequence:
    """Decode a YUV4MPEG2 stream, keeping only the luma plane of each frame.

    The signature line must carry W, H and F parameters; interlace (I) and
    aspect (A) tags are accepted and ignored. Supported color spaces are the
    4:2:0 family and mono; for 4:2:0 the two ceil(W/2) x ceil(H/2) chroma
    planes of each frame are skipped.
    """
    stream = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source
    dims, fps, color = _parse_signature(_readline(stream))
    width, height = dims.width, dims.height

    if color == "mono":
        chroma_bytes = 0
    elif color in _Y4M_420_TAGS:
        chroma_bytes = _chroma_420_bytes(width, height)
    else:
        raise UnsupportedColorSpace(f"color space {color!r}")

    luma_bytes = width * height
    planes = []
    while True:
        marker = _readline(stream)
        if marker == b"":
            break
        if not marker.startswith(b"FRAME"):
            raise MalformedHeader(f"expected FRAME marker, got {marker[:16]!r}")
        payload = stream.read(luma_bytes)
        if len(payload) < luma_bytes:
            raise TruncatedFrame(
                f"frame {len(planes)}: luma short by {luma_bytes - len(payload)} bytes"
            )
        if chroma_bytes:
            chroma = stream.read(chroma_bytes)
            if len(chroma) < chroma_bytes:
                raise TruncatedFrame(
                    f"frame {len(planes)}: chroma short by "
                    f"{chroma_bytes - len(chroma)} bytes"
                )
        planes.append(np.frombuffer(payload, dtype=np.uint8).reshape(height, width))
    return FrameSequence(frames=planes, fps=fps)


def encode_y4m(planes: Sequence[np.ndarray], fps: FpsLike) -> bytes:
    """Serialize (H, W) uint8 luma planes as a mono YUV4MPEG2 stream."""
    if not planes:
        raise ValueError("cannot encode an empty frame list")
    height, width = planes[0].shape
    rate = as_fps(fps)
    out = bytearray()
    out += (
        f"YUV4MPEG2 W{width} H{height} "
        f"F{rate.numerator}:{rate.denominator} Ip A1:1 Cmono\n"
    ).encode("ascii")
    for plane in planes:
        out += b"FRAME\n"
        out += plane.tobytes()
    return bytes(out)


# ---------------------------------------------------------------------------
# Raw planar YUV
# ---------------------------------------------------------------------------

def read_raw_yuv(path, dims: FrameDims, fps: FpsLike, layout: str) -> FrameSequence:
    """Split a headerless planar file into frames at a fixed stride.

    layout "I420" expects W*H luma plus two ceil(W/2) x ceil(H/2) chroma
    planes per frame; "YONLY" expects bare luma planes. Only the luma portion
    is kept.
    """
    layout = layout.upper()
    if layout == "I420":
        frame_bytes = dims.pixels + _chroma_420_bytes(dims.width, dims.height)
    elif layout == "YONLY":
        frame_bytes = dims.pixels
    else:
        raise ValueError(f"layout must be I420 or YONLY, got {layout!r}")

    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) % frame_bytes != 0:
        raise SizeMismatch(
            f"{len(data)} bytes is not a multiple of the {frame_bytes}-byte "
            f"frame size for {layout} {dims}"
        )
    planes = [
        np.frombuffer(
            data, dtype=np.uint8, count=dims.pixels, offset=i * frame_bytes
        ).reshape(dims.height, dims.width)
        for i in range(len(data) // frame_bytes)
    ]
    return FrameSequence(frames=planes, fps=fps)


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------

def synth_static(dims: FrameDims, count: int, luma_value: int,
                 fps: FpsLike = 30) -> FrameSequence:
    """`count` identical frames filled with one luma value."""
    if not 0 <= luma_value <= 255:
        raise ValueError(f"luma_value {luma_value} outside [0, 255]")
    if count < 1:
        raise ValueError("count must be >= 1")
    plane = np.full((dims.height, dims.width), luma_value, dtype=np.uint8)
    return FrameSequence(frames=(plane,) * count, fps=fps)


def _bounce(step: int, span: int) -> int:
    """Triangle-wave position in [0, span] for an accumulated step count."""
    if span == 0:
        return 0
    phase = step % (2 * span)
    return phase if phase <= span else 2 * span - phase


def synth_moving_block(dims: FrameDims, count: int, block_edge: int,
                       velocity_px_per_frame: int, fg_luma: int, bg_luma: int,
                       fps: FpsLike = 30) -> FrameSequence:
    """A square block sweeping horizontally over a flat background.

    The block starts at the top-left corner and advances `velocity` pixels per
    frame, reflecting off the left/right borders so motion continues for any
    frame count. Fully deterministic.
    """
    if block_edge > min(dims.width, dims.height):
        raise BlockTooLarge(
            f"block edge {block_edge} exceeds frame {dims}"
        )
    if count < 1:
        raise ValueError("count must be >= 1")
    span = dims.width - block_edge
    planes = []
    for t in range(count):
        x = _bounce(t * abs(velocity_px_per_frame), span)
        plane = np.full((dims.height, dims.width), bg_luma, dtype=np.uint8)
        plane[0:block_edge, x:x + block_edge] = fg_luma
        planes.append(plane)
    return FrameSequence(frames=planes, fps=fps)


def synth_noise(dims: FrameDims, count: int, seed: int, amplitude: int,
                fps: FpsLike = 30) -> FrameSequence:
    """Per-pixel pseudo-random luma frames.

    Generator contract (fixed so identical seeds reproduce bit-identical
    sequences everywhere): a numpy PCG64 bit generator seeded with `seed`
    draws the whole clip as one uint8 block of shape (count, height, width),
    row-major, with each sample uniform on [0, amplitude].
    """
    if not 0 <= amplitude <= 255:
        raise ValueError(f"amplitude {amplitude} outside [0, 255]")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    block = rng.integers(0, amplitude + 1, size=(count, dims.height, dims.width),
                         dtype=np.uint8)
    return FrameSequence(frames=tuple(block), fps=fps)


# ---------------------------------------------------------------------------
# Synthetic corpus used by the correlation experiment
# ---------------------------------------------------------------------------

def standard_corpus() -> list:
    """Fixed mixed corpus: 3 static + 3 moving-block + 2 noise sequences.

    232 adjacent pairs total; seeds and geometries are frozen so the
    correlation experiment is reproducible run to run.
    """
    sequences = [
        synth_static(FrameDims(64, 64), 30, luma, fps=30)
        for luma in (32, 128, 224)
    ]
    sequences += [
        synth_moving_block(FrameDims(96, 64), 30, 32, velocity, 235, 16, fps=30)
        for velocity in (2, 8, 16)
    ]
    sequences += [
        synth_noise(FrameDims(64, 64), 30, seed, 255, fps=30)
        for seed in (7, 11)
    ]
    return sequences


def build_corpus(entries: Sequence[dict]) -> list:
    """Build synthetic sequences from a list of {"kind": ..., ...} dicts."""
    builders = {
        "static": lambda e: synth_static(
            FrameDims(e["width"], e["height"]), e["count"], e["luma"],
            e.get("fps", 30)),
        "moving_block": lambda e: synth_moving_block(
            FrameDims(e["width"], e["height"]), e["count"], e["block_edge"],
            e["velocity"], e.get("fg_luma", 235), e.get("bg_luma", 16),
            e.get("fps", 30)),
        "noise": lambda e: synth_noise(
            FrameDims(e["width"], e["height"]), e["count"], e["seed"],
            e.get("amplitude", 255), e.get("fps", 30)),
    }
    sequences = []
    for entry in entries:
        kind = entry.get("kind")
        if kind not in builders:
            raise ValueError(f"unknown corpus entry kind {kind!r}")
        sequences.append(builders[kind](entry))
    return sequences
