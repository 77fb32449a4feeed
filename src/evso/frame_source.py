"""Luminance frame ingestion and synthetic sequence generators.

Frames are stored as bare 8-bit luma planes; chroma present in the input is
parsed past and discarded. All sequences carry their nominal frame rate as an
exact `fractions.Fraction` so fractional rates (29.97 = 2997/100) survive the
whole pipeline without float drift.
"""

from __future__ import annotations

import io
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO, Dict, Iterator, Sequence, Union

import numpy as np

from .errors import (
    BadSynthOption,
    BlockTooLarge,
    MalformedDocument,
    MalformedHeader,
    SizeMismatch,
    TruncatedFrame,
    UnsupportedColorSpace,
)
from .fscheduler import FpsLike, FrameDims, as_fps

#: Y4M color spaces accepted by read_y4m. Anything else raises
#: UnsupportedColorSpace. An absent C tag means 4:2:0 per the Y4M convention.
_Y4M_420_TAGS = frozenset({"420", "420jpeg", "420mpeg2", "420paldv"})


@dataclass(frozen=True)
class FrameSequence:
    """Ordered luma planes sharing one shape and one nominal frame rate.

    Each frame is a read-only (H, W) uint8 plane at least one macroblock
    each way. The sequence locks views of the arrays it is given, so the
    caller's own arrays stay writable. A plane of another dtype is refused.
    """

    frames: tuple
    fps: Fraction

    def __post_init__(self) -> None:
        frames = tuple(np.asarray(plane).view() for plane in self.frames)
        for plane in frames:
            if plane.dtype != np.uint8:
                raise ValueError(f"planes must be uint8, not {plane.dtype}")
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


@dataclass(frozen=True)
class FrameStream:
    """A clip whose luma planes are read from their source as iteration
    reaches them: it holds no plane itself and can be iterated once."""

    dims: FrameDims
    fps: Fraction
    planes: Iterator[np.ndarray]

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.planes


# ---------------------------------------------------------------------------
# Y4M (YUV4MPEG2)
# ---------------------------------------------------------------------------

def _chroma_420_bytes(width: int, height: int) -> int:
    """Both 4:2:0 chroma planes; odd dimensions round up."""
    return ((width + 1) // 2) * ((height + 1) // 2) * 2


def _readline(stream: BinaryIO) -> bytes:
    """Read up to a newline; returns b"" at EOF. Never reads past the \\n."""
    line = stream.readline(1024)
    if line.endswith(b"\n"):
        return line[:-1]
    if len(line) >= 1024:
        raise MalformedHeader("header line exceeds 1024 bytes")
    return line


def _read_exact(stream: BinaryIO, count: int, what: str) -> bytes:
    """count bytes, or TruncatedFrame. Reads of at most 16 MiB bound what a
    header claiming a frame larger than the input can make one allocate."""
    pieces = []
    while count:
        piece = stream.read(min(count, 1 << 24))
        if not piece:
            raise TruncatedFrame(f"{what} short by {count} bytes")
        pieces.append(piece)
        count -= len(piece)
    return b"".join(pieces)  # a lone piece is returned as it is


def _parse_signature(header: bytes):
    """Frame dims, fps and color space from a YUV4MPEG2 signature line."""
    tokens = header.split()  # the signature is a whole word at byte 0
    if not header.startswith(b"YUV4MPEG2") or tokens[0] != b"YUV4MPEG2":
        raise MalformedHeader("missing YUV4MPEG2 signature")
    width = height = None
    fps = None
    color = "420"
    for token in tokens[1:]:
        tag = token.decode("ascii", "replace")
        try:
            if tag.startswith("W"):
                width = int(tag[1:])
            elif tag.startswith("H"):
                height = int(tag[1:])
            elif tag.startswith("F"):
                num, _, den = tag[1:].partition(":")
                fps = as_fps(Fraction(int(num), int(den)))
            elif tag.startswith("C"):
                color = tag[1:]
        except (ValueError, ZeroDivisionError):
            raise MalformedHeader(f"bad {tag[0]} tag {tag!r}") from None
    if width is None or height is None or fps is None:
        raise MalformedHeader("header lacks one of W/H/F")
    try:
        return FrameDims(width, height), fps, color
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from None


def stream_y4m(source: Union[bytes, BinaryIO]) -> FrameStream:
    """Decode a YUV4MPEG2 stream as it is iterated, keeping each luma plane.

    The signature line, read at once, must carry W, H and F parameters;
    interlace (I) and aspect (A) tags are accepted and ignored. Supported
    color spaces are the 4:2:0 family and mono; for 4:2:0 the two
    ceil(W/2) x ceil(H/2) chroma planes of each frame are read past, through
    one held buffer of at most 64 KiB.
    """
    stream = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source
    dims, fps, color = _parse_signature(_readline(stream))
    if color == "mono":
        chroma_bytes = 0
    elif color in _Y4M_420_TAGS:
        chroma_bytes = _chroma_420_bytes(dims.width, dims.height)
    else:
        raise UnsupportedColorSpace(f"color space {color!r}")

    def planes() -> Iterator[np.ndarray]:
        # Chroma is read past (pipes cannot seek) through one held piece.
        piece = memoryview(bytearray(min(chroma_bytes, 1 << 16)))
        for i, marker in enumerate(iter(lambda: _readline(stream), b"")):
            if not marker.startswith(b"FRAME") or marker.split()[0] != b"FRAME":
                raise MalformedHeader(f"expected FRAME marker, got {marker[:16]!r}")
            payload = _read_exact(stream, dims.pixels, f"frame {i}: luma")
            left = chroma_bytes
            while left:
                got = stream.readinto(piece[:left])
                if not got:
                    raise TruncatedFrame(f"frame {i}: chroma short by {left} bytes")
                left -= got
            yield np.frombuffer(payload, np.uint8).reshape(dims.height, dims.width)
    return FrameStream(dims, fps, planes())


def read_y4m(source: Union[bytes, BinaryIO]) -> FrameSequence:
    """Every luma plane of a YUV4MPEG2 stream, as `stream_y4m` decodes them."""
    clip = stream_y4m(source)
    return FrameSequence(frames=clip, fps=clip.fps)


def encode_y4m(planes: Sequence[np.ndarray], fps: FpsLike) -> bytes:
    """Serialize (H, W) uint8 luma planes as a mono YUV4MPEG2 stream."""
    if not planes:
        raise ValueError("cannot encode an empty frame list")
    height, width = planes[0].shape
    rate = as_fps(fps)
    header = (f"YUV4MPEG2 W{width} H{height} "
              f"F{rate.numerator}:{rate.denominator} Ip A1:1 Cmono\n")
    # One copy: join reads each C-contiguous plane's own buffer.
    return b"FRAME\n".join([header.encode("ascii"),
                            *map(np.ascontiguousarray, planes)])


# ---------------------------------------------------------------------------
# Raw planar YUV
# ---------------------------------------------------------------------------

def stream_raw_yuv(fh: BinaryIO, dims: FrameDims, fps: FpsLike,
                   layout: str) -> FrameStream:
    """Split a headerless planar file into frames at a fixed stride as it is
    iterated.

    layout "I420" expects W*H luma plus two ceil(W/2) x ceil(H/2) chroma
    planes per frame; "YONLY" expects bare luma planes. Only the luma portion
    is read. fh must be a regular file, since its size gives the frame count.
    """
    layout = layout.upper()
    if layout == "I420":
        frame_bytes = dims.pixels + _chroma_420_bytes(dims.width, dims.height)
    elif layout == "YONLY":
        frame_bytes = dims.pixels
    else:
        raise ValueError(f"layout must be I420 or YONLY, got {layout!r}")
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        raise SizeMismatch("raw input must be a regular file: its size counts frames")
    size = info.st_size
    if size % frame_bytes != 0:
        raise SizeMismatch(f"{size} bytes is not a multiple of the {frame_bytes}-byte "
                           f"frame size for {layout} {dims}")

    def planes() -> Iterator[np.ndarray]:
        for i in range(size // frame_bytes):
            luma = _read_exact(fh, dims.pixels, f"frame {i}: luma")
            fh.seek(frame_bytes - dims.pixels, os.SEEK_CUR)
            yield np.frombuffer(luma, np.uint8).reshape(dims.height, dims.width)
    return FrameStream(dims, as_fps(fps), planes())


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------

def _check_synth(count: int, byte_values: Dict[str, int], **others: int) -> None:
    """A synthetic clip has at least one frame, no option true, false or a
    float (Python would read true as 1 and 2.0 as 2), and 8-bit values in
    [0, 255]."""
    for name, value in {"count": count, **byte_values, **others}.items():
        if isinstance(value, (bool, float, np.floating)):
            raise BadSynthOption(f"{name} {value!r} is not an integer")
    for name, value in byte_values.items():
        if not 0 <= value <= 255:
            raise BadSynthOption(f"{name} {value} outside [0, 255]")
    if count < 1:
        raise BadSynthOption("count must be >= 1")


def synth_static(dims: FrameDims, count: int, luma_value: int,
                 fps: FpsLike = 30) -> FrameSequence:
    """`count` identical frames filled with one luma value."""
    _check_synth(count, {"luma_value": luma_value})
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
    _check_synth(count, {"fg_luma": fg_luma, "bg_luma": bg_luma},
                 block_edge=block_edge, velocity=velocity_px_per_frame)
    if block_edge < 1:
        raise BadSynthOption("block_edge must be >= 1")
    if block_edge > min(dims.width, dims.height):
        raise BlockTooLarge(f"block edge {block_edge} exceeds frame {dims}")
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
    _check_synth(count, {"amplitude": amplitude}, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    block = rng.integers(0, amplitude + 1, size=(count, dims.height, dims.width),
                         dtype=np.uint8)
    return FrameSequence(frames=tuple(block), fps=fps)


# ---------------------------------------------------------------------------
# Synthetic corpus used by the correlation experiment
# ---------------------------------------------------------------------------

def standard_corpus() -> list:
    """Fixed mixed corpus of 30-frame clips at build_corpus's defaults: 3
    static, 3 moving-block and 2 noise, 232 adjacent pairs in all. Seeds and
    geometries are frozen so the correlation experiment is reproducible."""
    entries = [{"kind": "static", "width": 64, "height": 64, "luma": luma}
               for luma in (32, 128, 224)]
    entries += [{"kind": "moving_block", "width": 96, "height": 64,
                 "block_edge": 32, "velocity": velocity}
                for velocity in (2, 8, 16)]
    entries += [{"kind": "noise", "width": 64, "height": 64, "seed": seed}
                for seed in (7, 11)]
    return build_corpus([{**entry, "count": 30} for entry in entries])


def build_corpus(entries: Sequence[dict]) -> list:
    """Build synthetic sequences from a list of {"kind": ..., ...} dicts."""
    builders = {
        "static": lambda e, dims, fps: synth_static(
            dims, e["count"], e["luma"], fps),
        "moving_block": lambda e, dims, fps: synth_moving_block(
            dims, e["count"], e["block_edge"], e["velocity"],
            e.get("fg_luma", 235), e.get("bg_luma", 16), fps),
        "noise": lambda e, dims, fps: synth_noise(
            dims, e["count"], e["seed"], e.get("amplitude", 255), fps),
    }
    if not isinstance(entries, (list, tuple)):
        raise MalformedDocument("a corpus must be a list of clip descriptions")
    sequences = []
    try:
        # Every rate is checked before any plane is allocated.
        rates = [as_fps(entry.get("fps", 30)) for entry in entries]
        for entry, fps in zip(entries, rates):
            kind = entry.get("kind")
            if kind not in builders:
                raise BadSynthOption(f"unknown corpus entry kind {kind!r}")
            dims = FrameDims(entry["width"], entry["height"])
            sequences.append(builders[kind](entry, dims, fps))
    except (AttributeError, KeyError, TypeError) as exc:
        raise MalformedDocument(f"not a corpus document: {exc!r}") from None
    return sequences
