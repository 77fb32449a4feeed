import io
import itertools
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from evso.errors import (
    BadSynthOption,
    BlockTooLarge,
    EvsoError,
    MalformedDocument,
    MalformedHeader,
    SizeMismatch,
    TruncatedFrame,
    UnsupportedColorSpace,
)
from evso.frame_source import (
    FrameDims,
    FrameSequence,
    as_fps,
    build_corpus,
    encode_y4m,
    read_y4m,
    standard_corpus,
    stream_raw_yuv,
    stream_y4m,
    synth_moving_block,
    synth_noise,
    synth_static,
)


def test_as_fps_accepts_common_forms():
    assert as_fps(30) == Fraction(30)
    assert as_fps(Fraction(30000, 1001)) == Fraction(30000, 1001)
    assert as_fps(29.97) == Fraction(2997, 100)
    assert as_fps("30000/1001") == Fraction(30000, 1001)
    assert as_fps("29.97") == Fraction(2997, 100)


def test_as_fps_rejects_nonpositive():
    with pytest.raises(ValueError):
        as_fps(0)
    with pytest.raises(ValueError):
        as_fps(-24)
    with pytest.raises(ValueError):
        as_fps("30/0")


def test_as_fps_rejects_bool():
    for value in (True, False):
        with pytest.raises(TypeError):
            as_fps(value)


def test_dims_macroblock_grid_uses_floor():
    dims = FrameDims(100, 70)
    assert dims.mb_cols == 6
    assert dims.mb_rows == 4
    assert dims.pixels == 7000


def test_dims_smaller_than_one_macroblock_rejected():
    with pytest.raises(ValueError):
        FrameDims(15, 64)
    with pytest.raises(ValueError):
        FrameDims(64, 8)


@pytest.mark.parametrize("size", [96.5, 96.0, True, "96"])
def test_dims_must_be_integers(size):
    with pytest.raises(TypeError, match="dims must be integers"):
        FrameDims(size, 64)
    with pytest.raises(TypeError, match="dims must be integers"):
        FrameDims(96, size)


def test_sequence_holds_read_only_planes_and_leaves_caller_arrays_writable():
    plane = np.arange(512, dtype=np.uint8).reshape(16, 32)
    seq = FrameSequence(frames=(plane, plane), fps=30)
    assert type(seq[0]) is np.ndarray
    assert seq[0].shape == (16, 32) and seq[0].dtype == np.uint8
    assert seq.dims == FrameDims(32, 16)
    assert len(seq) == 2
    assert seq.duration_seconds == Fraction(2, 30)
    with pytest.raises(ValueError):
        seq[1][0, 0] = 1
    plane[0, 0] = 7
    assert plane.flags.writeable
    assert seq[0][0, 0] == 7


def test_sequence_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        FrameSequence(frames=(np.zeros((16, 16), np.uint8),
                              np.zeros((16, 32), np.uint8)), fps=30)
    with pytest.raises(ValueError):
        FrameSequence(frames=(np.zeros(256, np.uint8),), fps=30)


@pytest.mark.parametrize("plane", [
    *(pytest.param(np.full((16, 16), v), id=str(v))
      for v in (300, -1, -1.5, 2.5, 3.0)),
    pytest.param(np.arange(256, dtype=np.int64).reshape(16, 16), id="int64-ramp"),
])
def test_sequence_rejects_values_outside_uint8(plane):
    with pytest.raises(ValueError, match=r"planes must be uint8, not"):
        FrameSequence(frames=(plane,), fps=30)


@pytest.mark.parametrize("shape", [(15, 64), (64, 8)])
def test_sequence_rejects_planes_under_one_macroblock(shape):
    with pytest.raises(ValueError):
        FrameSequence(frames=(np.zeros(shape, np.uint8),), fps=30)


def test_y4m_round_trip_preserves_planes_and_rate():
    seq = synth_noise(FrameDims(32, 16), 5, seed=3, amplitude=255,
                      fps=Fraction(30000, 1001))
    data = encode_y4m(list(seq), seq.fps)
    back = read_y4m(data)
    assert back.fps == Fraction(30000, 1001)
    assert len(back) == 5
    assert back.dims == seq.dims
    for a, b in zip(seq, back):
        assert np.array_equal(a, b)


def test_y4m_accepts_file_objects():
    seq = synth_static(FrameDims(16, 16), 2, 7)
    back = read_y4m(io.BytesIO(encode_y4m(list(seq), seq.fps)))
    assert len(back) == 2


def test_y4m_skips_chroma_of_420_input():
    w, h = 32, 16
    luma0 = np.arange(w * h, dtype=np.uint8).reshape(h, w)
    luma1 = luma0[::-1].copy()
    chroma = bytes([77]) * ((w // 2) * (h // 2) * 2)
    blob = b"YUV4MPEG2 W32 H16 F25:1 Ip A1:1 C420mpeg2\n"
    blob += b"FRAME\n" + luma0.tobytes() + chroma
    blob += b"FRAME\n" + luma1.tobytes() + chroma
    seq = read_y4m(blob)
    assert len(seq) == 2
    assert seq.fps == 25
    assert np.array_equal(seq[0], luma0)
    assert np.array_equal(seq[1], luma1)


def test_y4m_default_color_space_is_420():
    w, h = 16, 16
    luma = bytes(w * h)
    chroma = bytes((w // 2) * (h // 2) * 2)
    seq = read_y4m(b"YUV4MPEG2 W16 H16 F30:1\nFRAME\n" + luma + chroma)
    assert len(seq) == 1


def test_y4m_malformed_headers_rejected():
    with pytest.raises(MalformedHeader):
        read_y4m(b"NOTAY4M W16 H16 F30:1\n")
    for signature in (b"YUV4MPEG2X", b" YUV4MPEG2", b"YUV4MPEG"):
        with pytest.raises(MalformedHeader, match="signature"):
            read_y4m(signature + b" W16 H16 F30:1 Cmono\nFRAME\n" + bytes(256))
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 H16 F30:1\n")
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 W16 H16\n")
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 W16 H16 F30\n")
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 W16 H16 F30:1 Cmono\nBOGUS\n" + bytes(256))


def test_y4m_malformed_frame_marker_after_good_frames_rejected():
    planes = [np.full((16, 16), v, dtype=np.uint8) for v in (1, 2)]
    for marker in (b"FRAMX", b"FRAMES", b"FRAMEX Ixyz", b" FRAME"):
        blob = encode_y4m(planes, 30) + marker + b"\n" + bytes(256)
        with pytest.raises(MalformedHeader, match="expected FRAME marker"):
            read_y4m(blob)
        clip = stream_y4m(blob)
        assert [int(p[0, 0]) for p in itertools.islice(clip, 2)] == [1, 2]
        with pytest.raises(MalformedHeader, match="expected FRAME marker"):
            next(iter(clip))


def test_stream_y4m_reads_a_frame_only_when_iteration_reaches_it():
    planes = [np.full((16, 32), v, dtype=np.uint8) for v in (5, 6, 7)]
    source = io.BytesIO(encode_y4m(planes, "30000/1001"))
    header_end = len(source.getvalue()) - 3 * (6 + 16 * 32)
    clip = stream_y4m(source)
    assert (clip.dims, clip.fps) == (FrameDims(32, 16), Fraction(30000, 1001))
    assert source.tell() == header_end
    frames = iter(clip)
    assert int(next(frames)[0, 0]) == 5
    assert source.tell() == header_end + 6 + 16 * 32
    assert [int(p[0, 0]) for p in frames] == [6, 7]
    assert list(clip) == []  # a stream is read once


def test_stream_raw_yuv_checks_the_size_before_any_frame(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(16 * 16 * 2 + 5))
    with open(path, "rb") as fh:
        with pytest.raises(SizeMismatch):
            stream_raw_yuv(fh, FrameDims(16, 16), 30, "YONLY")
    path.write_bytes(bytes(range(256)) * 3)
    with open(path, "rb") as fh:
        clip = stream_raw_yuv(fh, FrameDims(16, 16), "24", "YONLY")
        assert clip.fps == 24 and fh.tell() == 0
        assert [p.tobytes() for p in clip] == [bytes(range(256))] * 3


def test_unknown_layout_empty_encode_and_empty_dims_raise_value_error():
    with pytest.raises(ValueError, match="layout"):
        stream_raw_yuv(io.BytesIO(), FrameDims(16, 16), 30, "NV12")
    with pytest.raises(ValueError, match="empty"):
        encode_y4m([], 30)
    with pytest.raises(ValueError, match="no dims"):
        FrameSequence(frames=(), fps=30).dims


def test_stream_raw_yuv_refuses_a_pipe_before_any_frame():
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as fh, open(write_end, "wb") as sink:
        sink.write(bytes(16 * 16 * 2))
        sink.flush()
        with pytest.raises(SizeMismatch, match="regular file"):
            stream_raw_yuv(fh, FrameDims(16, 16), 30, "YONLY")


@pytest.mark.parametrize("header", [b"YUV4MPEG2 Wx H16 F30:1\n",
                                    b"YUV4MPEG2 W16 H1.5 F30:1\n",
                                    b"YUV4MPEG2 W16 H16 Fa:1\n",
                                    b"YUV4MPEG2 W16 H16 F30:0\n",
                                    b"YUV4MPEG2 W8 H8 F30:1\n"])
def test_y4m_non_numeric_tags_are_malformed_headers(header):
    with pytest.raises(MalformedHeader):
        read_y4m(header)


def _padded(line: bytes, length=None) -> bytes:
    """line grown to length bytes by a trailing tag readers ignore, plus \\n."""
    if length is not None:
        line += b" X" + b"x" * (length - len(line) - 2)
        assert len(line) == length
    return line + b"\n"


def test_y4m_header_lines_stop_at_1023_bytes(tmp_path):
    planes = [np.arange(256, dtype=np.uint8).reshape(16, 16),
              np.full((16, 16), 7, dtype=np.uint8)]
    expected = [p.tobytes() for p in planes]

    def clip(signature_length=None, frame_length=None):
        frames = b"".join(_padded(b"FRAME", frame_length) + p.tobytes()
                          for p in planes)
        return _padded(b"YUV4MPEG2 W16 H16 F30:1 Cmono", signature_length) + frames

    for blob in (clip(1023), clip(None, 1023), clip(1023, 1023)):
        assert [p.tobytes() for p in read_y4m(blob)] == expected
        path = tmp_path / "clip.y4m"
        path.write_bytes(blob)
        with open(path, "rb", buffering=0) as fh:
            assert [p.tobytes() for p in read_y4m(fh)] == expected
    for blob in (clip(1024), clip(None, 1024)):
        with pytest.raises(MalformedHeader, match="exceeds 1024 bytes"):
            read_y4m(blob)


def _odd_luma(w, h):
    return (np.arange(w * h) % 251).astype(np.uint8).reshape(h, w)


def test_y4m_odd_sized_420_rounds_chroma_up():
    w, h = 33, 17
    luma = _odd_luma(w, h)
    chroma = bytes([99]) * (17 * 9 * 2)
    blob = b"YUV4MPEG2 W33 H17 F30:1 Ip A1:1 C420jpeg\n"
    blob += (b"FRAME\n" + luma.tobytes() + chroma) * 2
    seq = read_y4m(blob)
    assert len(seq) == 2
    assert np.array_equal(seq[1], luma)


def test_y4m_truncated_payload_rejected():
    seq = synth_static(FrameDims(16, 16), 2, 0)
    data = encode_y4m(list(seq), seq.fps)
    with pytest.raises(TruncatedFrame):
        read_y4m(data[:-10])


def test_y4m_frame_larger_than_the_input_is_truncated_not_allocated(tmp_path):
    path = tmp_path / "huge.y4m"
    path.write_bytes(b"YUV4MPEG2 W1000000 H1000000 F30:1 Cmono\nFRAME\nabc")
    with open(path, "rb") as fh:
        with pytest.raises(TruncatedFrame, match="luma short by 999999999997"):
            read_y4m(fh)


def test_y4m_frames_larger_than_one_read_piece_round_trip(tmp_path):
    # 18.9 MB: more than one 16 MiB read; period 251 shifts every row.
    plane = np.resize(np.arange(251, dtype=np.uint8), 4352 * 4352)
    path = tmp_path / "big.y4m"
    path.write_bytes(encode_y4m([plane.reshape(4352, 4352)], 30))
    with open(path, "rb") as fh:
        back = read_y4m(fh)
    assert back[0].tobytes() == plane.tobytes()


def _y4m_420(width, height, count, seed=21):
    """A seeded C420jpeg clip as bytes, and its luma planes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    chroma_bytes = ((width + 1) // 2) * ((height + 1) // 2) * 2
    planes = rng.integers(0, 256, size=(count, height, width), dtype=np.uint8)
    blob = f"YUV4MPEG2 W{width} H{height} F25:1 Ip C420jpeg\n".encode()
    for plane in planes:
        chroma = rng.integers(0, 256, size=chroma_bytes, dtype=np.uint8)
        blob += b"FRAME\n" + plane.tobytes() + chroma.tobytes()
    return blob, planes


class _Pipe(io.RawIOBase):
    """A non-seekable source whose reads return at most 1000 bytes."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(memoryview(buffer)[:1000])


def test_y4m_chroma_larger_than_one_held_piece_round_trips(tmp_path):
    blob, planes = _y4m_420(400, 400, 3)  # 80,000 chroma bytes a frame
    path = tmp_path / "clip.y4m"
    path.write_bytes(blob)
    pipe = _Pipe(blob)
    assert not pipe.seekable()
    with open(path, "rb") as fh:
        for back in (read_y4m(fh), read_y4m(pipe)):
            assert back.dims == FrameDims(400, 400)
            assert all(np.array_equal(a, b) for a, b in zip(back, planes))
            assert len(back) == 3


def test_y4m_chroma_cut_inside_its_second_piece_is_truncated(tmp_path):
    blob, _ = _y4m_420(400, 400, 2)
    path = tmp_path / "clip.y4m"
    path.write_bytes(blob[:-10_000])  # 70,000 of frame 1's 80,000 remain
    with open(path, "rb") as fh:
        for source in (fh, _Pipe(blob[:-10_000])):
            with pytest.raises(TruncatedFrame) as err:
                read_y4m(source)
            assert str(err.value) == "frame 1: chroma short by 10000 bytes"


def test_encode_y4m_of_strided_views_equals_their_copies():
    rng = np.random.Generator(np.random.PCG64(3))
    base = rng.integers(0, 256, size=(64, 96), dtype=np.uint8)
    views = [base[::2, ::3], base[::-1, 1::2][:32], base.T[:, :32],
             np.asfortranarray(base)]
    for view in views:
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        data = encode_y4m([view, view], 30)
        assert data == encode_y4m([copy, copy], 30)
        header = f"YUV4MPEG2 W{copy.shape[1]} H{copy.shape[0]} F30:1"
        assert data == (header.encode() + b" Ip A1:1 Cmono\n"
                        + (b"FRAME\n" + copy.tobytes()) * 2)


def test_y4m_unsupported_color_space_rejected():
    with pytest.raises(UnsupportedColorSpace):
        read_y4m(b"YUV4MPEG2 W16 H16 F30:1 C444\nFRAME\n" + bytes(16 * 16 * 3))


def _read_raw(path, dims, fps, layout) -> FrameSequence:
    """A whole raw clip, as a caller builds it from `stream_raw_yuv`."""
    with open(path, "rb") as fh:
        return FrameSequence(frames=stream_raw_yuv(fh, dims, fps, layout), fps=fps)


def test_raw_yuv_yonly_round_trip(tmp_path):
    dims = FrameDims(32, 16)
    seq = synth_noise(dims, 4, seed=9, amplitude=200)
    path = tmp_path / "clip.yuv"
    path.write_bytes(b"".join(f.tobytes() for f in seq))
    back = _read_raw(path, dims, 30, "YONLY")
    assert len(back) == 4
    for a, b in zip(seq, back):
        assert np.array_equal(a, b)


def test_raw_yuv_i420_keeps_luma_only(tmp_path):
    dims = FrameDims(16, 16)
    luma = np.full((16, 16), 50, dtype=np.uint8)
    chroma = bytes([128]) * (8 * 8 * 2)
    path = tmp_path / "clip.yuv"
    path.write_bytes((luma.tobytes() + chroma) * 3)
    back = _read_raw(path, dims, 24, "I420")
    assert len(back) == 3
    assert np.array_equal(back[2], luma)


def test_raw_yuv_i420_odd_size_rounds_chroma_up(tmp_path):
    dims = FrameDims(33, 17)
    luma = _odd_luma(33, 17)
    path = tmp_path / "clip.yuv"
    path.write_bytes((luma.tobytes() + bytes([128]) * (17 * 9 * 2)) * 3)
    back = _read_raw(path, dims, 24, "I420")
    assert len(back) == 3
    assert np.array_equal(back[2], luma)


def test_raw_yuv_i420_holds_only_luma_in_memory(tmp_path):
    dims, count = FrameDims(320, 240), 40
    frame = np.arange(dims.pixels * 3 // 2, dtype=np.uint32).astype(np.uint8)
    path = tmp_path / "clip.yuv"
    path.write_bytes(frame.tobytes() * count)
    tracemalloc.start()
    try:
        back = _read_raw(path, dims, 30, "I420")
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == count
    assert np.array_equal(back[count - 1].ravel(), frame[:dims.pixels])
    assert current <= 1.05 * dims.pixels * count


def test_raw_yuv_size_mismatch(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(16 * 16 + 5))
    with pytest.raises(SizeMismatch):
        _read_raw(path, FrameDims(16, 16), 30, "YONLY")


def test_synth_static_is_constant():
    seq = synth_static(FrameDims(16, 32), 3, 200)
    for frame in seq:
        assert frame.min() == frame.max() == 200


def test_moving_block_starts_top_left_and_bounces():
    seq = synth_moving_block(FrameDims(64, 64), 10, 16, 16, 255, 0)
    # x positions reflect off the right border: 0,16,32,48,32,16,0,16,...
    expected_x = [0, 16, 32, 48, 32, 16, 0, 16, 32, 48]
    for frame, x in zip(seq, expected_x):
        cols = np.where(frame[0] == 255)[0]
        assert cols[0] == x and cols[-1] == x + 15
    assert seq[0][0, 0] == 255


def test_moving_block_too_large_rejected():
    with pytest.raises(BlockTooLarge):
        synth_moving_block(FrameDims(32, 32), 3, 48, 4, 255, 0)


def test_moving_block_full_width_stays_put():
    seq = synth_moving_block(FrameDims(32, 32), 4, 32, 8, 255, 0)
    for frame in seq:
        assert np.array_equal(frame, seq[0])


def test_noise_is_seed_reproducible_and_bounded():
    a = synth_noise(FrameDims(16, 16), 5, seed=7, amplitude=100)
    b = synth_noise(FrameDims(16, 16), 5, seed=7, amplitude=100)
    c = synth_noise(FrameDims(16, 16), 5, seed=8, amplitude=100)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)
    assert any(not np.array_equal(fa, fc)
               for fa, fc in zip(a, c))
    assert max(f.max() for f in a) <= 100
    zeros = synth_noise(FrameDims(16, 16), 2, seed=1, amplitude=0)
    assert all(f.max() == 0 for f in zeros)


def test_standard_corpus_composition():
    corpus = standard_corpus()
    assert len(corpus) == 8
    assert all(len(seq) == 30 for seq in corpus)
    assert sum(len(seq) - 1 for seq in corpus) == 232


def test_build_corpus_builds_each_kind():
    corpus = build_corpus([
        {"kind": "static", "width": 16, "height": 16, "count": 3, "luma": 4},
        {"kind": "moving_block", "width": 32, "height": 16, "count": 3,
         "block_edge": 16, "velocity": 4},
        {"kind": "noise", "width": 16, "height": 16, "count": 3, "seed": 1},
    ])
    static, moving, noise = corpus
    assert all((plane == 4).all() for plane in static)
    assert moving.dims == FrameDims(32, 16)
    assert [np.flatnonzero(plane[0] == 235)[0] for plane in moving] == [0, 4, 8]
    assert len({plane.tobytes() for plane in noise}) == 3
    with pytest.raises(ValueError):
        build_corpus([{"kind": "mystery"}])


@pytest.mark.parametrize("build", [
    lambda: synth_static(FrameDims(16, 16), 0, 5),
    lambda: synth_static(FrameDims(16, 16), 2, 256),
    lambda: synth_moving_block(FrameDims(32, 16), 0, 8, 1, 200, 10),
    lambda: synth_moving_block(FrameDims(32, 16), 2, 0, 1, 200, 10),
    lambda: synth_moving_block(FrameDims(32, 16), 2, 8, 1, -1, 10),
    lambda: synth_noise(FrameDims(16, 16), 0, 1, 10),
    lambda: synth_noise(FrameDims(16, 16), 2, 1, 300),
    lambda: build_corpus([{"kind": "mystery"}]),
], ids=["static-count", "static-luma", "block-count", "block-edge",
        "block-fg-luma", "noise-count", "noise-amplitude", "corpus-kind"])
def test_synth_bad_options_raise_an_evso_error_that_is_a_value_error(build):
    with pytest.raises(BadSynthOption) as info:
        build()
    assert isinstance(info.value, EvsoError)
    assert isinstance(info.value, ValueError)


def test_build_corpus_checks_every_rate_before_building_planes(monkeypatch):
    from evso import frame_source

    def refuse(*args, **kwargs):
        raise AssertionError("planes built before every rate was checked")

    monkeypatch.setattr(frame_source, "synth_noise", refuse)
    entry = {"kind": "noise", "width": 16, "height": 16, "count": 2, "seed": 1}
    with pytest.raises(ValueError, match="Invalid literal"):
        build_corpus([entry, {**entry, "fps": "abc"}])


@pytest.mark.parametrize("doc", [{}, {"kind": "static"}, [5],
                                 [{"kind": "static"}],
                                 [{"kind": "noise", "width": 16, "height": 16,
                                   "count": 2, "seed": "x"}]])
def test_build_corpus_rejects_malformed_documents(doc):
    with pytest.raises(MalformedDocument):
        build_corpus(doc)


def test_synth_takes_numpy_integers_for_its_integer_options():
    count, luma, edge, seed = np.int64(2), np.uint8(9), np.int32(8), np.int16(3)
    assert (synth_static(FrameDims(16, 16), count, luma)[1] == 9).all()
    assert len(synth_moving_block(FrameDims(32, 16), count, edge, np.int8(-4),
                                  luma, np.uint16(200))) == 2
    assert len(synth_noise(FrameDims(16, 16), count, seed, luma)) == 2
