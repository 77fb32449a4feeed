import io
from fractions import Fraction

import numpy as np
import pytest

from evso.errors import (
    BlockTooLarge,
    MalformedHeader,
    SizeMismatch,
    TruncatedFrame,
    UnsupportedColorSpace,
)
from evso.frame_source import (
    Frame,
    FrameDims,
    FrameSequence,
    as_fps,
    build_corpus,
    encode_y4m,
    read_raw_yuv,
    read_y4m,
    standard_corpus,
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


def test_frame_reshapes_and_locks_plane():
    dims = FrameDims(16, 16)
    frame = Frame(dims=dims, y_plane=np.arange(256, dtype=np.uint8), index=0)
    assert frame.y_plane.shape == (16, 16)
    with pytest.raises(ValueError):
        frame.y_plane[0, 0] = 1


def test_frame_size_mismatch_rejected():
    with pytest.raises(ValueError):
        Frame(dims=FrameDims(16, 16), y_plane=np.zeros(100, dtype=np.uint8),
              index=0)


def test_sequence_validates_indices_and_dims():
    dims = FrameDims(16, 16)
    plane = np.zeros((16, 16), dtype=np.uint8)
    good = FrameSequence(
        frames=(Frame(dims, plane, 0), Frame(dims, plane, 1)), fps=30)
    assert len(good) == 2
    assert good.duration_seconds == Fraction(2, 30)
    with pytest.raises(ValueError):
        FrameSequence(frames=(Frame(dims, plane, 1),), fps=30)


def test_y4m_round_trip_preserves_planes_and_rate():
    seq = synth_noise(FrameDims(32, 16), 5, seed=3, amplitude=255,
                      fps=Fraction(30000, 1001))
    data = encode_y4m(list(seq), seq.fps)
    back = read_y4m(data)
    assert back.fps == Fraction(30000, 1001)
    assert len(back) == 5
    assert back.dims == seq.dims
    for a, b in zip(seq, back):
        assert np.array_equal(a.y_plane, b.y_plane)


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
    assert np.array_equal(seq[0].y_plane, luma0)
    assert np.array_equal(seq[1].y_plane, luma1)


def test_y4m_default_color_space_is_420():
    w, h = 16, 16
    luma = bytes(w * h)
    chroma = bytes((w // 2) * (h // 2) * 2)
    seq = read_y4m(b"YUV4MPEG2 W16 H16 F30:1\nFRAME\n" + luma + chroma)
    assert len(seq) == 1


def test_y4m_malformed_headers_rejected():
    with pytest.raises(MalformedHeader):
        read_y4m(b"NOTAY4M W16 H16 F30:1\n")
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 H16 F30:1\n")
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 W16 H16\n")
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 W16 H16 F30\n")
    with pytest.raises(MalformedHeader):
        read_y4m(b"YUV4MPEG2 W16 H16 F30:1 Cmono\nBOGUS\n" + bytes(256))


@pytest.mark.parametrize("header", [b"YUV4MPEG2 Wx H16 F30:1\n",
                                    b"YUV4MPEG2 W16 H1.5 F30:1\n",
                                    b"YUV4MPEG2 W16 H16 Fa:1\n",
                                    b"YUV4MPEG2 W16 H16 F30:0\n",
                                    b"YUV4MPEG2 W8 H8 F30:1\n"])
def test_y4m_non_numeric_tags_are_malformed_headers(header):
    with pytest.raises(MalformedHeader):
        read_y4m(header)


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
    assert np.array_equal(seq[1].y_plane, luma)


def test_y4m_truncated_payload_rejected():
    seq = synth_static(FrameDims(16, 16), 2, 0)
    data = encode_y4m(list(seq), seq.fps)
    with pytest.raises(TruncatedFrame):
        read_y4m(data[:-10])


def test_y4m_unsupported_color_space_rejected():
    with pytest.raises(UnsupportedColorSpace):
        read_y4m(b"YUV4MPEG2 W16 H16 F30:1 C444\nFRAME\n" + bytes(16 * 16 * 3))


def test_raw_yuv_yonly_round_trip(tmp_path):
    dims = FrameDims(32, 16)
    seq = synth_noise(dims, 4, seed=9, amplitude=200)
    path = tmp_path / "clip.yuv"
    path.write_bytes(b"".join(f.y_plane.tobytes() for f in seq))
    back = read_raw_yuv(path, dims, 30, "YONLY")
    assert len(back) == 4
    for a, b in zip(seq, back):
        assert np.array_equal(a.y_plane, b.y_plane)


def test_raw_yuv_i420_keeps_luma_only(tmp_path):
    dims = FrameDims(16, 16)
    luma = np.full((16, 16), 50, dtype=np.uint8)
    chroma = bytes([128]) * (8 * 8 * 2)
    path = tmp_path / "clip.yuv"
    path.write_bytes((luma.tobytes() + chroma) * 3)
    back = read_raw_yuv(path, dims, 24, "I420")
    assert len(back) == 3
    assert np.array_equal(back[2].y_plane, luma)


def test_raw_yuv_i420_odd_size_rounds_chroma_up(tmp_path):
    dims = FrameDims(33, 17)
    luma = _odd_luma(33, 17)
    path = tmp_path / "clip.yuv"
    path.write_bytes((luma.tobytes() + bytes([128]) * (17 * 9 * 2)) * 3)
    back = read_raw_yuv(path, dims, 24, "I420")
    assert len(back) == 3
    assert np.array_equal(back[2].y_plane, luma)


def test_raw_yuv_size_mismatch(tmp_path):
    path = tmp_path / "clip.yuv"
    path.write_bytes(bytes(16 * 16 + 5))
    with pytest.raises(SizeMismatch):
        read_raw_yuv(path, FrameDims(16, 16), 30, "YONLY")


def test_synth_static_is_constant():
    seq = synth_static(FrameDims(16, 32), 3, 200)
    for frame in seq:
        assert frame.y_plane.min() == frame.y_plane.max() == 200


def test_moving_block_starts_top_left_and_bounces():
    seq = synth_moving_block(FrameDims(64, 64), 10, 16, 16, 255, 0)
    # x positions reflect off the right border: 0,16,32,48,32,16,0,16,...
    expected_x = [0, 16, 32, 48, 32, 16, 0, 16, 32, 48]
    for frame, x in zip(seq, expected_x):
        cols = np.where(frame.y_plane[0] == 255)[0]
        assert cols[0] == x and cols[-1] == x + 15
    assert seq[0].y_plane[0, 0] == 255


def test_moving_block_too_large_rejected():
    with pytest.raises(BlockTooLarge):
        synth_moving_block(FrameDims(32, 32), 3, 48, 4, 255, 0)


def test_moving_block_full_width_stays_put():
    seq = synth_moving_block(FrameDims(32, 32), 4, 32, 8, 255, 0)
    for frame in seq:
        assert np.array_equal(frame.y_plane, seq[0].y_plane)


def test_noise_is_seed_reproducible_and_bounded():
    a = synth_noise(FrameDims(16, 16), 5, seed=7, amplitude=100)
    b = synth_noise(FrameDims(16, 16), 5, seed=7, amplitude=100)
    c = synth_noise(FrameDims(16, 16), 5, seed=8, amplitude=100)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.y_plane, fb.y_plane)
    assert any(not np.array_equal(fa.y_plane, fc.y_plane)
               for fa, fc in zip(a, c))
    assert max(f.y_plane.max() for f in a) <= 100
    zeros = synth_noise(FrameDims(16, 16), 2, seed=1, amplitude=0)
    assert all(f.y_plane.max() == 0 for f in zeros)


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
    assert [seq.source_label for seq in corpus] == [
        "synth:static", "synth:moving_block", "synth:noise"]
    with pytest.raises(ValueError):
        build_corpus([{"kind": "mystery"}])
