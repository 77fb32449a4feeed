import math
import random
import tracemalloc

import numpy as np
import pytest

from evso.errors import (
    BlockOutOfRange,
    DegenerateInput,
    DimsMismatch,
    FrameTooSmall,
    TooFewFrames,
)
from evso.frame_source import (
    FrameDims,
    FrameSequence,
    FrameStream,
    synth_moving_block,
    synth_noise,
    synth_static,
)
from evso.fscheduler import Config, schedule
from evso.similarity import (
    DiffSeries,
    PairDiff,
    d_y,
    diff_series,
    linear_fit,
    m_diff,
    pearson,
    regression_ssim_estimate,
    sad_y_macroblock,
    ssim,
    ssim_work,
    y_diff,
)
from evso.vprocessor import process, quality_report


def _planes(h, w, fill_a=0, fill_b=0):
    a = np.full((h, w), fill_a, dtype=np.uint8)
    b = np.full((h, w), fill_b, dtype=np.uint8)
    return a, b


def test_sad_is_summed_absolute_difference():
    a, b = _planes(16, 32)
    b[0, 0] = 10
    b[15, 16] = 200
    assert sad_y_macroblock(a, b, 0, 0) == 10
    assert sad_y_macroblock(a, b, 0, 1) == 200
    with pytest.raises(BlockOutOfRange):
        sad_y_macroblock(a, b, 1, 0)
    with pytest.raises(BlockOutOfRange):
        sad_y_macroblock(a, b, 0, 2)


def test_changed_block_threshold_is_strict():
    a, b = _planes(16, 16)
    # 64 pixels differing by 5 sum to exactly the 320 threshold
    b[:4, :16] = 5
    assert sad_y_macroblock(a, b, 0, 0) == 320
    assert d_y(a, b, 0, 0) == 0
    assert m_diff(a, b) == 0
    b = b.copy()
    b[4, 0] = 1
    assert d_y(a, b, 0, 0) == 1
    assert m_diff(a, b) == 1


def test_diff_series_with_theta_0_counts_every_changed_block():
    a = np.zeros((64, 64), np.uint8)
    b = a.copy()
    b[0, 0] = b[20, 40] = 1
    b[63, 63] = 255
    clip = FrameSequence(frames=[a, b], fps=30)
    assert diff_series(clip, Config(theta=0)).pairs == (PairDiff(3, 257),)
    assert diff_series(clip).pairs == (PairDiff(0, 257),)


def test_m_diff_matches_per_block_loop_on_random_frames():
    rng = np.random.Generator(np.random.PCG64(2024))
    cfg = Config()
    for _ in range(20):
        a = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
        b = a.copy()
        # perturb a random subset of pixels so counts vary around theta
        mask = rng.random((48, 48)) < 0.02
        b[mask] = rng.integers(0, 256, size=int(mask.sum()), dtype=np.uint8)
        expected = sum(
            d_y(a, b, r, c, cfg) for r in range(3) for c in range(3)
        )
        assert m_diff(a, b, cfg) == expected


def test_m_diff_ignores_partial_edge_blocks():
    a, b = _planes(24, 24)
    b[20:, 20:] = 255  # only in the partial edge region
    assert m_diff(a, b) == 0
    assert y_diff(a, b) == 16 * 255


def test_y_diff_covers_whole_plane():
    a, b = _planes(16, 16, 10, 13)
    assert y_diff(a, b) == 3 * 256


def test_dims_mismatch_rejected():
    a = np.zeros((16, 16), dtype=np.uint8)
    b = np.zeros((16, 32), dtype=np.uint8)
    for fn in (lambda: m_diff(a, b), lambda: y_diff(a, b),
               lambda: ssim(a, b), lambda: sad_y_macroblock(a, b, 0, 0),
               lambda: ssim(a, a + 1, ssim_work(b.shape))):
        with pytest.raises(DimsMismatch):
            fn()


def test_ssim_rejects_planes_smaller_than_its_window():
    for shape in ((7, 16), (16, 7)):
        a = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(FrameTooSmall):
            ssim(a, a)


def _naive_ssim(a, b):
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    scores = []
    for r in range(a.shape[0] - 7):
        for c in range(a.shape[1] - 7):
            wa = a[r:r + 8, c:c + 8]
            wb = b[r:r + 8, c:c + 8]
            mu_a, mu_b = wa.mean(), wb.mean()
            var_a = ((wa - mu_a) ** 2).mean()
            var_b = ((wb - mu_b) ** 2).mean()
            cov = ((wa - mu_a) * (wb - mu_b)).mean()
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


def test_ssim_matches_naive_windowed_reference():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(5):
        a = rng.integers(0, 256, size=(16, 24), dtype=np.uint8)
        b = rng.integers(0, 256, size=(16, 24), dtype=np.uint8)
        assert ssim(a, b) == pytest.approx(_naive_ssim(a, b), abs=1e-10)


def _float_reference_ssim(a, b):
    """The float64 summed-area-table ssim that the int64 one must match."""
    def window_sums(values, edge):
        padded = np.zeros((values.shape[0] + 1, values.shape[1] + 1),
                          dtype=np.float64)
        padded[1:, 1:] = values.cumsum(axis=0).cumsum(axis=1)
        return (padded[edge:, edge:] - padded[:-edge, edge:]
                - padded[edge:, :-edge] + padded[:-edge, :-edge])

    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    pa = a.astype(np.float64)
    pb = b.astype(np.float64)
    area = 64.0
    s_a = window_sums(pa, 8)
    s_b = window_sums(pb, 8)
    s_aa = window_sums(pa * pa, 8)
    s_bb = window_sums(pb * pb, 8)
    s_ab = window_sums(pa * pb, 8)
    mu_a = s_a / area
    mu_b = s_b / area
    var_a = s_aa / area - mu_a * mu_a
    var_b = s_bb / area - mu_b * mu_b
    cov = s_ab / area - mu_a * mu_b
    numer = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    denom = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(numer / denom))


def _ssim_reference_pairs():
    rng = np.random.Generator(np.random.PCG64(8))
    for shape in ((8, 8), (33, 17), (1080, 1920)):
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        yield a, rng.integers(0, 256, size=shape, dtype=np.uint8)
        one = a.copy()
        one[shape[0] // 2, shape[1] // 3] ^= 0x80
        yield a, one
    seq = synth_noise(FrameDims(48, 32), 2, seed=9, amplitude=255)
    strided = seq[0][:, ::2]
    assert not strided.flags.writeable and not strided.flags.c_contiguous
    yield strided, seq[1][:, ::2]


def test_ssim_is_bit_identical_to_float_summed_area_tables():
    work = None
    for a, b in _ssim_reference_pairs():
        if work is None or work[0].shape[1:] != a.shape:
            work = ssim_work(a.shape)
        for x, y in ((a, b), (b, a)):
            expected = _float_reference_ssim(x, y)
            assert ssim(x, y) == expected
            assert ssim(x, y, work) == expected


def _extreme_pairs():
    """Saturated planes, the smallest window counts and strided views."""
    black, white = np.zeros((32, 48), np.uint8), np.full((32, 48), 255, np.uint8)
    yield black, white
    yield white, np.full((32, 48), 254, np.uint8)
    rng = np.random.Generator(np.random.PCG64(12))
    for shape in ((8, 8), (8, 41), (37, 8)):
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        yield a, rng.integers(0, 256, size=shape, dtype=np.uint8)
        yield a, np.where(a > 127, 255, 0).astype(np.uint8)
    wide = rng.integers(0, 256, size=(40, 66), dtype=np.uint8)
    yield wide[::2, ::3], wide[1::2, 1::3]
    yield wide[::-1, 5:], wide[:, ::-1][:, 5:]


def test_ssim_int32_windows_match_float_reference_on_extremes():
    for a, b in _extreme_pairs():
        work = ssim_work(a.shape)
        for x, y in ((a, b), (b, a)):
            expected = _float_reference_ssim(x, y)
            assert ssim(x, y) == expected
            assert ssim(x, y, work) == expected


def test_ssim_work_bytes_per_pixel_stay_within_one_percent():
    # The int64 summed-area-table kernel's work set at these shapes.
    for shape, before in (((128, 192), 2_042_560), ((1080, 1920), 181_327_552)):
        after = sum(a.nbytes for a in ssim_work(shape))
        assert abs(after - before) <= 0.01 * before


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.float64,
                                   np.bool_])
def test_ssim_takes_uint8_planes_only(dtype):
    a = np.full((16, 16), 1, dtype=dtype)
    b = np.full((16, 16), 0, dtype=np.uint8)
    for x, y in ((a, b), (b, a), (a, a)):
        with pytest.raises(DegenerateInput, match="uint8"):
            ssim(x, y)


def _no_window_sums(*args):
    raise AssertionError("reached _window_sums")


def test_ssim_of_equal_planes_is_exactly_one_without_windows(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(10))
    a = rng.integers(0, 256, size=(17, 33), dtype=np.uint8)
    assert _float_reference_ssim(a, a.copy()) == 1.0
    monkeypatch.setattr("evso.similarity._window_sums", _no_window_sums)
    assert ssim(a, a.copy()) == 1.0


def test_quality_report_of_held_static_frames_skips_window_sums(monkeypatch):
    static = synth_static(FrameDims(64, 64), 60, 128)
    moving = synth_moving_block(FrameDims(64, 64), 60, 16, 8, 235, 16)
    videos = [process(seq, schedule(diff_series(seq)), "evso_plus_plus")
              for seq in (static, moving)]
    assert all(video.kept_count < video.frame_count for video in videos)
    monkeypatch.setattr("evso.similarity._window_sums", _no_window_sums)
    assert quality_report(videos[0], static).mean_ssim == 1.0
    with pytest.raises(AssertionError, match="reached _window_sums"):
        quality_report(videos[1], moving)


def test_ssim_identity_extremes_and_symmetry():
    rng = np.random.Generator(np.random.PCG64(6))
    a = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    assert ssim(a, a) == 1.0
    black = np.zeros((32, 32), dtype=np.uint8)
    white = np.full((32, 32), 255, dtype=np.uint8)
    assert ssim(black, white) < 0.01
    b = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-15)


def test_ssim_decreases_with_heavier_distortion():
    rng = np.random.Generator(np.random.PCG64(7))
    base = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    light = base.astype(np.int16)
    light[::4, ::4] += 20
    heavy = base.astype(np.int16)
    heavy[::2, ::2] += 90
    light_score = ssim(base, np.clip(light, 0, 255).astype(np.uint8))
    heavy_score = ssim(base, np.clip(heavy, 0, 255).astype(np.uint8))
    assert heavy_score < light_score < 1.0


def test_diff_series_covers_adjacent_pairs():
    seq = synth_moving_block(FrameDims(64, 64), 10, 16, 16, 255, 0)
    series = diff_series(seq, with_ssim=True)
    assert series.frame_count == 10
    assert len(series.pairs) == 9
    assert series.m_diffs == (2,) * 9
    assert series.m_diffs is series.m_diffs
    assert all(p.ssim is not None and p.ssim < 1.0 for p in series.pairs)
    lazy = diff_series(seq)
    assert all(p.ssim is None for p in lazy.pairs)


def _kernel_cases():
    """Named plane pairs that stress the uint8 pair kernel's sums and edges."""
    rng = np.random.Generator(np.random.PCG64(11))
    cases = {f"random-{h}x{w}": (rng.integers(0, 256, size=(h, w), dtype=np.uint8),
                                 rng.integers(0, 256, size=(h, w), dtype=np.uint8))
             for h, w in ((16, 16), (33, 17), (17, 33), (48, 40), (1080, 1920))}
    cases["black-white"] = _planes(48, 40, 0, 255)  # full blocks sum to 65,280
    a, b = _planes(40, 50)
    b[32:, :] = 255  # partial bottom rows
    b[:, 48:] = 255  # partial right columns
    cases["edges-only"] = a, b
    a, b = _planes(32, 32)
    b[:4, :16] = 5  # block (0, 0) sums to exactly 320
    b[16:20, 16:32] = 5
    b[20, 16] = 6  # block (1, 1) sums to 321
    cases["theta-320"] = a, b
    return cases


def test_pair_kernel_matches_int64_reference():
    for name, (a, b) in _kernel_cases().items():
        rows, cols = a.shape[0] // 16, a.shape[1] // 16
        block_sads = [sad_y_macroblock(a, b, r, c)
                      for r in range(rows) for c in range(cols)]
        ref_y = int(np.abs(a.astype(np.int64) - b.astype(np.int64)).sum())
        assert y_diff(a, b) == ref_y, name
        # FrameSequence holds read-only views; make them strided too.
        h, w = a.shape
        views = []
        for plane in (a, b):
            wide = np.zeros((2 * h, 3 * w), dtype=np.uint8)
            wide[::2, ::3] = plane
            views.append(wide[::2, ::3])
        seq = FrameSequence(frames=views, fps=30)
        assert not seq[0].flags.writeable
        assert not seq[0].flags.c_contiguous
        for theta in (0, 320, 65_280):
            cfg = Config(theta=theta)
            ref_m = sum(sad > theta for sad in block_sads)
            assert m_diff(a, b, cfg) == ref_m, (name, theta)
            assert diff_series(seq, cfg).pairs == (PairDiff(ref_m, ref_y),)


def test_pair_kernel_extreme_and_edge_cases():
    cases = _kernel_cases()
    black, white = cases["black-white"]
    assert sad_y_macroblock(black, white, 2, 1) == 65_280
    assert m_diff(black, white, Config(theta=65_279)) == 6
    assert m_diff(black, white, Config(theta=65_280)) == 0
    a, b = cases["edges-only"]
    assert m_diff(a, b, Config(theta=0)) == 0
    assert y_diff(a, b) == (40 * 50 - 32 * 48) * 255
    assert m_diff(*cases["theta-320"]) == 1


def test_diff_series_peak_memory_is_a_few_planes():
    rng = np.random.Generator(np.random.PCG64(5))
    seq = FrameSequence(
        frames=rng.integers(0, 256, size=(4, 1080, 1920), dtype=np.uint8),
        fps=30)
    tracemalloc.start()
    try:
        diff_series(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 1080 * 1920


def test_diff_series_scratch_is_bounded_by_bands_not_planes():
    rng = np.random.Generator(np.random.PCG64(6))
    seq = FrameSequence(
        frames=rng.integers(0, 256, size=(3, 1080, 1920), dtype=np.uint8),
        fps=30)
    tracemalloc.start()
    try:
        diff_series(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1080 * 1920 // 2  # the frames were made before tracing


def test_diff_series_takes_a_generator_and_consumes_it_once():
    seq = synth_moving_block(FrameDims(64, 32), 6, 16, 8, 200, 10)
    pulled = []

    def planes():
        for pos, plane in enumerate(seq):
            pulled.append(pos)
            yield plane

    stream = FrameStream(seq.dims, seq.fps, planes())
    series = diff_series(stream, with_ssim=True)
    assert pulled == list(range(6))
    assert list(stream) == []
    assert series == diff_series(seq, with_ssim=True)


@pytest.mark.parametrize("count", [0, 1])
def test_diff_series_of_a_stream_needs_two_frames(count):
    seq = synth_noise(FrameDims(16, 16), 2, seed=0, amplitude=10)
    stream = FrameStream(seq.dims, seq.fps, iter(seq.frames[:count]))
    with pytest.raises(TooFewFrames, match=f"got {count}"):
        diff_series(stream)


def test_diff_series_needs_two_frames():
    seq = synth_noise(FrameDims(16, 16), 1, seed=0, amplitude=10)
    with pytest.raises(TooFewFrames):
        diff_series(seq)


def test_diff_series_validation_bounds_m_diff():
    dims = FrameDims(64, 64)  # 16-block grid
    DiffSeries.from_m_diffs([0, 16], dims)
    with pytest.raises(ValueError):
        DiffSeries.from_m_diffs([17], dims)
    with pytest.raises(ValueError):
        DiffSeries(dims=dims, fps=30,
                   pairs=(PairDiff(m_diff=0, y_diff=-1),))
    with pytest.raises(ValueError):
        DiffSeries(dims=dims, fps=30, pairs=())


def test_pearson_hand_value_and_bounds():
    assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)
    rnd = random.Random(11)
    for _ in range(50):
        xs = [rnd.uniform(-5, 5) for _ in range(20)]
        ys = [rnd.uniform(-5, 5) for _ in range(20)]
        assert -1.0 <= pearson(xs, ys) <= 1.0


def test_pearson_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        pearson([1.0], [2.0])
    with pytest.raises(DegenerateInput):
        pearson([1, 2], [3, 4, 5])
    with pytest.raises(DegenerateInput):
        pearson([2, 2, 2], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        pearson([1, 2, 3], [7, 7, 7])


def test_linear_fit_recovers_exact_line():
    xs = [0, 1, 2, 3, 4]
    slope, intercept = linear_fit(xs, [2 * x + 1 for x in xs])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateInput):
        linear_fit([3, 3, 3], [1, 2, 3])


def test_regression_estimate_matches_fit_constants():
    assert regression_ssim_estimate(0) == pytest.approx(1.0063, abs=1e-12)
    assert regression_ssim_estimate(500) == pytest.approx(0.9983485, abs=1e-9)
    assert regression_ssim_estimate(1500) == pytest.approx(0.9824455, abs=1e-9)
    assert regression_ssim_estimate(3000) == pytest.approx(0.958591, abs=1e-9)
    assert regression_ssim_estimate(6000) == pytest.approx(0.910882, abs=1e-9)
    # the line slopes down: more changed blocks, less similarity
    assert regression_ssim_estimate(100) > regression_ssim_estimate(200)
