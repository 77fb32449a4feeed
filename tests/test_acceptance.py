"""Acceptance suite: one test per shipped criterion.

Each test prints one [criterion NN] PASS/FAIL line (visible with pytest -s)
and carries the criterion number in its name, so a -v run reads as the
acceptance checklist.
"""

import json
import math
import random
import statistics
import time
import urllib.request
from fractions import Fraction

import numpy as np
import pytest

from evso import cli, empd, fscheduler, similarity, stream_sim, vprocessor
from evso.empd import AdaptationSet, EmpdManifest, EvsoLevel, Period, \
    Representation
from evso.frame_source import (
    FrameDims,
    FrameSequence,
    encode_y4m,
    standard_corpus,
    synth_moving_block,
    synth_static,
)
from evso.similarity import DiffSeries
from evso.stream_sim import BatteryLevel, TracePoint


def _verdict(number, description):
    def _print(ok):
        word = "PASS" if ok else "FAIL"
        print(f"[criterion {number:02d}] {word} {description}")
    class _Ctx:
        def __enter__(self):
            return self
        def __exit__(self, exc_type, exc, tb):
            _print(exc_type is None)
            return False
    return _Ctx()


# ---------------------------------------------------------------------------
# 1. Changed-macroblock counting matches a per-block reference exactly
# ---------------------------------------------------------------------------

def test_criterion_01_m_diff_matches_blockwise_reference():
    with _verdict(1, "m_diff equals per-block SAD threshold count"):
        rng = np.random.Generator(np.random.PCG64(20240814))
        cfg = fscheduler.Config()
        start = time.perf_counter()
        for _ in range(100):
            a = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
            b = a.copy()
            mask = rng.random((64, 64)) < rng.uniform(0.0, 0.05)
            b[mask] = rng.integers(0, 256, size=int(mask.sum()),
                                   dtype=np.uint8)
            reference = 0
            for r in range(4):
                for c in range(4):
                    sad = similarity.sad_y_macroblock(a, b, r, c)
                    reference += 1 if sad > cfg.theta else 0
            assert similarity.m_diff(a, b, cfg) == reference
        assert time.perf_counter() - start < 5.0

        # threshold is strictly greater-than
        a = np.zeros((16, 16), dtype=np.uint8)
        b = np.zeros((16, 16), dtype=np.uint8)
        b[:4, :16] = 5  # SAD exactly 320
        assert similarity.m_diff(a, b, cfg) == 0

        # worked example: bouncing 16px block moves one block per frame
        seq = synth_moving_block(FrameDims(64, 64), 10, 16, 16, 255, 0)
        series = similarity.diff_series(seq)
        assert series.m_diffs == (2,) * 9


# ---------------------------------------------------------------------------
# 2. Default configuration is reproduced byte for byte
# ---------------------------------------------------------------------------

_CONFIG_TEXT = """{
  "theta": 320,
  "alpha": 3000,
  "beta": 15000,
  "k_window": 10,
  "taus": [500, 1500, 3000, 6000],
  "delta": 0.0001,
  "profiles": {"evso": [0.6, 0.83, 0.9, 0.93, 1], "evso_plus": [0.5, 0.73, 0.83, 0.9, 1], "evso_plus_plus": [0.43, 0.6, 0.7, 0.8, 0.93]}
}"""


def test_criterion_02_default_config_text(capsys):
    with _verdict(2, "--show-config prints the canonical defaults"):
        assert cli.main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == _CONFIG_TEXT


# ---------------------------------------------------------------------------
# 3. The fitted diff-to-similarity line hits its checkpoints
# ---------------------------------------------------------------------------

def test_criterion_03_regression_checkpoints():
    with _verdict(3, "regression estimate matches published checkpoints"):
        checkpoints = ((500, 0.9983485, 0.99), (1500, 0.9824455, 0.98),
                       (3000, 0.958591, 0.95), (6000, 0.910882, 0.91))
        for d, exact, rounded in checkpoints:
            value = similarity.regression_ssim_estimate(d)
            assert value == pytest.approx(exact, abs=1e-9)
            assert abs(value - rounded) < 0.01


# ---------------------------------------------------------------------------
# 4. Splitting is sound, complete, and respects the minimum chunk length
# ---------------------------------------------------------------------------

def _reference_split(m_diffs, frame_count, gamma, alpha, beta, k=10):
    """Direct transcription of the split rule, kept separate on purpose."""
    starts = [0]
    for n in range(k, frame_count):
        window = m_diffs[n - k + 1:n]
        mean = sum(window) / k
        sigma = math.sqrt(sum((d - mean) ** 2 for d in window) / (k - 1))
        triggered = sigma > alpha or m_diffs[n - 1] > beta
        if triggered and Fraction(n - starts[-1]) > gamma:
            starts.append(n)
    return starts + [frame_count]


def _random_m_diffs(rnd, grid, count):
    diffs = []
    level = 0
    for _ in range(count):
        if rnd.random() < 0.05:
            level = rnd.randint(0, grid)
        value = max(0, min(grid, level + rnd.randint(-grid // 20, grid // 20)))
        if rnd.random() < 0.02:
            value = grid  # spike
        diffs.append(value)
    return diffs


def test_criterion_04_split_invariants_randomized():
    with _verdict(4, "split partitions exactly and every cut is justified"):
        rnd = random.Random(0xE5)
        cfg = fscheduler.Config()
        dims_pool = [FrameDims(640, 480), FrameDims(1600, 1024),
                     FrameDims(2560, 1600)]
        gammas = [Fraction(10), Fraction(24), Fraction(30),
                  Fraction(30000, 1001)]
        start = time.perf_counter()
        for _ in range(500):
            dims = rnd.choice(dims_pool)
            gamma = rnd.choice(gammas)
            grid = dims.mb_rows * dims.mb_cols
            pair_count = rnd.randint(30, 350)
            diffs = _random_m_diffs(rnd, grid, pair_count)
            series = DiffSeries.from_m_diffs(diffs, dims, 30)
            plan = fscheduler.split(series, gamma=gamma, config=cfg)

            bounds = [c.start for c in plan] + [plan[-1].end]
            assert bounds == _reference_split(
                diffs, series.frame_count, gamma, cfg.alpha, cfg.beta)

            # exact cover, contiguity, and minimum length for non-final chunks
            assert plan[0].start == 0
            assert plan[-1].end == series.frame_count
            for prev, cur in zip(plan, plan[1:]):
                assert cur.start == prev.end
            for chunk in plan[:-1]:
                assert Fraction(chunk.frame_count) > gamma

            # soundness and completeness of every cut decision
            split_points = {c.start for c in plan[1:]}
            chunk_start = 0
            for n in range(cfg.k_window, series.frame_count):
                eligible = Fraction(n - chunk_start) > gamma
                fired = fscheduler.est(series, n, chunk_start, gamma, cfg)
                if n in split_points:
                    assert fired and eligible
                    chunk_start = n
                else:
                    assert not (fired and eligible)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 5. The per-pair rate map steps at the band boundaries, inclusively
# ---------------------------------------------------------------------------

def test_criterion_05_rate_bands_and_clamping():
    with _verdict(5, "rate bands step inclusively and chunk rates stay in (0, gamma]"):
        profiles = fscheduler.default_profiles()
        gamma = Fraction(30)
        table = {
            "evso": (18.0, 24.9, 27.0, 27.9, 30.0),
            "evso_plus": (15.0, 21.9, 24.9, 27.0, 30.0),
            "evso_plus_plus": (12.9, 18.0, 21.0, 24.0, 27.9),
        }
        probes = ((0, 0), (499, 0), (500, 1), (1499, 1), (1500, 2), (2999, 2),
                  (3000, 3), (5999, 3), (6000, 4), (10 ** 6, 4))
        for name, expected in table.items():
            for d, band in probes:
                assert fscheduler.epf(d, profiles[name], gamma) == \
                    pytest.approx(expected[band], abs=1e-9), (name, d)

        for d in (0, 499, 500, 1499, 1500, 2999, 3000, 5999, 6000, 9000):
            low = fscheduler.epf(d, profiles["evso_plus_plus"], gamma)
            mid = fscheduler.epf(d, profiles["evso_plus"], gamma)
            high = fscheduler.epf(d, profiles["evso"], gamma)
            assert low <= mid <= high

        rnd = random.Random(55)
        dims = FrameDims(2560, 1600)
        for _ in range(200):
            diffs = [rnd.randint(0, 16000)
                     for _ in range(rnd.randint(2, 80))]
            series = DiffSeries.from_m_diffs(diffs, dims, 30)
            chunk = fscheduler.ChunkRange(0, len(diffs) + 1)
            for profile in profiles.values():
                rate = fscheduler.evf(series, chunk, profile, gamma)
                assert 0.0 < rate <= float(gamma)


# ---------------------------------------------------------------------------
# 6. A still clip schedules at the lowest band and reconstructs losslessly
# ---------------------------------------------------------------------------

def test_criterion_06_static_clip_schedule_and_reconstruction():
    with _verdict(6, "still clip: exact lowest-band rates and 100% quality"):
        seq = synth_static(FrameDims(64, 64), 300, 128, fps=30)
        sched = fscheduler.schedule(similarity.diff_series(seq))
        assert len(sched) == 1
        rates = sched.entries[0].rates
        assert rates["evso"] == pytest.approx(18.0, abs=1e-9)
        assert rates["evso_plus"] == pytest.approx(15.0, abs=1e-9)
        assert rates["evso_plus_plus"] == pytest.approx(12.9, abs=1e-9)

        for profile, kept, rate in (("evso", 180, 18.0),
                                    ("evso_plus", 150, 15.0),
                                    ("evso_plus_plus", 129, 12.9)):
            video = vprocessor.process(seq, sched, profile)
            assert video.kept_count == kept
            assert video.avg_frame_rate == pytest.approx(rate, abs=1e-9)
            report = vprocessor.quality_report(video, seq)
            assert report.mean_ssim_pct == 100.0


# ---------------------------------------------------------------------------
# 7. Changed-block counts anticorrelate with structural similarity
# ---------------------------------------------------------------------------

def test_criterion_07_diff_similarity_correlation():
    with _verdict(7, "mixed corpus: diff vs similarity correlation <= -0.5"):
        start = time.perf_counter()
        diffs = []
        ssims = []
        for seq in standard_corpus():
            series = similarity.diff_series(seq, with_ssim=True)
            for pair in series.pairs:
                diffs.append(pair.m_diff)
                ssims.append(pair.ssim)
        assert len(diffs) == 232
        r = similarity.pearson(diffs, ssims)
        assert r <= -0.5
        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 8. Scheduled retiming beats uniform decimation at equal or lower rate
# ---------------------------------------------------------------------------

def _transition_clip():
    dims = FrameDims(1600, 1024)
    rng = np.random.Generator(np.random.PCG64(42))
    static = np.full((dims.height, dims.width), 128, dtype=np.uint8)
    noise = rng.integers(0, 256, size=(50, dims.height, dims.width),
                         dtype=np.uint8)
    planes = [static] * 50 + list(noise) + [static] * 50
    return FrameSequence(frames=planes, fps=Fraction(30))


def test_criterion_08_quality_beats_uniform_decimation():
    with _verdict(8, "scheduled retiming beats 2/3-rate decimation on quality"):
        seq = _transition_clip()
        series = similarity.diff_series(seq)
        sched = fscheduler.schedule(series)
        assert [tuple(e.range) for e in sched] == [(0, 52), (52, 103),
                                                   (103, 150)]

        scheduled = vprocessor.process(seq, sched, "evso_plus_plus")
        uniform = vprocessor.decimate_uniform(seq, seq.fps * Fraction(2, 3))
        assert uniform.avg_frame_rate == pytest.approx(20.0, abs=1e-9)
        assert scheduled.avg_frame_rate <= uniform.avg_frame_rate

        scheduled_q = vprocessor.quality_report(scheduled, seq)
        uniform_q = vprocessor.quality_report(uniform, seq)
        assert scheduled_q.mean_ssim > uniform_q.mean_ssim


# ---------------------------------------------------------------------------
# 9. Manifests survive serialize/parse round trips; stock DASH still parses
# ---------------------------------------------------------------------------

def _random_manifest(rnd):
    mimes = ("video/mp4", "video/x-yuv4mpeg")
    periods = []
    for _ in range(rnd.randint(1, 2)):
        levels = rnd.sample(list(EvsoLevel), rnd.randint(1, 4))
        sets = []
        for level in levels:
            reps = []
            for j in range(rnd.randint(1, 3)):
                urls = tuple(f"{level.value}/{j}/{i}.y4m"
                             for i in range(rnd.randint(0, 5)))
                has_dims = rnd.random() < 0.5
                reps.append(Representation(
                    id=f"{level.value}-{j}",
                    bandwidth=rnd.randint(0, 10 ** 7),
                    segment_urls=urls,
                    width=rnd.randint(16, 4096) if has_dims else None,
                    height=rnd.randint(16, 2160) if has_dims else None,
                    mime_type=rnd.choice(mimes),
                ))
            sets.append(AdaptationSet(evso_level=level,
                                      representations=tuple(reps)))
        duration = Fraction(rnd.randint(0, 10 ** 4),
                            rnd.choice([1, 2, 4, 5, 8, 10, 16, 20, 25]))
        periods.append(Period(duration_seconds=duration,
                              adaptation_sets=tuple(sets)))
    return EmpdManifest(periods=tuple(periods))


def test_criterion_09_manifest_round_trip_randomized():
    with _verdict(9, "200 random manifests round-trip; stock DASH parses"):
        rnd = random.Random(0x909)
        for _ in range(200):
            manifest = _random_manifest(rnd)
            data = empd.serialize_xml(manifest)
            assert empd.serialize_xml(manifest) == data
            assert empd.parse_xml(data) == manifest

        stock = b"""<?xml version="1.0"?>
        <MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static">
          <Period duration="PT60S">
            <AdaptationSet contentType="video">
              <Representation id="v" bandwidth="100">
                <SegmentList><SegmentURL media="s0.m4s"/></SegmentList>
              </Representation>
            </AdaptationSet>
          </Period>
        </MPD>"""
        parsed = empd.parse_xml(stock)
        assert parsed.video_sets()[0].evso_level is EvsoLevel.BASELINE


# ---------------------------------------------------------------------------
# 10. Served sessions switch level exactly where the battery trace says
# ---------------------------------------------------------------------------

def _battery_demo_clip():
    dims = FrameDims(64, 64)
    rng = np.random.Generator(np.random.PCG64(7))
    static = np.full((dims.height, dims.width), 96, dtype=np.uint8)
    noise = rng.integers(0, 256, size=(30, dims.height, dims.width),
                         dtype=np.uint8)
    planes = [static] * 30 + list(noise) + [static] * 30
    return FrameSequence(frames=planes, fps=Fraction(30))


def test_criterion_10_streaming_session_end_to_end(tmp_path):
    with _verdict(10, "HTTP session switches level at the traced segment"):
        clip_path = tmp_path / "clip.y4m"
        seq = _battery_demo_clip()
        clip_path.write_bytes(encode_y4m(list(seq), seq.fps))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 5}))
        outdir = tmp_path / "tree"
        assert cli.main(["--config", str(cfg_path), "pipeline",
                         str(clip_path), str(outdir)]) == 0

        with stream_sim.serve(outdir) as handle:
            manifest = empd.parse_xml(
                urllib.request.urlopen(handle.url + "manifest.mpd").read())
            assert stream_sim.segment_count(manifest) == 3
            trace = [TracePoint(0, 10 ** 9, BatteryLevel.HIGH),
                     TracePoint(1, 10 ** 9, BatteryLevel.LOW)]
            log = stream_sim.simulate_session(manifest, trace)
            assert [row.selected_level for row in log.rows] == [
                EvsoLevel.HIGH, EvsoLevel.LOW, EvsoLevel.LOW]
            for row in log.rows:
                served = urllib.request.urlopen(
                    handle.url + row.segment_url).read()
                on_disk = (outdir / row.segment_url).read_bytes()
                assert served == on_disk and len(served) > 0


# ---------------------------------------------------------------------------
# 11. Scheduling adds under 5% on top of measuring a long HD clip
# ---------------------------------------------------------------------------

def test_criterion_11_scheduling_overhead_is_marginal():
    with _verdict(11, "split+schedule under 5% of diff measurement time"):
        seq = synth_moving_block(FrameDims(1280, 720), 1800, 64, 8, 235, 16,
                                 fps=30)
        t0 = time.perf_counter()
        series = similarity.diff_series(seq)
        t_measure = time.perf_counter() - t0
        assert series.frame_count == 1800

        t1 = time.perf_counter()
        sched = fscheduler.schedule(series)
        t_schedule = time.perf_counter() - t1

        assert sched.frame_count == 1800
        assert t_schedule < 0.05 * t_measure
