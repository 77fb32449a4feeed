import math
import random
from fractions import Fraction

import numpy as np
import pytest

from evso.errors import InvalidRate, ScheduleMismatch
from evso.frame_source import (
    FrameDims,
    read_y4m,
    synth_moving_block,
    synth_static,
)
from evso.fscheduler import ChunkRange, schedule
from evso.similarity import DiffSeries, diff_series
from evso.vprocessor import (
    decimate_uniform,
    hold_sequence,
    hold_stream,
    process,
    quality_report,
    restrict_to_chunks,
    retime_indices,
    segment_streams,
    snap_rate,
)


def test_snap_rate_recovers_decimal_rationals():
    assert snap_rate(30) == Fraction(30)
    assert snap_rate(Fraction(2, 3)) == Fraction(2, 3)
    assert snap_rate(12.9) == Fraction(129, 10)
    assert snap_rate(0.43 * 30.0) == Fraction(129, 10)
    with pytest.raises(InvalidRate):
        snap_rate(0)
    with pytest.raises(InvalidRate):
        snap_rate(-5.0)


def test_retime_full_rate_keeps_everything():
    assert retime_indices(10, Fraction(30), 30) == tuple(range(10))


def test_retime_half_rate_keeps_every_other_frame():
    assert retime_indices(8, Fraction(30), 15) == (0, 2, 4, 6)


def test_retime_rejects_upscaling():
    with pytest.raises(InvalidRate):
        retime_indices(10, Fraction(30), 31)


def test_retime_invariants_over_random_rates():
    rnd = random.Random(99)
    for _ in range(300):
        count = rnd.randint(1, 400)
        source = Fraction(rnd.choice([24, 25, 30, 60, Fraction(30000, 1001)]))
        target = Fraction(rnd.randint(1, int(source) * 10), 10)
        kept = retime_indices(count, source, target)
        assert retime_indices(count, source, float(target)) == kept
        ratio = target / source
        # t is kept iff [t*r, (t+1)*r) holds an integer, the least one
        # at or above t*r.
        assert kept == tuple(t for t in range(count)
                             if math.ceil(t * ratio) < (t + 1) * ratio)
        assert kept[0] == 0
        assert list(kept) == sorted(set(kept))
        assert kept[-1] < count
        assert len(kept) == math.ceil(count * ratio)
        assert len(kept) - count * ratio < 1


def test_retime_exact_counts_for_band_rates():
    for rate, expected in ((18.0, 180), (15.0, 150), (12.9, 129)):
        kept = retime_indices(300, Fraction(30), rate)
        assert len(kept) == expected


def test_process_static_clip_matches_scheduled_rates():
    seq = synth_static(FrameDims(64, 64), 300, 128, fps=30)
    sched = schedule(diff_series(seq))
    for profile, kept, rate in (("evso", 180, 18.0), ("evso_plus", 150, 15.0),
                                ("evso_plus_plus", 129, 12.9)):
        video = process(seq, sched, profile)
        assert video.kept_count == kept
        assert video.avg_frame_rate == pytest.approx(rate, abs=1e-9)
        assert video.chunks[0].kept_indices[0] == 0
    with pytest.raises(ScheduleMismatch):
        process(seq, sched, "mystery")


def test_process_rejects_mismatched_schedule():
    seq = synth_static(FrameDims(64, 64), 300, 128, fps=30)
    sched = schedule(diff_series(seq))
    shorter = synth_static(FrameDims(64, 64), 200, 128, fps=30)
    with pytest.raises(ScheduleMismatch):
        process(shorter, sched, "evso")
    other_rate = synth_static(FrameDims(64, 64), 300, 128, fps=24)
    with pytest.raises(ScheduleMismatch):
        process(other_rate, sched, "evso")


def test_process_keeps_first_frame_of_every_chunk():
    dims = FrameDims(1600, 1024)
    diffs = [0] * 49 + [6400] * 51 + [0] * 49
    series = DiffSeries.from_m_diffs(diffs, dims, 30)
    sched = schedule(series)
    seq = synth_static(dims, 150, 128, fps=30)
    video = process(seq, sched, "evso_plus_plus")
    assert [c.range for c in video.chunks] == [e.range for e in sched]
    for chunk in video.chunks:
        assert chunk.kept_indices[0] == chunk.range.start
        assert all(chunk.range.start <= i < chunk.range.end
                   for i in chunk.kept_indices)


def test_decimate_uniform_rates():
    seq = synth_static(FrameDims(16, 16), 300, 60, fps=30)
    full = decimate_uniform(seq, seq.fps)
    assert full.kept_count == 300
    assert full.avg_frame_rate == 30.0
    two_thirds = decimate_uniform(seq, seq.fps * Fraction(2, 3), "two_thirds")
    assert two_thirds.kept_count == 200
    assert two_thirds.avg_frame_rate == 20.0
    assert two_thirds.label == "two_thirds"


def test_restrict_to_chunks_partitions_kept_frames():
    seq = synth_static(FrameDims(16, 16), 30, 60, fps=30)
    flat = decimate_uniform(seq, 20)
    ranges = (ChunkRange(0, 12), ChunkRange(12, 30))
    cut = restrict_to_chunks(flat, ranges)
    assert cut.kept_indices == flat.kept_indices
    assert [c.range for c in cut.chunks] == list(ranges)
    for chunk in cut.chunks:
        assert all(chunk.range.start <= i < chunk.range.end
                   for i in chunk.kept_indices)


def test_segment_streams_round_trip():
    seq = synth_moving_block(FrameDims(64, 64), 40, 16, 8, 235, 16, fps=30)
    video = decimate_uniform(seq, 15)
    blobs = segment_streams(video, seq)
    assert len(blobs) == 1
    back = read_y4m(blobs[0])
    assert back.fps == Fraction(15)
    assert len(back) == video.kept_count
    for out_frame, src_index in zip(back, video.kept_indices):
        assert np.array_equal(out_frame, seq[src_index])


def test_hold_sequence_repeats_last_kept_frame():
    seq = synth_moving_block(FrameDims(64, 64), 10, 16, 16, 255, 0, fps=30)
    video = decimate_uniform(seq, 15)
    held = hold_sequence(video, seq)
    assert len(held) == 10
    assert held.fps == seq.fps
    kept = set(video.kept_indices)
    for pos in range(10):
        source = pos if pos in kept else max(i for i in kept if i < pos)
        assert np.array_equal(held[pos], seq[source])
        assert np.shares_memory(held[pos], seq[source])


def test_hold_stream_parses_at_source_rate():
    seq = synth_moving_block(FrameDims(64, 64), 12, 16, 8, 235, 16, fps=30)
    video = decimate_uniform(seq, 10)
    back = read_y4m(hold_stream(video, seq))
    assert len(back) == 12
    assert back.fps == Fraction(30)


def test_quality_report_static_clip_is_perfect():
    seq = synth_static(FrameDims(64, 64), 60, 128, fps=30)
    video = decimate_uniform(seq, 12.9)
    report = quality_report(video, seq)
    assert report.mean_ssim == 1.0
    assert report.mean_ssim_pct == 100.0
    assert report.kept_count == video.kept_count
    assert report.dropped_count == 60 - video.kept_count


def test_quality_report_motion_loses_similarity():
    seq = synth_moving_block(FrameDims(64, 64), 30, 16, 8, 235, 16, fps=30)
    video = decimate_uniform(seq, 10)
    report = quality_report(video, seq)
    assert report.mean_ssim < 1.0
    assert len(report.per_chunk_mean_ssim) == 1
    baseline = decimate_uniform(seq, 30)
    assert quality_report(baseline, seq).mean_ssim == 1.0


@pytest.mark.parametrize("ranges", [((0, 7), (7, 20)), ((7, 20), (0, 7))])
def test_quality_report_scores_only_dropped_frames_against_held_plane(
        monkeypatch, ranges):
    seq = synth_moving_block(FrameDims(64, 64), 20, 16, 8, 235, 16, fps=30)
    video = restrict_to_chunks(decimate_uniform(seq, 10),
                               tuple(ChunkRange(*r) for r in ranges))
    held = hold_sequence(video, seq)
    calls = []

    def fake_ssim(a, b):
        calls.append((a, b))
        return 0.5

    monkeypatch.setattr("evso.vprocessor.ssim", fake_ssim)
    report = quality_report(video, seq)
    kept = set(video.kept_indices)
    dropped = [pos for pos in range(20) if pos not in kept]
    assert len(calls) == len(dropped) == report.dropped_count
    scored = [pos for start, end in ranges for pos in range(start, end)
              if pos in dropped]
    for pos, (a, b) in zip(scored, calls):
        assert np.array_equal(a, held[pos])
        assert b is seq[pos]
    for (start, end), mean in zip(ranges, report.per_chunk_mean_ssim):
        scores = [0.5 if pos in dropped else 1.0 for pos in range(start, end)]
        assert mean == pytest.approx(sum(scores) / len(scores))
