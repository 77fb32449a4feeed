import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from evso.errors import ChunkTooSmall, WindowOutOfRange
from evso.fscheduler import (
    ChunkRange,
    ChunkScheduleEntry,
    Config,
    DiffSeries,
    FrameDims,
    PairDiff,
    RateSchedule,
    as_fps,
    chunk_sigma,
    default_profiles,
    epf,
    est,
    evf,
    rolling_stats,
    schedule,
    split,
)

BIG = FrameDims(2560, 1600)  # 16000-block grid, lets diffs clear beta
MID = FrameDims(1600, 1024)  # 6400-block grid


def _series(m_diffs, dims=MID, fps=30):
    return DiffSeries.from_m_diffs(m_diffs, dims, fps)


def test_diff_series_normalizes_fps_like_a_frame_sequence():
    series = DiffSeries(dims=MID, fps="30000/1001", pairs=(PairDiff(0, 0),))
    assert series.fps == Fraction(30000, 1001)
    assert type(series.fps) is Fraction
    assert DiffSeries.from_m_diffs([0], MID, 29.97).fps == Fraction(2997, 100)
    for bad in (0, "1/0", True):
        with pytest.raises((TypeError, ValueError)):
            DiffSeries(dims=MID, fps=bad, pairs=(PairDiff(0, 0),))


def test_as_fps_rejects_rates_no_float_holds():
    for bad in (Fraction(10 ** 400), Fraction(1, 10 ** 400), "1e999",
                "1e-999"):
        with pytest.raises(ValueError, match="fit a float"):
            as_fps(bad)
    assert as_fps(Fraction(10 ** 300)) == 10 ** 300


def test_as_fps_bounds_a_decimal_exponent_before_expanding_it():
    start = time.perf_counter()
    for huge in ("1e-9999999999999", "1e9999999999999", "1e99999999999999999999"):
        with pytest.raises(ValueError, match="fit a float"):
            as_fps(huge)
    assert time.perf_counter() - start < 0.5
    for text, rate in (("29.97", Fraction(2997, 100)), (" 25 ", 25),
                       ("2.5E+1", 25), ("1_0", 10), (".5", Fraction(1, 2)),
                       ("30000/1001", Fraction(30000, 1001))):
        assert as_fps(text) == rate and type(as_fps(text)) is Fraction
    for bad in ("inf", "nan", "1_", "_1", "1__0", "1._5", "1e", "0e-99999999"):
        with pytest.raises(ValueError):
            as_fps(bad)


def test_split_and_schedule_take_gamma_as_any_rate_as_fps_accepts():
    series = _series([0] * 40)
    for run in (split, schedule):
        with pytest.raises(TypeError):
            run(series, gamma=True)
        with pytest.raises(ValueError):
            run(series, gamma="1e999")
        with pytest.raises(ValueError):
            run(series, gamma=0)
    assert schedule(series, gamma=29.97).gamma == Fraction(2997, 100)
    assert schedule(series, gamma="25").gamma == Fraction(25)
    assert split(series, gamma="30000/1001") == (ChunkRange(0, 41),)


def test_rolling_stats_all_equal_window():
    mean, sigma = rolling_stats([100] * 20, 10)
    assert mean == pytest.approx(90.0, abs=1e-12)
    assert sigma == pytest.approx(10.0, abs=1e-12)


def test_rolling_stats_matches_naive_reference():
    rnd = random.Random(3)
    diffs = [rnd.randint(0, 6400) for _ in range(40)]
    for n in range(10, 41):
        window = diffs[n - 9:n]
        mean = sum(window) / 10
        sigma = math.sqrt(sum((d - mean) ** 2 for d in window) / 9)
        got_mean, got_sigma = rolling_stats(diffs, n)
        assert got_mean == pytest.approx(mean, rel=1e-12)
        assert got_sigma == pytest.approx(sigma, rel=1e-12)


def test_rolling_stats_window_bounds():
    diffs = [0] * 15
    rolling_stats(diffs, 10)
    rolling_stats(diffs, 15)
    with pytest.raises(WindowOutOfRange):
        rolling_stats(diffs, 9)
    with pytest.raises(WindowOutOfRange):
        rolling_stats(diffs, 16)


def test_est_requires_chunk_longer_than_gamma():
    # variance stays high while the window straddles the 0-to-6400 step
    diffs = [0] * 49 + [6400] * 51 + [0] * 49
    series = _series(diffs)
    gamma = Fraction(52)
    assert not est(series, 52, 0, gamma)  # sigma > alpha but T == gamma
    assert est(series, 53, 0, gamma)      # one frame later T > gamma


def test_split_static_input_yields_single_chunk():
    plan = split(_series([0] * 299))
    assert list(plan) == [ChunkRange(0, 300)]


def test_split_transition_fixture_cuts_at_traced_frames():
    diffs = [0] * 49 + [6400] * 51 + [0] * 49
    plan = split(_series(diffs), gamma=Fraction(30))
    assert list(plan) == [ChunkRange(0, 52), ChunkRange(52, 103),
                          ChunkRange(103, 150)]


def test_split_beta_spike_triggers_cut():
    # isolate the spike clause by raising alpha out of reach
    cfg = Config(alpha=10 ** 9)
    diffs = [0] * 200
    diffs[59] = 15001  # pair (59, 60) strictly above beta
    plan = split(_series(diffs, dims=BIG), gamma=Fraction(30), config=cfg)
    assert list(plan) == [ChunkRange(0, 60), ChunkRange(60, 201)]
    # equality with beta must not split
    diffs[59] = 15000
    plan = split(_series(diffs, dims=BIG), gamma=Fraction(30), config=cfg)
    assert list(plan) == [ChunkRange(0, 201)]


def test_split_spike_inside_minimum_length_is_suppressed():
    cfg = Config(alpha=10 ** 9)
    diffs = [0] * 200
    diffs[19] = 15001  # would cut at frame 20, but T=20 is not > 30
    plan = split(_series(diffs, dims=BIG), gamma=Fraction(30), config=cfg)
    assert list(plan) == [ChunkRange(0, 201)]


def test_split_short_series_has_no_candidates():
    plan = split(_series([6400] * 8), gamma=Fraction(2))
    assert list(plan) == [ChunkRange(0, 9)]


def test_split_time_is_linear_in_series_length():
    # A beta spike every 97 pairs; each one cuts a chunk at the next frame.
    rnd = random.Random(5)
    diffs = [16000 if i % 97 == 0 else rnd.randint(0, 500)
             for i in range(20000)]
    series = _series(diffs, dims=BIG)
    start = time.perf_counter()
    plan = split(series, gamma=Fraction(30))
    assert time.perf_counter() - start < 2.0
    assert [c.start for c in plan][1:] == list(range(98, 20001, 97))


def _rated(*ranges):
    return tuple(ChunkScheduleEntry(range=ChunkRange(*r), sigma=0.0,
                                    rates={"evso": 15.0}) for r in ranges)


def test_rate_schedule_refuses_chunks_that_do_not_tile_the_clip():
    with pytest.raises(ValueError, match="not contiguous"):
        RateSchedule(entries=_rated((0, 5), (6, 10)), frame_count=10,
                     fps=30, gamma=30)
    with pytest.raises(ValueError, match="do not span"):
        RateSchedule(entries=_rated((0, 5)), frame_count=10, fps=30, gamma=30)
    with pytest.raises(ChunkTooSmall, match="is empty"):
        RateSchedule(entries=_rated((0, 0), (0, 10)), frame_count=10,
                     fps=30, gamma=30)
    with pytest.raises(ValueError, match="at least one chunk"):
        RateSchedule(entries=(), frame_count=10, fps=30, gamma=30)


def test_epf_band_boundaries_are_inclusive_below():
    profiles = default_profiles()
    gamma = Fraction(30)
    cases = {
        "evso": [(0, 18.0), (499, 18.0), (500, 24.9), (1499, 24.9),
                 (1500, 27.0), (2999, 27.0), (3000, 27.9), (5999, 27.9),
                 (6000, 30.0), (10 ** 6, 30.0)],
        "evso_plus_plus": [(0, 12.9), (500, 18.0), (1500, 21.0),
                           (3000, 24.0), (6000, 27.9)],
    }
    for name, expectations in cases.items():
        for d, expected in expectations:
            assert epf(d, profiles[name], gamma) == pytest.approx(
                expected, abs=1e-9), (name, d)


def test_epf_profiles_order_by_aggressiveness():
    profiles = default_profiles()
    gamma = Fraction(30)
    for d in (0, 499, 500, 1500, 2999, 3000, 6000, 7000):
        high = epf(d, profiles["evso"], gamma)
        medium = epf(d, profiles["evso_plus"], gamma)
        low = epf(d, profiles["evso_plus_plus"], gamma)
        assert low <= medium <= high


def test_chunk_sigma_values_and_errors():
    series = _series([0, 1000, 0, 0])
    assert chunk_sigma(series, ChunkRange(0, 3)) == pytest.approx(
        statistics.stdev([0, 1000]), rel=1e-12)
    assert chunk_sigma(series, ChunkRange(0, 2)) == 0.0
    with pytest.raises(ChunkTooSmall):
        chunk_sigma(series, ChunkRange(2, 3))


def test_evf_static_chunk_hits_band_rate_exactly():
    series = _series([0] * 299)
    profile = default_profiles()["evso"]
    assert evf(series, ChunkRange(0, 300), profile,
               Fraction(30)) == pytest.approx(18.0, abs=1e-12)


def test_evf_never_exceeds_playback_rate():
    # all pairs in the top band plus large variance pushes past the cap
    series = _series([6000, 16000] * 50, dims=BIG)
    profile = default_profiles()["evso"]
    assert evf(series, ChunkRange(0, 100), profile, Fraction(30)) == 30.0
    rnd = random.Random(17)
    for _ in range(50):
        diffs = [rnd.randint(0, 16000) for _ in range(rnd.randint(2, 60))]
        series = _series(diffs, dims=BIG)
        chunk = ChunkRange(0, len(diffs) + 1)
        for profile in default_profiles().values():
            rate = evf(series, chunk, profile, Fraction(30))
            assert 0.0 < rate <= 30.0


def test_evf_adds_scaled_deviation():
    series = _series([0, 1000, 0, 0])
    profile = default_profiles()["evso_plus_plus"]
    chunk = ChunkRange(0, 4)
    base = (12.9 + 18.0 + 12.9) / 3
    expected = base + 0.0001 * statistics.stdev([0, 1000, 0])
    assert evf(series, chunk, profile, Fraction(30)) == pytest.approx(
        expected, rel=1e-12)


def test_rate_profile_validation():
    ok = Config(profiles={"ok": [0.4, 0.5, 0.6, 0.7, 1]})
    assert ok.profiles == {"ok": (0.4, 0.5, 0.6, 0.7, 1)}
    with pytest.raises(ValueError, match="profile short: need 5 factors"):
        Config(profiles={"short": (0.5, 0.6, 0.7, 1)})
    with pytest.raises(ValueError, match="profile drops: factors must not"):
        Config(profiles={"drops": (0.5, 0.4, 0.6, 0.7, 1)})
    with pytest.raises(ValueError, match="profile big: factors outside"):
        Config(profiles={"big": (0.5, 0.6, 0.7, 0.8, 1.1)})
    with pytest.raises(ValueError, match="profile zero: factors outside"):
        Config(profiles={"zero": (0, 0.6, 0.7, 0.8, 1)})


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        Config(taus=(500, 1500, 3000))
    with pytest.raises(ValueError):
        Config(taus=(500, 400, 3000, 6000))
    for bad in ({"delta": -0.1}, {"theta": -1}, {"k_window": 1},
                {"alpha": -1}, {"beta": -1}):
        with pytest.raises(ValueError):
            Config(**bad)


def test_schedule_static_clip_rates():
    sched = schedule(_series([0] * 299, dims=FrameDims(64, 64)))
    assert len(sched) == 1
    entry = sched.entries[0]
    assert entry.range == ChunkRange(0, 300)
    assert entry.sigma == 0.0
    assert entry.rates["evso"] == pytest.approx(18.0, abs=1e-9)
    assert entry.rates["evso_plus"] == pytest.approx(15.0, abs=1e-9)
    assert entry.rates["evso_plus_plus"] == pytest.approx(12.9, abs=1e-9)


def test_one_config_sets_both_the_cuts_and_the_rates():
    series = _series([0] * 49 + [6400] * 51 + [0] * 49)
    assert [tuple(e.range) for e in schedule(series)] == [
        (0, 52), (52, 103), (103, 150)]
    assert [tuple(e.range) for e in schedule(series, config=Config(
        k_window=40))] == [(0, 62), (62, 113), (113, 150)]
    # Cuts only on pairs above beta; 6400 falls in the fourth band.
    cfg = Config(alpha=10 ** 9, beta=6399, taus=(1, 2, 3, 6401), delta=0.001,
                 profiles={"evso": (0.5, 0.6, 0.7, 0.8, 0.9)})
    sched = schedule(series, config=cfg)
    assert [tuple(e.range) for e in sched] == [(0, 50), (50, 81), (81, 150)]
    last = [6400] * 19 + [0] * 49
    assert [e.rates for e in sched] == [
        {"evso": 15.0}, {"evso": 24.0},
        {"evso": pytest.approx((19 * 24.0 + 49 * 15.0) / 68
                               + 0.001 * statistics.stdev(last), rel=1e-12)}]


def test_schedule_transition_fixture_rates_capped():
    diffs = [0] * 49 + [6400] * 51 + [0] * 49
    sched = schedule(_series(diffs))
    assert [tuple(e.range) for e in sched] == [(0, 52), (52, 103), (103, 150)]
    for entry in sched:
        for rate in entry.rates.values():
            assert 0.0 < rate <= 30.0
    # middle chunk pairs: 48 noise diffs in the top band, 2 quiet tail diffs
    middle = sched.entries[1]
    inside = diffs[52:102]
    assert sorted(inside, reverse=True) == [6400] * 48 + [0, 0]
    assert middle.sigma == pytest.approx(statistics.stdev(inside), rel=1e-12)
    expected_evso = (48 * 30.0 + 2 * 18.0) / 50 + 0.0001 * middle.sigma
    assert middle.rates["evso"] == pytest.approx(expected_evso, rel=1e-12)
    expected_low = (48 * 27.9 + 2 * 12.9) / 50 + 0.0001 * middle.sigma
    assert middle.rates["evso_plus_plus"] == pytest.approx(
        expected_low, rel=1e-12)


def test_schedule_rates_one_frame_final_chunk_from_entering_pair():
    series = _series([0] * 358 + [16000], dims=BIG)
    assert list(split(series)) == [ChunkRange(0, 359), ChunkRange(359, 360)]
    sched = schedule(series)
    last = sched.entries[-1]
    assert last.range == ChunkRange(359, 360)
    assert last.sigma == 0.0
    assert last.rates["evso"] == pytest.approx(30.0, abs=1e-9)
    assert last.rates["evso_plus_plus"] == pytest.approx(27.9, abs=1e-9)
    assert sched.entries[0].rates["evso"] == pytest.approx(18.0, abs=1e-9)
    with pytest.raises(ChunkTooSmall):
        evf(series, last.range, default_profiles()["evso"], Fraction(30))


def test_diff_series_refuses_counts_that_are_not_ints():
    for bad in ([3.7, 1, 2], [3.0, 1], [True, 2], [1, False]):
        with pytest.raises(TypeError):
            DiffSeries.from_m_diffs(bad, MID)
    for bad in (3.7, 2.0, True):
        with pytest.raises(TypeError):
            DiffSeries(dims=MID, fps=30, pairs=[PairDiff(bad, 0), PairDiff(2, 0)])
    numpy = pytest.importorskip("numpy")
    series = DiffSeries.from_m_diffs(numpy.array([3, 1, 2]), MID)
    assert series.m_diffs == (3, 1, 2)
    assert all(type(d) is int for d in series.m_diffs)
    assert _series(d for d in (4, 5)).m_diffs == (4, 5)


@pytest.mark.parametrize("key", ["theta", "alpha", "beta", "delta"])
def test_config_refuses_nan(key):
    with pytest.raises(ValueError):
        Config(**{key: math.nan})
    if key != "theta":
        Config(**{key: math.inf})


def _est_split(series, gamma, cfg):
    starts = [0]
    for n in range(cfg.k_window, series.frame_count):
        if est(series, n, starts[-1], gamma, cfg):
            starts.append(n)
    return starts + [series.frame_count]


def test_split_cuts_equal_est_and_the_reference_near_alpha():
    from test_acceptance import _random_m_diffs, _reference_split
    rnd = random.Random(36)
    gammas = (Fraction(30000, 1001), Fraction(1, 3), Fraction(7, 2))
    for trial in range(400):
        count = rnd.randint(1, 120)
        diffs = _random_m_diffs(rnd, 16000, count)
        k = rnd.randint(2, count + 3)
        gamma = rnd.choice(gammas)
        alpha, beta = rnd.choice((3000, 0, math.inf)), rnd.choice((15000, math.inf))
        if count >= k and trial % 2:
            # alpha at one window's own float sigma, or one ulp either side
            _, sigma = rolling_stats(diffs, rnd.randint(k, count),
                                     Config(k_window=k))
            alpha = rnd.choice((sigma, math.nextafter(sigma, 0),
                                math.nextafter(sigma, math.inf)))
        cfg = Config(alpha=alpha, beta=beta, k_window=k)
        series = _series(diffs, dims=BIG)
        bounds = [c.start for c in split(series, gamma, cfg)] + [count + 1]
        assert bounds == _est_split(series, gamma, cfg)
        assert bounds == _reference_split(diffs, count + 1, gamma, alpha, beta, k)


def test_split_restarts_its_sums_after_a_jump():
    # Cuts right after each jump: every window after a cut is the first the
    # sliding sums see, so a stale sum would move the next cut.
    diffs = ([0] * 5 + [6400] * 5) * 20
    cfg = Config(k_window=4, alpha=100)
    series = _series(diffs)
    for gamma in (Fraction(1, 3), Fraction(7, 2), Fraction(4)):
        bounds = [c.start for c in split(series, gamma, cfg)] + [201]
        assert len(bounds) > 20
        assert bounds == _est_split(series, gamma, cfg)


def test_split_decides_far_windows_without_rolling_stats(monkeypatch):
    from evso import fscheduler
    calls = []
    monkeypatch.setattr(fscheduler, "rolling_stats",
                        lambda *args: calls.append(args) or rolling_stats(*args))
    rnd = random.Random(1)
    levels = (250, 1000, 2200, 4500, 11000, 250) * 8
    diffs = [level + rnd.randint(-40, 40) for level in levels for _ in range(60)]
    diffs[335] = 15500  # a beta spike inside the second band-0 run
    series = _series(diffs, dims=BIG)
    assert len(split(series)) > 8
    assert calls == []
    # The first window split visits, at frame 31, has alpha as its sigma:
    # that near-tie goes to the float rule.
    _, sigma = rolling_stats(diffs, 31)
    split(series, config=Config(alpha=sigma))
    assert calls


def test_schedule_rates_equal_a_per_profile_epf_reference():
    rnd = random.Random(7)
    for _ in range(60):
        count = rnd.randint(2, 300)
        diffs = [rnd.choice((0, 499, 500, 1500, 2999, 6000, 16000))
                 if rnd.random() < 0.2 else rnd.randint(0, 16000)
                 for _ in range(count)]
        cfg = Config(alpha=rnd.choice((500, 3000)), beta=rnd.choice((9000, 15000)),
                     k_window=rnd.randint(2, 12), delta=rnd.choice((0, 0.0001, 0.3)))
        gamma = rnd.choice((Fraction(30), Fraction(30000, 1001), Fraction(7, 2)))
        series = _series(diffs, dims=BIG)
        for entry in schedule(series, gamma, cfg):
            rated = (entry.range if entry.range.frame_count > 1
                     else ChunkRange(entry.range.start - 1, entry.range.end))
            values = diffs[rated.start:rated.end - 1]
            sigma = chunk_sigma(series, rated)
            assert entry.sigma == sigma
            for name, factors in cfg.profiles.items():
                mean = sum(epf(d, factors, gamma, cfg.taus) for d in values) / len(values)
                assert entry.rates[name] == min(mean + cfg.delta * sigma, float(gamma))
                assert evf(series, rated, factors, gamma, cfg) == entry.rates[name]
