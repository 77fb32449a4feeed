import io
import socket
import urllib.error
import urllib.request
from fractions import Fraction

import pytest

from evso.empd import (
    AdaptationSet,
    EmpdManifest,
    EvsoLevel,
    Period,
    Representation,
)
from evso.errors import (
    BindFailure,
    InvariantViolation,
    MissingManifest,
    NoVideoSets,
)
from evso.stream_sim import (
    BatteryLevel,
    ClientState,
    LEVEL_FOR_BATTERY,
    SessionLog,
    TracePoint,
    load_trace,
    parse_battery,
    segment_count,
    select_representation,
    serve,
    simulate_session,
)


def _video_set(level, reps):
    return AdaptationSet(content_type="video", evso_level=level,
                         representations=tuple(reps))


def _manifest(sets):
    return EmpdManifest(periods=(
        Period(duration_seconds=Fraction(10), adaptation_sets=tuple(sets)),))


def _simple_manifest(levels, bandwidth=1000, segments=3):
    sets = [
        _video_set(level, [Representation(
            id=level.value, bandwidth=bandwidth,
            segment_urls=tuple(f"{level.value}/{i}.y4m"
                               for i in range(segments)))])
        for level in levels
    ]
    return _manifest(sets)


def test_battery_level_mapping():
    assert LEVEL_FOR_BATTERY[BatteryLevel.CHARGING_OR_FULL] is EvsoLevel.BASELINE
    assert LEVEL_FOR_BATTERY[BatteryLevel.HIGH] is EvsoLevel.HIGH
    assert LEVEL_FOR_BATTERY[BatteryLevel.MEDIUM] is EvsoLevel.MEDIUM
    assert LEVEL_FOR_BATTERY[BatteryLevel.LOW] is EvsoLevel.LOW


def test_parse_battery_is_case_insensitive():
    assert parse_battery("LOW") is BatteryLevel.LOW
    assert parse_battery(" Charging_Or_Full ") is BatteryLevel.CHARGING_OR_FULL
    with pytest.raises(ValueError):
        parse_battery("plugged")


def test_selection_follows_battery_level():
    manifest = _simple_manifest(list(EvsoLevel))
    for battery, level in LEVEL_FOR_BATTERY.items():
        aset, rep = select_representation(
            manifest, ClientState(10 ** 9, battery))
        assert aset.evso_level is level
        assert rep.id == level.value


def test_selection_falls_back_to_milder_levels():
    manifest = _simple_manifest([EvsoLevel.BASELINE, EvsoLevel.HIGH])
    aset, _ = select_representation(
        manifest, ClientState(10 ** 9, BatteryLevel.LOW))
    assert aset.evso_level is EvsoLevel.HIGH
    aset, _ = select_representation(
        manifest, ClientState(10 ** 9, BatteryLevel.MEDIUM))
    assert aset.evso_level is EvsoLevel.HIGH
    only_low = _simple_manifest([EvsoLevel.LOW])
    with pytest.raises(NoVideoSets):
        select_representation(
            only_low, ClientState(10 ** 9, BatteryLevel.CHARGING_OR_FULL))


def test_selection_requires_video_sets():
    audio = _manifest([AdaptationSet(
        content_type="audio",
        representations=(Representation(id="a", bandwidth=1,
                                        segment_urls=("a0",)),))])
    with pytest.raises(NoVideoSets):
        select_representation(audio, ClientState(1, BatteryLevel.HIGH))
    with pytest.raises(NoVideoSets):
        segment_count(audio)


def test_selection_picks_best_affordable_bandwidth():
    reps = [
        Representation(id="a", bandwidth=500, segment_urls=("a0",)),
        Representation(id="b", bandwidth=900, segment_urls=("b0",)),
        Representation(id="c", bandwidth=2000, segment_urls=("c0",)),
    ]
    manifest = _manifest([_video_set(EvsoLevel.HIGH, reps)])
    state = ClientState(1000, BatteryLevel.HIGH)
    assert select_representation(manifest, state)[1].id == "b"
    assert select_representation(
        manifest, ClientState(2 ** 40, BatteryLevel.HIGH))[1].id == "c"
    # nothing affordable: take the cheapest
    assert select_representation(
        manifest, ClientState(100, BatteryLevel.HIGH))[1].id == "a"


def test_selection_tie_keeps_manifest_order():
    reps = [
        Representation(id="first", bandwidth=700, segment_urls=("f0",)),
        Representation(id="second", bandwidth=700, segment_urls=("s0",)),
    ]
    manifest = _manifest([_video_set(EvsoLevel.HIGH, reps)])
    _, rep = select_representation(manifest, ClientState(800, BatteryLevel.HIGH))
    assert rep.id == "first"


def test_simulate_trace_points_hold_until_next():
    manifest = _simple_manifest(list(EvsoLevel), segments=5)
    trace = [
        TracePoint(0, 10 ** 6, BatteryLevel.HIGH),
        TracePoint(2, 10 ** 6, BatteryLevel.LOW),
        TracePoint(4, 10 ** 6, None),  # bandwidth-only point keeps battery
    ]
    log = simulate_session(manifest, trace)
    assert [row.selected_level for row in log.rows] == [
        EvsoLevel.HIGH, EvsoLevel.HIGH, EvsoLevel.LOW, EvsoLevel.LOW,
        EvsoLevel.LOW]
    assert [row.segment_index for row in log.rows] == list(range(5))
    assert log.rows[2].segment_url == "low/2.y4m"


def test_simulate_defaults_apply_before_first_point():
    manifest = _simple_manifest(list(EvsoLevel), segments=3)
    log = simulate_session(manifest, [TracePoint(2, 10 ** 6, BatteryLevel.LOW)],
                           default_battery=BatteryLevel.MEDIUM)
    assert [row.selected_level for row in log.rows] == [
        EvsoLevel.MEDIUM, EvsoLevel.MEDIUM, EvsoLevel.LOW]


def test_simulate_rejects_representation_without_segments():
    manifest = _manifest([
        _video_set(EvsoLevel.BASELINE, [Representation(
            id="baseline", bandwidth=1000, segment_urls=("b/0", "b/1"))]),
        _video_set(EvsoLevel.LOW, [Representation(
            id="low", bandwidth=1000, segment_urls=())]),
    ])
    with pytest.raises(InvariantViolation, match="'low'"):
        simulate_session(manifest, [TracePoint(0, 10 ** 6, BatteryLevel.LOW)])


def test_trace_csv_round_trip():
    text = ("segment_index,bandwidth_bps,battery_level\n"
            "0,500000,HIGH\n"
            "3,250000,low\n")
    points = load_trace(io.StringIO(text))
    assert points == [
        TracePoint(0, 500000, BatteryLevel.HIGH),
        TracePoint(3, 250000, BatteryLevel.LOW),
    ]
    no_battery = load_trace(io.StringIO(
        "segment_index,bandwidth_bps\n1,77\n"))
    assert no_battery == [TracePoint(1, 77, None)]


def test_session_log_csv_output():
    manifest = _simple_manifest([EvsoLevel.BASELINE], segments=2)
    log = simulate_session(manifest, [],
                           default_battery=BatteryLevel.CHARGING_OR_FULL)
    lines = log.to_csv_text().strip().splitlines()
    assert lines[0] == ("segment_index,battery_level,bandwidth_bps,"
                        "selected_level,representation_id,segment_url")
    assert lines[1].startswith("0,charging_or_full,1000000000,baseline,")
    assert len(lines) == 3


def _tree(tmp_path):
    (tmp_path / "segments").mkdir()
    (tmp_path / "manifest.mpd").write_bytes(b"<MPD/>")
    (tmp_path / "segments" / "chunk_000.y4m").write_bytes(b"payload-bytes")
    return tmp_path


def test_serve_delivers_files_with_lengths(tmp_path):
    root = _tree(tmp_path)
    with serve(root) as handle:
        reply = urllib.request.urlopen(handle.url + "segments/chunk_000.y4m")
        assert reply.read() == b"payload-bytes"
        assert reply.headers["Content-Length"] == "13"
        manifest = urllib.request.urlopen(handle.url + "manifest.mpd")
        assert manifest.headers["Content-Type"] == "application/dash+xml"


def test_serve_rejects_unknown_and_external_paths(tmp_path):
    root = _tree(tmp_path)
    outside = tmp_path.parent / "outside.txt"
    outside.write_text("secret")
    with serve(root) as handle:
        for path in ("missing.y4m", "../outside.txt", "%2e%2e/outside.txt",
                     "segments/"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(handle.url + path)
            assert err.value.code == 404


def test_serve_requires_manifest(tmp_path):
    with pytest.raises(MissingManifest):
        serve(tmp_path)


def test_serve_reports_bind_failure(tmp_path):
    _tree(tmp_path)
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        with pytest.raises(BindFailure):
            serve(tmp_path, port=port)
    finally:
        blocker.close()


@pytest.mark.parametrize("port", [70000, -1])
def test_serve_reports_out_of_range_port_as_bind_failure(tmp_path, port):
    _tree(tmp_path)
    with pytest.raises(BindFailure):
        serve(tmp_path, port=port)
