import hashlib
import http.client
import io
import socket
import statistics
import time
import tracemalloc
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
    Y4M_MIME_TYPE,
    build_manifest,
    parse_xml,
)
from evso.errors import (
    BindFailure,
    InvariantViolation,
    MalformedDocument,
    MissingManifest,
    NoVideoSets,
)
from evso import stream_sim
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
    return AdaptationSet(evso_level=level, representations=tuple(reps))


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
    audio = parse_xml(
        '<MPD><Period duration="PT2S"><AdaptationSet contentType="audio">'
        '<Representation id="a" bandwidth="1"><SegmentList>'
        '<SegmentURL media="a0"/></SegmentList></Representation>'
        '</AdaptationSet></Period></MPD>')
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


def test_load_trace_keeps_file_order():
    text = ("segment_index,bandwidth_bps,battery_level\n"
            "4,100,low\n"
            "0,300,high\n"
            "2,200,\n")
    assert load_trace(io.StringIO(text)) == [
        TracePoint(4, 100, BatteryLevel.LOW),
        TracePoint(0, 300, BatteryLevel.HIGH),
        TracePoint(2, 200, None),
    ]


@pytest.mark.parametrize("row", ["0,-5,low", "-3,100,"])
def test_load_trace_refuses_negative_values(row):
    with pytest.raises(MalformedDocument, match="negative"):
        load_trace(io.StringIO(
            f"segment_index,bandwidth_bps,battery_level\n1,100,\n{row}\n"))


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
                     "segments/", "%00"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(handle.url + path)
            err.value.close()
            assert err.value.code == 404


def test_serve_answers_404_for_a_file_it_cannot_open(tmp_path, monkeypatch):
    root = _tree(tmp_path)

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    with serve(root) as handle:
        monkeypatch.setattr(stream_sim, "open", refuse, raising=False)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(handle.url + "segments/chunk_000.y4m")
        err.value.close()
        assert err.value.code == 404
        monkeypatch.undo()
        reply = urllib.request.urlopen(handle.url + "segments/chunk_000.y4m")
        assert reply.read() == b"payload-bytes"


class CountingConnection(http.client.HTTPConnection):
    """HTTP connection that counts the TCP connections it opens."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.opened = 0

    def connect(self):
        self.opened += 1
        super().connect()


def _get(conn, path):
    conn.request("GET", "/" + path)
    resp = conn.getresponse()
    return resp.status, resp.read()


def test_serve_keeps_one_connection_for_many_requests(tmp_path):
    root = _tree(tmp_path)
    with serve(root) as handle:
        conn = CountingConnection(handle.host, handle.port, timeout=5)
        try:
            for _ in range(5):
                assert _get(conn, "segments/chunk_000.y4m") == (
                    200, b"payload-bytes")
        finally:
            conn.close()
    assert conn.opened == 1
    assert handle.served == {"connections": 1, "requests": 5,
                             "not_found": 0, "bytes_sent": 5 * 13}


def test_serve_answers_on_a_kept_connection_after_a_404(tmp_path):
    root = _tree(tmp_path)
    with serve(root) as handle:
        conn = CountingConnection(handle.host, handle.port, timeout=5)
        try:
            assert _get(conn, "missing.y4m")[0] == 404
            assert _get(conn, "manifest.mpd") == (200, b"<MPD/>")
        finally:
            conn.close()
    assert conn.opened == 1
    assert handle.served["connections"] == 1
    assert handle.served["requests"] == 2
    assert handle.served["not_found"] == 1


def test_serve_refuses_a_symlink_that_leads_outside(tmp_path):
    (tmp_path / "root").mkdir()
    root = _tree(tmp_path / "root")
    (tmp_path / "outside.txt").write_text("secret")
    (root / "segments" / "link.y4m").symlink_to(tmp_path / "outside.txt")
    with serve(root) as handle:
        conn = CountingConnection(handle.host, handle.port, timeout=5)
        try:
            assert _get(conn, "segments/link.y4m")[0] == 404
        finally:
            conn.close()


def test_serve_follows_a_symlink_that_stays_inside(tmp_path):
    root = _tree(tmp_path)
    (root / "segments" / "link.y4m").symlink_to(root / "segments" / "chunk_000.y4m")
    with serve(root) as handle:
        conn = CountingConnection(handle.host, handle.port, timeout=5)
        try:
            assert _get(conn, "segments/link.y4m") == (200, b"payload-bytes")
        finally:
            conn.close()


def test_serve_sends_an_empty_file_and_keeps_the_connection(tmp_path, capfd):
    root = _tree(tmp_path)
    (root / "empty.csv").write_bytes(b"")
    with serve(root) as handle:
        conn = CountingConnection(handle.host, handle.port, timeout=5)
        try:
            assert _get(conn, "empty.csv") == (200, b"")
            assert _get(conn, "manifest.mpd") == (200, b"<MPD/>")
        finally:
            conn.close()
    assert conn.opened == 1
    assert "Traceback" not in capfd.readouterr().err


def _raw(handle, data):
    """Send data on a new connection; read until the server closes it."""
    chunks = []
    with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
        sock.sendall(data)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with some of data unread
            pass
    return b"".join(chunks)


def _replies(data):
    """(status line, header lines, body) of each reply in a byte stream."""
    replies = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status, *headers = head.split(b"\r\n")
        length = next(int(h.split(b":")[1]) for h in headers
                      if h.lower().startswith(b"content-length:"))
        replies.append((status, headers, data[:length]))
        data = data[length:]
    return replies


@pytest.mark.parametrize("request_bytes, status", [
    pytest.param(b"POST /manifest.mpd HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                 b"HTTP/1.1 501 Not Implemented", id="post"),
    pytest.param(b"HEAD /manifest.mpd HTTP/1.1\r\n\r\n",
                 b"HTTP/1.1 501 Not Implemented", id="head"),
    pytest.param(b"garbage\r\n", b"HTTP/1.1 400 Bad Request", id="garbage"),
    pytest.param(b"GET /manifest.mpd HTTP/9.9\r\n\r\n",
                 b"HTTP/1.1 400 Bad Request", id="version"),
    pytest.param(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
                 b"HTTP/1.1 414 URI Too Long", id="long-line"),
    pytest.param(b"GET /manifest.mpd HTTP/1.1\r\nX: " + b"a" * 70000 + b"\r\n\r\n",
                 b"HTTP/1.1 431 Request Header Fields Too Large",
                 id="long-header"),
])
def test_serve_refuses_what_it_cannot_answer_and_closes(tmp_path, capfd,
                                                        request_bytes, status):
    root = _tree(tmp_path)
    with serve(root) as handle:
        [(line, headers, body)] = _replies(_raw(handle, request_bytes))
    assert line == status
    assert b"Connection: close" in headers
    assert body == b""
    assert handle.served["requests"] == 0
    assert "Traceback" not in capfd.readouterr().err


def test_serve_closes_after_an_http_1_0_reply(tmp_path, capfd):
    root = _tree(tmp_path)
    with serve(root) as handle:
        reply = _raw(handle, b"GET /manifest.mpd HTTP/1.0\r\n\r\n")
    [(line, headers, body)] = _replies(reply)
    assert line == b"HTTP/1.1 200 OK"
    assert b"Server: evso" in headers
    assert b"Content-Type: application/dash+xml" in headers
    assert body == b"<MPD/>"
    assert "Traceback" not in capfd.readouterr().err


def test_serve_honours_connection_close(tmp_path, capfd):
    root = _tree(tmp_path)
    with serve(root) as handle:
        reply = _raw(handle, b"GET /manifest.mpd HTTP/1.1\r\n"
                             b"Host: x\r\nConnection: Close\r\n\r\n")
    assert [(r[0], r[2]) for r in _replies(reply)] == [
        (b"HTTP/1.1 200 OK", b"<MPD/>")]
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("value", [b"TE, close", b"keep-alive, Close"])
def test_serve_closes_on_a_close_token_anywhere_in_connection(tmp_path, capfd,
                                                              value):
    root = _tree(tmp_path)
    with serve(root) as handle:
        reply = _raw(handle, b"GET /manifest.mpd HTTP/1.1\r\n"
                             b"Connection: " + value + b"\r\n\r\n")
    [(line, headers, body)] = _replies(reply)
    assert line == b"HTTP/1.1 200 OK"
    assert b"Connection: close" in headers
    assert body == b"<MPD/>"
    assert handle.served["requests"] == 1
    assert "Traceback" not in capfd.readouterr().err


def test_built_representations_and_served_segments_carry_the_y4m_type(
        tmp_path):
    manifest = build_manifest(
        chunk_count=1, duration_seconds=1,
        segments_by_level={level: ["segments/chunk_000.y4m"]
                           for level in EvsoLevel},
        bandwidth_by_level=dict.fromkeys(EvsoLevel, 100))
    assert {rep.mime_type for aset in manifest.video_sets()
            for rep in aset.representations} == {Y4M_MIME_TYPE}
    root = _tree(tmp_path)
    with serve(root) as handle:
        with urllib.request.urlopen(handle.url + "segments/chunk_000.y4m") as reply:
            assert reply.headers["Content-Type"] == Y4M_MIME_TYPE


def test_serve_answers_pipelined_requests_in_order(tmp_path, capfd):
    root = _tree(tmp_path)
    with serve(root) as handle:
        reply = _raw(handle, b"GET /manifest.mpd HTTP/1.1\r\n\r\n"
                             b"GET /missing.y4m HTTP/1.1\r\n\r\n"
                             b"GET /segments/chunk_000.y4m HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n")
    assert [(r[0], r[2]) for r in _replies(reply)] == [
        (b"HTTP/1.1 200 OK", b"<MPD/>"), (b"HTTP/1.1 404 Not Found", b""),
        (b"HTTP/1.1 200 OK", b"payload-bytes")]
    assert handle.served == {"connections": 1, "requests": 3,
                             "not_found": 1, "bytes_sent": 6 + 13}
    assert "Traceback" not in capfd.readouterr().err


def test_serve_answers_404_for_a_target_with_a_bad_host(tmp_path, capfd):
    root = _tree(tmp_path)
    with serve(root) as handle:
        reply = _raw(handle, b"GET http://[/manifest.mpd HTTP/1.1\r\n\r\n"
                             b"GET /manifest.mpd HTTP/1.0\r\n\r\n")
    assert [(r[0], r[2]) for r in _replies(reply)] == [
        (b"HTTP/1.1 404 Not Found", b""), (b"HTTP/1.1 200 OK", b"<MPD/>")]
    assert "Traceback" not in capfd.readouterr().err


def test_serve_counts_only_the_gets_it_parsed(tmp_path, capfd):
    root = _tree(tmp_path)
    with serve(root) as handle:
        for request_bytes in (b"POST / HTTP/1.1\r\n\r\n", b"garbage\r\n",
                              b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
                              b"GET /manifest.mpd HTTP/1.0\r\n\r\n",
                              b"GET /missing.y4m HTTP/1.0\r\n\r\n"):
            _raw(handle, request_bytes)
    assert handle.served == {"connections": 5, "requests": 2,
                             "not_found": 1, "bytes_sent": 6}
    assert "Traceback" not in capfd.readouterr().err


def test_serve_answers_small_files_at_once_on_a_kept_connection(tmp_path):
    # With Nagle's algorithm on, each reply waits ~40 ms for the client's
    # delayed ACK of its headers.
    root = _tree(tmp_path)
    with serve(root) as handle:
        conn = CountingConnection(handle.host, handle.port, timeout=5)
        try:
            times = []
            for _ in range(20):
                start = time.perf_counter()
                assert _get(conn, "manifest.mpd") == (200, b"<MPD/>")
                times.append(time.perf_counter() - start)
        finally:
            conn.close()
    assert conn.opened == 1
    assert statistics.median(times) < 0.020


def test_serve_answers_nothing_on_a_kept_connection_after_close(tmp_path):
    root = _tree(tmp_path)
    handle = serve(root)
    conn = CountingConnection(handle.host, handle.port, timeout=5)
    try:
        assert _get(conn, "manifest.mpd") == (200, b"<MPD/>")
        handle.close()
        with pytest.raises(ConnectionError):
            _get(conn, "manifest.mpd")
    finally:
        conn.close()
        handle.close()


def test_serve_sends_a_large_file_without_holding_it(tmp_path):
    root = _tree(tmp_path)
    data = bytes(range(256)) * (8 * 4096)  # 8 MiB
    (root / "segments" / "large.y4m").write_bytes(data)
    with serve(root) as handle:
        conn = CountingConnection(handle.host, handle.port, timeout=10)
        tracemalloc.start()
        try:
            conn.request("GET", "/segments/large.y4m")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.headers["Content-Length"] == str(len(data))
            digest = hashlib.sha256()
            while piece := resp.read(64 * 1024):
                digest.update(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            conn.close()
    assert digest.digest() == hashlib.sha256(data).digest()
    assert peak < 2 * 1024 * 1024


def test_serve_counts_a_hang_up_mid_reply_without_a_traceback(tmp_path, capfd):
    root = _tree(tmp_path)
    size = 8 * 1024 * 1024
    (root / "segments" / "large.y4m").write_bytes(bytes(size))
    with serve(root) as handle:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=5)
        try:
            conn.request("GET", "/segments/large.y4m")
            assert len(conn.getresponse().read(1000)) == 1000
        finally:
            conn.close()
        deadline = time.monotonic() + 5
        while handle.served["bytes_sent"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        sent = handle.served["bytes_sent"]
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=5)
        try:
            assert _get(conn, "manifest.mpd") == (200, b"<MPD/>")
        finally:
            conn.close()
    assert 1000 <= sent < size
    assert "Traceback" not in capfd.readouterr().err


def test_serve_closes_at_once(tmp_path):
    root = _tree(tmp_path)
    times = []
    for _ in range(5):
        handle = serve(root)
        start = time.perf_counter()
        handle.close()
        times.append(time.perf_counter() - start)
    assert statistics.median(times) < 0.1


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
