"""Battery- and bandwidth-aware segment selection plus a local file server.

The simulator walks a manifest segment by segment, mapping the client's
battery state to a video level (falling back toward less aggressive levels
when one is missing) and then picking the best representation the measured
bandwidth can sustain. The server half is a plain read-only HTTP file server
for playing sessions against generated segment trees.
"""

from __future__ import annotations

import csv
import io
import os
import threading
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple, Union

from .empd import AdaptationSet, EmpdManifest, EvsoLevel, Representation
from .errors import (BindFailure, InvariantViolation, MalformedDocument,
                     MissingManifest, NoVideoSets)


class BatteryLevel(Enum):
    """Reported charge state of the playback device."""

    CHARGING_OR_FULL = "charging_or_full"
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


#: Battery state to requested video level: the emptier the battery, the more
#: aggressively retimed the stream.
LEVEL_FOR_BATTERY: Dict[BatteryLevel, EvsoLevel] = {
    BatteryLevel.CHARGING_OR_FULL: EvsoLevel.BASELINE,
    BatteryLevel.HIGH: EvsoLevel.HIGH,
    BatteryLevel.MEDIUM: EvsoLevel.MEDIUM,
    BatteryLevel.LOW: EvsoLevel.LOW,
}

#: Fallback order when a level is absent: step toward less aggressive levels.
_FALLBACK_CHAIN = (EvsoLevel.LOW, EvsoLevel.MEDIUM, EvsoLevel.HIGH,
                   EvsoLevel.BASELINE)


class ClientState(NamedTuple):
    """Momentary client conditions driving one selection."""

    bandwidth_bps: int
    battery: BatteryLevel


def parse_battery(text: str) -> BatteryLevel:
    try:
        return BatteryLevel(text.strip().lower())
    except ValueError:
        raise ValueError(f"unknown battery level {text!r}") from None


def select_representation(
        manifest: EmpdManifest,
        state: ClientState) -> Tuple[AdaptationSet, Representation]:
    """Pick the adaptation set and representation for one client state.

    The set is the one matching the battery's level, or failing that the
    nearest less aggressive level present. Within the set, the highest
    bandwidth not above the client's wins; if even the cheapest is above,
    the cheapest wins. Ties keep manifest order.
    """
    sets = manifest.video_sets()
    if not sets:
        raise NoVideoSets("manifest has no video adaptation sets")
    by_level = {}
    for aset in sets:
        by_level.setdefault(aset.evso_level, aset)
    desired = LEVEL_FOR_BATTERY[state.battery]
    chain = _FALLBACK_CHAIN[_FALLBACK_CHAIN.index(desired):]
    chosen = next((by_level[level] for level in chain if level in by_level),
                  None)
    if chosen is None:
        raise NoVideoSets(
            f"no video set at level {desired.value} or any milder level"
        )
    affordable = [r for r in chosen.representations
                  if r.bandwidth <= state.bandwidth_bps]
    if affordable:
        rep = max(affordable, key=lambda r: r.bandwidth)
    else:
        rep = min(chosen.representations, key=lambda r: r.bandwidth)
    return chosen, rep


class TracePoint(NamedTuple):
    """Client conditions taking effect at one segment index."""

    segment_index: int
    bandwidth_bps: int
    battery: Optional[BatteryLevel] = None


def load_trace(source: Union[str, os.PathLike, TextIO]) -> List[TracePoint]:
    """Read a trace CSV with columns segment_index, bandwidth_bps and an
    optional battery_level column."""
    if hasattr(source, "read"):
        return _read_trace(source)
    with open(source, "r", newline="") as fh:
        return _read_trace(fh)


def _read_trace(fh: TextIO) -> List[TracePoint]:
    points = []
    for row in csv.DictReader(fh):
        battery = row.get("battery_level")
        try:
            points.append(TracePoint(
                segment_index=int(row["segment_index"]),
                bandwidth_bps=int(row["bandwidth_bps"]),
                battery=parse_battery(battery) if battery else None,
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocument(f"not a trace CSV: {exc!r}") from None
    points.sort(key=lambda p: p.segment_index)
    return points


class SessionRow(NamedTuple):
    """One segment fetch decision."""

    segment_index: int
    battery: BatteryLevel
    bandwidth_bps: int
    selected_level: EvsoLevel
    representation_id: str
    segment_url: str


@dataclass(frozen=True)
class SessionLog:
    """Complete decision log of one simulated playback session."""

    rows: Tuple[SessionRow, ...]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["segment_index", "battery_level", "bandwidth_bps",
                         "selected_level", "representation_id", "segment_url"])
        for row in self.rows:
            writer.writerow([row.segment_index, row.battery.value,
                             row.bandwidth_bps, row.selected_level.value,
                             row.representation_id, row.segment_url])
        return buf.getvalue()


def segment_count(manifest: EmpdManifest) -> int:
    """Session length: the most segments any video representation lists."""
    sets = manifest.video_sets()
    if not sets:
        raise NoVideoSets("manifest has no video adaptation sets")
    return max(len(rep.segment_urls)
               for aset in sets for rep in aset.representations)


def simulate_session(manifest: EmpdManifest, trace: Sequence[TracePoint],
                     default_battery: BatteryLevel = BatteryLevel.HIGH,
                     default_bandwidth: int = 10 ** 9) -> SessionLog:
    """Select one representation per segment under a condition trace.

    Trace points take effect at their segment index and hold until the next
    point; segments before the first point use the defaults. A battery left
    blank in a point keeps the battery already in effect. A representation
    shorter than the session repeats its last segment; one with no segment
    at all raises InvariantViolation.
    """
    count = segment_count(manifest)
    points = sorted(trace, key=lambda p: p.segment_index)
    rows = []
    bandwidth = default_bandwidth
    battery = default_battery
    cursor = 0
    for index in range(count):
        while cursor < len(points) and points[cursor].segment_index <= index:
            bandwidth = points[cursor].bandwidth_bps
            if points[cursor].battery is not None:
                battery = points[cursor].battery
            cursor += 1
        aset, rep = select_representation(manifest,
                                          ClientState(bandwidth, battery))
        if not rep.segment_urls:
            raise InvariantViolation(f"representation {rep.id!r} lists no segments")
        url = rep.segment_urls[min(index, len(rep.segment_urls) - 1)]
        rows.append(SessionRow(
            segment_index=index, battery=battery, bandwidth_bps=bandwidth,
            selected_level=aset.evso_level, representation_id=rep.id,
            segment_url=url,
        ))
    return SessionLog(rows=tuple(rows))


_CONTENT_TYPES = {
    ".mpd": "application/dash+xml",
    ".xml": "text/xml",
    ".y4m": "video/x-yuv4mpeg",
    ".json": "application/json",
    ".csv": "text/csv",
}


@dataclass
class ServerHandle:
    """Running file server; close() stops it and joins its thread."""

    host: str
    port: int
    root: str
    _server: ThreadingHTTPServer
    _thread: threading.Thread

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(root_dir: Union[str, os.PathLike], host: str = "127.0.0.1",
          port: int = 0, manifest_name: str = "manifest.mpd") -> ServerHandle:
    """Serve a segment tree read-only over HTTP on a background thread.

    The directory must already contain the manifest. Port 0 binds an
    ephemeral port; the handle reports the one chosen.
    """
    root = os.path.realpath(os.fspath(root_dir))
    if not os.path.isfile(os.path.join(root, manifest_name)):
        raise MissingManifest(f"{manifest_name} not found under {root}")

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API name)
            rel = urllib.parse.unquote(urllib.parse.urlparse(self.path).path)
            full = os.path.realpath(os.path.join(root, rel.lstrip("/")))
            inside = full == root or full.startswith(root + os.sep)
            if not inside or not os.path.isfile(full):
                self.send_error(404, "not found")
                return
            with open(full, "rb") as fh:
                data = fh.read()
            ext = os.path.splitext(full)[1].lower()
            self.send_response(200)
            self.send_header("Content-Type",
                             _CONTENT_TYPES.get(ext, "application/octet-stream"))
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, fmt: str, *args) -> None:
            pass

    try:
        server = ThreadingHTTPServer((host, port), Handler)
    except (OSError, OverflowError) as exc:
        raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return ServerHandle(host=host, port=server.server_address[1], root=root,
                        _server=server, _thread=thread)
