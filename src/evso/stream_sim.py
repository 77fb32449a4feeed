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
import time
import urllib.parse
from dataclasses import dataclass, field
from enum import Enum
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence,
                    TextIO, Tuple, Union)

from .empd import (Y4M_MIME_TYPE, AdaptationSet, EmpdManifest, EvsoLevel,
                   Representation)
from .errors import (BindFailure, InvariantViolation, MalformedDocument,
                     MissingManifest, NoVideoSets)

if TYPE_CHECKING:
    from socketserver import ThreadingTCPServer


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
_FALLBACK_CHAIN = tuple(reversed(EvsoLevel))


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
    by_level = {aset.evso_level: aset for aset in sets}
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


def load_trace(fh: TextIO) -> List[TracePoint]:
    """Read a trace CSV, opened as text with newline="", with columns
    segment_index, bandwidth_bps and an optional battery_level column. Rows
    come back in file order; simulate_session orders them by segment index."""
    points = []
    for row in csv.DictReader(fh):
        battery = row.get("battery_level")
        try:
            point = TracePoint(
                segment_index=int(row["segment_index"]),
                bandwidth_bps=int(row["bandwidth_bps"]),
                battery=parse_battery(battery) if battery else None,
            )
            if point.segment_index < 0 or point.bandwidth_bps < 0:
                raise ValueError("negative segment_index or bandwidth_bps")
            points.append(point)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocument(f"not a trace CSV: {exc!r}") from None
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
                     default_battery: BatteryLevel = BatteryLevel.HIGH
                     ) -> SessionLog:
    """Select one representation per segment under a condition trace.

    Trace points take effect at their segment index and hold until the next
    point; segments before the first point use default_battery and 10**9
    bit/s. A battery left blank in a point keeps the battery already in
    effect. A representation shorter than the session repeats its last
    segment; one with no segment at all raises InvariantViolation.
    """
    count = segment_count(manifest)
    points = sorted(trace, key=lambda p: p.segment_index)
    rows = []
    bandwidth = 10 ** 9
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
    ".y4m": Y4M_MIME_TYPE,
    ".json": "application/json",
    ".csv": "text/csv",
}

#: Longest request or header line the server reads, without its line end.
_MAX_LINE = 65536


@dataclass
class ServerHandle:
    """Running file server; close() stops it, and a kept connection gets no
    reply after it. served counts connections, GETs, 404s and body bytes."""

    host: str
    port: int
    root: str
    _server: ThreadingTCPServer
    _thread: threading.Thread
    served: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("connections", "requests", "not_found", "bytes_sent"), 0))
    _lock: threading.Lock = field(default_factory=threading.Lock)

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
          port: int = 0) -> ServerHandle:
    """Serve a segment tree read-only over HTTP/1.1 on a background thread.

    The directory must already hold manifest.mpd. Port 0 binds an
    ephemeral port; the handle reports the one chosen. A path that is no
    readable file under the root gets a 404. A connection persists between
    requests, after a 404 too, unless the client speaks HTTP/1.0 or lists
    close in Connection. A method other than GET gets a 501, and a request it
    cannot parse a 400, 414 or 431; each of these closes the connection.
    """
    # Imported here, so the commands that only read manifests never load it.
    import socketserver

    root = os.path.realpath(os.fspath(root_dir))
    if not os.path.isfile(os.path.join(root, "manifest.mpd")):
        raise MissingManifest(f"manifest.mpd not found under {root}")

    class Handler(socketserver.StreamRequestHandler):
        disable_nagle_algorithm = True  # else a body waits on a delayed ACK

        def handle(self) -> None:
            with handle._lock:
                handle.served["connections"] += 1
            try:  # a client that hangs up, even mid-reply, is normal traffic
                while self._answer():
                    pass
            except ConnectionError:
                pass

        def _head(self, status: str, size: int = 0, close: bool = True,
                  ctype: Optional[str] = None) -> bool:
            """Send a status line and headers; whether the connection stays."""
            date = time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime())
            self.wfile.write((
                f"HTTP/1.1 {status}\r\nServer: evso\r\nDate: {date}\r\n"
                + (f"Content-Type: {ctype}\r\n" if ctype else "")
                + f"Content-Length: {size}\r\n"
                + ("Connection: close\r\n\r\n" if close else "\r\n")
            ).encode("latin-1"))
            return not close

        def _answer(self) -> bool:
            """Read and answer one request; whether the connection stays."""
            line = self.rfile.readline(_MAX_LINE + 1)
            if not line or not handle._thread.is_alive():  # closed: hang up
                return False
            if len(line) > _MAX_LINE:
                return self._head("414 URI Too Long")
            words = line.split()
            if len(words) != 3 or words[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
                return self._head("400 Bad Request")
            close = words[2] == b"HTTP/1.0"
            while (line := self.rfile.readline(_MAX_LINE + 1)) not in (
                    b"\r\n", b"\n", b""):
                if len(line) > _MAX_LINE:
                    return self._head("431 Request Header Fields Too Large")
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"connection":
                    close |= b"close" in map(bytes.strip, value.lower().split(b","))
            if not line:
                return False
            if words[0] != b"GET":
                return self._head("501 Not Implemented")
            target = words[1].decode("latin-1")
            if target.startswith("//"):  # a path, not a network location
                target = "/" + target.lstrip("/")
            try:  # urlparse raises ValueError on a bad host, realpath on a NUL
                rel = urllib.parse.unquote(urllib.parse.urlparse(target).path)
                full = os.path.realpath(os.path.join(root, rel.lstrip("/")))
                inside = full.startswith(root + os.sep)
                fh = open(full, "rb") if inside and os.path.isfile(full) else None
            except (OSError, ValueError):
                fh = None
            with handle._lock:
                handle.served["requests"] += 1
                handle.served["not_found"] += fh is None
            if fh is None:
                return self._head("404 Not Found", close=close)
            with fh:
                size = os.fstat(fh.fileno()).st_size
                ext = os.path.splitext(full)[1].lower()
                try:
                    self._head("200 OK", size, close,
                               _CONTENT_TYPES.get(ext, "application/octet-stream"))
                    if size:  # sendfile refuses a count of 0
                        self.connection.sendfile(fh, 0, size)
                finally:  # sendfile seeks past what it sent, even on error
                    with handle._lock:
                        handle.served["bytes_sent"] += fh.tell()
            return not close

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    try:
        server = Server((host, port), Handler)
    except (OSError, OverflowError) as exc:
        raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc
    # close() waits for serve_forever's next poll, so poll often.
    handle = ServerHandle(
        host=host, port=server.server_address[1], root=root, _server=server,
        _thread=threading.Thread(target=server.serve_forever, daemon=True,
                                 kwargs={"poll_interval": 0.05}))
    handle._thread.start()
    return handle
