"""Extended MPD manifests: DASH-style XML with a per-set energy level tag.

Each video adaptation set carries an EVSOLevel attribute naming which battery
profile produced it; stock DASH manifests without the attribute parse as
baseline sets, and serialized output stays byte-stable for identical inputs.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from .errors import ChunkCountMismatch, InvariantViolation, MalformedXml
from .fscheduler import exact_decimal

_MPD_NAMESPACE = "urn:mpeg:dash:schema:mpd:2011"


class EvsoLevel(Enum):
    """Energy processing level of one video adaptation set.

    Members are declared from the mildest to the most aggressive.
    """

    BASELINE = "baseline"
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


#: Scheduling profile that produces each level; baseline is unprocessed.
PROFILE_FOR_LEVEL: Dict[EvsoLevel, Optional[str]] = {
    EvsoLevel.BASELINE: None,
    EvsoLevel.HIGH: "evso",
    EvsoLevel.MEDIUM: "evso_plus",
    EvsoLevel.LOW: "evso_plus_plus",
}


@dataclass(frozen=True)
class Representation:
    """One encoding of one adaptation set, with its segment URL list."""

    id: str
    bandwidth: int
    segment_urls: Tuple[str, ...]
    width: Optional[int] = None
    height: Optional[int] = None
    mime_type: str = "video/mp4"

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment_urls", tuple(self.segment_urls))
        if not self.id:
            raise ValueError("representation id must be non-empty")
        if self.bandwidth < 0:
            raise ValueError(f"negative bandwidth {self.bandwidth}")


@dataclass(frozen=True)
class AdaptationSet:
    """Representations of one content type; video sets carry a level."""

    content_type: str
    representations: Tuple[Representation, ...]
    evso_level: EvsoLevel = EvsoLevel.BASELINE

    def __post_init__(self) -> None:
        object.__setattr__(self, "representations", tuple(self.representations))
        if self.content_type not in ("video", "audio"):
            raise ValueError(f"content_type {self.content_type!r}")
        if not self.representations:
            raise InvariantViolation(
                f"{self.content_type} adaptation set has no representations"
            )


@dataclass(frozen=True)
class Period:
    """One playback period."""

    duration_seconds: Fraction
    adaptation_sets: Tuple[AdaptationSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "adaptation_sets", tuple(self.adaptation_sets))
        object.__setattr__(self, "duration_seconds",
                           Fraction(self.duration_seconds))
        if self.duration_seconds < 0:
            raise ValueError("negative period duration")


@dataclass(frozen=True)
class EmpdManifest:
    """A static presentation: ordered periods of adaptation sets."""

    periods: Tuple[Period, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "periods", tuple(self.periods))
        if not self.periods:
            raise ValueError("manifest needs at least one period")
        for p, period in enumerate(self.periods):
            seen = set()
            for aset in period.adaptation_sets:
                if aset.content_type != "video":
                    continue
                if aset.evso_level in seen:
                    raise InvariantViolation(
                        f"period {p}: duplicate video level "
                        f"{aset.evso_level.value}"
                    )
                seen.add(aset.evso_level)

    @property
    def duration_seconds(self) -> Fraction:
        return sum((p.duration_seconds for p in self.periods), Fraction(0))

    def video_sets(self) -> Tuple[AdaptationSet, ...]:
        """The video sets of the first period, the one a session plays."""
        return tuple(a for a in self.periods[0].adaptation_sets
                     if a.content_type == "video")


def build_manifest(chunk_count: int, duration_seconds: Union[Fraction, int],
                   segments_by_level: Dict[EvsoLevel, Sequence[str]],
                   bandwidth_by_level: Dict[EvsoLevel, int],
                   width: Optional[int] = None, height: Optional[int] = None,
                   mime_type: str = "video/mp4") -> EmpdManifest:
    """Single-period manifest with one video set per provided level.

    Every level must supply exactly chunk_count segment URLs; sets appear in
    the fixed level order baseline, high, medium, low.
    """
    if not segments_by_level:
        raise InvariantViolation("no levels supplied")
    sets = []
    for level in EvsoLevel:
        if level not in segments_by_level:
            continue
        urls = tuple(segments_by_level[level])
        if len(urls) != chunk_count:
            raise ChunkCountMismatch(
                f"level {level.value}: {len(urls)} segments, expected "
                f"{chunk_count}"
            )
        sets.append(AdaptationSet(
            content_type="video",
            evso_level=level,
            representations=(Representation(
                id=level.value, bandwidth=int(bandwidth_by_level[level]),
                segment_urls=urls, width=width, height=height,
                mime_type=mime_type,
            ),),
        ))
    period = Period(duration_seconds=Fraction(duration_seconds),
                    adaptation_sets=tuple(sets))
    return EmpdManifest(periods=(period,))


def _fmt_seconds(seconds: Fraction) -> str:
    """Decimal text for a duration; exact whenever the expansion terminates."""
    den = seconds.denominator
    for prime in (2, 5):
        while den % prime == 0:
            den //= prime
    if den == 1:
        text = format(
            Decimal(seconds.numerator) / Decimal(seconds.denominator), "f"
        )
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text or "0"
    return repr(float(seconds))


def serialize_xml(manifest: EmpdManifest) -> bytes:
    """Deterministic UTF-8 XML; identical manifests give identical bytes."""
    root = ET.Element("MPD", {
        "xmlns": _MPD_NAMESPACE,
        "type": "static",
        "mediaPresentationDuration": f"PT{_fmt_seconds(manifest.duration_seconds)}S",
    })
    for period in manifest.periods:
        p_el = ET.SubElement(root, "Period", {
            "duration": f"PT{_fmt_seconds(period.duration_seconds)}S",
        })
        for aset in period.adaptation_sets:
            attrs = {"contentType": aset.content_type}
            if aset.content_type == "video":
                attrs["EVSOLevel"] = aset.evso_level.value
            a_el = ET.SubElement(p_el, "AdaptationSet", attrs)
            for rep in aset.representations:
                r_attrs = {"id": rep.id, "bandwidth": str(rep.bandwidth)}
                if rep.width is not None:
                    r_attrs["width"] = str(rep.width)
                if rep.height is not None:
                    r_attrs["height"] = str(rep.height)
                r_attrs["mimeType"] = rep.mime_type
                r_el = ET.SubElement(a_el, "Representation", r_attrs)
                s_el = ET.SubElement(r_el, "SegmentList")
                for url in rep.segment_urls:
                    ET.SubElement(s_el, "SegmentURL", {"media": url})
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_duration(text: Optional[str]) -> Fraction:
    if not text:
        return Fraction(0)
    raw = text.strip()
    if not (raw.startswith("PT") and raw.endswith("S")):
        raise MalformedXml(f"unsupported duration {text!r}")
    try:
        return exact_decimal(raw[2:-1])
    except ValueError as exc:
        raise MalformedXml(f"bad duration {text!r}: {exc}") from None


def _parse_representation(node: ET.Element, fallback_id: str) -> Representation:
    width = node.get("width")
    height = node.get("height")
    return Representation(
        id=node.get("id") or fallback_id,
        bandwidth=int(node.get("bandwidth") or 0),
        segment_urls=tuple(seg.get("media") for seg in node.iterfind(
            "{*}SegmentList/{*}SegmentURL") if seg.get("media")),
        width=int(width) if width is not None else None,
        height=int(height) if height is not None else None,
        mime_type=node.get("mimeType") or "video/mp4",
    )


def _parse_adaptation_set(node: ET.Element) -> Optional[AdaptationSet]:
    content_type = node.get("contentType") or "video"
    if content_type not in ("video", "audio"):
        return None
    level = EvsoLevel.BASELINE
    if content_type == "video":
        raw = node.get("EVSOLevel")
        if raw is not None:
            try:
                level = EvsoLevel(raw.lower())
            except ValueError:
                raise InvariantViolation(f"unknown EVSOLevel {raw!r}") from None
    reps = tuple(
        _parse_representation(child, f"rep{i}")
        for i, child in enumerate(node)
        if _localname(child.tag) == "Representation"
    )
    if not reps:
        return None
    return AdaptationSet(content_type=content_type, representations=reps,
                         evso_level=level)


def parse_xml(data: Union[bytes, str]) -> EmpdManifest:
    """Parse extended or stock DASH XML, matching elements by local name.

    Video sets without an EVSOLevel attribute become baseline; adaptation
    sets with foreign content types or no representations are skipped.
    A bad or out-of-range value, such as bandwidth="zz" or "-5", raises
    MalformedXml.
    """
    periods = []
    try:
        root = ET.fromstring(data)
        if _localname(root.tag) != "MPD":
            raise MalformedXml(f"root element {root.tag!r} is not MPD")
        for p_node in root.iterfind("{*}Period"):
            periods.append(Period(
                adaptation_sets=tuple(filter(None, map(
                    _parse_adaptation_set, p_node.iterfind("{*}AdaptationSet")))),
                duration_seconds=_parse_duration(p_node.get("duration")),
            ))
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise MalformedXml(str(exc)) from exc
    if not periods:
        raise MalformedXml("manifest has no Period elements")
    manifest = EmpdManifest(periods=tuple(periods))
    if manifest.duration_seconds > sys.float_info.max:
        raise MalformedXml("manifest duration exceeds the largest float")
    return manifest
