from fractions import Fraction

import pytest

from evso.empd import (
    AdaptationSet,
    EmpdManifest,
    EvsoLevel,
    Period,
    Representation,
    build_manifest,
    parse_xml,
    serialize_xml,
)
from evso.errors import ChunkCountMismatch, InvariantViolation, MalformedXml


def _rep(rep_id="r1", urls=("seg0.y4m", "seg1.y4m"), bandwidth=1000, **kw):
    return Representation(id=rep_id, bandwidth=bandwidth, segment_urls=urls,
                          **kw)


def _manifest(levels=(EvsoLevel.BASELINE, EvsoLevel.LOW)):
    sets = tuple(
        AdaptationSet(evso_level=level,
                      representations=(_rep(rep_id=level.value),))
        for level in levels
    )
    return EmpdManifest(periods=(
        Period(duration_seconds=Fraction(5), adaptation_sets=sets),))


def test_round_trip_preserves_structure():
    manifest = _manifest()
    back = parse_xml(serialize_xml(manifest))
    assert back == manifest


def test_serialization_is_byte_stable():
    manifest = _manifest()
    assert serialize_xml(manifest) == serialize_xml(_manifest())


def test_duplicate_video_level_rejected():
    sets = tuple(
        AdaptationSet(evso_level=EvsoLevel.HIGH,
                      representations=(_rep(rep_id=f"r{i}"),))
        for i in range(2)
    )
    with pytest.raises(InvariantViolation):
        EmpdManifest(periods=(
            Period(duration_seconds=Fraction(1), adaptation_sets=sets),))


def test_empty_adaptation_set_rejected():
    with pytest.raises(InvariantViolation):
        AdaptationSet(representations=())


def test_empty_manifest_rejected():
    with pytest.raises(ValueError, match="at least one period"):
        EmpdManifest(periods=())


def test_representation_validation():
    with pytest.raises(ValueError):
        _rep(rep_id="")
    with pytest.raises(ValueError):
        _rep(bandwidth=-1)


def test_build_manifest_orders_levels_and_checks_counts():
    urls = {
        EvsoLevel.LOW: ["l0", "l1"],
        EvsoLevel.BASELINE: ["b0", "b1"],
        EvsoLevel.HIGH: ["h0", "h1"],
    }
    bw = {EvsoLevel.LOW: 1, EvsoLevel.BASELINE: 3, EvsoLevel.HIGH: 2}
    manifest = build_manifest(2, Fraction(4), urls, bw, width=64, height=48)
    levels = [a.evso_level for a in manifest.video_sets()]
    assert levels == [EvsoLevel.BASELINE, EvsoLevel.HIGH, EvsoLevel.LOW]
    rep = manifest.video_sets()[0].representations[0]
    assert rep.width == 64 and rep.height == 48
    assert manifest.duration_seconds == Fraction(4)
    with pytest.raises(ChunkCountMismatch):
        build_manifest(3, Fraction(4), urls, bw)
    with pytest.raises(InvariantViolation):
        build_manifest(0, Fraction(4), {}, {})


def test_plain_dash_without_level_parses_as_baseline():
    xml = b"""<?xml version='1.0' encoding='UTF-8'?>
    <MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static">
      <Period duration="PT12.5S">
        <AdaptationSet contentType="video">
          <Representation id="v0" bandwidth="500000" mimeType="video/mp4">
            <SegmentList>
              <SegmentURL media="a.m4s"/>
              <SegmentURL media="b.m4s"/>
            </SegmentList>
          </Representation>
        </AdaptationSet>
        <AdaptationSet contentType="application">
          <Representation id="x" bandwidth="1"/>
        </AdaptationSet>
        <AdaptationSet contentType="audio">
          <Representation id="a" bandwidth="1"/>
        </AdaptationSet>
      </Period>
    </MPD>"""
    manifest = parse_xml(xml)
    period = manifest.periods[0]
    assert period.duration_seconds == Fraction(25, 2)
    assert len(period.adaptation_sets) == 1
    video = period.adaptation_sets[0]
    assert video.evso_level is EvsoLevel.BASELINE
    assert video.representations[0].segment_urls == ("a.m4s", "b.m4s")


def test_parse_skips_an_adaptation_set_without_representations():
    manifest = parse_xml(b"""<MPD><Period duration="PT2S">
      <AdaptationSet contentType="video" EVSOLevel="high"/>
      <AdaptationSet contentType="video" EVSOLevel="low">
        <Representation id="low" bandwidth="1"><SegmentList>
          <SegmentURL media="l0"/></SegmentList></Representation>
      </AdaptationSet></Period></MPD>""")
    assert [a.evso_level for a in manifest.video_sets()] == [EvsoLevel.LOW]


def test_parse_handles_namespace_prefixes():
    xml = b"""<?xml version='1.0'?>
    <ns0:MPD xmlns:ns0="urn:mpeg:dash:schema:mpd:2011">
      <ns0:Period duration="PT2S">
        <ns0:AdaptationSet contentType="video" EVSOLevel="medium">
          <ns0:Representation id="m" bandwidth="9">
            <ns0:SegmentList><ns0:SegmentURL media="m0"/></ns0:SegmentList>
          </ns0:Representation>
        </ns0:AdaptationSet>
      </ns0:Period>
    </ns0:MPD>"""
    manifest = parse_xml(xml)
    assert manifest.video_sets()[0].evso_level is EvsoLevel.MEDIUM


def test_parse_rejects_unknown_level_vocabulary():
    xml = b"""<MPD><Period duration="PT1S">
      <AdaptationSet contentType="video" EVSOLevel="turbo">
        <Representation id="r" bandwidth="1"/>
      </AdaptationSet></Period></MPD>"""
    with pytest.raises(InvariantViolation):
        parse_xml(xml)


def test_parse_malformed_documents():
    with pytest.raises(MalformedXml):
        parse_xml(b"this is not xml <")
    with pytest.raises(MalformedXml):
        parse_xml(b"<Playlist></Playlist>")
    with pytest.raises(MalformedXml):
        parse_xml(b"<MPD></MPD>")
    with pytest.raises(MalformedXml):
        parse_xml(b'<MPD><Period duration="12s"/></MPD>')


@pytest.mark.parametrize("duration, attrs", [
    ("PT1S", 'bandwidth="zz"'),
    ("PT1S", 'bandwidth="-5"'),
    ("PT1S", 'bandwidth="9" width="q"'),
    ("PT-5S", 'bandwidth="9"'),
    ("PT1_S", 'bandwidth="9"'),
    ("PTnanS", 'bandwidth="9"'),
    ("PT1e-9999999999999S", 'bandwidth="9"'),
])
def test_parse_rejects_bad_values_as_malformed_xml(duration, attrs):
    xml = f"""<MPD><Period duration="{duration}">
      <AdaptationSet contentType="video"><Representation id="r" {attrs}>
        <SegmentList><SegmentURL media="s0"/></SegmentList>
      </Representation></AdaptationSet></Period></MPD>"""
    with pytest.raises(MalformedXml):
        parse_xml(xml.encode())


def test_duration_serialization_is_exact_for_terminating_decimals():
    for seconds, text in ((Fraction(5), b"PT5S"), (Fraction(25, 2), b"PT12.5S"),
                          (Fraction(3, 8), b"PT0.375S")):
        manifest = EmpdManifest(periods=(
            Period(duration_seconds=seconds,
                   adaptation_sets=(AdaptationSet(
                       representations=(_rep(),)),)),))
        data = serialize_xml(manifest)
        assert b'duration="' + text + b'"' in data
        assert parse_xml(data).periods[0].duration_seconds == seconds


@pytest.mark.parametrize("seconds, text", [
    (Fraction(10 ** 30 + 1, 4), "250000000000000000000000000000.25"),
    (Fraction(1, 2 ** 100), "0." + str(5 ** 100).rjust(100, "0")),
], ids=["31-digits", "100-places"])
def test_duration_serialization_is_exact_beyond_28_digits(seconds, text):
    manifest = EmpdManifest(periods=(Period(
        duration_seconds=seconds,
        adaptation_sets=(AdaptationSet(representations=(_rep(),)),)),))
    data = serialize_xml(manifest)
    assert f'duration="PT{text}S"'.encode() in data
    assert parse_xml(data).periods[0].duration_seconds == seconds
