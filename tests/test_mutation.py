"""Seeded byte mutations of the two readers' inputs.

Whatever bytes arrive, `read_y4m` and `parse_xml` either return or raise an
`EvsoError`: a truncated, flipped or padded input never escapes as a bare
ValueError, OverflowError or LookupError, nor stalls a number parser.
"""

import re

import numpy as np
import pytest

from evso import cli
from evso.empd import parse_xml
from evso.errors import EvsoError, MalformedHeader, MalformedXml
from evso.frame_source import read_y4m

CASES_PER_INPUT = 2000
#: Inserted runs that reach number parsers: exponents, signs, separators.
TOKENS = (b"e999", b"-", b":", b"0", b"9", b"99", b"123", b"1e", b".",
          b"/", b"E-9", b"+", b" ")


def _mono_y4m():
    rng = np.random.Generator(np.random.PCG64(1))
    planes = rng.integers(0, 256, size=(3, 16, 32), dtype=np.uint8)
    return (b"YUV4MPEG2 W32 H16 F30000:1001 Ip A1:1 Cmono\n"
            + b"".join(b"FRAME\n" + p.tobytes() for p in planes))


def _odd_420_y4m():
    rng = np.random.Generator(np.random.PCG64(2))
    frame = 33 * 17 + 17 * 9 * 2
    return (b"YUV4MPEG2 W33 H17 F25:2 C420jpeg\n"
            + b"".join(b"FRAME\n" + rng.integers(0, 256, frame, np.uint8).tobytes()
                       for _ in range(3)))


@pytest.fixture(scope="module")
def pipeline_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    clip = root / "clip.y4m"
    assert cli.main(["synth", "moving-block", "--dims", "48x32", "--count",
                     "40", "--velocity", "8", "--out", str(clip)]) == 0
    assert cli.main(["pipeline", str(clip), str(root / "tree")]) == 0
    return (root / "tree" / "manifest.mpd").read_bytes()


def _mutate(data: bytes, rng) -> bytes:
    """One to three truncations, bit flips or token inserts."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(out) + 1))
        op = rng.integers(3)
        if op == 0:
            del out[at:]
        elif op == 1 and at < len(out):
            out[at] ^= 1 << int(rng.integers(8))
        else:
            token = TOKENS[int(rng.integers(len(TOKENS)))]
            out[at:at] = token
    return bytes(out)


def _escapes(reader, data: bytes, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    escaped = []
    for _ in range(CASES_PER_INPUT):
        case = _mutate(data, rng)
        try:
            reader(case)
        except EvsoError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            escaped.append((case[:80], repr(exc)[:120]))
    return escaped


@pytest.mark.parametrize("build, seed", [(_mono_y4m, 11), (_odd_420_y4m, 12)],
                         ids=["mono", "odd-420"])
def test_mutated_y4m_returns_or_raises_evso_errors(build, seed):
    assert _escapes(read_y4m, build(), seed) == []


def test_mutated_manifest_returns_or_raises_evso_errors(pipeline_manifest):
    assert _escapes(parse_xml, pipeline_manifest, 13) == []


def test_unknown_xml_encoding_is_malformed_xml(pipeline_manifest):
    bad = pipeline_manifest.replace(b"encoding='utf-8'", b"encoding='otf-8'")
    assert bad != pipeline_manifest
    with pytest.raises(MalformedXml, match="otf-8"):
        parse_xml(bad)


def _with_periods(manifest: bytes, *durations: bytes) -> bytes:
    """manifest with its period repeated once per PT<duration>S."""
    period = re.search(rb"<Period .*</Period>", manifest, re.S).group(0)
    return manifest.replace(period, b"".join(
        re.sub(rb'duration="[^"]*"', b'duration="PT%sS"' % d, period)
        for d in durations))


@pytest.mark.parametrize("durations", [
    [b"1e999"], [b"1e308", b"1e308"],
    # Exponents that Fraction would expand into trillions of digits.
    [b"1.1e3333333333333333"], [b"1e-3333333333333"]])
def test_duration_that_no_float_holds_is_malformed_xml(pipeline_manifest,
                                                       durations):
    with pytest.raises(MalformedXml, match="float"):
        parse_xml(_with_periods(pipeline_manifest, *durations))


def test_duration_that_a_float_holds_parses(pipeline_manifest):
    manifest = parse_xml(_with_periods(pipeline_manifest, b"1e308", b"0E-999"))
    assert manifest.duration_seconds == 10 ** 308


def test_y4m_rate_that_no_float_holds_is_a_bad_f_tag():
    frames = b"FRAME\n" + bytes(256)
    for rate in (b"9" * 400 + b":1", b"1:" + b"9" * 400, b"0:1", b"-30:1"):
        with pytest.raises(MalformedHeader, match="bad F tag"):
            read_y4m(b"YUV4MPEG2 W16 H16 F" + rate + b" Cmono\n" + frames * 2)
