"""Output checkers written apart from evso.

Every reference here is computed from the inputs and from rules the method
must obey (its definitions, not its code): a Y4M reader, a per-macroblock loop
for changed blocks, the split rule in exact integers, the integer keep rule,
an 8x8-window SSIM on exact integer window sums, the manifest bandwidth rule
and the battery-to-level fallback rule. A mismatch raises CheckFailed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

MB = 16
SSIM_EDGE = 8
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2
#: Defaults of the method, used where a config document leaves a key out.
DEFAULTS = {
    "theta": 320, "alpha": 3000, "beta": 15000, "k_window": 10,
    "taus": [500, 1500, 3000, 6000], "delta": 0.0001,
    "profiles": {"evso": [0.6, 0.83, 0.9, 0.93, 1],
                 "evso_plus": [0.5, 0.73, 0.83, 0.9, 1],
                 "evso_plus_plus": [0.43, 0.6, 0.7, 0.8, 0.93]},
}
#: Manifest level -> processing profile (None: every source frame kept).
LEVEL_PROFILE = {"baseline": None, "high": "evso", "medium": "evso_plus",
                 "low": "evso_plus_plus"}
BATTERY_LEVEL = {"charging_or_full": "baseline", "high": "high",
                 "medium": "medium", "low": "low"}
FALLBACK = ("low", "medium", "high", "baseline")


class CheckFailed(Exception):
    """An output of the program disagrees with the independent reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def full_config(doc: Optional[dict]) -> dict:
    merged = json.loads(json.dumps(DEFAULTS))
    merged.update(doc or {})
    return merged


# ---------------------------------------------------------------------------
# Y4M
# ---------------------------------------------------------------------------

class Y4M:
    """Frame index of a YUV4MPEG2 file; luma planes are read on demand."""

    def __init__(self, path: Path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            header = fh.readline()
            expect(header.startswith(b"YUV4MPEG2 ") and header.endswith(b"\n"),
                   f"{self.path.name}: bad signature")
            tags = {t[:1]: t[1:] for t in header.decode("ascii").split()[1:]}
            self.width, self.height = int(tags["W"]), int(tags["H"])
            num, den = tags["F"].split(":")
            self.fps = Fraction(int(num), int(den))
            self.color = tags.get("C", "420")
            luma = self.width * self.height
            if self.color == "mono":
                chroma = 0
            else:
                expect(self.color.startswith("420"),
                       f"{self.path.name}: color {self.color}")
                chroma = 2 * ((self.width + 1) // 2) * ((self.height + 1) // 2)
            size = self.path.stat().st_size
            self.offsets: List[int] = []
            pos = len(header)
            while pos < size:
                fh.seek(pos)
                marker = fh.readline()
                expect(marker.startswith(b"FRAME"),
                       f"{self.path.name}: no FRAME marker at byte {pos}")
                self.offsets.append(pos + len(marker))
                pos += len(marker) + luma + chroma
            expect(pos == size, f"{self.path.name}: truncated last frame")

    def __len__(self) -> int:
        return len(self.offsets)

    def luma(self, index: int) -> np.ndarray:
        with open(self.path, "rb") as fh:
            fh.seek(self.offsets[index])
            data = fh.read(self.width * self.height)
        return np.frombuffer(data, dtype=np.uint8).reshape(self.height, self.width)

    def all_luma(self) -> List[np.ndarray]:
        return [self.luma(i) for i in range(len(self))]


# ---------------------------------------------------------------------------
# Pair measures
# ---------------------------------------------------------------------------

def m_diff_ref(a: np.ndarray, b: np.ndarray, theta: int) -> int:
    """Changed full macroblocks, one block at a time."""
    count = 0
    for r in range(a.shape[0] // MB):
        for c in range(a.shape[1] // MB):
            block_a = a[r * MB:(r + 1) * MB, c * MB:(c + 1) * MB].astype(np.int64)
            block_b = b[r * MB:(r + 1) * MB, c * MB:(c + 1) * MB].astype(np.int64)
            if int(np.abs(block_a - block_b).sum()) > theta:
                count += 1
    return count


def y_diff_ref(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.abs(a.astype(np.int64) - b.astype(np.int64)).sum())


def _window_sums(x: np.ndarray) -> np.ndarray:
    table = np.zeros((x.shape[0] + 1, x.shape[1] + 1), dtype=np.int64)
    table[1:, 1:] = x.cumsum(axis=0).cumsum(axis=1)
    e = SSIM_EDGE
    return table[e:, e:] - table[:-e, e:] - table[e:, :-e] + table[:-e, :-e]


def ssim_ref(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over every 8x8 window, from exact int64 window sums."""
    a = a.astype(np.int64)
    b = b.astype(np.int64)
    n = SSIM_EDGE * SSIM_EDGE
    sa, sb = _window_sums(a), _window_sums(b)
    saa, sbb, sab = _window_sums(a * a), _window_sums(b * b), _window_sums(a * b)
    mu_a, mu_b = sa / n, sb / n
    var_a = (n * saa - sa * sa) / (n * n)
    var_b = (n * sbb - sb * sb) / (n * n)
    cov = (n * sab - sa * sb) / (n * n)
    numer = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    denom = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(numer / denom))


def check_analysis(doc: dict, clip: Y4M, theta: int,
                   sample: Sequence[int]) -> None:
    """An `evso analyze` report against the clip, on the sampled pairs."""
    expect(doc["width"] == clip.width and doc["height"] == clip.height,
           "analysis dims differ from the clip")
    expect(Fraction(doc["fps"]) == clip.fps, "analysis fps differs")
    expect(doc["frame_count"] == len(clip), "analysis frame count differs")
    pairs = doc["pairs"]
    expect(len(pairs) == len(clip) - 1, "analysis pair count differs")
    expect([p["index"] for p in pairs] == list(range(len(pairs))),
           "analysis pair indices are not 0..N-2")
    for i in sample:
        a, b = clip.luma(i), clip.luma(i + 1)
        expect(pairs[i]["m_diff"] == m_diff_ref(a, b, theta),
               f"pair {i}: m_diff {pairs[i]['m_diff']} differs from reference")
        expect(pairs[i]["y_diff"] == y_diff_ref(a, b),
               f"pair {i}: y_diff {pairs[i]['y_diff']} differs from reference")


# ---------------------------------------------------------------------------
# Split, rates and the keep rule
# ---------------------------------------------------------------------------

def split_ref(m_diffs: Sequence[int], alpha, beta, k: int,
              gamma: Fraction) -> List[Tuple[int, int]]:
    """Chunk ranges from the split rule, in exact integer arithmetic.

    At frame n the window is the k-1 pair diffs ending with pair (n-1, n);
    its mean divides their sum S by k and its variance divides by k-1, so
    sigma > alpha  <=>  sum((k*d - S)^2) > alpha^2 * k^2 * (k-1). A split
    needs that or pair n-1 above beta, and a chunk of more than gamma frames.
    All comparisons are strict.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    frame_count = len(m_diffs) + 1
    bound = alpha * alpha * k * k * (k - 1)
    starts = [0]
    for n in range(k, frame_count):
        window = m_diffs[n - k + 1:n]
        s = sum(window)
        spread = sum((k * d - s) ** 2 for d in window)
        if (spread > bound or m_diffs[n - 1] > beta) and n - starts[-1] > gamma:
            starts.append(n)
    ends = starts[1:] + [frame_count]
    return list(zip(starts, ends))


def check_split(chunks: Sequence[Tuple[int, int]], expected, gamma: Fraction) -> None:
    expect([tuple(c) for c in chunks] == [tuple(c) for c in expected],
           f"chunks {list(map(tuple, chunks))[:6]}... differ from the split rule "
           f"{list(map(tuple, expected))[:6]}...")
    for start, end in chunks[:-1]:
        expect(end - start > gamma, f"chunk ({start}, {end}) not longer than gamma")


def rate_ref(values: Sequence[int], factors: Sequence[float], gamma: Fraction,
             taus: Sequence[int], delta: float) -> float:
    """Chunk rate: mean band rate plus delta * sample deviation, capped at gamma."""
    g = float(gamma)
    total = 0.0
    for d in values:
        band = sum(1 for t in taus if d >= t)
        total += factors[band] * g
    mean = sum(values) / len(values)
    sigma = (math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
             if len(values) > 1 else 0.0)
    return min(total / len(values) + delta * sigma, g)


def check_rates(chunks, rates: Sequence[Dict[str, float]], m_diffs: Sequence[int],
                config: dict, gamma: Fraction) -> None:
    g = float(gamma)
    for (start, end), chunk_rates in zip(chunks, rates):
        for name, factors in config["profiles"].items():
            rate = chunk_rates[name]
            expect(factors[0] * g - 1e-9 <= rate <= g + 1e-9,
                   f"chunk ({start}, {end}) {name}: rate {rate} outside "
                   f"[{factors[0] * g}, {g}]")
            want = rate_ref(m_diffs[start:end - 1], factors, gamma,
                            config["taus"], config["delta"])
            expect(abs(rate - want) <= 1e-9 * g,
                   f"chunk ({start}, {end}) {name}: rate {rate} != {want}")


def snap(rate) -> Fraction:
    """A target rate as the rational it intends (denominator up to 10^9)."""
    if isinstance(rate, float):
        return Fraction(rate).limit_denominator(10 ** 9)
    return Fraction(rate)


def kept_ref(length: int, target: Fraction, fps: Fraction) -> List[int]:
    """Frame t is kept iff ceil((t+1)q) > ceil(tq), q = target/fps.

    The kept count is then ceil(length*q).
    """
    q = target / fps
    p, d = q.numerator, q.denominator
    kept = [t for t in range(length) if -(-(t + 1) * p // d) > -(-t * p // d)]
    expect(len(kept) == -(-length * p // d), "keep rule count identity broken")
    return kept


def check_kept(kept: Sequence[int], length: int, target: Fraction,
               fps: Fraction, what: str) -> None:
    expect(list(kept) == kept_ref(length, target, fps),
           f"{what}: kept frames {len(kept)} differ from the keep rule "
           f"({len(kept_ref(length, target, fps))} at {target})")


# ---------------------------------------------------------------------------
# Manifests and sessions
# ---------------------------------------------------------------------------

def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def manifest_levels(data: bytes) -> Dict[str, dict]:
    """Level -> {"bandwidth", "urls", "width", "height"} from manifest XML."""
    root = ET.fromstring(data)
    expect(_local(root.tag) == "MPD", "manifest root is not MPD")
    levels: Dict[str, dict] = {}
    for node in root.iter():
        if _local(node.tag) != "AdaptationSet":
            continue
        level = node.get("EVSOLevel", "baseline")
        for rep in node:
            if _local(rep.tag) != "Representation":
                continue
            urls = [seg.get("media") for seg in rep.iter()
                    if _local(seg.tag) == "SegmentURL"]
            levels[level] = {"bandwidth": int(rep.get("bandwidth")), "urls": urls,
                             "width": rep.get("width"), "height": rep.get("height")}
    return levels


def bandwidth_ref(total_bytes: int, frame_count: int, fps: Fraction) -> int:
    return math.ceil(Fraction(8 * total_bytes) * fps / frame_count)


def check_manifest(tree: Path, frame_count: int, fps: Fraction, width: int,
                   height: int, chunk_count: int) -> Dict[str, dict]:
    data = (tree / "manifest.mpd").read_bytes()
    levels = manifest_levels(data)
    expect(sorted(levels) == sorted(LEVEL_PROFILE),
           f"manifest levels {sorted(levels)}")
    for level, info in levels.items():
        want = [f"segments/{level}/chunk_{i:03d}.y4m" for i in range(chunk_count)]
        expect(info["urls"] == want, f"{level}: segment URLs differ")
        total = sum((tree / url).stat().st_size for url in info["urls"])
        expect(info["bandwidth"] == bandwidth_ref(total, frame_count, fps),
               f"{level}: bandwidth {info['bandwidth']} != "
               f"{bandwidth_ref(total, frame_count, fps)}")
        expect(info["width"] == str(width) and info["height"] == str(height),
               f"{level}: representation dims differ")
    duration = ET.fromstring(data).get("mediaPresentationDuration")
    exact = Fraction(frame_count) / fps
    # Durations whose decimal expansion does not terminate are written as floats.
    expect(Fraction(duration[2:-1]) == exact or float(duration[2:-1]) == float(exact),
           f"manifest duration {duration}")
    return levels


def level_for(battery: str, present: Sequence[str]) -> str:
    """Battery -> level, stepping toward milder levels when one is absent."""
    chain = FALLBACK[FALLBACK.index(BATTERY_LEVEL[battery]):]
    return next(level for level in chain if level in present)


def parse_trace(text: str) -> List[Tuple[int, int, str]]:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return sorted((int(s), int(b), bat) for s, b, bat in rows)


def check_session(rows, trace_text: str, levels: Dict[str, dict],
                  default_battery: str = "high") -> None:
    """Each selected level and URL against the fallback rule and the trace."""
    points = parse_trace(trace_text)
    count = len(next(iter(levels.values()))["urls"])
    expect(len(rows) == count, f"session has {len(rows)} rows for {count} segments")
    battery = default_battery
    cursor = 0
    for index, row in enumerate(rows):
        while cursor < len(points) and points[cursor][0] <= index:
            battery = points[cursor][2]
            cursor += 1
        level = level_for(battery, list(levels))
        expect(row.selected_level.value == level,
               f"segment {index}: level {row.selected_level.value}, rule says "
               f"{level} for battery {battery}")
        expect(row.segment_url == levels[level]["urls"][index],
               f"segment {index}: url {row.segment_url}")


# ---------------------------------------------------------------------------
# A whole pipeline tree
# ---------------------------------------------------------------------------

def check_pipeline_tree(tree: Path, source: Path, config_doc: Optional[dict],
                        ssim_levels: Sequence[str] = ("baseline", "high", "medium",
                                                      "low", "two_thirds")) -> dict:
    """Every output of `evso pipeline` against references from the source.

    Returns counts used to cross-check the trace: chunks and frames dropped
    over the five scored variants.
    """
    config = full_config(config_doc)
    clip = Y4M(source)
    frames = clip.all_luma()
    n = len(frames)
    fps = clip.fps
    sched = json.loads((tree / "schedule.json").read_text())
    gamma = Fraction(sched["gamma"])
    expect(sched["frame_count"] == n and Fraction(sched["fps"]) == fps,
           "schedule frame count or fps differs from the clip")
    expect(gamma == fps, f"gamma {gamma} is not the source rate {fps}")
    chunks = [(c["start"], c["end"]) for c in sched["chunks"]]
    m_diffs = [m_diff_ref(frames[i], frames[i + 1], config["theta"])
               for i in range(n - 1)]
    check_split(chunks, split_ref(m_diffs, config["alpha"], config["beta"],
                                  config["k_window"], gamma), gamma)
    check_rates(chunks, [c["rates"] for c in sched["chunks"]], m_diffs, config,
                gamma)

    kept_by_level: Dict[str, List[int]] = {}
    for level, profile in LEVEL_PROFILE.items():
        kept: List[int] = []
        for i, (start, end) in enumerate(chunks):
            target = fps if profile is None else snap(sched["chunks"][i]["rates"][profile])
            local = kept_ref(end - start, target, fps) if profile else list(
                range(end - start))
            seg = Y4M(tree / "segments" / level / f"chunk_{i:03d}.y4m")
            expect(seg.color == "mono" and (seg.width, seg.height) == (
                clip.width, clip.height), f"{level}/{i}: segment geometry")
            expect(seg.fps == target, f"{level}/{i}: segment rate {seg.fps} != {target}")
            expect(len(seg) == len(local),
                   f"{level}/{i}: {len(seg)} frames, keep rule gives {len(local)}")
            for j, t in enumerate(local):
                expect(np.array_equal(seg.luma(j), frames[start + t]),
                       f"{level}/{i}: frame {j} is not source frame {start + t}")
            kept.extend(start + t for t in local)
        kept_by_level[level] = kept
    kept_by_level["two_thirds"] = kept_ref(n, fps * Fraction(2, 3), fps)
    check_manifest(tree, n, fps, clip.width, clip.height, len(chunks))

    report = json.loads((tree / "quality_report.json").read_text())
    expect(report["frame_count"] == n and report["chunks"] == len(chunks),
           "quality report frame or chunk count differs")
    expect(sorted(report["levels"]) == sorted(kept_by_level),
           f"quality report variants {sorted(report['levels'])}")
    scores: Dict[Tuple[int, int], float] = {}
    dropped = 0
    for label, kept in kept_by_level.items():
        entry = report["levels"][label]
        expect(entry["kept_frames"] == len(kept),
               f"{label}: kept_frames {entry['kept_frames']} != {len(kept)}")
        dropped += n - len(kept)
        if label not in ssim_levels:
            continue
        keep = set(kept)
        total, ref = 0.0, 0
        for pos in range(n):
            if pos in keep:
                ref = pos
                total += 1.0
            else:
                if (ref, pos) not in scores:
                    scores[(ref, pos)] = ssim_ref(frames[ref], frames[pos])
                total += scores[(ref, pos)]
        expect(abs(total / n * 100.0 - entry["mean_ssim_pct"]) <= 1e-4,
               f"{label}: mean SSIM {entry['mean_ssim_pct']}% != {total / n * 100.0}%")
    return {"chunks": len(chunks), "dropped_frames": dropped}


def tree_bytes(root: Path) -> Dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
