"""Each checker accepts evso's real outputs and rejects a seeded corruption.

Run with: python3 -m pytest perfbench
"""

import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from evso import cli, empd, stream_sim  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    clip = root / "clip.y4m"
    inputs.write_y4m(clip, *inputs.PIPELINE_DIMS, inputs.PIPELINE_FPS,
                     inputs.pipeline_frames(SEED))
    config = root / "config.json"
    inputs.write_json(config, inputs.pipeline_config())
    tree = root / "tree"
    assert cli.main(["--config", str(config), "pipeline", str(clip), str(tree)]) == 0
    return clip, tree


@pytest.fixture
def tree_copy(built, tmp_path):
    clip, tree = built
    copy = tmp_path / "tree"
    shutil.copytree(tree, copy)
    return clip, copy


def check(clip, tree):
    return checks.check_pipeline_tree(tree, clip, inputs.pipeline_config())


def test_real_pipeline_tree_passes(built):
    clip, tree = built
    counts = check(clip, tree)
    assert counts["chunks"] == 5


def test_flipped_segment_byte_is_rejected(tree_copy):
    clip, tree = tree_copy
    seg = tree / "segments" / "medium" / "chunk_002.y4m"
    data = bytearray(seg.read_bytes())
    data[-5] ^= 0x01
    seg.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed, match="frame"):
        check(clip, tree)


def test_off_by_one_kept_count_is_rejected(tree_copy):
    clip, tree = tree_copy
    path = tree / "quality_report.json"
    report = json.loads(path.read_text())
    report["levels"]["low"]["kept_frames"] += 1
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="kept_frames"):
        check(clip, tree)


def test_keep_rule_rejects_one_kept_index_too_many():
    kept = checks.kept_ref(300, Fraction(129, 10), Fraction(30))
    assert len(kept) == 129
    with pytest.raises(checks.CheckFailed):
        checks.check_kept(kept + [299], 300, Fraction(129, 10), Fraction(30), "x")


def test_moved_split_is_rejected(tree_copy):
    clip, tree = tree_copy
    path = tree / "schedule.json"
    sched = json.loads(path.read_text())
    sched["chunks"][1]["end"] += 1
    sched["chunks"][2]["start"] += 1
    path.write_text(json.dumps(sched))
    with pytest.raises(checks.CheckFailed, match="split rule"):
        check(clip, tree)


def test_wrong_rate_is_rejected(tree_copy):
    clip, tree = tree_copy
    path = tree / "schedule.json"
    sched = json.loads(path.read_text())
    sched["chunks"][0]["rates"]["evso"] += 0.5
    path.write_text(json.dumps(sched))
    with pytest.raises(checks.CheckFailed, match="rate"):
        check(clip, tree)


def test_bandwidth_off_by_one_is_rejected(tree_copy):
    clip, tree = tree_copy
    path = tree / "manifest.mpd"
    levels = checks.manifest_levels(path.read_bytes())
    bw = levels["high"]["bandwidth"]
    path.write_bytes(path.read_bytes().replace(
        f'bandwidth="{bw}"'.encode(), f'bandwidth="{bw + 1}"'.encode()))
    with pytest.raises(checks.CheckFailed, match="bandwidth"):
        check(clip, tree)


def test_mean_ssim_off_by_1e5_is_rejected(tree_copy):
    clip, tree = tree_copy
    path = tree / "quality_report.json"
    report = json.loads(path.read_text())
    report["levels"]["two_thirds"]["mean_ssim_pct"] += 1e-3
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="SSIM"):
        check(clip, tree)


def test_ssim_reference_scores_identical_planes_exactly_one():
    plane = np.random.default_rng(0).integers(0, 256, (40, 24), dtype=np.uint8)
    assert checks.ssim_ref(plane, plane) == 1.0


def test_split_rule_cuts_at_a_spike_only_past_gamma():
    diffs = [0] * 20 + [100] + [0] * 20
    assert checks.split_ref(diffs, 1000, 50, 10, Fraction(15)) == [(0, 21), (21, 42)]
    assert checks.split_ref(diffs, 1000, 50, 10, Fraction(25)) == [(0, 42)]


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyze")
    clip = root / "clip.y4m"
    frames = inputs.pipeline_frames(SEED)[35:50]
    inputs.write_y4m(clip, *inputs.PIPELINE_DIMS, inputs.PIPELINE_FPS, frames)
    out = root / "analysis.json"
    assert cli.main(["analyze", str(clip), "--out", str(out)]) == 0
    return checks.Y4M(clip), json.loads(out.read_text())


def test_real_analysis_passes(analysis):
    clip, doc = analysis
    checks.check_analysis(doc, clip, 320, range(len(clip) - 1))


@pytest.mark.parametrize("field", ["m_diff", "y_diff"])
def test_off_by_one_pair_measure_is_rejected(analysis, field):
    clip, doc = analysis
    doc = json.loads(json.dumps(doc))
    doc["pairs"][4][field] += 1
    with pytest.raises(checks.CheckFailed, match=field):
        checks.check_analysis(doc, clip, 320, [4])


def test_reader_sizes_odd_420_chroma_by_ceiling(tmp_path):
    path = tmp_path / "odd.y4m"
    frames = inputs.odd_frames()
    inputs.write_y4m(path, *inputs.ODD_DIMS, Fraction(30), frames)
    clip = checks.Y4M(path)
    assert len(clip) == len(frames)
    assert np.array_equal(clip.luma(len(frames) - 1), frames[-1][0])


def test_wrong_level_selection_is_rejected(built):
    _, tree = built
    data = (tree / "manifest.mpd").read_bytes()
    levels = checks.manifest_levels(data)
    text = inputs.stream_traces(SEED, 5)[0]
    log = stream_sim.simulate_session(
        empd.parse_xml(data), stream_sim.load_trace(io.StringIO(text)))
    checks.check_session(log.rows, text, levels)
    other = text.replace("charging_or_full", "tmp").replace("low", "charging_or_full")
    other = other.replace("tmp", "low")
    with pytest.raises(checks.CheckFailed, match="level"):
        checks.check_session(log.rows, other, levels)


def test_fallback_rule_steps_toward_milder_levels():
    assert checks.level_for("low", ["baseline", "high", "medium"]) == "medium"
    assert checks.level_for("medium", ["baseline"]) == "baseline"
    assert checks.level_for("charging_or_full", ["baseline", "low"]) == "baseline"
