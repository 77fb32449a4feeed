import importlib.util
import json
import os
import select
import signal
import subprocess
import sys
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest

import evso
from evso import cli, errors
from evso.frame_source import read_y4m

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_CONFIG = """{
  "theta": 320,
  "alpha": 3000,
  "beta": 15000,
  "k_window": 10,
  "taus": [500, 1500, 3000, 6000],
  "delta": 0.0001,
  "profiles": {"evso": [0.6, 0.83, 0.9, 0.93, 1], "evso_plus": [0.5, 0.73, 0.83, 0.9, 1], "evso_plus_plus": [0.43, 0.6, 0.7, 0.8, 0.93]}
}"""


def _synth_clip(tmp_path, name="clip.y4m", count=45):
    path = tmp_path / name
    code = cli.main([
        "synth", "moving-block", "--dims", "96x64", "--count", str(count),
        "--block-edge", "32", "--velocity", "8", "--out", str(path),
    ])
    assert code == 0
    return path


def test_show_config_prints_defaults_exactly(capsys):
    assert cli.main(["--show-config"]) == 0
    assert capsys.readouterr().out.strip() == EXPECTED_CONFIG


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 400, "alpha": 12}))
    assert cli.main(["--config", str(cfg), "--show-config"]) == 0
    out = capsys.readouterr().out
    assert '"theta": 400' in out
    assert '"alpha": 12' in out
    assert '"beta": 15000' in out


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thetas": 1}))
    assert cli.main(["--config", str(cfg), "--show-config"]) == 1
    assert "unknown config key" in capsys.readouterr().err


#: Config files that are not JSON objects or carry wrongly typed values.
_BAD_CONFIGS = {"list": '[1]', "theta-str": '{"theta": "x"}',
                "taus-int": '{"taus": 5}',
                "profile-int": '{"profiles": {"evso": 5}}',
                "k_window-float": '{"k_window": 2.5}'}


@pytest.mark.parametrize("text", ["{", *_BAD_CONFIGS.values()],
                         ids=["not-json", *_BAD_CONFIGS])
def test_config_file_rejects_malformed_json(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg), "--show-config"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    if text != "{":
        with pytest.raises(errors.MalformedDocument):
            cli.load_config(str(cfg))


def test_readme_configuration_block_matches_show_config(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert cli.main(["--show-config"]) == 0
    assert capsys.readouterr().out == block


def test_traced_benchmark_targets_resolve_on_package():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.TARGETS:
        assert callable(getattr(getattr(evso, module_name), attr)), (
            module_name, attr)


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage: evso" in capsys.readouterr().out


def test_synth_and_analyze_round_trip(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    capsys.readouterr()
    assert cli.main(["analyze", str(clip)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["width"] == 96 and doc["height"] == 64
    assert doc["frame_count"] == 45
    assert len(doc["pairs"]) == 44
    assert all(p["m_diff"] >= 0 for p in doc["pairs"])
    assert all(p["ssim"] is None for p in doc["pairs"])


def test_analyze_with_ssim_to_file(tmp_path):
    clip = _synth_clip(tmp_path)
    out = tmp_path / "analysis.json"
    assert cli.main(["analyze", str(clip), "--with-ssim",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(0.0 < p["ssim"] <= 1.0 for p in doc["pairs"])
    assert [p["index"] for p in doc["pairs"]] == list(range(44))


def test_split_accepts_saved_analysis(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    analysis = tmp_path / "analysis.json"
    assert cli.main(["analyze", str(clip), "--out", str(analysis)]) == 0
    capsys.readouterr()
    assert cli.main(["split", "--analysis", str(analysis)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chunks"][0]["start"] == 0
    assert doc["chunks"][-1]["end"] == 45
    assert doc["gamma"] == "30"


def test_split_requires_some_input(capsys):
    assert cli.main(["split"]) == 1
    assert "error:" in capsys.readouterr().err


def test_schedule_outputs_rates_per_profile(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    capsys.readouterr()
    assert cli.main(["schedule", str(clip)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for chunk in doc["chunks"]:
        assert set(chunk["rates"]) == {"evso", "evso_plus", "evso_plus_plus"}
        for rate in chunk["rates"].values():
            assert 0 < rate <= 30


def test_process_hold_mode_writes_full_length_stream(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    capsys.readouterr()
    out = tmp_path / "held.y4m"
    assert cli.main(["process", str(clip), "--profile", "evso_plus_plus",
                     "--mode", "hold", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    held = read_y4m(out.read_bytes())
    assert len(held) == 45
    assert held.fps == Fraction(30)
    assert summary["kept_frames"] < 45


def test_process_segment_mode_writes_chunk_files(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    capsys.readouterr()
    outdir = tmp_path / "segs"
    assert cli.main(["process", str(clip), "--profile", "two_thirds",
                     "--out", str(outdir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kept_frames"] == 30
    files = sorted(os.listdir(outdir))
    assert files == ["chunk_000.y4m"]
    segment = read_y4m((outdir / files[0]).read_bytes())
    assert len(segment) == 30
    assert segment.fps == Fraction(20)


def test_pipeline_builds_complete_tree(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    capsys.readouterr()
    for rel in ("manifest.mpd", "schedule.json", "quality_report.json",
                "segments/baseline/chunk_000.y4m",
                "segments/high/chunk_000.y4m",
                "segments/medium/chunk_000.y4m",
                "segments/low/chunk_000.y4m"):
        assert (outdir / rel).is_file(), rel
    report = json.loads((outdir / "quality_report.json").read_text())
    assert set(report["levels"]) == {"baseline", "high", "medium", "low",
                                     "two_thirds"}
    assert report["levels"]["baseline"]["mean_ssim_pct"] == 100.0
    assert report["levels"]["baseline"]["avg_frame_rate"] == 30.0
    # refuses to reuse the tree unless forced
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 1
    capsys.readouterr()
    assert cli.main(["pipeline", str(clip), str(outdir), "--force"]) == 0


def test_manifest_rebuild_matches_pipeline_output(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    original = (outdir / "manifest.mpd").read_bytes()
    rebuilt_path = tmp_path / "rebuilt.mpd"
    assert cli.main(["manifest", str(outdir), "--out", str(rebuilt_path)]) == 0
    assert rebuilt_path.read_bytes() == original
    capsys.readouterr()
    assert cli.main(["manifest", "--parse", str(outdir / "manifest.mpd")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [v["level"] for v in doc["video_sets"]] == [
        "baseline", "high", "medium", "low"]


def test_correlate_custom_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"kind": "static", "width": 32, "height": 32, "count": 10, "luma": 64},
        {"kind": "noise", "width": 32, "height": 32, "count": 10, "seed": 3},
    ]))
    assert cli.main(["correlate", "--corpus", str(corpus)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairs"] == 18
    assert -1.0 <= doc["pearson_r"] <= 1.0


def test_simulate_writes_session_csv(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    trace = tmp_path / "trace.csv"
    trace.write_text("segment_index,bandwidth_bps,battery_level\n"
                     "0,1000000000,high\n")
    session = tmp_path / "session.csv"
    assert cli.main(["simulate", str(outdir / "manifest.mpd"),
                     "--trace", str(trace), "--out", str(session)]) == 0
    lines = session.read_text().strip().splitlines()
    assert lines[0].startswith("segment_index,")
    assert lines[1].split(",")[3] == "high"


@pytest.mark.parametrize("pairs", [None, [{"index": 0, "y_diff": 5}],
                                   [{"index": 0, "m_diff": 999}],
                                   [{"index": 1, "m_diff": 0}]])
def test_split_rejects_malformed_analysis(tmp_path, capsys, pairs):
    doc = {"width": 96, "height": 64, "fps": "30"}
    if pairs is not None:
        doc["pairs"] = pairs
    analysis = tmp_path / "analysis.json"
    analysis.write_text(json.dumps(doc))
    assert cli.main(["split", "--analysis", str(analysis)]) == 1
    assert "error: not an analysis document" in capsys.readouterr().err


def test_manifest_rejects_schedule_lacking_chunks(tmp_path, capsys):
    (tmp_path / "schedule.json").write_text(
        json.dumps({"frame_count": 45, "fps": "30", "gamma": "30"}))
    assert cli.main(["manifest", str(tmp_path)]) == 1
    assert "error: not a schedule document" in capsys.readouterr().err


def test_simulate_rejects_malformed_trace(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    trace = tmp_path / "trace.csv"
    for text in ("segment_index,battery_level\n0,high\n",
                 "bandwidth_bps\n1000000000\n",
                 "segment_index,bandwidth_bps\nfirst,1000000000\n"):
        trace.write_text(text)
        capsys.readouterr()
        assert cli.main(["simulate", str(outdir / "manifest.mpd"),
                         "--trace", str(trace)]) == 1
        assert "error: not a trace CSV" in capsys.readouterr().err


def test_missing_input_reports_error(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "nope.y4m")]) == 1
    assert "error:" in capsys.readouterr().err


TREE_ENTRIES = ("manifest.mpd", "quality_report.json", "schedule.json",
                "segments")


def _tree_bytes(root):
    return {path.relative_to(root): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_forced_pipeline_replaces_tree_of_longer_clip(tmp_path, capsys):
    # Zero thresholds cut wherever the chunk is already longer than a second.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0, "beta": 0}))
    cfg = str(cfg)
    long_clip = _synth_clip(tmp_path, "long.y4m", count=90)
    short_clip = _synth_clip(tmp_path, "short.y4m", count=20)
    outdir = tmp_path / "tree"
    assert cli.main(["--config", cfg, "pipeline", str(long_clip),
                     str(outdir)]) == 0
    assert len(os.listdir(outdir / "segments" / "low")) == 3
    assert cli.main(["--config", cfg, "pipeline", str(short_clip),
                     str(outdir), "--force"]) == 0
    for level in ("baseline", "high", "medium", "low"):
        assert os.listdir(outdir / "segments" / level) == ["chunk_000.y4m"]
    manifest = (outdir / "manifest.mpd").read_bytes()
    assert cli.main(["manifest", str(outdir)]) == 0
    assert (outdir / "manifest.mpd").read_bytes() == manifest
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "long.y4m",
                                            "short.y4m", "tree"]


def test_failed_pipeline_leaves_old_tree_untouched(tmp_path, capsys,
                                                   monkeypatch):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    before = _tree_bytes(outdir)

    def fail(*args, **kwargs):
        raise errors.EvsoError("quality report failed")

    monkeypatch.setattr("evso.vprocessor.quality_report", fail)
    other = _synth_clip(tmp_path, "other.y4m", count=60)
    capsys.readouterr()
    assert cli.main(["pipeline", str(other), str(outdir), "--force"]) == 1
    assert "quality report failed" in capsys.readouterr().err
    assert _tree_bytes(outdir) == before
    assert sorted(os.listdir(outdir)) == list(TREE_ENTRIES)
    assert sorted(os.listdir(tmp_path)) == ["clip.y4m", "other.y4m", "tree"]


def test_forced_pipeline_leaves_other_files_in_outdir(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    outdir.mkdir()
    (outdir / "notes.txt").write_text("mine")
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 1
    for _ in range(2):
        assert cli.main(["pipeline", str(clip), str(outdir), "--force"]) == 0
        assert (outdir / "notes.txt").read_text() == "mine"
        assert sorted(os.listdir(outdir)) == sorted(TREE_ENTRIES
                                                    + ("notes.txt",))


def test_forced_pipeline_into_current_dir_keeps_the_clip(tmp_path, capsys,
                                                         monkeypatch):
    clip = _synth_clip(tmp_path)
    data = clip.read_bytes()
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert cli.main(["pipeline", "clip.y4m", ".", "--force"]) == 0
        assert clip.read_bytes() == data
        assert sorted(os.listdir(tmp_path)) == sorted(TREE_ENTRIES
                                                      + ("clip.y4m",))
    manifest = (tmp_path / "manifest.mpd").read_bytes()
    assert cli.main(["manifest", "."]) == 0
    assert (tmp_path / "manifest.mpd").read_bytes() == manifest


@pytest.mark.parametrize("stop", [signal.SIGTERM, signal.SIGINT])
def test_serve_announces_port_at_once_and_stops_on_signal(tmp_path, stop):
    (tmp_path / "manifest.mpd").write_text("<MPD/>")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    # Started from a script in the background, a server inherits SIGINT
    # ignored; it must still stop on it.
    proc = subprocess.Popen(
        [sys.executable, "-m", "evso.cli", "serve", str(tmp_path),
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready, "no serving line within 5 s"
        line = proc.stdout.readline().decode()
        url = line.rsplit(" at ", 1)[1].strip()
        with urllib.request.urlopen(url + "manifest.mpd", timeout=5) as resp:
            assert resp.read() == b"<MPD/>"
        proc.send_signal(stop)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_manifest_lists_segments_in_chunk_order_past_999(tmp_path):
    count = 1001
    chunks = [{"start": i, "end": i + 1, "sigma": 0.0, "rates": {}}
              for i in range(count)]
    (tmp_path / "schedule.json").write_text(json.dumps(
        {"frame_count": count, "fps": "30", "gamma": "30", "chunks": chunks}))
    level_dir = tmp_path / "segments" / "baseline"
    level_dir.mkdir(parents=True)
    for i in range(count):
        (level_dir / f"chunk_{i:03d}.y4m").write_bytes(
            b"YUV4MPEG2 W16 H16 F30:1 Cmono\n")
    assert cli.main(["manifest", str(tmp_path)]) == 0
    parsed = evso.parse_xml((tmp_path / "manifest.mpd").read_bytes())
    urls = parsed.video_sets()[0].representations[0].segment_urls
    assert urls == tuple(f"segments/baseline/chunk_{i:03d}.y4m"
                         for i in range(count))


def _one_representation_mpd(attrs):
    return (f'<MPD><Period duration="PT2S"><AdaptationSet contentType="video">'
            f'<Representation id="r" {attrs}/></AdaptationSet></Period></MPD>')


#: Baseline lists two segments; the low set's representation lists none.
_EMPTY_LOW_MPD = """<MPD><Period duration="PT2S">
  <AdaptationSet contentType="video" EVSOLevel="baseline">
    <Representation id="baseline" bandwidth="1"><SegmentList>
      <SegmentURL media="b0"/><SegmentURL media="b1"/>
    </SegmentList></Representation></AdaptationSet>
  <AdaptationSet contentType="video" EVSOLevel="low">
    <Representation id="low" bandwidth="1"/></AdaptationSet>
</Period></MPD>"""


#: The first set, baseline, lists no segments; the low set lists two.
_EMPTY_BASELINE_MPD = """<MPD><Period duration="PT2S">
  <AdaptationSet contentType="video" EVSOLevel="baseline">
    <Representation id="baseline" bandwidth="1"/></AdaptationSet>
  <AdaptationSet contentType="video" EVSOLevel="low">
    <Representation id="low" bandwidth="1"><SegmentList>
      <SegmentURL media="l0"/><SegmentURL media="l1"/>
    </SegmentList></Representation></AdaptationSet>
</Period></MPD>"""


def test_simulate_plays_longest_representation_when_first_is_empty(
        tmp_path, capsys):
    mpd = tmp_path / "m.mpd"
    mpd.write_text(_EMPTY_BASELINE_MPD)
    trace = tmp_path / "trace.csv"
    trace.write_text("segment_index,bandwidth_bps,battery_level\n0,1000,low\n")
    assert cli.main(["simulate", str(mpd), "--trace", str(trace)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]


@pytest.mark.parametrize("files, argv", [
    pytest.param({}, ["split", "clip.y4m", "--gamma", "30/0"], id="gamma"),
    pytest.param({"clip.yuv": ""},
                 ["analyze", "clip.yuv", "--dims", "96x64", "--fps", "30/0"],
                 id="raw-fps"),
    *[pytest.param({"cfg.json": text},
                   ["--config", "cfg.json", "split", "clip.y4m"],
                   id=f"config-{name}") for name, text in _BAD_CONFIGS.items()],
    *[pytest.param({"bad.mpd": _one_representation_mpd(attrs)},
                   ["manifest", "--parse", "bad.mpd"], id=f"mpd-{name}")
      for name, attrs in (("bandwidth-zz", 'bandwidth="zz"'),
                          ("bandwidth-neg", 'bandwidth="-5"'),
                          ("width-q", 'bandwidth="1" width="q"'))],
    pytest.param({"m.mpd": _EMPTY_LOW_MPD,
                  "trace.csv": "segment_index,bandwidth_bps,battery_level\n"
                               "0,1000,low\n"},
                 ["simulate", "m.mpd", "--trace", "trace.csv"],
                 id="empty-set"),
    pytest.param({"manifest.mpd": "<MPD/>"}, ["serve", ".", "--port", "70000"],
                 id="port"),
])
def test_bad_input_prints_error_and_exits_1(tmp_path, monkeypatch, capsys,
                                            files, argv):
    _synth_clip(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
