import hashlib
import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import tracemalloc
import urllib.error
import urllib.request
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evso import cli, empd, errors
from evso.fscheduler import PROFILE_FACTORS
from evso.frame_source import read_y4m, standard_corpus

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


#: Cuts the README's 90-frame moving-block clip into three chunks.
_CUT_CONFIG = {"beta": 3, "taus": [1, 2, 3, 5]}


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
    with pytest.raises(errors.MalformedDocument, match="unknown config keys"):
        cli.load_config(str(cfg))


#: A corpus entry's keys for every kind, each at a valid value.
_CORPUS_ENTRY = {"width": 32, "height": 32, "count": 4, "luma": 9,
                 "block_edge": 8, "velocity": 2, "seed": 1}


#: Config files that are not JSON objects or carry wrongly typed values.
_BAD_CONFIGS = {"list": '[1]', "theta-str": '{"theta": "x"}',
                "taus-int": '{"taus": 5}',
                "profile-int": '{"profiles": {"evso": 5}}',
                "k_window-float": '{"k_window": 2.5}',
                "alpha-nan": '{"alpha": NaN}',
                "delta-1e999": '{"delta": 1e999}',
                "profile-unknown": '{"profiles": {"foo": [0.5, 0.6, 0.7, 0.8, 1]}}',
                "theta-true": '{"theta": true}',
                "beta-false": '{"alpha": true, "beta": false}',
                "taus-true": '{"taus": [true, 2, 3, 4]}',
                "delta-true": '{"delta": true}',
                "profile-true": '{"profiles": {"evso": [true, true, true, true, true]}}'}


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


def test_partial_profiles_keep_the_other_defaults(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profiles": {"evso": [0.5, 0.6, 0.7, 0.8, 1]}}))
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "--show-config"]) == 0
    shown = json.loads(capsys.readouterr().out)["profiles"]
    assert shown == {"evso": [0.5, 0.6, 0.7, 0.8, 1],
                     "evso_plus": [0.5, 0.73, 0.83, 0.9, 1],
                     "evso_plus_plus": [0.43, 0.6, 0.7, 0.8, 0.93]}
    outdir = tmp_path / "tree"
    assert cli.main(["--config", str(cfg), "pipeline", str(clip),
                     str(outdir)]) == 0
    sched = json.loads((outdir / "schedule.json").read_text())
    assert sched["chunks"][0]["rates"] == pytest.approx(
        {"evso": 15.0, "evso_plus": 15.0, "evso_plus_plus": 12.9})


def test_readme_configuration_block_matches_show_config(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert cli.main(["--show-config"]) == 0
    assert capsys.readouterr().out == block


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "[0, 24]\n"


def _run_cold(code, **env_vars):
    """Run `code` in a fresh interpreter that finds evso only in src/.

    The child sees env_vars and not the OPENBLAS_NUM_THREADS that importing
    evso.cli set in this process.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", [
    pytest.param("import sys, evso\n"
                 "loaded = [m for m in sys.modules if m.startswith('evso.')"
                 " or m in ('numpy', 'http.server')]\n"
                 "assert not loaded, loaded", id="package"),
    pytest.param("import sys, evso.stream_sim\n"
                 "assert 'numpy' not in sys.modules\n"
                 "assert 'http.server' not in sys.modules", id="stream_sim"),
    pytest.param("import sys, evso.fscheduler\n"
                 "assert 'numpy' not in sys.modules\n"
                 "loaded = sorted(m for m in sys.modules if m.startswith('evso.'))\n"
                 "assert loaded == ['evso.errors', 'evso.fscheduler'], loaded",
                 id="fscheduler"),
    pytest.param("import sys, evso.empd\n"
                 "assert 'numpy' not in sys.modules", id="empd"),
    pytest.param("import sys, evso.cli\n"
                 "loaded = [m for m in ('numpy', 'evso.empd', 'evso.stream_sim',"
                 " 'xml.etree', 'socketserver', 'http.server', 'uuid', 'platform')"
                 " if m in sys.modules]\n"
                 "assert not loaded, loaded", id="cli"),
    pytest.param("import os, socket, sys, tempfile\n"
                 "from evso import stream_sim\n"
                 "with tempfile.TemporaryDirectory() as root:\n"
                 "    with open(os.path.join(root, 'manifest.mpd'), 'wb') as fh:\n"
                 "        fh.write(b'<MPD/>')\n"
                 "    with stream_sim.serve(root) as handle:\n"
                 "        sock = socket.create_connection((handle.host, handle.port))\n"
                 "        sock.sendall(b'GET /manifest.mpd HTTP/1.0\\r\\n\\r\\n')\n"
                 "        reply = b''.join(iter(lambda: sock.recv(4096), b''))\n"
                 "        sock.close()\n"
                 "assert reply.startswith(b'HTTP/1.1 200 '), reply\n"
                 "assert reply.endswith(b'\\r\\n\\r\\n<MPD/>'), reply\n"
                 "loaded = [m for m in ('http.server', 'email') if m in sys.modules]\n"
                 "assert not loaded, loaded", id="serve"),
    pytest.param("import evso\nassert not hasattr(evso, 'nope')",
                 id="unknown-name"),
])
def test_cold_import_loads_only_what_is_named(code):
    _run_cold(code)


def test_commands_that_touch_no_plane_load_no_numpy(tmp_path):
    clip = _synth_clip(tmp_path)
    tree = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(tree)]) == 0
    analysis = str(tmp_path / "a.json")
    assert cli.main(["analyze", str(clip), "--out", analysis]) == 0
    trace = tmp_path / "trace.csv"
    trace.write_text("segment_index,bandwidth_bps,battery_level\n"
                     "0,1000000000,high\n")
    manifest = str(tree / "manifest.mpd")
    _run_cold("import sys\n"
              "from evso import cli\n"
              "assert cli.main(['--show-config']) == 0\n"
              f"assert cli.main(['manifest', '--parse', {manifest!r}]) == 0\n"
              f"assert cli.main(['simulate', {manifest!r},"
              f" '--trace', {str(trace)!r}]) == 0\n"
              f"assert cli.main(['split', '--analysis', {analysis!r}]) == 0\n"
              f"assert cli.main(['schedule', '--analysis', {analysis!r}]) == 0\n"
              "loaded = [m for m in ('numpy', 'http.server') if m in sys.modules]\n"
              "assert not loaded, loaded")


def test_commands_that_touch_no_manifest_load_no_xml_or_csv(tmp_path):
    clip = str(_synth_clip(tmp_path))
    analysis = str(tmp_path / "a.json")
    out = str(tmp_path / "chunks")
    _run_cold("import sys\n"
              "from evso import cli\n"
              "assert cli.main(['--show-config']) == 0\n"
              f"assert cli.main(['analyze', {clip!r}, '--out', {analysis!r}]) == 0\n"
              f"assert cli.main(['split', '--analysis', {analysis!r}]) == 0\n"
              f"assert cli.main(['schedule', {clip!r}]) == 0\n"
              f"assert cli.main(['process', {clip!r}, '--profile', 'evso',"
              f" '--out', {out!r}]) == 0\n"
              "loaded = [m for m in ('xml.etree', 'csv') if m in sys.modules]\n"
              "assert not loaded, loaded")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_analyze_runs_in_one_thread(tmp_path):
    clip = _synth_clip(tmp_path)
    _run_cold("from evso import cli\n"
              f"assert cli.main(['analyze', {str(clip)!r},"
              f" '--out', {str(tmp_path / 'a.json')!r}]) == 0\n"
              "with open('/proc/self/status') as fh:\n"
              "    threads = [l for l in fh if l.startswith('Threads:')]\n"
              "assert threads == ['Threads:\\t1\\n'], threads")


@pytest.mark.parametrize("code, env_vars", [
    pytest.param("import os, evso.cli\n"
                 "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'",
                 {"OPENBLAS_NUM_THREADS": "2"}, id="user-value-wins"),
    pytest.param("import os, evso.similarity\n"
                 "assert 'OPENBLAS_NUM_THREADS' not in os.environ",
                 {}, id="library-import-sets-nothing"),
])
def test_blas_thread_default_is_set_by_cli_only(code, env_vars):
    _run_cold(code, **env_vars)


def test_traced_benchmark_targets_resolve_on_package():
    _run_cold("import runpy, evso\n"
              "for module, attr, _ in runpy.run_path('perfbench/tracer.py')"
              "['TARGETS']:\n"
              "    assert callable(getattr(getattr(evso, module), attr)), "
              "(module, attr)")


#: SHA-256 of `synth` output per kind, with non-default options and a
#: fractional rate.
_SYNTH_SHA256 = {
    ("static", "--dims", "48x32", "--count", "3", "--luma", "77",
     "--fps", "30000/1001"):
        "78df2622b73c89d5364d42c9641646cde0d323e98558138fa3b0ba746e661790",
    ("moving-block", "--dims", "64x48", "--count", "7", "--block-edge", "20",
     "--velocity", "-9", "--fg-luma", "200", "--bg-luma", "31", "--fps", "12.5"):
        "2b224595ebc011340255282e2f3f001939b0332c6d1070823f66dbc75066c7f3",
    ("noise", "--dims", "32x16", "--count", "4", "--seed", "9", "--amplitude",
     "100", "--fps", "2997/100"):
        "85d3c89c58b04e449119a491e496dfd1ec53e95e63cd6cabc9381eac5b6e5e6e",
}


@pytest.mark.parametrize("argv", sorted(_SYNTH_SHA256), ids=lambda a: a[0])
def test_synth_is_byte_identical_to_recorded_digests(tmp_path, capsys, argv):
    out = tmp_path / "clip.y4m"
    assert cli.main(["synth", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SYNTH_SHA256[argv]


@pytest.mark.parametrize("argv, message", [
    (["static", "--count", "0"], "count must be >= 1"),
    (["noise", "--count", "3", "--fps", "abc"],
     "Invalid literal for Fraction: 'abc'"),
    (["noise", "--count", "3", "--fps", "1/0"],
     "frame rate '1/0' has a zero denominator"),
    (["moving-block", "--count", "3", "--block-edge", "40"],
     "block edge 40 exceeds frame 32x32"),
    (["static", "--count", "3", "--luma", "300"],
     "luma_value 300 outside [0, 255]"),
    (["noise", "--count", "3", "--amplitude", "300"],
     "amplitude 300 outside [0, 255]"),
], ids=["count-0", "fps-abc", "fps-zero-den", "block-edge", "luma", "amplitude"])
def test_synth_bad_option_prints_its_error(tmp_path, capsys, argv, message):
    out = tmp_path / "bad.y4m"
    assert cli.main(["synth", *argv, "--dims", "32x32", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_checks_fps_before_building_planes(tmp_path, monkeypatch,
                                                 capsys):
    from evso import frame_source

    def refuse(*args, **kwargs):
        raise AssertionError("planes built before the rate was checked")

    monkeypatch.setattr(frame_source, "synth_noise", refuse)
    assert cli.main(["synth", "noise", "--dims", "1920x1080", "--count",
                     "100000", "--fps", "abc",
                     "--out", str(tmp_path / "big.y4m")]) == 1
    assert "Invalid literal for Fraction" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage: evso" in capsys.readouterr().out


def test_bad_dims_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "clip.yuv", "--dims", "12xq", "--fps", "30"])
    assert exc.value.code == 2
    assert "bad dims" in capsys.readouterr().err


def test_serve_has_no_manifest_name_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["serve", str(tmp_path), "--manifest-name", "x"])
    assert exc.value.code == 2
    assert "--manifest-name" in capsys.readouterr().err


def test_simulate_of_a_missing_trace_prints_the_os_error(tmp_path, capsys):
    mpd = tmp_path / "m.mpd"
    mpd.write_text(_EMPTY_BASELINE_MPD)
    missing = tmp_path / "no-such-trace.csv"
    assert cli.main(["simulate", str(mpd), "--trace", str(missing)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")


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


def test_analyze_onto_a_directory_leaves_no_temp_file(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert cli.main(["analyze", str(clip), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert out.is_dir() and list(out.iterdir()) == []
    assert list(tmp_path.glob(".*.tmp")) == []


def _frames_420(width=81, height=49, count=12):
    """(luma, chroma) bytes of each frame of a fixed odd-sized 4:2:0 clip: a
    diagonal ramp with a 20x20 noise patch that moves every other frame, so
    half the pairs are still, a noise burst at frame 9 and fresh chroma on
    every frame."""
    rng = np.random.Generator(np.random.PCG64(15))
    ramp = np.add.outer(np.arange(height), np.arange(width)) // 3
    patch = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    chroma_bytes = ((width + 1) // 2) * ((height + 1) // 2) * 2
    frames = []
    for t in range(count):
        luma = ramp.astype(np.uint8)
        x = 7 * (t // 2)
        luma[10:30, x:x + 20] = patch[:, :width - x]
        if t == 9:
            luma = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        chroma = rng.integers(0, 256, size=chroma_bytes, dtype=np.uint8)
        frames.append((luma.tobytes(), chroma.tobytes()))
    return frames


def _write_y4m_420(path, frames, width=81, height=49):
    """A C420jpeg Y4M at 30000/1001 fps of (luma, chroma) bytes, written a
    frame at a time."""
    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{width} H{height} F30000:1001 Ip A1:1 C420jpeg\n"
                 .encode())
        for luma, chroma in frames:
            fh.write(b"FRAME\n" + luma + chroma)
    return path


#: SHA-256 of `analyze --out` on the _frames_420 clip, by --with-ssim.
_ANALYZE_SHA256 = {
    False: "e41411d8104adb9456c367dd49a6717871deb1bbf194fed1e0bd8e9935e83d82",
    True: "f921c43bfff81a6e8c8a38167286ce3c16d2d11025e3755096f4f052ce57531a",
}


@pytest.mark.parametrize("with_ssim", [False, True], ids=["plain", "ssim"])
def test_analyze_is_byte_identical_to_recorded_digests(tmp_path, with_ssim):
    clip = _write_y4m_420(tmp_path / "clip.y4m", _frames_420())
    out = tmp_path / "a.json"
    flags = ["--with-ssim"] if with_ssim else []
    assert cli.main(["analyze", str(clip), *flags, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _ANALYZE_SHA256[with_ssim]


def test_analyze_of_raw_i420_equals_analyze_of_the_same_y4m(tmp_path):
    frames = _frames_420()
    clip = _write_y4m_420(tmp_path / "clip.y4m", frames)
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(b"".join(luma + chroma for luma, chroma in frames))
    outs = tmp_path / "y4m.json", tmp_path / "raw.json"
    assert cli.main(["analyze", str(clip), "--with-ssim",
                     "--out", str(outs[0])]) == 0
    assert cli.main(["analyze", str(raw), "--dims", "81x49", "--fps",
                     "30000/1001", "--layout", "I420", "--with-ssim",
                     "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _noise_frames_420(width, height, count):
    """(luma, chroma) bytes of seeded noise frames, made one at a time."""
    rng = np.random.Generator(np.random.PCG64(8))
    chroma = bytes(((width + 1) // 2) * ((height + 1) // 2) * 2)
    for _ in range(count):
        luma = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        yield luma.tobytes(), chroma


@pytest.mark.parametrize("command", ["analyze", "split", "schedule"])
def test_measuring_a_video_holds_a_few_planes_not_the_clip(tmp_path, capsys,
                                                          command):
    import evso.similarity  # noqa: F401  (its import is not what is measured)
    width, height, count = 512, 256, 120
    clip = _write_y4m_420(tmp_path / "long.y4m",
                          _noise_frames_420(width, height, count), width, height)
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        assert cli.main([command, str(clip), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text())["frame_count"] == count
    assert peak <= 6 * width * height  # the clip's luma is 120 planes


def test_analyze_of_a_1080p_clip_holds_the_pair_and_band_scratch(tmp_path,
                                                                 capsys):
    import evso.similarity  # noqa: F401  (its import is not what is measured)
    width, height = 1920, 1080
    clip = _write_y4m_420(tmp_path / "hd.y4m",
                          _noise_frames_420(width, height, 4), width, height)
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        assert cli.main(["analyze", str(clip), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text())["frame_count"] == 4
    # Two planes, plus a band of |a - b| and a chroma piece, not planes.
    assert peak <= 3 * width * height


@pytest.mark.parametrize("with_ssim", [False, True], ids=["plain", "ssim"])
def test_analyze_of_a_clip_truncated_mid_frame_writes_nothing(tmp_path, capsys,
                                                             with_ssim):
    data = _write_y4m_420(tmp_path / "full.y4m", _frames_420()).read_bytes()
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(data[:-100])
    (tmp_path / "full.y4m").unlink()
    out = tmp_path / "a.json"
    flags = ["--with-ssim"] if with_ssim else []
    capsys.readouterr()
    assert cli.main(["analyze", str(clip), *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: frame 11: chroma short by 100 bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.y4m"]


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


@pytest.mark.parametrize("source", ["video", "analysis", "gamma"])
def test_split_prints_the_schedule_without_rates(tmp_path, capsys, source):
    clip = _synth_clip(tmp_path, count=90)
    config = tmp_path / "cut.json"
    config.write_text(json.dumps(_CUT_CONFIG))
    argv = {"video": [str(clip)], "gamma": [str(clip), "--gamma", "12.5"]}
    if source == "analysis":
        analysis = tmp_path / "analysis.json"
        assert cli.main(["--config", str(config), "analyze", str(clip),
                         "--out", str(analysis)]) == 0
        argv["analysis"] = ["--analysis", str(analysis)]
    docs = {}
    for command in ("split", "schedule"):
        capsys.readouterr()
        assert cli.main(["--config", str(config), command,
                         *argv[source]]) == 0
        docs[command] = json.loads(capsys.readouterr().out)
    for chunk in docs["schedule"]["chunks"]:
        del chunk["sigma"], chunk["rates"]
    assert docs["split"] == docs["schedule"]
    assert len(docs["split"]["chunks"]) >= 2


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


def test_process_segment_mode_removes_chunks_of_a_longer_run(tmp_path, capsys):
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cut.json"
    cfg.write_text(json.dumps(_CUT_CONFIG))
    outdir = tmp_path / "segs"
    outdir.mkdir()
    for name in ("notes.txt", "chunk_one.y4m"):
        (outdir / name).write_text("keep")
    argv = ["process", str(clip), "--profile", "evso", "--out", str(outdir)]
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), *argv]) == 0
    assert len(json.loads(capsys.readouterr().out)["outputs"]) == 3
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["outputs"] == [
        str(outdir / "chunk_000.y4m")]
    assert sorted(os.listdir(outdir)) == ["chunk_000.y4m", "chunk_one.y4m",
                                          "notes.txt"]
    assert (outdir / "notes.txt").read_text() == "keep"
    assert len(read_y4m((outdir / "chunk_000.y4m").read_bytes())) < 90


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


#: SHA-256 of every file that `pipeline` writes for the README's 96x64
#: moving-block clip, under the default config and under _CUT_CONFIG.
_TREE_SHA256 = {
    "default": {
        "manifest.mpd": "2222a339d8e391f81ecd8f7ddc501069073942441685d1582ef27bb38a786e8b",
        "quality_report.json": "d235636153403d353913947ff3d52c3cb5182200b28ebefdd0bff982051dcc4a",
        "schedule.json": "0412b1db495fd312e3379d5728724f64ae4c01d411f9215e8c1564bce41145e2",
        "segments/baseline/chunk_000.y4m": "d553549396fa6b5af56af0d6b100c2a4dc18e4a6f61739a9172a69fd85e88415",
        "segments/high/chunk_000.y4m": "234afd5b8d5b22becbd01f4b62f54b025ee76420937c68e354cd1d8ca6a72853",
        "segments/low/chunk_000.y4m": "5a583ead80ff01e1635d096202b319a5b25debe866c242b23a0cca926e740359",
        "segments/medium/chunk_000.y4m": "6eb6ac04d4e7dec6410111499edaa54e14e5b5eb5299c600dd2a0ce21fa64cf3",
    },
    "cut": {
        "manifest.mpd": "dbf860d9dfb966dcafc3e3610c76cf4869b6f520a150b5d7fd920ecd1b7c15f6",
        "quality_report.json": "36f97946ec8c7474bb2104910b5a75d205c89e219dec073ef891879d54252772",
        "schedule.json": "a0e6af723fb631a690c6497f3e3098063c82d631eb34711f8f0d7a992c48d09d",
        "segments/baseline/chunk_000.y4m": "7875b81365f0c48fdddbc69bb5db44912c3e46af8e91c27d65d74066aae35f82",
        "segments/baseline/chunk_001.y4m": "955a479c58a997e8b9c0ca2b1496ba8750a3259b533622c8148d4138b611ff78",
        "segments/baseline/chunk_002.y4m": "96e589eda5eb98c6cda96ffd309be03f9afa8ca2723e6964619011728d520733",
        "segments/high/chunk_000.y4m": "f19d1c5ae6db99d5fbad6c695933b7a2dcd58a28e9d6d50158d1c9321d80a3c9",
        "segments/high/chunk_001.y4m": "d36d9e22c0c919f717d15059d2400d7215423de5a48207bcc040f988d6cd72a1",
        "segments/high/chunk_002.y4m": "380b793f03e3a4c77ccaca0b15d46be902c28672a0883547cc6b3fd701975aca",
        "segments/low/chunk_000.y4m": "5b8eed8fd2fcd026254fb278e4be52b378b54f74b415a964e4abeed279b70cd7",
        "segments/low/chunk_001.y4m": "f703b8743b192a26aecdf25daf9e2cb7f6e0fb38bd49a80f1a1ce345191cbf14",
        "segments/low/chunk_002.y4m": "b36802f3857c8c6b3b65a960a5e0917b5e50ce3fd535c4d20cceb8bc81d94bcb",
        "segments/medium/chunk_000.y4m": "35cc7f963a519eca14ccb04cbcb3b40b40b963ae7d3f11edab76e01949a12559",
        "segments/medium/chunk_001.y4m": "be512775025df5da19be9d44df15524b2936d91cd3fec486e3a7cca3da9de188",
        "segments/medium/chunk_002.y4m": "50178bdba15dcb8323ae08c3ddcf63055e2627004c24533ba3ef0beeb8247f10",
    },
}


#: SHA-256 of `process --mode hold --profile evso_plus_plus` on the same
#: clip under _CUT_CONFIG.
_HOLD_SHA256 = "247e4ea64dbcbd5107d47526a35818cf80bcf14ab0f8a692ee303ec15e2ec33e"


def test_process_hold_stream_is_byte_identical_to_recorded_digest(tmp_path,
                                                                  capsys):
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG))
    out = tmp_path / "held.y4m"
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "process", str(clip), "--profile",
                     "evso_plus_plus", "--mode", "hold", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["chunks"] >= 2
    assert summary["kept_frames"] < 90
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _HOLD_SHA256


#: SHA-256 of every chunk file of `process --mode segments` on the same clip:
#: baseline under the default config, evso_plus_plus under _CUT_CONFIG.
_SEGMENTS_SHA256 = {
    ("baseline", False): {
        "chunk_000.y4m": "d553549396fa6b5af56af0d6b100c2a4dc18e4a6f61739a9172a69fd85e88415",
    },
    ("evso_plus_plus", True): {
        "chunk_000.y4m": "5b8eed8fd2fcd026254fb278e4be52b378b54f74b415a964e4abeed279b70cd7",
        "chunk_001.y4m": "f703b8743b192a26aecdf25daf9e2cb7f6e0fb38bd49a80f1a1ce345191cbf14",
        "chunk_002.y4m": "b36802f3857c8c6b3b65a960a5e0917b5e50ce3fd535c4d20cceb8bc81d94bcb",
    },
}


@pytest.mark.parametrize("profile, cut", sorted(_SEGMENTS_SHA256))
def test_process_segments_are_byte_identical_to_recorded_digests(
        tmp_path, capsys, profile, cut):
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG if cut else {}))
    outdir = tmp_path / "segs"
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "process", str(clip), "--profile",
                     profile, "--out", str(outdir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["outputs"] == [str(outdir / name)
                                  for name in sorted(_SEGMENTS_SHA256[profile, cut])]
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outdir.iterdir()} == _SEGMENTS_SHA256[profile, cut]


@pytest.mark.parametrize("name", sorted(_TREE_SHA256))
def test_pipeline_tree_is_byte_identical_to_recorded_digests(tmp_path, capsys,
                                                             name):
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG if name == "cut" else {}))
    outdir = tmp_path / "tree"
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "pipeline", str(clip),
                     str(outdir)]) == 0
    chunks = json.loads(capsys.readouterr().out)["chunks"]
    if name == "cut":
        assert chunks >= 2
    digests = {
        path.relative_to(outdir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in outdir.rglob("*") if path.is_file()
    }
    assert digests == _TREE_SHA256[name]


def test_pipeline_on_raw_input_writes_the_tree_of_the_same_y4m(tmp_path,
                                                               capsys):
    clip = _synth_clip(tmp_path, count=90)
    planes = [plane.tobytes() for plane in read_y4m(clip.read_bytes())]
    yonly, i420 = tmp_path / "clip.yonly", tmp_path / "clip.i420"
    yonly.write_bytes(b"".join(planes))
    i420.write_bytes(b"".join(p + bytes([128]) * (48 * 32 * 2) for p in planes))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG))
    raw = ["--dims", "96x64", "--fps", "30"]
    capsys.readouterr()
    trees = []
    for name, argv in (("y4m", [str(clip)]),
                       ("yonly", [str(yonly), *raw, "--layout", "YONLY"]),
                       ("i420", [str(i420), *raw, "--layout", "I420"])):
        trees.append(tmp_path / name)
        assert cli.main(["--config", str(cfg), "pipeline", *argv,
                         str(trees[-1])]) == 0
        assert json.loads(capsys.readouterr().out)["chunks"] == 3
    assert _tree_bytes(trees[0]) == _tree_bytes(trees[1]) == _tree_bytes(trees[2])


def test_tree_variants_are_the_levels_then_two_thirds_by_profile_name():
    assert list(cli._TREE_VARIANTS) == [
        *(level.value for level in empd.EvsoLevel), "two_thirds"]
    made = [p for p in cli._TREE_VARIANTS.values() if p not in cli._FLAT_SHARES]
    assert sorted(made) == sorted(PROFILE_FACTORS)
    parser = cli.build_parser()
    for profile in cli._TREE_VARIANTS.values():  # each a --profile choice
        args = parser.parse_args(
            ["process", "in.y4m", "--profile", profile, "--out", "out"])
        assert args.profile == profile


def test_process_writes_the_chunks_pipeline_writes_for_its_level(tmp_path,
                                                                capsys):
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG))
    tree = tmp_path / "tree"
    assert cli.main(["--config", str(cfg), "pipeline", str(clip),
                     str(tree)]) == 0
    for label, profile in cli._TREE_VARIANTS.items():
        if profile in cli._FLAT_SHARES:
            continue
        out = tmp_path / profile
        assert cli.main(["--config", str(cfg), "process", str(clip),
                         "--profile", profile, "--out", str(out)]) == 0
        expected = _tree_bytes(tree / "segments" / label)
        assert len(expected) == 3
        assert _tree_bytes(out) == expected


def test_pipeline_and_process_write_every_chunk_file_through_a_rename(
        tmp_path, capsys, monkeypatch):
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG))
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append((Path(src), Path(dst)))
        real_replace(src, dst)

    def chunk_renames():
        """Level and name of each chunk file renamed into place, each from
        a temporary sibling of its own."""
        chunks = [(src, dst) for src, dst in renamed
                  if dst.name.startswith("chunk_")]
        for src, dst in chunks:
            assert src.parent == dst.parent
            assert re.fullmatch(rf"\.{dst.name}\.[0-9a-f]{{32}}\.tmp", src.name)
        return sorted(f"{dst.parent.name}/{dst.name}" for _, dst in chunks)

    monkeypatch.setattr(os, "replace", replace)
    tree = tmp_path / "tree"
    assert cli.main(["--config", str(cfg), "pipeline", str(clip),
                     str(tree)]) == 0
    written = sorted(f"{path.parent.name}/{path.name}"
                     for path in tree.glob("segments/*/chunk_*.y4m"))
    assert len(written) == 12
    assert chunk_renames() == written
    assert sorted(dst.name for _, dst in renamed
                  if dst.parent == tree) == sorted(TREE_ENTRIES)
    renamed.clear()
    assert cli.main(["--config", str(cfg), "process", str(clip), "--profile",
                     "evso", "--out", str(tmp_path / "segs")]) == 0
    assert chunk_renames() == ["segs/chunk_000.y4m", "segs/chunk_001.y4m",
                               "segs/chunk_002.y4m"]
    assert len(renamed) == 3
    assert not list(tmp_path.rglob("*.tmp"))


def test_pipeline_scores_each_held_pair_once_across_variants(
        tmp_path, monkeypatch, capsys):
    from evso import vprocessor
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG))
    scored, calls = [], []
    real_report, real_ssim = vprocessor.quality_report, vprocessor.ssim

    def report(video, sequence, memo=None):
        result = real_report(video, sequence, memo)
        scored.append((video, sequence, result.mean_ssim))
        return result

    def counted_ssim(a, b, work=None):
        calls.append((id(a), id(b)))
        return real_ssim(a, b, work)

    monkeypatch.setattr(vprocessor, "quality_report", report)
    monkeypatch.setattr(vprocessor, "ssim", counted_ssim)
    assert cli.main(["--config", str(cfg), "pipeline", str(clip),
                     str(tmp_path / "tree")]) == 0
    capsys.readouterr()
    assert len(scored) == 5
    sequence = scored[0][1]
    index = {id(plane): i for i, plane in enumerate(sequence)}
    pairs = {(shown, pos) for video, _, _ in scored
             for pos, shown in enumerate(video.held) if shown != pos}
    dropped = sum(video.frame_count - video.kept_count
                  for video, _, _ in scored)
    assert len(pairs) < dropped
    assert sorted((index[a], index[b]) for a, b in calls) == sorted(pairs)
    monkeypatch.setattr(vprocessor, "ssim", real_ssim)
    for video, seq, mean_ssim in scored:
        assert real_report(video, seq).mean_ssim == mean_ssim


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


def test_manifest_lists_only_chunk_files(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    original = (outdir / "manifest.mpd").read_bytes()
    level_dir = outdir / "segments" / "high"
    for name in ("chunk_one.y4m", "notes.y4m"):
        (level_dir / name).write_bytes((level_dir / "chunk_000.y4m").read_bytes())
    (outdir / "manifest.mpd").unlink()
    capsys.readouterr()
    assert cli.main(["manifest", str(outdir)]) == 0
    assert (outdir / "manifest.mpd").read_bytes() == original


def test_manifest_leaves_out_a_level_without_chunk_files(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    for path in (outdir / "segments" / "low").iterdir():
        path.unlink()
    assert cli.main(["manifest", str(outdir)]) == 0
    parsed = empd.parse_xml((outdir / "manifest.mpd").read_bytes())
    assert [a.evso_level.value for a in parsed.video_sets()] == [
        "baseline", "high", "medium"]


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


def test_correlate_on_the_standard_corpus(capsys):
    assert cli.main(["correlate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairs"] == 232
    assert doc["pearson_r"] == pytest.approx(-0.988695467018559, abs=1e-12)
    assert doc["fit_slope"] == pytest.approx(-0.06331315854010106, abs=1e-12)
    assert doc["fit_intercept"] == pytest.approx(1.0388579078395201, abs=1e-12)
    digest = hashlib.sha256()
    for seq in standard_corpus():
        digest.update(f"{seq.fps} {seq.dims} {len(seq)}\n".encode())
        for plane in seq:
            digest.update(plane.tobytes())
    assert digest.hexdigest() == ("fbba057c957fa27ff6bb9cb76475a7b4034e254b"
                                  "0aed4109b6ebc895e8cfc12c")


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
                                   [{"index": 1, "m_diff": 0}],
                                   [{"index": 0, "m_diff": True}],
                                   [{"index": 0, "m_diff": 1, "y_diff": 1.5}],
                                   pytest.param([{"index": 0, "m_diff": 0,
                                                  "ssim": "abc"}], id="ssim-str"),
                                   pytest.param([{"index": 0, "m_diff": 0,
                                                  "ssim": True}], id="ssim-bool"),
                                   pytest.param([{"index": 0, "m_diff": 0},
                                                 {"index": True, "m_diff": 0}],
                                                id="index-true"),
                                   pytest.param([{"index": 0, "m_diff": 0},
                                                 {"index": 1.0, "m_diff": 0}],
                                                id="index-float")])
def test_split_rejects_malformed_analysis(tmp_path, capsys, pairs):
    doc = {"width": 96, "height": 64, "fps": "30"}
    if pairs is not None:
        doc["pairs"] = pairs
    analysis = tmp_path / "analysis.json"
    analysis.write_text(json.dumps(doc))
    assert cli.main(["split", "--analysis", str(analysis)]) == 1
    assert "error: not an analysis document" in capsys.readouterr().err


def test_split_and_schedule_list_the_same_options(capsys):
    helps = []
    for command in ("split", "schedule"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        # Past the usage lines, whose wrapping follows the command's name.
        helps.append(capsys.readouterr().out.partition("\n\n")[2])
    assert helps[0] == helps[1]
    for option in ("input", "--dims", "--fps", "--layout", "--analysis",
                   "--gamma", "--out"):
        assert f"  {option}" in helps[0]


def test_manifest_rejects_schedule_lacking_chunks(tmp_path, capsys):
    (tmp_path / "schedule.json").write_text(
        json.dumps({"frame_count": 45, "fps": "30", "gamma": "30"}))
    assert cli.main(["manifest", str(tmp_path)]) == 1
    assert "error: not a schedule document" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("frame_count", 90.5),
                                          ("frame_count", 0),
                                          ("fps", True), ("start", 0.0),
                                          ("end", True)])
def test_manifest_rejects_schedule_with_non_integer_counts(tmp_path, capsys,
                                                           field, value):
    clip = _synth_clip(tmp_path, count=90)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    doc = json.loads((outdir / "schedule.json").read_text())
    (doc if field in doc else doc["chunks"][0])[field] = value
    (outdir / "schedule.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["manifest", str(outdir), "--out", str(tmp_path / "m.mpd")]) == 1
    assert "error: not a schedule document" in capsys.readouterr().err
    assert not (tmp_path / "m.mpd").exists()


@pytest.mark.parametrize("bounds", [[(0, 40), (43, 90)],
                                    [(0, 50), (40, 90)],
                                    [(0, 45), (45, 45), (45, 90)],
                                    [(0, 45), (45, 80)]])
def test_manifest_rejects_schedule_whose_chunks_do_not_tile_the_clip(
        tmp_path, capsys, bounds):
    clip = _synth_clip(tmp_path, count=90)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    doc = json.loads((outdir / "schedule.json").read_text())
    doc["chunks"] = [{**doc["chunks"][0], "start": start, "end": end}
                     for start, end in bounds]
    (outdir / "schedule.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["manifest", str(outdir), "--out", str(tmp_path / "m.mpd")]) == 1
    assert "error: not a schedule document" in capsys.readouterr().err
    assert not (tmp_path / "m.mpd").exists()


def test_simulate_orders_a_shuffled_trace(tmp_path, capsys):
    clip = _synth_clip(tmp_path, count=90)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CUT_CONFIG))
    outdir = tmp_path / "tree"
    assert cli.main(["--config", str(cfg), "pipeline", str(clip),
                     str(outdir)]) == 0
    rows = ["0,1000000000,high", "1,1000000000,medium", "2,1000000000,low"]
    sessions = []
    for order in (rows, rows[::-1], [rows[1], rows[2], rows[0]]):
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(["segment_index,bandwidth_bps,battery_level",
                                    *order]) + "\n")
        capsys.readouterr()
        assert cli.main(["simulate", str(outdir / "manifest.mpd"),
                         "--trace", str(trace)]) == 0
        sessions.append(capsys.readouterr().out)
    assert sessions[0] == sessions[1] == sessions[2]
    assert [line.split(",")[1] for line in sessions[0].splitlines()[1:]] == [
        "high", "medium", "low"]


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


def test_unreadable_manifest_prints_error_and_exits_1(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    assert cli.main(["pipeline", str(clip), str(tmp_path / "tree")]) == 0
    good = (tmp_path / "tree" / "manifest.mpd").read_bytes()
    period = re.search(rb"<Period .*</Period>", good, re.S).group(0)
    largest = re.sub(rb'duration="[^"]*"', b'duration="PT1e308S"', period)
    bad = {
        "encoding": good.replace(b"encoding='utf-8'", b"encoding='otf-8'"),
        "duration": good.replace(period, re.sub(
            rb'duration="[^"]*"', b'duration="PT1e999S"', period)),
        "total": good.replace(period, largest * 2),
    }
    trace = tmp_path / "trace.csv"
    trace.write_text("segment_index,bandwidth_bps,battery_level\n0,1000,high\n")
    for name, data in bad.items():
        path = tmp_path / f"{name}.mpd"
        path.write_bytes(data)
        for argv in (["manifest", "--parse", str(path)],
                     ["simulate", str(path), "--trace", str(trace)]):
            capsys.readouterr()
            assert cli.main(argv) == 1, (name, argv)
            assert capsys.readouterr().err.startswith("error:"), (name, argv)


def test_missing_input_reports_error(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "nope.y4m")]) == 1
    assert "error:" in capsys.readouterr().err


TREE_ENTRIES = ("manifest.mpd", "quality_report.json", "schedule.json",
                "segments")


def _tree_bytes(root):
    return {path.relative_to(root): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("name", TREE_ENTRIES[:3])
def test_forced_pipeline_refuses_a_directory_in_the_trees_way(tmp_path, capsys,
                                                              name):
    long_clip = _synth_clip(tmp_path, "long.y4m", count=40)
    short_clip = _synth_clip(tmp_path, "short.y4m", count=20)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(long_clip), str(outdir)]) == 0
    (outdir / name).unlink()
    (outdir / name / "kept").mkdir(parents=True)
    old = _tree_bytes(outdir)
    capsys.readouterr()
    assert cli.main(["pipeline", str(short_clip), str(outdir), "--force"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert _tree_bytes(outdir) == old
    assert (outdir / name / "kept").is_dir()
    assert sorted(os.listdir(outdir)) == sorted(TREE_ENTRIES)


def test_forced_pipeline_replaces_a_link_to_a_directory(tmp_path, capsys):
    clip = _synth_clip(tmp_path)
    outdir = tmp_path / "tree"
    assert cli.main(["pipeline", str(clip), str(outdir)]) == 0
    report = (outdir / "quality_report.json").read_bytes()
    (tmp_path / "elsewhere").mkdir()
    (outdir / "quality_report.json").unlink()
    (outdir / "quality_report.json").symlink_to(tmp_path / "elsewhere")
    assert cli.main(["pipeline", str(clip), str(outdir), "--force"]) == 0
    assert not (outdir / "quality_report.json").is_symlink()
    assert (outdir / "quality_report.json").read_bytes() == report
    assert os.listdir(tmp_path / "elsewhere") == []


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


def _start_serve(tmp_path):
    """`evso serve` of a one-file tree on an ephemeral port, and its URL."""
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
    ready, _, _ = select.select([proc.stdout], [], [], 5)
    if not ready:
        _stop_serve(proc)
        pytest.fail("no serving line within 5 s")
    line = proc.stdout.readline().decode()
    return proc, line.rsplit(" at ", 1)[1].strip()


def _stop_serve(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    proc.stderr.close()


@pytest.mark.parametrize("stop", [signal.SIGTERM, signal.SIGINT])
def test_serve_announces_port_at_once_and_stops_on_signal(tmp_path, stop):
    proc, url = _start_serve(tmp_path)
    try:
        with urllib.request.urlopen(url + "manifest.mpd", timeout=5) as resp:
            assert resp.read() == b"<MPD/>"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "missing.y4m", timeout=5)
        err.value.close()
        proc.send_signal(stop)
        assert proc.wait(timeout=10) == 0
        # stdout stays the serving line; what was served goes to stderr.
        assert proc.stdout.read() == b""
        summary = proc.stderr.read().decode().splitlines()[-1]
        assert summary.startswith("evso serve: ")
        assert json.loads(summary.split(": ", 1)[1]) == {
            "connections": 2, "requests": 2, "not_found": 1, "bytes_sent": 6}
    finally:
        _stop_serve(proc)


def test_serve_stops_on_signal_while_a_connection_idles(tmp_path):
    proc, url = _start_serve(tmp_path)
    host, port = url[len("http://"):].rstrip("/").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        conn.request("GET", "/manifest.mpd")
        assert conn.getresponse().read() == b"<MPD/>"
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        conn.close()
        _stop_serve(proc)


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
    parsed = empd.parse_xml((tmp_path / "manifest.mpd").read_bytes())
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


#: A stock two-period manifest with audio sets before, between and after its
#: video sets; the first period holds three, one of them with an EVSOLevel.
_AUDIO_MPD = """<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static">
<Period duration="PT4S">
  <AdaptationSet contentType="audio">
    <Representation id="a0" bandwidth="64000" mimeType="audio/mp4"><SegmentList>
      <SegmentURL media="a0.m4s"/><SegmentURL media="a1.m4s"/>
    </SegmentList></Representation></AdaptationSet>
  <AdaptationSet contentType="video" EVSOLevel="baseline">
    <Representation id="b" bandwidth="900000"><SegmentList>
      <SegmentURL media="b0.m4s"/><SegmentURL media="b1.m4s"/>
      <SegmentURL media="b2.m4s"/>
    </SegmentList></Representation></AdaptationSet>
  <AdaptationSet contentType="audio" EVSOLevel="low">
    <Representation id="a1" bandwidth="32000" mimeType="audio/mp4"><SegmentList>
      <SegmentURL media="x0.m4s"/></SegmentList></Representation></AdaptationSet>
  <AdaptationSet contentType="video" EVSOLevel="low">
    <Representation id="l" bandwidth="300000"><SegmentList>
      <SegmentURL media="l0.m4s"/><SegmentURL media="l1.m4s"/>
      <SegmentURL media="l2.m4s"/>
    </SegmentList></Representation></AdaptationSet>
  <AdaptationSet contentType="audio">
    <Representation id="a2" bandwidth="32000" mimeType="audio/mp4"><SegmentList>
      <SegmentURL media="y0.m4s"/></SegmentList></Representation></AdaptationSet>
</Period>
<Period duration="PT2S">
  <AdaptationSet contentType="audio">
    <Representation id="a3" bandwidth="64000" mimeType="audio/mp4"/>
  </AdaptationSet>
  <AdaptationSet contentType="video">
    <Representation id="v" bandwidth="500000"><SegmentList>
      <SegmentURL media="v0.m4s"/></SegmentList></Representation></AdaptationSet>
</Period></MPD>"""

_AUDIO_TRACE = ("segment_index,bandwidth_bps,battery_level\n"
                "0,1000000,charging_or_full\n1,100000,low\n2,500000,medium\n")


def test_manifest_parse_and_simulate_ignore_audio_sets(tmp_path, capsys):
    (tmp_path / "m.mpd").write_text(_AUDIO_MPD)
    (tmp_path / "trace.csv").write_text(_AUDIO_TRACE)
    assert cli.main(["manifest", "--parse", str(tmp_path / "m.mpd")]) == 0
    assert capsys.readouterr().out == json.dumps({
        "duration_seconds": 6.0, "periods": 2, "video_sets": [
            {"level": "baseline", "representations": [
                {"id": "b", "bandwidth": 900000, "segments": 3}]},
            {"level": "low", "representations": [
                {"id": "l", "bandwidth": 300000, "segments": 3}]}]},
        indent=2) + "\n"
    assert cli.main(["simulate", str(tmp_path / "m.mpd"),
                     "--trace", str(tmp_path / "trace.csv")]) == 0
    assert capsys.readouterr().out == (
        "segment_index,battery_level,bandwidth_bps,selected_level,"
        "representation_id,segment_url\r\n"
        "0,charging_or_full,1000000,baseline,b,b0.m4s\r\n"
        "1,low,100000,low,l,l1.m4s\r\n"
        "2,medium,500000,baseline,b,b2.m4s\r\n")


def test_simulate_reads_a_trace_with_a_byte_order_mark(tmp_path, capsys):
    (tmp_path / "m.mpd").write_text(_AUDIO_MPD)
    outs = []
    for name, head in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
        (tmp_path / name).write_bytes(head + _AUDIO_TRACE.encode())
        assert cli.main(["simulate", str(tmp_path / "m.mpd"),
                         "--trace", str(tmp_path / name)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 4


def test_analyze_of_a_frame_larger_than_its_file_prints_error(tmp_path,
                                                             capsys):
    path = tmp_path / "huge.y4m"
    path.write_bytes(b"YUV4MPEG2 W1000000 H1000000 F30:1 Cmono\nFRAME\nabc")
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: frame 0: luma short by")


@pytest.mark.parametrize("files, argv", [
    pytest.param({}, ["split", "clip.y4m", "--gamma", "30/0"], id="gamma"),
    *[pytest.param({}, [command, "clip.y4m", "--gamma", "1e999"],
                   id=f"{command}-gamma-1e999")
      for command in ("schedule", "split")],
    pytest.param({"clip.yuv": ""},
                 ["analyze", "clip.yuv", "--dims", "96x64", "--fps", "30/0"],
                 id="raw-fps"),
    pytest.param({"clip.yuv": ""}, ["analyze", "clip.yuv"], id="raw-no-dims"),
    pytest.param({"a.json": "{}"}, ["split", "clip.y4m", "--analysis", "a.json"],
                 id="split-video-and-analysis"),
    pytest.param({}, ["manifest"], id="manifest-no-dir"),
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
    *[pytest.param({"m.mpd": _one_representation_mpd('bandwidth="1"'),
                    "trace.csv": "segment_index,bandwidth_bps,battery_level\n"
                                 f"{row}\n"},
                   ["simulate", "m.mpd", "--trace", "trace.csv"],
                   id=f"trace-negative-{name}")
      for name, row in (("bandwidth", "0,-5,low"), ("index", "-3,100,"))],
    pytest.param({"manifest.mpd": "<MPD/>"}, ["serve", ".", "--port", "70000"],
                 id="port"),
    pytest.param({"a.json": json.dumps({
        "width": 96, "height": 64, "fps": "1/0",
        "pairs": [{"index": 0, "m_diff": 0}]})},
                 ["schedule", "--analysis", "a.json"], id="analysis-fps"),
    *[pytest.param({"schedule.json": json.dumps({
        "frame_count": 45, "fps": "30", "gamma": "30", "chunks": [],
        rate: "1/0"})}, ["manifest", "."], id=f"schedule-{rate}")
      for rate in ("fps", "gamma")],
    *[pytest.param({"a.json": json.dumps({
        "width": 96, "height": 64, "fps": "30",
        "pairs": [{"index": 0, "m_diff": 0, "ssim": None}], **bad})},
                 ["schedule", "--analysis", "a.json"], id=f"analysis-{name}")
      for name, bad in (("fps-true", {"fps": True}),
                        ("width-float", {"width": 96.5}),
                        ("height-true", {"height": True}),
                        ("ssim-str", {"pairs": [{"index": 0, "m_diff": 0,
                                                 "ssim": "abc"}]}),
                        ("ssim-nan", {"pairs": [{"index": 0, "m_diff": 0,
                                                 "ssim": float("nan")}]}))],
    *[pytest.param({"corpus.json": json.dumps(corpus)},
                   ["correlate", "--corpus", "corpus.json"], id=f"corpus-{name}")
      for name, corpus in (
          ("missing-keys", [{"kind": "static"}]),
          ("luma-str", [{"kind": "static", "width": 32, "height": 32,
                         "count": 4, "luma": "x"}]),
          ("not-a-list", {"kind": "static"}),
          ("kind-mystery", [{"kind": "mystery"}]),
          ("static-only", [{"kind": "static", "width": 32, "height": 32,
                            "count": 4, "luma": 9}]),
          # Beside a static clip and a moving block, which correlate, so
          # only the bad value can stop the command.
          *[(f"{kind}-{key}-{value}".replace("_", "-"),
             [{**_CORPUS_ENTRY, "kind": kind, key: value},
              {**_CORPUS_ENTRY, "kind": "static"},
              {**_CORPUS_ENTRY, "kind": "moving_block"}])
            for kind, keys in (
                ("static", ("count", "luma")),
                ("moving_block", ("count", "block_edge", "velocity",
                                  "fg_luma", "bg_luma")),
                ("noise", ("count", "seed", "amplitude")))
            for key in keys for value in (True, 1.5, 2.0)])],
    *[pytest.param({}, ["synth", "moving-block", "--dims", "96x64", "--count",
                        "3", flag, value, "--out", "bad.y4m"], id=f"synth-{flag[2:]}")
      for flag, value in (("--fg-luma", "300"), ("--block-edge", "-5"))],
    pytest.param({}, ["schedule", "clip.y4m", "--gamma", ""], id="gamma-empty"),
    pytest.param({"m.mpd": _one_representation_mpd('bandwidth="1"')},
                 ["manifest", "no-such-dir", "--parse", "m.mpd"],
                 id="manifest-dir-and-parse"),
    *[pytest.param({}, ["process", "clip.y4m", "--profile", profile,
                        "--gamma", "15", "--out", "segs"],
                   id=f"process-{profile}-gamma")
      for profile in ("baseline", "two_thirds")],
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


#: SHA-256 of `schedule --analysis` on _long_analysis's document.
_LONG_SCHEDULE_SHA256 = (
    "d49d7dcb61d9e9352e8812c0fb083725287f0d953e5ec8f165e0bfd2dc674534")


def _long_analysis(path, pairs=6000, seed=36):
    """A seeded 2560x1600 analysis walking all five bands, with spikes."""
    rnd = random.Random(seed)
    m_diffs, level = [], 0
    for _ in range(pairs):
        if rnd.random() < 0.02:
            level = rnd.choice((250, 1000, 2200, 4500, 11000))
        value = level + rnd.randint(-400, 400)
        if rnd.random() < 0.01:
            value = rnd.randint(15001, 16000)
        m_diffs.append(min(16000, max(0, value)))
    path.write_text(json.dumps({
        "width": 2560, "height": 1600, "fps": "30000/1001",
        "frame_count": pairs + 1,
        "pairs": [{"index": i, "m_diff": d, "y_diff": 0, "ssim": None}
                  for i, d in enumerate(m_diffs)]}))


def test_schedule_of_a_long_analysis_is_byte_identical_to_recorded_digest(
        tmp_path):
    analysis, out = tmp_path / "a.json", tmp_path / "s.json"
    _long_analysis(analysis)
    assert cli.main(["schedule", "--analysis", str(analysis),
                     "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["chunks"]) > 50
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _LONG_SCHEDULE_SHA256
