"""`evso analyze` and `evso pipeline` on seeded clips against the benchmark's
independent oracle.

`perfbench/checks.py` rebuilds each pair's changed-block count and SAD, and
every output of a pipeline tree (split, rates, kept frames, segments,
manifest and mean SSIM), from the clip by the method's definitions, without
evso's code. It is imported by path, so the oracle the benchmark runs is the
one these tests run.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evso import cli
from evso.frame_source import read_y4m
from evso.similarity import SimilarityConfig, m_diff, sad_y_macroblock, y_diff

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_checks",
                                               ROOT / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

RATES = (Fraction(10), Fraction(25, 2), Fraction(30), Fraction(30000, 1001))
#: theta 65,279 and 65,280 sit either side of a black-to-white block's SAD.
THETAS = (0, 320, 65_279, 65_280)
#: (width, height) drawn besides: one band exactly, a last band of one row,
#: a height that ends mid-band and mid-macroblock-row, and odd 4:2:0 sizes.
SHAPES = ((16, 16), (300, 128), (17, 129), (299, 200), (33, 17), (255, 143))


def _clip_frames(rng, width, height, count):
    """Luma planes with still pairs, full-noise cuts, local block changes,
    and rectangles that go from black to white."""
    plane = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    frames = [plane]
    for _ in range(count - 1):
        plane = plane.copy()
        event = rng.integers(4)
        if event == 1:
            plane = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        elif event == 2:
            y, x = rng.integers(height), rng.integers(width)
            h, w = rng.integers(1, 48, size=2)
            plane[y:y + h, x:x + w] = rng.integers(
                0, 256, size=plane[y:y + h, x:x + w].shape)
        elif event == 3:  # covers at least one full macroblock
            y = 16 * rng.integers(height // 16)
            x = 16 * rng.integers(width // 16)
            h, w = rng.integers(16, 48, size=2)
            frames[-1] = frames[-1].copy()
            frames[-1][y:y + h, x:x + w] = 0
            plane[y:y + h, x:x + w] = 255
        frames.append(plane)
    return frames


def _write_clip(path, frames, fps, mono, rng):
    height, width = frames[0].shape
    chroma = 0 if mono else ((width + 1) // 2) * ((height + 1) // 2) * 2
    color = "mono" if mono else "420jpeg"
    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{width} H{height} F{fps.numerator}:"
                 f"{fps.denominator} Ip A1:1 C{color}\n".encode())
        for plane in frames:
            fh.write(b"FRAME\n" + plane.tobytes()
                     + rng.integers(0, 256, size=chroma, dtype=np.uint8).tobytes())


def _cases():
    rng = np.random.Generator(np.random.PCG64(2019))
    drawn = [tuple(int(v) for v in rng.integers(16, 301, size=2))
             for _ in range(6)]
    return [(seed, width, height) for seed, (width, height)
            in enumerate(SHAPES + tuple(drawn))]


@pytest.mark.parametrize("seed,width,height", _cases())
def test_analyze_matches_the_oracle_on_seeded_clips(tmp_path, seed, width,
                                                    height):
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = _clip_frames(rng, width, height, int(rng.integers(2, 9)))
    fps = RATES[seed % len(RATES)]
    theta = THETAS[seed % len(THETAS)]
    path = tmp_path / "clip.y4m"
    _write_clip(path, frames, fps, mono=seed % 3 == 0, rng=rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": theta}))
    out = tmp_path / "analysis.json"
    assert cli.main(["--config", str(config), "analyze", str(path),
                     "--out", str(out)]) == 0
    clip = checks.Y4M(path)
    checks.check_analysis(json.loads(out.read_text()), clip, theta,
                          range(len(clip) - 1))

    planes = read_y4m(path.read_bytes())
    rows, cols = height // 16, width // 16
    for a, b in zip(planes, planes[1:]):
        sads = [sad_y_macroblock(a, b, r, c)
                for r in range(rows) for c in range(cols)]
        assert y_diff(a, b) == checks.y_diff_ref(a, b)
        for limit in (0, 65_279, 65_280):
            expected = sum(sad > limit for sad in sads)
            assert m_diff(a, b, SimilarityConfig(theta=limit)) == expected


def _grid_config(width, height):
    """Thresholds scaled to a grid of G macroblocks, so that noise cuts and
    block changes cut chunks: k_window 3 and strictly increasing taus."""
    blocks = (width // 16) * (height // 16)
    tau = max(1, blocks // 5)
    return {"alpha": max(1, blocks // 4), "beta": max(1, blocks // 2),
            "k_window": 3, "taus": [tau, 2 * tau, 3 * tau, 4 * tau]}


def _pipeline_cases():
    rng = np.random.Generator(np.random.PCG64(1980))
    drawn = [tuple(int(v) for v in rng.integers(16, 101, size=2))
             for _ in range(9)]
    return list(enumerate(((16, 16), (33, 17), (99, 65)) + tuple(drawn)))


@pytest.mark.parametrize("seed,shape", _pipeline_cases())
def test_pipeline_matches_the_oracle_on_seeded_clips(tmp_path, seed, shape):
    width, height = shape
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    frames = _clip_frames(rng, width, height, int(rng.integers(2, 91)))
    path = tmp_path / "clip.y4m"
    _write_clip(path, frames, RATES[seed % len(RATES)], mono=seed % 3 == 0,
                rng=rng)
    config = _grid_config(width, height)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    tree = tmp_path / "tree"
    assert cli.main(["--config", str(config_path), "pipeline", str(path),
                     str(tree)]) == 0
    counts = checks.check_pipeline_tree(tree, path, config)
    assert 1 <= counts["chunks"] <= 8
