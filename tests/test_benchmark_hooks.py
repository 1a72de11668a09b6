"""The benchmark's counter hooks against the functions they read.

``perfbench/tracer.py`` counts frames, lidar points and windows from the
arguments and results of the functions it wraps (``len(result.frames)``,
``scan.points``, ``len(bundle.rssi)``, the positional arguments of
``build_windows``). A change to one of those signatures breaks only a
traced benchmark run, so this test runs the hooks on a short drive and
checks their counts against the artifacts. The module is loaded from its
file and not modified.
"""

import importlib.util
from pathlib import Path

import numpy as np

from blockcast import cli
from blockcast.config import resolve_config
from blockcast.ingest import load_dataset, load_scenario

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
STEPS = 60


def _tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_counts_frames_points_and_windows_of_a_short_drive(tmp_path):
    tracer = _tracer_module()
    cfg = resolve_config({"steps": STEPS})
    recorder = tracer.Tracer()
    recorder.install()
    try:
        cli.cmd_simulate(cfg, {"scenario_id": "short"}, tmp_path / "scene")
        cli.cmd_label(cfg, {"scenario": str(tmp_path / "scene")}, tmp_path / "data")
    finally:
        recorder.restore()
    assert tracer.wrappers_left() == []

    bundle = load_scenario(tmp_path / "scene")
    windows = load_dataset(tmp_path / "data").labeled
    points = len(bundle.lidar.points)
    counts = recorder.metrics()
    assert counts["scene.simulate_scenario.calls"] == 1
    assert counts["scene.frames"] == len(bundle.t) == STEPS
    assert counts["scene.lidar_points"] == points > 0
    assert counts["preprocess.src_filter.calls"] == len(np.unique(bundle.lidar.t))
    assert counts["preprocess.points_in"] == points
    assert 0 < counts["preprocess.points_kept"] < points
    assert counts["preprocess.build_windows.calls"] == 1
    assert counts["preprocess.windows_attempted"] == STEPS - cfg["horizon"] - cfg["window_len"] + 1
    assert counts["preprocess.windows_kept"] == len(windows) > 0
