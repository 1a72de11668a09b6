import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockcast
from blockcast import cli, preprocess, scene
from blockcast.cli import replay_manifest, run
from blockcast.config import DEFAULTS, dump_config, parse_config_file, resolve_config
from blockcast.errors import ParseError, SchemaError
from blockcast.ingest import load_dataset, load_scenario
from blockcast.models import load_model, predict_locations_batch, save_model
from blockcast.scene import segment_intersects_rect


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One short end-to-end run shared by the CLI tests: simulate, label,
    and four trained checkpoints (two rf seeds for the spread report)."""
    root = tmp_path_factory.mktemp("chain")
    scene = root / "scene"
    data = root / "data"
    assert run(["simulate", "--out", str(scene), "--set", "steps=200"]) == 0
    assert run(["label", "--scenario", str(scene), "--out", str(data)]) == 0
    common = ["train", "--dataset", str(data), "--episodes", "1", "--out"]
    assert run(
        ["train", "--dataset", str(data), "--variant", "localization",
         "--episodes", "2", "--iterations", "40", "--out", str(root / "loc")]
    ) == 0
    assert run(common + [str(root / "rf"), "--variant", "rf", "--iterations", "15"]) == 0
    assert run(
        common + [str(root / "rf2"), "--variant", "rf", "--iterations", "15",
                  "--train-seed", "1"]
    ) == 0
    assert run(
        common + [str(root / "lidar"), "--variant", "rf+lidar", "--iterations", "10"]
    ) == 0
    return root


# ---------------------------------------------------------------------------
# Chain artifacts
# ---------------------------------------------------------------------------

def test_each_stage_writes_exactly_its_artifacts(chain):
    expect = {
        "scene": {"rssi.csv", "lidar.csv", "truth.csv", "meta.json"},
        "data": {"samples.csv", "frames.npy", "rasters.npy", "dataset.json"},
        "loc": {"model.json", "curves.csv"},
        "rf": {"model.json", "curves.csv"},
    }
    for sub, names in expect.items():
        found = {p.name for p in (chain / sub).iterdir()}
        assert found == names | {"manifest.json"}, sub
        manifest = read_manifest(chain / sub)
        assert set(manifest["outputs"]) == names


def test_manifest_records_resolved_config_and_inputs(chain):
    manifest = read_manifest(chain / "scene")
    assert manifest["format_version"] == 1
    assert manifest["subcommand"] == "simulate"
    assert manifest["config"]["steps"] == 200
    assert manifest["config"]["num_beams"] == DEFAULTS["num_beams"]
    assert manifest["inputs"]["scenario_id"] == "scene"
    assert manifest["wall_clock_seconds"] >= 0.0

    label_manifest = read_manifest(chain / "data")
    assert label_manifest["inputs"]["scenario"] == str((chain / "scene").resolve())


def test_training_curves_csv_layout(chain):
    header, rows = read_csv_rows(chain / "loc" / "curves.csv")
    assert header == ["iteration", "train_loss", "val_loss"]
    assert len(rows) == 80  # 2 episodes x 40 iterations
    assert rows[0][0] == "1" and rows[-1][0] == "80"
    blanks = [r for r in rows if r[2] == ""]
    assert len(blanks) == 78  # validation only at episode ends
    assert rows[39][2] != "" and rows[79][2] != ""
    for r in rows:
        assert math.isfinite(float(r[1]))


def test_predict_writes_location_rows(chain, tmp_path):
    out = tmp_path / "pred"
    assert run(
        ["predict", "--checkpoint", str(chain / "loc" / "model.json"),
         "--dataset", str(chain / "data"), "--out", str(out)]
    ) == 0
    header, rows = read_csv_rows(out / "predictions.csv")
    assert header == ["sample", "t", "step", "x", "y"]
    assert len(rows) % 5 == 0 and rows
    assert [r[2] for r in rows[:5]] == ["1", "2", "3", "4", "5"]
    assert all(float(r[3]) >= 0.0 and float(r[4]) >= 0.0 for r in rows)


def test_predict_writes_probability_rows(chain, tmp_path):
    out = tmp_path / "pred"
    assert run(
        ["predict", "--checkpoint", str(chain / "lidar" / "model.json"),
         "--dataset", str(chain / "data"), "--split", "val", "--out", str(out)]
    ) == 0
    header, rows = read_csv_rows(out / "predictions.csv")
    assert header == ["sample", "t", "step", "probability", "blocked"]
    for r in rows:
        p = float(r[3])
        assert 0.0 < p < 1.0
        assert r[4] == str(int(p >= 0.5))


def test_evaluate_produces_reports_and_seed_summary(chain, tmp_path):
    out = tmp_path / "report"
    assert run(
        ["evaluate", "--dataset", str(chain / "data"), "--out", str(out),
         "--loc", str(chain / "loc" / "model.json"),
         "--rf", str(chain / "rf" / "model.json"),
         "--rf", str(chain / "rf2" / "model.json"),
         "--lidar", str(chain / "lidar" / "model.json")]
    ) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "blockage.csv", "predictions_raw.csv", "report.txt",
        "localization.csv", "summary.csv", "manifest.json",
    }

    header, rows = read_csv_rows(out / "blockage.csv")
    assert header == ["method", "step", "tp", "fp", "tn", "fn", "accuracy", "precision"]
    methods = {r[0] for r in rows}
    assert methods == {"localization#0", "rf#0", "rf#1", "rf+lidar#0"}
    per_method = {m: [r for r in rows if r[0] == m] for m in methods}
    for m, mrows in per_method.items():
        assert [r[1] for r in mrows] == ["1", "2", "3", "4", "5", "all"]
        for r in mrows:
            assert 0.0 <= float(r[6]) <= 1.0
            assert sum(int(v) for v in r[2:6]) > 0

    sum_header, sum_rows = read_csv_rows(out / "summary.csv")
    assert sum_header == ["method", "step", "mean_accuracy", "stddev", "num_seeds"]
    assert {r[0] for r in sum_rows} == {"rf"}  # only rf has two runs
    assert all(r[4] == "2" for r in sum_rows)

    loc_header, loc_rows = read_csv_rows(out / "localization.csv")
    assert loc_header == ["method", "step", "mean", "median", "p90"]
    assert len(loc_rows) == 5

    table = (out / "report.txt").read_text().splitlines()
    assert table[0].split() == ["method", "step", "tp", "fp", "tn", "fn", "accuracy", "precision"]
    assert len(table) == 2 + len(rows)


def test_transfer_sweeps_receiver_positions(chain, tmp_path):
    out = tmp_path / "sweep"
    assert run(
        ["transfer", "--scenario", str(chain / "scene"),
         "--loc", str(chain / "loc" / "model.json"),
         "--rf", str(chain / "rf" / "model.json"),
         "--rx", "4,12", "--rx=-6,12", "--out", str(out)]
    ) == 0
    header, rows = read_csv_rows(out / "transfer.csv")
    assert header == ["method", "position", "rx_x", "rx_y", "is_original", "accuracy"]
    assert len(rows) == 3 * 2  # 3 positions (original + 2 swept) x 2 methods
    originals = [r for r in rows if r[4] == "1"]
    assert len(originals) == 2
    assert all(float(r[2]) == 0.0 and float(r[3]) == 12.0 for r in originals)
    assert all(0.0 <= float(r[5]) <= 1.0 for r in rows)
    assert {r[0] for r in rows} == {"localization", "rf"}


def test_transfer_drops_exactly_the_windows_whose_horizon_lacks_a_true_position(
        chain, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(chain / "scene", scene)
    lines = (scene / "truth.csv").read_text().splitlines()
    assert all(line.split(",")[1] for line in lines[1:])  # every position known
    t_blank, _, _, flag = lines[101].split(",")
    lines[101] = ",".join([t_blank, "", "", flag])
    (scene / "truth.csv").write_text("\n".join(lines) + "\n")
    truth = {int(t): (float(x), float(y)) for t, x, y, _ in
             (line.split(",") for line in lines[1:]) if x}

    cfg = resolve_config()
    horizon = cfg["horizon"]
    every = load_dataset(chain / "data").labeled  # every window of the drive, all splits
    touching = (every.t < int(t_blank)) & (every.t + horizon >= int(t_blank))
    assert touching.sum() == horizon  # the windows ending at t_blank - 5 .. t_blank - 1
    kept = every.take(np.flatnonzero(~touching))
    windows, positions, tx, rx, _, _ = cli._transfer_windows(cfg, scene)
    np.testing.assert_array_equal(windows.windows(), kept.windows())
    np.testing.assert_array_equal(windows.rasters, kept.rasters)
    np.testing.assert_array_equal(
        positions, [[truth[t + k] for k in range(1, horizon + 1)] for t in kept.t.tolist()])

    loc = chain / "loc" / "model.json"
    out = tmp_path / "sweep"
    assert run(["transfer", "--scenario", str(scene), "--loc", str(loc),
                "--rx", "4,12", "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "transfer.csv")
    model = load_model(loc)
    coords = predict_locations_batch(model, kept.windows())
    meta = json.loads((scene / "meta.json").read_text())
    origin = model.stats.road_origin
    for row, receiver in zip(rows, [rx, (4.0, 12.0)]):
        actual = segment_intersects_rect(tx, receiver, positions, meta["vehicle_width"],
                                         meta["vehicle_depth"])
        predicted = segment_intersects_rect(np.subtract(tx, origin), np.subtract(receiver, origin),
                                            coords, cfg["object_width"], 0.0)
        assert float(row[5]) == np.mean(predicted == actual)


def reference_transfer_windows(cfg, scenario):
    """Windows, rasters and positions as transfer once cut them: every window
    of the drive built, then those whose horizon lacks a true position
    dropped by a boolean gather."""
    bundle = load_scenario(scenario)
    labeled = cli._scenario_windows(cfg, bundle, None)
    t0 = bundle.t[0]
    truth = np.full((len(bundle.t), 2), np.nan)
    truth[bundle.truth.t - t0] = bundle.truth.pos
    ahead = truth[labeled.t[:, None] - t0 + np.arange(1, cfg["horizon"] + 1)]
    kept = ~np.isnan(ahead).any(axis=(1, 2))
    return labeled.windows()[kept], labeled.rasters[kept], ahead[kept]


def _blank_truth(scene: Path, blank) -> None:
    """Blank the position of each truth.csv data row i with ``blank(i)``."""
    lines = (scene / "truth.csv").read_text().splitlines()
    for i, line in enumerate(lines[1:]):
        if blank(i):
            t, _, _, flag = line.split(",")
            lines[i + 1] = ",".join([t, "", "", flag])
    (scene / "truth.csv").write_text("\n".join(lines) + "\n")


def test_transfer_builds_the_windows_of_a_drive_with_truth_gaps_as_the_filter_did(
        scenario_dir, standard_config, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(scenario_dir, scene)
    _blank_truth(scene, lambda i: i % 53 in (0, 1) or 700 <= i < 760)
    windows, positions = cli._transfer_windows(standard_config, scene)[:2]
    got = windows.windows(), windows.rasters, positions
    want = reference_transfer_windows(standard_config, scene)
    assert len(got[0]) == 1262  # of the drive's 1488 windows
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    _blank_truth(scene, lambda i: True)
    with pytest.raises(ValueError, match="no windows with complete ground truth positions"):
        cli._transfer_windows(standard_config, scene)


def test_label_keeps_no_drive_sized_temporaries(scenario_dir, standard_config, tmp_path,
                                                traced_peak_mib):
    """Labeling the standard drive peaks at 11.16 MiB under tracemalloc, set
    in load_scenario's chunk joins: the windows point into the bundle's RSSI
    frames and save_dataset compares frame rows, not a second copy of every
    window. The bound is about 15% above. It peaked at 17.39 MiB when the
    WindowSet held an (n, T0, M) window tensor and save_dataset gathered
    another, and at 22.88 MiB when the rasterizer also held several
    drive-sized index temporaries."""
    inputs = {"scenario": str(scenario_dir)}
    assert traced_peak_mib(lambda: cli.cmd_label(standard_config, inputs, tmp_path)) < 12.8


def test_transfer_gathers_each_window_once(scenario_dir, standard_config, tmp_path,
                                           trained_localization, trained_rf, trained_lidar,
                                           traced_peak_mib):
    """The 3-rx transfer of the standard drive with all three checkpoints
    peaks at 11.44 MiB under tracemalloc, in load_scenario; the windows it
    scores are the bundle's RSSI frames and their start rows, gathered one
    scoring block at a time. The bound is about 15% above. It peaked at
    15.29 MiB when it built the (n, T0, M) window tensor beside the bundle,
    and at 25.25 MiB when it built every window and then copied the kept
    ones."""
    inputs = {"scenario": str(scenario_dir), "rx_positions": [(4.0, 12.0), (-6.0, 12.0),
                                                             (8.0, 12.0)]}
    for flag, model in (("loc", trained_localization), ("rf", trained_rf),
                        ("lidar", trained_lidar)):
        save_model(model, tmp_path / f"{flag}.json")
        inputs[flag] = [str(tmp_path / f"{flag}.json")]
    inputs["loc"] = inputs["loc"][0]
    assert traced_peak_mib(lambda: cli.cmd_transfer(standard_config, inputs, tmp_path)) < 13.2


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def test_simulate_replays_byte_identical(chain, tmp_path):
    matches = replay_manifest(chain / "scene" / "manifest.json", tmp_path / "again")
    assert matches and all(matches.values()), matches


# sha256 of a 60-step drive of the standard config, taken when the drive
# was still carried as per-step objects; the columnar one must write the
# same bytes. (float64 text via repr, numpy 2.4 on x86-64.)
SHORT_DRIVE_SHA256 = {
    "rssi.csv": "50683d45da7198d638f809e303d053b43caaa3f9b75ee30ca8cb90739614d841",
    "lidar.csv": "97ee726284e25376d98e3930bfa138b25c7cc8e8033c27013af2e142446e6abf",
    "truth.csv": "5e974ade20c1e7aa2c4f912743a453afb0b64f9b9fabde39223fb6bfa9275bfa",
    "meta.json": "0bd8bff482681c4fa2049860de6689fca25ed0509aea359e1375f372c413487f",
}


# The simulator measures in blocks of scene.CHUNK_STEPS steps; the bytes
# must not depend on the cut, down to blocks of one step and past the drive.
@pytest.mark.parametrize("chunk_steps", [16, 1, 7, 61])
def test_simulate_writes_the_pinned_bytes_of_a_short_drive(tmp_path, monkeypatch, chunk_steps):
    monkeypatch.setattr(scene, "CHUNK_STEPS", chunk_steps)
    out = tmp_path / "short"
    assert run(["simulate", "--steps", "60", "--scenario-id", "short", "--out", str(out)]) == 0
    assert read_manifest(out)["outputs"] == SHORT_DRIVE_SHA256


# The rasterizer draws preprocess.RASTER_POINT_BLOCK lidar points at a time;
# the rasters must not depend on the cut, down to one point and past the drive.
def test_label_writes_the_same_rasters_at_any_point_block(chain, tmp_path, monkeypatch):
    points = len(load_scenario(chain / "scene").lidar.t)
    want = (chain / "data" / "rasters.npy").read_bytes()
    for block in (1, 7, points + 1):
        monkeypatch.setattr(preprocess, "RASTER_POINT_BLOCK", block)
        out = tmp_path / f"block{block}"
        assert run(["label", "--scenario", str(chain / "scene"), "--out", str(out)]) == 0
        assert (out / "rasters.npy").read_bytes() == want, block


def test_label_replays_byte_identical(chain, tmp_path):
    matches = replay_manifest(chain / "data" / "manifest.json", tmp_path / "again")
    assert matches and all(matches.values()), matches


def test_replay_rejects_unknown_versions(chain, tmp_path):
    manifest = read_manifest(chain / "scene")
    manifest["format_version"] = 9
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(Exception) as err:
        replay_manifest(bad, tmp_path / "out")
    assert "version" in str(err.value)


def test_replaying_a_label_manifest_of_the_old_layout_names_the_missing_input(chain, tmp_path):
    # Before a dataset was one drive, `label` recorded a list `scenarios`.
    manifest = read_manifest(chain / "data")
    manifest["inputs"]["scenarios"] = [manifest["inputs"].pop("scenario")]
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError, match=f"{re.escape(str(old))}: inputs has no 'scenario'"):
        replay_manifest(old, tmp_path / "out")


@pytest.mark.parametrize("key", ["subcommand", "config", "inputs", "outputs"])
@pytest.mark.parametrize("value", [None, ["train"]], ids=["absent", "a-list"])
def test_replaying_a_manifest_without_a_top_level_key_names_it(chain, tmp_path, key, value):
    manifest = read_manifest(chain / "scene")
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError, match=f"{re.escape(str(bad))}: {key} is missing or not"):
        replay_manifest(bad, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, message", [(None, "config has no 'eps'"),
                                            ("x", "config eps must be a finite number")])
def test_replaying_a_manifest_with_a_bad_config_value_names_the_key(chain, tmp_path, value,
                                                                   message):
    manifest = read_manifest(chain / "data")
    if value is None:
        del manifest["config"]["eps"]
    else:
        manifest["config"]["eps"] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError, match=f"{re.escape(str(bad))}: {message}"):
        replay_manifest(bad, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Config precedence
# ---------------------------------------------------------------------------

def test_flag_overrides_beat_config_file(tmp_path):
    cfg_file = tmp_path / "site.cfg"
    cfg_file.write_text("steps = 60\nseed = 3  # trailing comment\n")
    out = tmp_path / "a"
    assert run(
        ["simulate", "--out", str(out), "--config", str(cfg_file),
         "--set", "steps=50"]
    ) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["steps"] == 50  # --set wins
    assert manifest["config"]["seed"] == 3    # file beats default


def test_environment_variable_names_the_config_file(tmp_path, monkeypatch):
    cfg_file = tmp_path / "env.cfg"
    cfg_file.write_text("steps = 70\n")
    monkeypatch.setenv("BLOCKCAST_CONFIG", str(cfg_file))
    out = tmp_path / "b"
    assert run(["simulate", "--out", str(out)]) == 0
    assert read_manifest(out)["config"]["steps"] == 70


def test_config_file_parsing_rules(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "steps = 42\n"
        "ratios = [0.5, 0.25, 0.25]\n"
        "bounce_x = null\n"
        "walls = null\n"
    )
    values = parse_config_file(path)
    assert values == {"steps": 42, "ratios": [0.5, 0.25, 0.25], "bounce_x": None, "walls": None}

    path.write_text("mystery = 1\n")
    with pytest.raises(ParseError) as err:
        parse_config_file(path)
    assert ":1:" in str(err.value)

    path.write_text("steps = {broken\n")
    with pytest.raises(ParseError):
        parse_config_file(path)

    path.write_text("steps 42\n")
    with pytest.raises(ParseError):
        parse_config_file(path)

    with pytest.raises(ParseError):
        parse_config_file(tmp_path / "missing.cfg")


def test_resolve_config_and_dump_round_trip(tmp_path):
    cfg = resolve_config({"steps": 33, "noise_variance": 0.5})
    assert cfg["steps"] == 33 and cfg["noise_variance"] == 0.5
    assert cfg["num_beams"] == DEFAULTS["num_beams"]
    with pytest.raises(KeyError):
        resolve_config({"not_a_key": 1})

    path = tmp_path / "dumped.cfg"
    path.write_text(dump_config(cfg))
    assert parse_config_file(path) == cfg


def test_bounce_x_null_from_set_or_config_file_simulates_the_same_drive(tmp_path):
    # resolve_config used to skip a None override, so --set bounce_x=null
    # left the default bounce in place while the config file's null did not.
    cfg_file = tmp_path / "site.cfg"
    cfg_file.write_text("bounce_x = null\n")
    runs = {"set": ["--set", "bounce_x=null"], "file": ["--config", str(cfg_file)]}
    for name, args in runs.items():
        assert run(["simulate", "--set", "steps=120", "--scenario-id", "drive", *args,
                    "--out", str(tmp_path / name)]) == 0
        assert read_manifest(tmp_path / name)["config"]["bounce_x"] is None
    assert _outputs(tmp_path / "set") == _outputs(tmp_path / "file")
    # The vehicle reaches the default bounce point, x = 13, at step 104.
    assert run(["simulate", "--set", "steps=120", "--out", str(tmp_path / "bounce")]) == 0
    assert _outputs(tmp_path / "bounce")["truth.csv"] != _outputs(tmp_path / "set")["truth.csv"]


def test_unknown_key_in_config_file_fails_the_run(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    assert run(["simulate", "--out", str(tmp_path / "x"), "--config", str(cfg_file)]) == 1


BAD_CONFIG = {  # case -> (subcommand, key, JSON text of its value)
    "bounce_x-short": ("simulate", "bounce_x", "[5]"),
    "seed-negative": ("simulate", "seed", "-1"),
    "symbol_power-negative": ("simulate", "symbol_power", "-1"),
    "train_seed-negative": ("simulate", "train_seed", "-1"),
    "walls-number": ("simulate", "walls", "5"),
    "walls-short-row": ("simulate", "walls", "[[1, 2, 3]]"),
    "window_len-fraction": ("label", "window_len", "8.5"),
    "raster_bins-flag": ("label", "raster_bins", "true"),
    "raster_bins-zero": ("label", "raster_bins", "0"),
    "window_len-zero": ("label", "window_len", "0"),
    "steps-fraction": ("simulate", "steps", "60.9"),
    "num_beams-text": ("simulate", "num_beams", '"64"'),
    "noise_variance-nan": ("simulate", "noise_variance", "NaN"),
    "road_region-short": ("simulate", "road_region", "[0, 0, 1]"),
    "road_region-unbounded": ("simulate", "road_region", "[-1e308, 4, 1e308, 8]"),
    "lidar_max_range-zero": ("simulate", "lidar_max_range", "0"),
    "object_width-negative": ("label", "object_width", "-1"),
    "eps-text": ("label", "eps", '"x"'),
    "tx-short": ("simulate", "tx", "[0]"),
    "theta_offset-huge": ("simulate", "theta_offset", "1e308"),
    "theta_offset-beams-collide": ("simulate", "theta_offset", "1e17"),
}


def _config_stage(chain, command) -> list[str]:
    if command == "label":
        return ["label", "--scenario", str(chain / "scene")]
    return ["simulate", "--set", "steps=60"]


@pytest.mark.parametrize("case", sorted(BAD_CONFIG))
def test_a_bad_set_value_is_a_usage_error_naming_the_key(chain, tmp_path, capsys, case):
    # Each used to run: 8.5 windows as 8, true as 1 raster bin, a NaN noise
    # as none; "x" failed with a bare float() message, [0] and a bounce_x
    # of [5] with an IndexError traceback, walls=5 with a TypeError one, a
    # row of three numbers with an unpacking message, a symbol_power of -1
    # with "math domain error" and a seed of -1 with numpy's message. A
    # lidar_max_range of 0, an object_width of -1 and a road_region of
    # infinite extent ran until train or evaluate refused their dataset. A
    # theta_offset of 1e308 or 1e17 failed as "steering_dirs must be
    # strictly increasing", naming no key. A raster_bins or window_len of
    # 0 ran the whole clustering pass before its refusal, the first as
    # "bins must be >= 1".
    command, key, text = BAD_CONFIG[case]
    out = tmp_path / "out"
    assert run(_config_stage(chain, command) + ["--set", f"{key}={text}", "--out", str(out)]) == 2
    assert f"argument --set: {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_CONFIG))
def test_a_bad_config_file_value_names_the_file_and_line(chain, tmp_path, capsys, case):
    command, key, text = BAD_CONFIG[case]
    cfg_file = tmp_path / "site.cfg"
    cfg_file.write_text(f"# site settings\n{key} = {text}\n")
    with pytest.raises(ParseError) as err:
        parse_config_file(cfg_file)
    assert str(err.value).startswith(f"{cfg_file}:2: {key} must be")
    out = tmp_path / "out"
    assert run(_config_stage(chain, command) + ["--config", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg_file}:2: {key} must be" in err and "Traceback" not in err
    assert not out.exists()


def test_a_theta_offset_is_checked_against_the_codebook_configured(chain, tmp_path, capsys):
    # 1.0 gives the default 64 beams distinct directions, but over a fov of
    # 1e-14 they lie 1.6e-16 apart, below the spacing of doubles near 1.
    assert resolve_config({"theta_offset": 1.0})["theta_offset"] == 1.0
    message = "theta_offset must be an angle whose 64 beam directions over a fov of 1e-14"
    with pytest.raises(SchemaError, match=f"^{message}"):
        resolve_config({"theta_offset": 1.0, "fov": 1e-14})
    out = tmp_path / "out"
    assert run(["simulate", "--set", "theta_offset=1.0", "--set", "fov=1e-14",
                "--out", str(out)]) == 1
    assert message in capsys.readouterr().err and not out.exists()
    manifest = read_manifest(chain / "scene")
    manifest["config"].update(theta_offset=1.0, fov=1e-14)
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError, match=f"{re.escape(str(bad))}: config {message}"):
        replay_manifest(bad, tmp_path / "again")
    assert not (tmp_path / "again").exists()


def test_every_config_value_reaches_the_stages_in_the_form_of_its_default(tmp_path):
    cfg_file = tmp_path / "site.cfg"
    cfg_file.write_text("lr = 1\nwalls = [[0, 9, 1, 9]]\n")
    cfg = resolve_config({"delta": 2, "bounce_x": [-5, 5], "steps": 60}, cfg_file)
    assert cfg == {**DEFAULTS, "lr": 1.0, "walls": [[0.0, 9.0, 1.0, 9.0]], "delta": 2.0,
                   "bounce_x": [-5.0, 5.0], "steps": 60}
    for key, value in cfg.items():
        rows = value if isinstance(value, list) else [value]
        cells = [cell for row in rows for cell in (row if isinstance(row, list) else [row])]
        want = int if type(DEFAULTS[key]) is int else float
        assert all(type(cell) is want for cell in cells), key
    assert resolve_config({"walls": [], "bounce_x": None})["walls"] == []
    with pytest.raises(SchemaError, match="^delta must be a finite number, got nan"):
        resolve_config({"delta": math.nan})


def _dedicated_flags():
    """(subcommand, flag, config key) of every flag named as a config key."""
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    return sorted((command, action.option_strings[0], action.dest)
                  for command, sub in subcommands.items()
                  for action in sub._actions if action.dest in DEFAULTS)


BAD_FLAG_TEXT = {int: ["9223372036854775808"], float: ["nan", "inf", "1e999"]}
STAGE_ARGS = {"simulate": [], "label": ["--scenario", "scene"],
              "train": ["--dataset", "data", "--variant", "rf"]}


@pytest.mark.parametrize("command, flag, key, text", [
    (command, flag, key, text) for command, flag, key in _dedicated_flags()
    for text in BAD_FLAG_TEXT[type(DEFAULTS[key])]])
def test_a_bad_dedicated_flag_value_is_a_usage_error_naming_the_key(
        tmp_path, capsys, command, flag, key, text):
    # --delta nan used to run and write NaN into manifest.json, which its
    # replay then refused; --lr nan failed in training naming no key.
    out = tmp_path / "out"
    assert run([command, *STAGE_ARGS[command], flag, text, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {key} must be" in err and "Traceback" not in err
    assert not out.exists()


def test_the_chain_manifests_are_strict_json(chain):
    def refuse(constant):
        raise ValueError(f"{constant} is no JSON")
    manifests = sorted(chain.glob("*/manifest.json"))
    assert len(manifests) == 6
    for path in manifests:
        manifest = json.loads(path.read_text(), parse_constant=refuse)
        assert manifest["config"].keys() == DEFAULTS.keys()


def test_a_train_run_given_every_flag_replays_byte_for_byte(chain, tmp_path):
    out = tmp_path / "loc"
    assert run(["train", "--dataset", str(chain / "data"), "--variant", "localization",
                "--lr", "2e-3", "--batch-size", "4", "--episodes", "2", "--iterations", "5",
                "--train-seed", "3", "--delta", "1", "--out", str(out)]) == 0
    config = read_manifest(out)["config"]
    assert [config[key] for key in ("lr", "batch_size", "episodes", "iterations", "train_seed",
                                    "delta")] == [2e-3, 4, 2, 5, 3, 1.0]
    assert type(config["delta"]) is float
    matches = replay_manifest(out / "manifest.json", tmp_path / "again")
    assert matches and all(matches.values()), matches


@pytest.mark.filterwarnings("error")
def test_a_vehicle_track_that_overflows_is_refused_before_anything_is_written(tmp_path, capsys):
    # It used to leak RuntimeWarnings and write a truth.csv of inf
    # positions, which label then refused.
    out = tmp_path / "scene"
    assert run(["simulate", "--set", "steps=60", "--set", "vehicle_velocity=[1e308,0]",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "vehicle_velocity" in err and "vehicle_center" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", [
    "scatter_fluctuation_db",  # an OverflowError traceback from the wobble 10 ** (db * z / 20)
    # Overflow RuntimeWarnings from the power sum, then a message naming no key.
    "noise_variance", "scatter_gain", "symbol_power",
])
def test_a_received_power_that_overflows_is_refused_naming_its_key(tmp_path, capsys, key):
    out = tmp_path / "scene"
    assert run(["simulate", "--set", "steps=40", "--set", f"{key}=1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err, err
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["tx=[1e308,0]", "vehicle_width=1e308"])
def test_a_huge_sensor_offset_or_vehicle_casts_rays_without_a_warning(tmp_path, capsys, value):
    # The ray casts used to leak "overflow encountered in divide". Such a
    # drive is one class only (never or always blocked), so it has no power
    # threshold, and label refuses it naming meta.json.
    scene_dir = tmp_path / "scene"
    assert run(["simulate", "--set", "steps=40", "--set", value, "--out", str(scene_dir)]) == 0
    assert run(["label", "--scenario", str(scene_dir), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert "meta.json" in err and "no power_threshold" in err and "Traceback" not in err, err


@pytest.mark.filterwarnings("error")
def test_an_eps_whose_square_overflows_is_refused_before_anything_is_written(
        chain, tmp_path, capsys):
    # It used to end in an OverflowError traceback from the squared radius.
    out = tmp_path / "data"
    assert run(["label", "--scenario", str(chain / "scene"), "--set", "eps=1e308",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "eps must be positive, with a finite square" in err and "Traceback" not in err, err
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["localization", "rf", "rf+lidar"])
def test_a_diverging_lr_is_refused_naming_lr_and_the_episode(chain, tmp_path, capsys, variant):
    # It used to leak "overflow encountered in matmul", then exit 1 with
    # "dense output contains non-finite values", which named no key.
    out = tmp_path / "model"
    assert run(["train", "--dataset", str(chain / "data"), "--variant", variant, "--lr", "1e300",
                "--episodes", "2", "--iterations", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "diverged in episode 1 of 2" in err and "lr below 1e+300" in err, err
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant, lr", [("localization", "1e30"), ("rf", "1e30"),
                                         ("rf+lidar", "1e30"), ("rf", "1e100")])
def test_an_lr_whose_fit_ends_above_the_untrained_loss_is_refused(
        chain, tmp_path, capsys, variant, lr):
    # These fits overflow nowhere: they used to exit 0 with a model worse
    # than the untrained one. The val loss is what refuses them now.
    out = tmp_path / "model"
    assert run(["train", "--dataset", str(chain / "data"), "--variant", variant, "--lr", lr,
                "--episodes", "2", "--iterations", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "diverged in episode 1 of 2 (val loss" in err, err
    assert f"lr below {float(lr)!r}" in err and "Traceback" not in err, err
    assert not any(out.iterdir())


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two(tmp_path):
    assert run([]) == 2
    assert run(["simulate"]) == 2  # missing --out
    assert run(["simulate", "--out", str(tmp_path / "x"), "--set", "bogus=1"]) == 2
    assert run(["simulate", "--out", str(tmp_path / "x"), "--set", "steps"]) == 2
    assert run(["train", "--dataset", "d", "--variant", "cnn", "--out", "o"]) == 2
    assert run(
        ["transfer", "--scenario", "s", "--loc", "l", "--rx", "1;2", "--out", "o"]
    ) == 2


@pytest.mark.parametrize("second", ["same", "other"])
def test_label_takes_one_scenario(chain, tmp_path, capsys, second):
    # A dataset is one drive: a second --scenario used to be joined into it,
    # keeping the first drive's link and letting a repeated drive's test
    # windows into train.
    scene = str(chain / "scene")
    other = scene if second == "same" else str(tmp_path / "other")
    out = tmp_path / "data"
    assert run(["label", "--scenario", scene, "--scenario", other, "--out", str(out)]) == 2
    assert "--scenario" in capsys.readouterr().err
    assert not (out / "dataset.json").exists()


def test_domain_errors_exit_one(chain, tmp_path):
    missing = str(tmp_path / "nowhere")
    assert run(["label", "--scenario", missing, "--out", str(tmp_path / "a")]) == 1
    assert run(
        ["evaluate", "--dataset", str(chain / "data"), "--out", str(tmp_path / "b")]
    ) == 1  # no checkpoints at all
    assert run(
        ["train", "--dataset", missing, "--variant", "rf", "--out", str(tmp_path / "c")]
    ) == 1
    assert run(
        ["predict", "--checkpoint", missing, "--dataset", str(chain / "data"),
         "--out", str(tmp_path / "d")]
    ) == 1
    # A checkpoint of the wrong kind under --loc is a data error, not a crash.
    assert run(
        ["evaluate", "--dataset", str(chain / "data"), "--out", str(tmp_path / "e"),
         "--loc", str(chain / "rf" / "model.json")]
    ) == 1
    assert run(
        ["predict", "--checkpoint", str(chain / "loc" / "model.json"),
         "--dataset", str(chain / "data"), "--split", "nope",
         "--out", str(tmp_path / "f")]
    ) == 1


@pytest.mark.parametrize("flag, wrong", [("--loc", "rf"), ("--rf", "lidar"), ("--lidar", "rf")])
def test_transfer_rejects_a_checkpoint_of_the_wrong_kind(chain, tmp_path, capsys, flag, wrong):
    ckpt = chain / wrong / "model.json"
    loc = [] if flag == "--loc" else ["--loc", str(chain / "loc" / "model.json")]
    assert run(
        ["transfer", "--scenario", str(chain / "scene"), *loc, flag, str(ckpt),
         "--rx", "4,12", "--out", str(tmp_path / "sweep")]
    ) == 1
    assert str(ckpt.resolve()) in capsys.readouterr().err


def test_transfer_names_the_checkpoint_trained_for_another_horizon(chain, tmp_path, capsys):
    ckpt = chain / "loc" / "model.json"
    assert run(
        ["transfer", "--scenario", str(chain / "scene"), "--loc", str(ckpt),
         "--rx", "4,12", "--set", "horizon=3", "--out", str(tmp_path / "sweep")]
    ) == 1
    err = capsys.readouterr().err
    assert "horizon" in err and str(ckpt.resolve()) in err
    assert "broadcast" not in err


@pytest.mark.parametrize("rx", ["nan,12", "4,inf", "-inf,12"])
def test_transfer_rejects_a_non_finite_receiver_as_a_usage_error(chain, tmp_path, capsys, rx):
    out = tmp_path / "sweep"
    assert run(
        ["transfer", "--scenario", str(chain / "scene"),
         "--loc", str(chain / "loc" / "model.json"), f"--rx={rx}", "--out", str(out)]
    ) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "transfer.csv").exists()


@pytest.mark.parametrize("field", ["tx", "rx"])
def test_a_non_finite_link_endpoint_in_the_metadata_is_a_domain_error(
    chain, tmp_path, capsys, field
):
    scene = tmp_path / "scene"
    shutil.copytree(chain / "scene", scene)
    meta = json.loads((scene / "meta.json").read_text())
    meta[field] = [math.nan, 12.0]
    (scene / "meta.json").write_text(json.dumps(meta))
    out = tmp_path / "sweep"
    assert run(
        ["transfer", "--scenario", str(scene), "--loc", str(chain / "loc" / "model.json"),
         "--rx", "4,12", "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    want = f"{(scene / 'meta.json').resolve()}: {field} must be a list of 2 numbers, all finite"
    assert want in err and "Traceback" not in err
    assert not (out / "transfer.csv").exists()


@pytest.mark.parametrize("key, value", [("tx", [0.0]), ("rx", [1, 2, 3]), ("tx", "0,2")])
def test_a_link_endpoint_that_is_not_a_pair_names_the_file_and_key(
    chain, tmp_path, capsys, key, value
):
    scene = tmp_path / "scene"
    shutil.copytree(chain / "scene", scene)
    meta = json.loads((scene / "meta.json").read_text())
    meta[key] = value
    (scene / "meta.json").write_text(json.dumps(meta))
    out = tmp_path / "sweep"
    assert run(
        ["transfer", "--scenario", str(scene), "--loc", str(chain / "loc" / "model.json"),
         "--rx", "4,12", "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert f"{(scene / 'meta.json').resolve()}: {key} must be a list of 2 numbers" in err
    assert "Traceback" not in err
    assert not (out / "transfer.csv").exists()


def _scene_with_meta(chain, tmp_path, key, value) -> Path:
    """A copy of the chain's scene whose meta.json holds ``value`` at ``key``."""
    scene = tmp_path / "scene"
    shutil.copytree(chain / "scene", scene)
    meta = json.loads((scene / "meta.json").read_text())
    meta[key] = value
    (scene / "meta.json").write_text(json.dumps(meta))
    return scene


BAD_THRESHOLDS = {"text": "x", "nan": math.nan, "negative": -1.0, "zero": 0.0,
                  "flag": True}


@pytest.mark.parametrize("case", sorted(BAD_THRESHOLDS))
@pytest.mark.parametrize("command", ["label", "transfer"])
def test_a_bad_power_threshold_names_the_metadata_file_and_key(
    chain, tmp_path, capsys, command, case
):
    scene = _scene_with_meta(chain, tmp_path, "power_threshold", BAD_THRESHOLDS[case])
    out = tmp_path / "out"
    args = (["label", "--scenario", str(scene)] if command == "label" else
            ["transfer", "--scenario", str(scene), "--loc", str(chain / "loc" / "model.json"),
             "--rx", "4,12"])
    assert run(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    want = f"{(scene / 'meta.json').resolve()}: power_threshold must be a finite positive number"
    assert want in err and "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("value", [math.nan, -4.0, 0, [1, 2], "abc", True, None])
@pytest.mark.parametrize("key", ["vehicle_width", "vehicle_depth"])
def test_a_bad_vehicle_size_names_the_metadata_file_and_key(chain, tmp_path, capsys, key, value):
    # A NaN or negative size used to run, with every truth step clear; a
    # list raised a raw TypeError, and a string named no file.
    scene = _scene_with_meta(chain, tmp_path, key, value)
    out = tmp_path / "out"
    assert run(["transfer", "--scenario", str(scene), "--loc", str(chain / "loc" / "model.json"),
                "--rx", "4,12", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    meta_path = (scene / "meta.json").resolve()
    want = (f"{meta_path}: transfer needs vehicle_width and vehicle_depth" if value is None
            else f"{meta_path}: {key} must be a finite positive number")
    assert want in err and "Traceback" not in err
    assert not list(out.iterdir())


BAD_NORMS = {"road_size": [0, 4], "road_origin": [1.0], "rssi_std": [-1.0] * 64,
             "lidar_max_range": math.nan, "rssi_mean": [0.0, 0.0, 0.0],
             "road_size-text": ["28", "4"]}


@pytest.mark.parametrize("case", sorted(BAD_NORMS))
def test_a_bad_norm_field_in_a_checkpoint_names_the_file_and_key(chain, tmp_path, capsys, case):
    # Before checks, a 3-entry rssi_mean failed with a bare numpy broadcast
    # message and the others evaluated to a wrong report or a right one.
    key = case.split("-")[0]
    payload = json.loads((chain / "loc" / "model.json").read_text())
    payload["descriptor"]["norm"][key] = BAD_NORMS[case]
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "report"
    assert run(["evaluate", "--dataset", str(chain / "data"), "--loc", str(ckpt),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{ckpt.resolve()}: norm.{key} must be" in err and "Traceback" not in err
    assert not list(out.iterdir())


def _with_extra_entry(params):
    params["head.extra"] = {"shape": [1], "data": [0.0]}


@pytest.mark.parametrize("edit, named", [
    (_with_extra_entry, "missing none; extra head.extra"),
    (lambda params: params.pop("head.bias"), "missing head.bias; extra none"),
], ids=["extra", "missing"])
def test_a_checkpoint_of_other_parameter_names_names_the_entry(chain, tmp_path, capsys, edit,
                                                              named):
    # Both said only "checkpoint parameters do not match architecture".
    payload = json.loads((chain / "rf" / "model.json").read_text())
    edit(payload["params"])
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "report"
    assert run(["evaluate", "--dataset", str(chain / "data"), "--rf", str(ckpt),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{ckpt.resolve()}: checkpoint parameters do not match architecture: {named}" in err
    assert "Traceback" not in err and not list(out.iterdir())


@pytest.mark.parametrize("key, value", [("tx", [0.0]), ("rx", [1, 2, 3]), ("rx", "0,12")])
def test_label_checks_the_link_in_the_metadata_before_writing(
    chain, tmp_path, capsys, key, value
):
    scene = _scene_with_meta(chain, tmp_path, key, value)
    out = tmp_path / "data"
    assert run(["label", "--scenario", str(scene), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{(scene / 'meta.json').resolve()}: {key} must be a list of 2 numbers" in err
    assert "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "key, value, count",
    [("road_region", [-14.0, 4.0, 14.0], 4), ("tx", [0.0], 2), ("rx", [1, 2, 3], 2)],
)
def test_a_bad_link_or_road_in_the_dataset_names_the_file_and_key(
    chain, tmp_path, capsys, key, value, count
):
    data = tmp_path / "data"
    shutil.copytree(chain / "data", data)
    payload = json.loads((data / "dataset.json").read_text())
    payload["meta"][key] = value
    (data / "dataset.json").write_text(json.dumps(payload))
    out = tmp_path / "report"
    assert run(
        ["evaluate", "--dataset", str(data), "--loc", str(chain / "loc" / "model.json"),
         "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert f"{(data / 'dataset.json').resolve()}: {key} must be a list of {count} numbers" in err
    assert "Traceback" not in err
    assert not (out / "report.txt").exists()
    if key == "road_region":  # the training targets are scaled by the road extent
        assert run(
            ["train", "--dataset", str(data), "--variant", "rf", "--episodes", "1",
             "--iterations", "1", "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert f"{(data / 'dataset.json').resolve()}: road_region must be a list of 4" in err
        assert not (out / "model.json").exists()


NON_FINITE_META = {  # case -> (command, input dir, file, key, value)
    "label-tx": ("label", "scene", "meta.json", "tx", [math.nan, 0.0]),
    "label-rx": ("label", "scene", "meta.json", "rx", [4.0, math.inf]),
    "train-rf": ("train", "data", "dataset.json", "road_region", [math.nan, 4.0, 14.0, 8.0]),
    "train-localization": ("train", "data", "dataset.json", "road_region",
                           [-14.0, 4.0, math.inf, 8.0]),
    "evaluate-tx": ("evaluate", "data", "dataset.json", "tx", [math.nan, 0.0]),
    "evaluate-road_region": ("evaluate", "data", "dataset.json", "road_region",
                             [-14.0, -math.inf, 14.0, 8.0]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_META))
def test_a_non_finite_number_in_the_metadata_names_the_file_and_key(chain, tmp_path, capsys, case):
    # json reads NaN and Infinity. A NaN road corner used to train an rf model
    # with exit 0 and a NaN norm.road_origin, or to fail localization training
    # on its gradient; a NaN tx failed evaluate on the link. None named the file.
    command, stage, name, key, value = NON_FINITE_META[case]
    src = tmp_path / stage
    shutil.copytree(chain / stage, src)
    payload = json.loads((src / name).read_text())
    (payload["meta"] if name == "dataset.json" else payload)[key] = value
    (src / name).write_text(json.dumps(payload))
    out = tmp_path / "out"
    args = {
        "label": ["label", "--scenario", str(src)],
        "train": ["train", "--dataset", str(src), "--variant", case.split("-")[1],
                  "--episodes", "1", "--iterations", "1"],
        "evaluate": ["evaluate", "--dataset", str(src), "--loc", str(chain / "loc" / "model.json")],
    }[command]
    assert run(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    want = f"{(src / name).resolve()}: {key} must be a list of {len(value)} numbers, all finite"
    assert want in err and "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("value", ["wide", -1.0, math.nan, None])
def test_evaluate_reads_the_object_width_of_the_dataset(chain, tmp_path, capsys, value):
    # "wide" used to fail with a bare float() message and -1.0 without the
    # file's name; an absent width falls back to the default, which the chain
    # wrote, so the report is the chain's own.
    data = tmp_path / "data"
    shutil.copytree(chain / "data", data)
    payload = json.loads((data / "dataset.json").read_text())
    assert payload["meta"].pop("object_width") == DEFAULTS["object_width"]
    if value is not None:
        payload["meta"]["object_width"] = value
    (data / "dataset.json").write_text(json.dumps(payload))
    loc = ["--loc", str(chain / "loc" / "model.json")]
    out = tmp_path / "report"
    code = run(["evaluate", "--dataset", str(data), *loc, "--out", str(out)])
    if value is None:
        ref = tmp_path / "ref"
        assert code == 0
        assert run(["evaluate", "--dataset", str(chain / "data"), *loc, "--out", str(ref)]) == 0
        assert (out / "report.txt").read_bytes() == (ref / "report.txt").read_bytes()
        return
    assert code == 1
    err = capsys.readouterr().err
    want = f"{(data / 'dataset.json').resolve()}: object_width must be a finite positive number"
    assert want in err and "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("value", [math.nan, -1.0, 0, "x", True, None, "absent"])
@pytest.mark.parametrize("variant, sub, iterations", [("rf", "rf", "15"),
                                                      ("rf+lidar", "lidar", "10")])
def test_train_reads_the_lidar_range_of_the_dataset(
        chain, tmp_path, capsys, variant, sub, iterations, value):
    # NaN and -1.0 used to train with exit 0, "x" to fail with a bare float()
    # message; absent or null, the range is the default 16.0, which the chain
    # wrote, so the checkpoint is the chain's own.
    data = tmp_path / "data"
    shutil.copytree(chain / "data", data)
    payload = json.loads((data / "dataset.json").read_text())
    assert payload["meta"].pop("lidar_max_range") == 16.0
    if value != "absent":
        payload["meta"]["lidar_max_range"] = value
    (data / "dataset.json").write_text(json.dumps(payload))
    out = tmp_path / "model"
    code = run(["train", "--dataset", str(data), "--variant", variant, "--episodes", "1",
                "--iterations", iterations, "--out", str(out)])
    if value in (None, "absent"):
        assert code == 0
        assert (out / "model.json").read_bytes() == (chain / sub / "model.json").read_bytes()
        return
    assert code == 1
    err = capsys.readouterr().err
    want = f"{(data / 'dataset.json').resolve()}: lidar_max_range must be a finite positive number"
    assert want in err and "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "key, label_args, flag, sub",
    [("horizon", ["--horizon", "3"], "--loc", "loc"),
     ("raster_bins", ["--set", "raster_bins=180"], "--lidar", "lidar")],
)
def test_evaluate_names_the_checkpoint_cut_for_other_windows(
    chain, tmp_path, capsys, key, label_args, flag, sub
):
    data = tmp_path / "data"
    assert run(["label", "--scenario", str(chain / "scene"), *label_args, "--out", str(data)]) == 0
    ckpt = chain / sub / "model.json"
    assert run(
        ["evaluate", "--dataset", str(data), flag, str(ckpt), "--out", str(tmp_path / "r")]
    ) == 1
    err = capsys.readouterr().err
    assert key in err and str(ckpt.resolve()) in err
    assert "broadcast" not in err


@pytest.mark.parametrize(
    "key, label_args, sub",
    [("horizon", ["--horizon", "3"], "rf"), ("raster_bins", ["--set", "raster_bins=180"], "lidar")],
)
def test_predict_names_the_checkpoint_cut_for_other_windows(
    chain, tmp_path, capsys, key, label_args, sub
):
    data = tmp_path / "data"
    assert run(["label", "--scenario", str(chain / "scene"), *label_args, "--out", str(data)]) == 0
    ckpt = chain / sub / "model.json"
    out = tmp_path / "pred"
    assert run(
        ["predict", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert key in err and str(ckpt.resolve()) in err
    assert not (out / "predictions.csv").exists()


def test_a_localization_checkpoint_of_another_road_frame_is_refused(chain, tmp_path, capsys):
    # The predictions are in the checkpoint's road frame; the futures and the
    # link of a dataset labeled with another road_region are in its own.
    data = tmp_path / "data"
    assert run(["label", "--scenario", str(chain / "scene"),
                "--set", "road_region=[-14.0,3.0,14.0,8.0]", "--out", str(data)]) == 0
    ckpt = chain / "loc" / "model.json"
    for argv, written in (
        (["evaluate", "--dataset", str(data), "--loc", str(ckpt)], "report.txt"),
        (["predict", "--checkpoint", str(ckpt), "--dataset", str(data)], "predictions.csv"),
    ):
        out = tmp_path / argv[0]
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt.resolve()) in err and "road_region" in err
        assert str((data / "dataset.json").resolve()) in err
        assert not (out / written).exists()
    # the blockage checkpoints predict no location, so any road frame serves
    assert run(["evaluate", "--dataset", str(data), "--rf", str(chain / "rf" / "model.json"),
                "--out", str(tmp_path / "rf")]) == 0


@pytest.fixture(scope="module")
def narrow(tmp_path_factory):
    """A 32-beam drive and its dataset; the chain's checkpoints have 64 beams."""
    root = tmp_path_factory.mktemp("narrow")
    assert run(["simulate", "--out", str(root / "scene"), "--set", "steps=200",
                "--set", "num_beams=32"]) == 0
    assert run(["label", "--scenario", str(root / "scene"), "--out", str(root / "data")]) == 0
    return root


def _names_num_beams(err: str, ckpt: Path) -> bool:
    return (str(ckpt.resolve()) in err and "num_beams=64" in err and "num_beams=32" in err
            and "Traceback" not in err)


@pytest.mark.parametrize("flag, sub", [("--loc", "loc"), ("--rf", "rf"), ("--lidar", "lidar")])
def test_evaluate_names_the_checkpoint_of_other_beams(chain, narrow, tmp_path, capsys, flag, sub):
    ckpt = chain / sub / "model.json"
    assert run(["evaluate", "--dataset", str(narrow / "data"), flag, str(ckpt),
                "--out", str(tmp_path / "r")]) == 1
    assert _names_num_beams(capsys.readouterr().err, ckpt)
    assert not (tmp_path / "r" / "report.txt").exists()


def test_predict_names_the_checkpoint_of_other_beams(chain, narrow, tmp_path, capsys):
    ckpt = chain / "loc" / "model.json"
    out = tmp_path / "pred"
    assert run(["predict", "--checkpoint", str(ckpt), "--dataset", str(narrow / "data"),
                "--out", str(out)]) == 1
    assert _names_num_beams(capsys.readouterr().err, ckpt)
    assert not (out / "predictions.csv").exists()


def test_transfer_checks_the_beams_of_the_scenario_not_the_config(chain, narrow, tmp_path, capsys):
    loc = chain / "loc" / "model.json"
    out = tmp_path / "sweep"
    assert run(["transfer", "--scenario", str(narrow / "scene"), "--loc", str(loc),
                "--rx", "4,12", "--out", str(out)]) == 1
    assert _names_num_beams(capsys.readouterr().err, loc)
    assert not (out / "transfer.csv").exists()
    # The config's num_beams plays no part: the 64-beam drive transfers.
    assert run(["transfer", "--scenario", str(chain / "scene"), "--loc", str(loc),
                "--set", "num_beams=32", "--rx", "4,12", "--out", str(out)]) == 0


def _without_window_len(payload):
    del payload["meta"]["window_len"]
    return json.dumps(payload)


BAD_JSON = {  # case -> (chain directory, file, rewrite of the parsed file)
    "dataset-without-window_len": ("data", "dataset.json", _without_window_len),
    "dataset-holding-a-list": ("data", "dataset.json", lambda payload: "[1, 2]"),
    "meta-with-text-num_beams": (
        "scene", "meta.json", lambda payload: json.dumps({**payload, "num_beams": "x"})
    ),
    "model-without-params": ("loc", "model.json", lambda payload: '{"format_version": 1}'),
    "model-not-json": ("loc", "model.json", lambda payload: "nope"),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON))
def test_a_bad_json_file_is_a_domain_error_naming_it(chain, tmp_path, capsys, case):
    """An exception ``run`` does not report escapes it with its traceback and
    fails this test, so exit code 1 means the error was reported."""
    sub, name, rewrite = BAD_JSON[case]
    copy = tmp_path / sub
    shutil.copytree(chain / sub, copy)
    path = copy / name
    path.write_text(rewrite(json.loads(path.read_text())))
    if sub == "scene":
        argv = ["label", "--scenario", str(copy)]
    else:
        ckpt = path if sub == "loc" else chain / "loc" / "model.json"
        data = copy if sub == "data" else chain / "data"
        argv = ["predict", "--checkpoint", str(ckpt), "--dataset", str(data)]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(path.resolve()) in err
    assert "Traceback" not in err


def _json_holder(payload: dict, name: str) -> dict:
    """The object of a parsed model.json, dataset.json or meta.json whose
    keys the stages read."""
    return {"model.json": payload.get("descriptor"), "dataset.json": payload.get("meta"),
            "meta.json": payload}[name]


def _stage_argv(command: str, chain, **copies) -> list[str]:
    """The argv of one stage that reads the chain's directories, or the
    copies given for some of them (scene, data, loc, lidar)."""
    dirs = {sub: str(copies.get(sub, chain / sub)) for sub in ("scene", "data", "loc", "lidar")}
    loc, lidar = (f"{dirs[sub]}/model.json" for sub in ("loc", "lidar"))
    return {
        "label": ["label", "--scenario", dirs["scene"]],
        "transfer": ["transfer", "--scenario", dirs["scene"], "--loc", loc, "--rx", "4,12"],
        "train": ["train", "--dataset", dirs["data"], "--variant", "rf+lidar", "--episodes", "1",
                  "--iterations", "1"],
        "predict": ["predict", "--checkpoint", lidar, "--dataset", dirs["data"]],
        "evaluate": ["evaluate", "--dataset", dirs["data"], "--loc", loc, "--lidar", lidar],
    }[command]


NOT_AN_INTEGER = {  # case -> (chain directory, file, key, value, stage)
    "model-window_len-fraction": ("loc", "model.json", "window_len", 8.7, "evaluate"),
    "model-window_len-text": ("loc", "model.json", "window_len", "8", "evaluate"),
    "model-window_len-float": ("loc", "model.json", "window_len", 8.0, "evaluate"),
    "model-horizon-float": ("loc", "model.json", "horizon", 5.0, "evaluate"),
    "dataset-horizon-fraction": ("data", "dataset.json", "horizon", 5.5, "train"),
    "dataset-raster_bins-text": ("data", "dataset.json", "raster_bins", "360", "train"),
    "meta-num_beams-float": ("scene", "meta.json", "num_beams", 64.0, "label"),
    "meta-num_beams-text": ("scene", "meta.json", "num_beams", "64", "label"),
}


@pytest.mark.parametrize("case", sorted(NOT_AN_INTEGER))
def test_an_integer_field_that_is_no_json_integer_names_the_file_and_key(
    chain, tmp_path, capsys, case
):
    # int() used to read each of these, truncating 8.7 to 8 and 5.5 to 5.
    sub, name, key, value, command = NOT_AN_INTEGER[case]
    copy = tmp_path / sub
    shutil.copytree(chain / sub, copy)
    path = copy / name
    payload = json.loads(path.read_text())
    _json_holder(payload, name)[key] = value
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert run(_stage_argv(command, chain, **{sub: copy}) + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{path.resolve()}: {key} must be a positive integer" in err and "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("sub, name, key, command, table, want", [
    ("scene", "meta.json", "num_beams", "label", "rssi.csv", ":1: expected "),
    ("data", "dataset.json", "raster_bins", "train", "rasters.npy", ": shape "),
])
def test_a_huge_dimension_is_refused_by_the_file_header_width(
    chain, tmp_path, capsys, sub, name, key, command, table, want
):
    # The loaders used to build the expected header from the dimension before
    # reading the file's: num_beams 2,000,000 cost label over 1 s and 300 MiB, and
    # the error spelled out all 2,000,001 expected names. A dataset's rasters
    # are refused by the shape in the .npy header, before any data is read.
    copy = tmp_path / sub
    shutil.copytree(chain / sub, copy)
    path = copy / name
    payload = json.loads(path.read_text())
    _json_holder(payload, name)[key] = 2_000_000
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(_stage_argv(command, chain, **{sub: copy}) + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{(copy / table).resolve()}{want}" in err and "Traceback" not in err
    assert len(err.encode()) < 1000


def _saved_as(dtype, allow_pickle=False):
    def fault(path):
        values = np.load(path)
        with path.open("wb") as fh:
            np.save(fh, values.astype(dtype), allow_pickle=allow_pickle)
    return fault


def _resaved(edit):
    def fault(path):
        values = np.load(path)
        with path.open("wb") as fh:
            np.save(fh, edit(values))
    return fault


def _with_value(value):
    def edit(values):
        values[len(values) // 2, 1] = value
        return values
    return edit


ARRAY_FAULTS = {  # fault -> (how it is made, what the error says)
    "missing": (Path.unlink, "file not found"),
    "truncated": (lambda p: p.write_bytes(p.read_bytes()[:-100]), "bytes of array data"),
    "header-cut": (lambda p: p.write_bytes(p.read_bytes()[:40]), "not a .npy array"),
    "not-npy": (lambda p: p.write_text("t,p0\n0,1.5\n"), "not a .npy array"),
    "float32": (_saved_as(np.float32), "dtype float32"),
    "int64": (_saved_as(np.int64), "dtype int64"),
    "object": (_saved_as(object, allow_pickle=True), "dtype object"),
    "one-row-short": (_resaved(lambda v: v[:-1]), "shape "),
    "extra-column": (_resaved(lambda v: np.hstack([v, v[:, :1]])), "shape "),
    "nan": (_resaved(_with_value(math.nan)), "non-finite value at row"),
    "inf": (_resaved(_with_value(-math.inf)), "non-finite value at row"),
}


@pytest.mark.parametrize("fault", sorted(ARRAY_FAULTS))
@pytest.mark.parametrize("name", ["frames.npy", "rasters.npy"])
def test_a_bad_dataset_array_is_refused_naming_it(chain, tmp_path, capsys, name, fault):
    copy = tmp_path / "data"
    shutil.copytree(chain / "data", copy)
    make, want = ARRAY_FAULTS[fault]
    make(copy / name)
    named = copy / name
    with pytest.raises((ParseError, SchemaError)) as err:
        load_dataset(copy)
    assert str(named) in str(err.value) and want in str(err.value)
    for command in ("train", "evaluate"):
        out = tmp_path / command
        capsys.readouterr()
        assert run(_stage_argv(command, chain, data=copy) + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(named.resolve()) in err and want in err and "Traceback" not in err
        assert not list(out.iterdir())


# The JSON keys each stage reads: (file, chain directory) -> (stages that read
# it, keys); "norm.<key>" is a key of the checkpoint's norm object.
NORM_KEYS = ["norm.rssi_mean", "norm.rssi_std", "norm.road_origin", "norm.road_size",
             "norm.lidar_max_range"]
JSON_KEYS = {
    ("meta.json", "scene"): (["label", "transfer"], ["tx", "rx", "power_threshold",
                                                     "vehicle_width", "vehicle_depth",
                                                     "num_beams"]),
    ("dataset.json", "data"): (["train", "predict", "evaluate"],
                               ["window_len", "num_beams", "horizon", "raster_bins",
                                "road_region", "lidar_max_range", "object_width", "tx", "rx"]),
    ("model.json", "loc"): (["evaluate"], ["num_beams", "window_len", "horizon"] + NORM_KEYS),
    ("model.json", "lidar"): (["evaluate"], ["num_beams", "window_len", "horizon",
                                             "raster_bins"] + NORM_KEYS),
}
JSON_CASES = [(name, sub, command, key) for (name, sub), (commands, keys) in JSON_KEYS.items()
              for command in commands for key in keys]
MISSING = object()


def _mutated(value, mutation: str):
    """``value`` after one mutation. A bool, string, NaN, inf, an int beyond
    int64 or a float for an int replaces the first entry of a list."""
    if mutation == "missing":
        return MISSING
    whole = {"null": None, "negative": -1, "zero": 0,
             "wrong-length": value + value[:1] if isinstance(value, list) else [value, value]}
    if mutation in whole:
        return whole[mutation]
    first = value[0] if isinstance(value, list) else value
    entry = {"bool": True, "string": str(first), "nan": math.nan, "inf": math.inf,
             "beyond-int64": 2**63, "float-for-int": float(first)}[mutation]
    return [entry] + value[1:] if isinstance(value, list) else entry


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def unmutated(chain, tmp_path_factory):
    """The directory of each JSON_KEYS stage's outputs, run on the chain itself."""
    root = tmp_path_factory.mktemp("unmutated")
    for command in {command for _, _, command, _ in JSON_CASES}:
        assert run(_stage_argv(command, chain) + ["--out", str(root / command)]) == 0
    return root


@settings(max_examples=150)  # about 7 s; 616 cases in all
@given(case=st.sampled_from(JSON_CASES),
       mutation=st.sampled_from(["missing", "null", "bool", "string", "nan", "inf", "negative",
                                 "zero", "wrong-length", "float-for-int", "beyond-int64"]))
def test_one_bad_json_key_is_refused_naming_its_file_or_changes_nothing(
    chain, unmutated, tmp_path_factory, case, mutation
):
    name, sub, command, key = case
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        copy = Path(tmp) / sub
        shutil.copytree(chain / sub, copy)
        path = copy / name
        payload = json.loads(path.read_text())
        holder = _json_holder(payload, name)
        if key.startswith("norm."):
            holder = holder["norm"]
        field = key.split(".")[-1]
        value = _mutated(holder[field], mutation)
        holder.pop(field, None)
        if value is not MISSING:
            holder[field] = value
        path.write_text(json.dumps(payload))

        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(_stage_argv(command, chain, **{sub: copy}) + ["--out", str(out)])
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 1:
            assert str(path.resolve()) in err and field in err, err
            return
        assert code == 0, err
        expect = _outputs(unmutated / command)
        if command == "label" and key in ("tx", "rx") and (value is MISSING or value is None):
            # label copies the link into dataset.json, an absent one as null
            dataset = json.loads(expect["dataset.json"])
            dataset["meta"][key] = None
            expect["dataset.json"] = json.dumps(dataset, sort_keys=True, indent=2).encode()
        assert _outputs(out) == expect


def test_a_capture_that_is_not_utf8_is_a_domain_error_naming_it(chain, tmp_path, capsys):
    scene = tmp_path / "scene"
    shutil.copytree(chain / "scene", scene)
    (scene / "lidar.csv").write_bytes(b"t,angle,depth\n0,\xff\xfe,1.0\n")
    assert run(["label", "--scenario", str(scene), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert f"{(scene / 'lidar.csv').resolve()}:2:" in err
    assert "codec" not in err


def test_a_lidar_time_without_an_rssi_frame_names_the_file_and_line(chain, tmp_path, capsys):
    scene = tmp_path / "scene"
    shutil.copytree(chain / "scene", scene)
    with (scene / "lidar.csv").open("a") as fh:
        fh.write("999,1.0,1.0\n")
    lines = len((scene / "lidar.csv").read_text().splitlines())
    assert run(["label", "--scenario", str(scene), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert f"{(scene / 'lidar.csv').resolve()}:{lines}:" in err and "RSSI frame" in err


def test_a_repeated_truth_time_names_the_file_and_line(chain, tmp_path, capsys):
    # It used to load, and transfer scored against whichever of the two rows
    # numpy's scatter happened to keep.
    scene = tmp_path / "scene"
    shutil.copytree(chain / "scene", scene)
    lines = (scene / "truth.csv").read_text().splitlines()
    assert lines[1].startswith("0,")
    lines.insert(2, "0,5.0,6.0,1")
    (scene / "truth.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(["transfer", "--scenario", str(scene), "--loc", str(chain / "loc" / "model.json"),
                "--rx", "4,12", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{(scene / 'truth.csv').resolve()}:3:" in err and "truth time repeats" in err
    assert "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("module", ["blockcast", "blockcast.cli"])
def test_module_entry_points_run_without_runtime_warnings(module):
    src = str(Path(blockcast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
