import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockcast import cli, ingest
from blockcast.errors import NonFiniteError, ParseError, SchemaError
from blockcast.ingest import (
    CsvTable,
    DatasetFile,
    ScenarioBundle,
    Truth,
    _not_utf8,
    _parse_float,
    _parse_int,
    _samples_header,
    load_dataset,
    load_scenario,
    save_dataset,
    save_scenario,
    split_dataset,
    write_csv,
)
from blockcast.geometry import blockage_labels_from_rssi
from blockcast.preprocess import (
    DbscanConfig,
    SrcConfig,
    WindowSet,
    build_windows,
    scenario_centroids,
)
from blockcast.scene import (
    ChannelConfig,
    LidarScan,
    Vehicle,
    WorldState,
    build_codebook,
    simulate_scenario,
)


def small_bundle(seed=0, steps=15):
    vehicle = Vehicle((-3.0, 6.0), 4.0, 1.8, (0.5, 0.0))
    world = WorldState((0.0, 0.0), (0.0, 12.0), vehicles=(vehicle,),
                       static_obstacles=((-15.0, 9.0, 15.0, 9.0),))
    cb = build_codebook(8, math.pi / 16, math.pi)
    channel = ChannelConfig(noise_variance=1e-4)
    res = simulate_scenario(world, cb, channel, steps=steps, seed=seed)
    return ScenarioBundle(
        scenario_id=f"run{seed}",
        t=np.arange(steps),
        rssi=res.frames,
        lidar=res.scans,
        truth=Truth(np.arange(steps), res.positions, res.occluded),
        meta={"note": "fixture"},
    )


def random_windows(n, rng, window_len=4, beams=3, horizon=2, bins=5):
    """The n stride-1 windows of one random drive of n + window_len - 1 steps."""
    drive = rng.uniform(0.0, 3.0, size=(n + window_len - 1, beams))
    return WindowSet(
        t=np.arange(n) + window_len - 1,
        windows=drive[np.arange(n)[:, None] + np.arange(window_len)],
        futures=rng.normal(size=(n, horizon, 2)),
        blocked=rng.integers(0, 2, size=(n, horizon)).astype(bool),
        rasters=rng.uniform(0.1, 16.0, size=(n, bins)),
    )


def _same_windows(a: WindowSet, b: WindowSet) -> bool:
    """Every field equal in its bits."""
    return all(_same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(WindowSet))


# ---------------------------------------------------------------------------
# Scenario round trips
# ---------------------------------------------------------------------------

def test_scenario_round_trip_is_bit_exact(tmp_path):
    bundle = small_bundle()
    save_scenario(bundle, tmp_path / "s")
    loaded = load_scenario(tmp_path / "s")
    assert loaded.scenario_id == "run0"
    np.testing.assert_array_equal(loaded.t, bundle.t)
    np.testing.assert_array_equal(loaded.rssi, bundle.rssi)
    for a, b in zip(loaded.lidar, bundle.lidar):
        assert a.t == b.t
        np.testing.assert_array_equal(a.points, b.points)
    for a, b in zip(loaded.truth, bundle.truth):
        np.testing.assert_array_equal(a, b)
    assert loaded.meta["note"] == "fixture"


def test_second_save_produces_identical_files(tmp_path):
    bundle = small_bundle(seed=3)
    save_scenario(bundle, tmp_path / "a")
    save_scenario(load_scenario(tmp_path / "a"), tmp_path / "b")
    for name in ("rssi.csv", "lidar.csv", "truth.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_row_counts_match_line_counts(tmp_path):
    bundle = small_bundle(steps=12)
    save_scenario(bundle, tmp_path / "s")
    loaded = load_scenario(tmp_path / "s")
    rssi_lines = (tmp_path / "s" / "rssi.csv").read_text().strip().splitlines()
    assert len(loaded.rssi) == len(rssi_lines) - 1
    lidar_lines = (tmp_path / "s" / "lidar.csv").read_text().strip().splitlines()
    assert sum(s.points.shape[0] for s in loaded.lidar) == len(lidar_lines) - 1


def test_truth_positions_can_be_blank(tmp_path):
    world = WorldState((0.0, 0.0), (0.0, 12.0), vehicles=())
    res = simulate_scenario(world, build_codebook(4, 0.0, math.pi),
                            ChannelConfig(noise_variance=0.0), steps=3, seed=0)
    bundle = ScenarioBundle("empty", np.arange(3), res.frames, res.scans,
                            truth=Truth(np.arange(3), res.positions, res.occluded))
    save_scenario(bundle, tmp_path / "s")
    assert (tmp_path / "s" / "truth.csv").read_text().splitlines()[1:] == ["0,,,0", "1,,,0",
                                                                            "2,,,0"]
    loaded = load_scenario(tmp_path / "s")
    assert np.isnan(loaded.truth.pos).all()


# ---------------------------------------------------------------------------
# Parse and schema errors
# ---------------------------------------------------------------------------

def test_nan_cell_is_a_parse_error_naming_the_cell(tmp_path):
    save_scenario(small_bundle(), tmp_path / "s")
    path = tmp_path / "s" / "rssi.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = "nan"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_scenario(tmp_path / "s")
    assert "rssi.csv" in str(err.value)
    assert ":4:" in str(err.value)
    assert "p1" in str(err.value)


def test_garbage_cell_is_a_parse_error(tmp_path):
    save_scenario(small_bundle(), tmp_path / "s")
    path = tmp_path / "s" / "lidar.csv"
    text = path.read_text().splitlines()
    text[1] = text[1].rsplit(",", 1)[0] + ",zzz"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError) as err:
        load_scenario(tmp_path / "s")
    assert "lidar.csv" in str(err.value)


def test_wrong_header_rejected(tmp_path):
    save_scenario(small_bundle(), tmp_path / "s")
    path = tmp_path / "s" / "rssi.csv"
    lines = path.read_text().splitlines()
    lines[0] = "time," + lines[0].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_scenario(tmp_path / "s")
    assert ":1:" in str(err.value)


def test_missing_files_reported(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "nowhere")
    save_scenario(small_bundle(), tmp_path / "s")
    (tmp_path / "s" / "rssi.csv").unlink()
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "s")


def test_negative_power_rejected_on_load(tmp_path):
    save_scenario(small_bundle(), tmp_path / "s")
    path = tmp_path / "s" / "rssi.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "-1.0"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "s")


@pytest.mark.parametrize("row, message", [("0,7.0,1.0", "angle"), ("0,-0.5,1.0", "angle"),
                                          ("0,1.0,0.0", "depth"), ("0,1.0,-2.0", "depth")])
def test_lidar_point_out_of_range_names_its_line(tmp_path, row, message):
    # ScenarioBundle checks the same ranges, but its error names neither the
    # file nor the line.
    save_scenario(small_bundle(), tmp_path / "s")
    path = tmp_path / "s" / "lidar.csv"
    lines = path.read_text().splitlines()
    lines.insert(3, row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_scenario(tmp_path / "s")
    assert "lidar.csv:4:" in str(err.value) and message in str(err.value)


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, edit, line, message", [
    ("lidar.csv", lambda lines: lines.insert(3, "999,1.0,1.0"), 4, "RSSI frame"),
    ("truth.csv", lambda lines: lines.append("999,1.0,1.0,0"), 17, "RSSI frame"),
    ("rssi.csv", lambda lines: lines.insert(2, lines.pop(3)), 3, "time order"),
    ("rssi.csv", lambda lines: lines.insert(3, lines[2]), 4, "time order"),
    ("rssi.csv", lambda lines: lines.pop(3), 4, "time order"),
])
def test_a_time_that_does_not_match_the_rssi_frames_names_its_line(
        tmp_path, name, edit, line, message):
    # ScenarioBundle checks the same, but its error names neither the file
    # nor the line.
    save_scenario(small_bundle(), tmp_path / "s")
    _edit_lines(tmp_path / "s" / name, edit)
    with pytest.raises(ParseError) as err:
        load_scenario(tmp_path / "s")
    assert f"{name}:{line}:" in str(err.value) and message in str(err.value)


def test_a_bundle_with_a_repeated_frame_time_is_out_of_order():
    with pytest.raises(SchemaError, match="time order"):
        ScenarioBundle("x", [0, 1, 1, 2], np.ones((4, 1)), [])


@pytest.mark.parametrize("name", ["rssi.csv", "lidar.csv", "meta.json"])
def test_a_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, name):
    save_scenario(small_bundle(), tmp_path / "s")
    path = tmp_path / "s" / name
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:3] + b"\xff\xfe" + lines[2][3:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_scenario(tmp_path / "s")
    assert f"{name}:3:" in str(err.value) and "0xff" in str(err.value)


def test_unknown_meta_version_rejected(tmp_path):
    save_scenario(small_bundle(), tmp_path / "s")
    meta_path = tmp_path / "s" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 99
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(SchemaError):
        load_scenario(tmp_path / "s")


def test_a_time_gap_is_refused_naming_the_t():
    with pytest.raises(SchemaError, match="RSSI frames are not in time order: t=4 must follow"):
        ScenarioBundle("gap", [0, 1, 4], np.ones((3, 1)), [])


def test_misaligned_streams_rejected():
    times, powers = np.arange(3), np.ones((3, 1))
    with pytest.raises(SchemaError, match="lidar scan at t=7"):
        ScenarioBundle("x", times, powers, [LidarScan(7, np.empty((0, 2)))])
    with pytest.raises(SchemaError, match="truth row at t=9"):
        ScenarioBundle("x", times, powers, [],
                       truth=Truth([0, 9], np.full((2, 2), np.nan), [False, False]))
    with pytest.raises(SchemaError):
        ScenarioBundle("x", [], np.empty((0, 1)), [])


def test_bundle_powers_must_be_a_finite_nonnegative_matrix():
    with pytest.raises(ValueError):
        ScenarioBundle("x", [0, 1], np.array([[1.0], [-2.0]]), [])
    with pytest.raises(NonFiniteError):
        ScenarioBundle("x", [0, 1], np.array([[1.0], [math.nan]]), [])
    with pytest.raises(ValueError):
        ScenarioBundle("x", [0, 1], np.array([1.0, 2.0]), [])       # not (T, M)
    with pytest.raises(ValueError):
        ScenarioBundle("x", [0, 1, 2], np.ones((2, 1)), [])          # a time per row
    with pytest.raises(ValueError):
        ScenarioBundle("x", [0], np.ones((1, 1)), [], truth=Truth([0], [1.0, 2.0], [False]))


@pytest.mark.parametrize("points, error, message", [
    ([[7.0, 1.0]], ValueError, "angles"),
    ([[-0.5, 1.0]], ValueError, "angles"),
    ([[1.0, 0.0]], ValueError, "depths"),
    ([[1.0, -2.0]], ValueError, "depths"),
    ([[math.nan, 1.0]], NonFiniteError, "points contains non-finite values"),
    ([[1.0, math.inf]], NonFiniteError, "points contains non-finite values"),
    ([[1.0, 2.0, 3.0]], ValueError, r"shape \(n, 2\)"),
    ([1.0, 2.0], ValueError, r"shape \(n, 2\)"),
])
def test_a_bundle_refuses_a_bad_scan_among_good_ones(points, error, message):
    good = [LidarScan(0, np.array([[0.0, 1.0], [6.28, 15.0]])), LidarScan(2, np.empty((0, 2)))]
    bad = LidarScan(1, np.array(points))
    for lidar in ([bad], good[:1] + [bad] + good[1:]):
        with pytest.raises(error, match=message):
            ScenarioBundle("x", [0, 1, 2], np.ones((3, 1)), lidar)
    assert ScenarioBundle("x", [0, 1, 2], np.ones((3, 1)), good).lidar == good


def test_a_stray_labels_file_is_not_read(tmp_path):
    # Blockage flags come from meta.json's power threshold; a labels.csv
    # left by an older simulate is neither written nor parsed.
    bundle = small_bundle()
    save_scenario(bundle, tmp_path / "s")
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
        "lidar.csv", "meta.json", "rssi.csv", "truth.csv"]
    (tmp_path / "s" / "labels.csv").write_text("t,blocked\nnot,a label\n")
    np.testing.assert_array_equal(load_scenario(tmp_path / "s").rssi, bundle.rssi)


def test_hand_computed_power_sums(tmp_path):
    # Two beams, three steps, written by hand; the expected totals are
    # 1.5+2.5, 0.25+0.75, and 3.0+4.25.
    root = tmp_path / "s"
    root.mkdir()
    (root / "rssi.csv").write_text(
        "t,p0,p1\n0,1.5,2.5\n1,0.25,0.75\n2,3.0,4.25\n"
    )
    (root / "lidar.csv").write_text("t,angle,depth\n0,0.5,3.0\n")
    (root / "meta.json").write_text(
        json.dumps({"format_version": 1, "scenario_id": "hand", "num_beams": 2})
    )
    bundle = load_scenario(root)
    assert bundle.rssi.sum(axis=1).tolist() == [4.0, 1.0, 7.25]


# ---------------------------------------------------------------------------
# Dataset persistence
# ---------------------------------------------------------------------------

def test_dataset_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(17)
    labeled = random_windows(100, rng)
    dataset = split_dataset(labeled, meta={"road_region": [0, 0, 28, 4], "note": 1})
    save_dataset(dataset, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert len(loaded.labeled) == 100
    assert loaded.splits == dataset.splits
    assert loaded.meta["note"] == 1
    assert _same_windows(loaded.labeled, dataset.labeled)


def test_empty_dataset_round_trips(tmp_path):
    dataset = DatasetFile(random_windows(0, np.random.default_rng(0)),
                          {"train": [], "val": [], "test": []}, {"k": "v"})
    save_dataset(dataset, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert loaded.samples == [] and len(loaded.labeled) == 0
    assert loaded.splits == dataset.splits
    assert _same_windows(loaded.labeled, dataset.labeled)


def test_dataset_version_mismatch(tmp_path):
    dataset = split_dataset(random_windows(10, np.random.default_rng(0)))
    save_dataset(dataset, tmp_path / "d")
    path = tmp_path / "d" / "dataset.json"
    payload = json.loads(path.read_text())
    payload["meta"]["format_version"] = 12
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        load_dataset(tmp_path / "d")


def test_split_indices_validated(tmp_path):
    dataset = split_dataset(random_windows(10, np.random.default_rng(0)))
    save_dataset(dataset, tmp_path / "d")
    path = tmp_path / "d" / "dataset.json"
    payload = json.loads(path.read_text())
    payload["splits"]["train"].append(99)
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        load_dataset(tmp_path / "d")


# Found on a copy of the quick-start dataset: each split index went through
# int(), so 1.5, 2.9, "3" and true loaded as 1, 2, 3 and 1, and the string
# "12" as the split [1, 2].
@pytest.mark.parametrize("split, message", [
    ([0, 1.5], "must be a list of integer indices"),
    ([2.9], "must be a list of integer indices"),
    (["3"], "must be a list of integer indices"),
    ([True], "must be a list of integer indices"),
    ([1.0], "must be a list of integer indices"),
    (None, "must be a list of integer indices"),
    ("12", "must be a list of integer indices"),
    ({"0": 1}, "must be a list of integer indices"),
    ([0, -1], "references sample -1"),
    ([3, 10], "references sample 10"),
    ([2**64], f"references sample {2**64}"),
])
def test_a_split_index_that_is_not_a_sample_number_is_refused(tmp_path, split, message):
    save_dataset(split_dataset(random_windows(10, np.random.default_rng(0))), tmp_path / "d")
    path = tmp_path / "d" / "dataset.json"
    payload = json.loads(path.read_text())
    payload["splits"]["val"] = split
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as err:
        load_dataset(tmp_path / "d")
    assert "dataset.json" in str(err.value) and "'val'" in str(err.value)
    assert message in str(err.value)


def test_split_indices_load_as_ints_in_their_order(tmp_path):
    save_dataset(split_dataset(random_windows(10, np.random.default_rng(0))), tmp_path / "d")
    path = tmp_path / "d" / "dataset.json"
    payload = json.loads(path.read_text())
    payload["splits"] = {"train": [9, 0, 0], "val": [], "test": [3]}
    path.write_text(json.dumps(payload))
    loaded = load_dataset(tmp_path / "d")
    assert loaded.splits == {"train": [9, 0, 0], "val": [], "test": [3]}
    assert loaded.arrays("train").t.tolist() == [12, 3, 3]
    with pytest.raises(ValueError, match="empty"):
        loaded.arrays("val")


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def test_split_ten_samples():
    ds = split_dataset(random_windows(10, np.random.default_rng(1)), (0.8, 0.1, 0.1))
    assert [len(ds.splits[s]) for s in ("train", "val", "test")] == [8, 1, 1]


def test_split_three_samples_evenly():
    ds = split_dataset(random_windows(3, np.random.default_rng(1)),
                       (1 / 3, 1 / 3, 1 / 3))
    assert [len(ds.splits[s]) for s in ("train", "val", "test")] == [1, 1, 1]


def test_split_default_ratios():
    ds = split_dataset(random_windows(100, np.random.default_rng(1)))
    assert [len(ds.splits[s]) for s in ("train", "val", "test")] == [70, 15, 15]


def test_split_rejects_bad_ratios():
    samples = random_windows(6, np.random.default_rng(1))
    with pytest.raises(ValueError):
        split_dataset(samples, (0.5, 0.4, 0.2))
    with pytest.raises(ValueError):
        split_dataset(samples, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        split_dataset(samples, (0.9, 0.2, -0.1))


def test_split_keeps_scenarios_in_contiguous_time_blocks():
    # A dataset is one drive: its windows, in time order, are cut in three.
    labeled = random_windows(70, np.random.default_rng(2))
    ds = split_dataset(labeled, (0.7, 0.15, 0.15))
    assert sorted(i for idxs in ds.splits.values() for i in idxs) == list(range(70))
    ranges = {}
    for name in ("train", "val", "test"):
        ts = ds.arrays(name).t.tolist()
        assert ts == list(range(ts[0], ts[-1] + 1))  # a contiguous block, in time order
        ranges[name] = (ts[0], ts[-1])
    assert ranges["train"][1] < ranges["val"][0] < ranges["test"][0]


def test_subset_unknown_split():
    ds = split_dataset(random_windows(10, np.random.default_rng(1)))
    with pytest.raises(KeyError):
        ds.subset("holdout")
    assert len(ds.subset("train")) == 7


def test_dataset_flag_other_than_zero_or_one_names_its_line_and_column(tmp_path):
    save_dataset(split_dataset(random_windows(10, np.random.default_rng(0))), tmp_path / "d")
    path = tmp_path / "d" / "samples.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for column, value in (("b0", "7"), ("b1", "2")):
        cells = lines[3].split(",")
        cells[header.index(column)] = value
        path.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(tmp_path / "d")
        assert ":4:" in str(err.value) and column in str(err.value)


def _set_cell(path: Path, line: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_each_window_row_is_stored_once_in_frames_npy(tmp_path):
    # Stride-1 windows of one drive share all but one row with the next one.
    frames = np.random.default_rng(0).uniform(0.0, 3.0, size=(6, 2))
    frames[4] = [-0.0, 1.0]
    frames[5] = [0.0, 1.0]  # equal to frames[4] as a number, not in its bytes
    ends = np.arange(2, 6)
    labeled = WindowSet(ends, frames[ends[:, None] + [-2, -1, 0]], np.zeros((4, 1, 2)),
                        np.zeros((4, 1), dtype=bool), np.ones((4, 3)))
    save_dataset(split_dataset(labeled), tmp_path / "d")
    assert _same_bits(np.load(tmp_path / "d" / "frames.npy", allow_pickle=False), frames)
    header, *rows = (tmp_path / "d" / "samples.csv").read_text().splitlines()
    assert header == "t,f0,f1,b0"
    assert [row.split(",")[0] for row in rows] == ["2", "3", "4", "5"]
    assert _same_windows(load_dataset(tmp_path / "d").labeled, labeled)


@pytest.mark.parametrize("step, value", [(3, 0.5), (4, -0.0)])
def test_windows_that_hold_other_frames_for_a_shared_step_are_refused(tmp_path, step, value):
    # Windows ending at 2..5 over frames 0..5; window 3 (steps 3..5) gets
    # another frame for one step it shares with windows 1 and 2, and the
    # first window that covers the step is named with it.
    frames = np.zeros((6, 2))
    ends = np.arange(2, 6)
    windows = frames[ends[:, None] + [-2, -1, 0]]
    windows[3, step - 3, 1] = value  # by its bytes, -0.0 is another frame than 0.0
    labeled = WindowSet(ends, windows, np.zeros((4, 1, 2)), np.zeros((4, 1), dtype=bool),
                        np.ones((4, 3)))
    (tmp_path / "d").mkdir()
    with pytest.raises(ValueError) as err:
        save_dataset(split_dataset(labeled), tmp_path / "d")
    assert str(err.value) == f"windows {step - 2} and 3 hold other frames for step {step}"
    assert not list((tmp_path / "d").iterdir())


@pytest.mark.parametrize("line, value, bad_line", [(4, "4", 4), (4, "-7", 4), (2, "9", 3),
                                                   (11, "11", 11)])
def test_a_window_time_that_falls_or_repeats_names_its_line(tmp_path, line, value, bad_line):
    save_dataset(split_dataset(random_windows(10, np.random.default_rng(0))), tmp_path / "d")
    path = tmp_path / "d" / "samples.csv"  # t is 3..12 on lines 2..11
    _set_cell(path, line, "t", value)
    with pytest.raises(ParseError) as err:
        load_dataset(tmp_path / "d")
    assert str(err.value) == (f"{path}:{bad_line}: t must rise row by row: windows are stored "
                              "in time order")


def test_a_frame_row_that_no_window_uses_is_refused(tmp_path):
    save_dataset(split_dataset(random_windows(3, np.random.default_rng(0), window_len=4)),
                 tmp_path / "d")  # windows ending at 3, 4 and 5 cover steps 0..5
    path = tmp_path / "d" / "frames.npy"
    frames = np.load(path, allow_pickle=False)
    np.save(path, np.vstack([frames, np.full(frames.shape[1], 0.5)]))
    with pytest.raises(SchemaError) as err:
        load_dataset(tmp_path / "d")
    assert str(err.value) == f"{path}: shape (7, 3), expected (6, 3)"


def test_a_save_refuses_windows_out_of_time_order(tmp_path):
    labeled = random_windows(5, np.random.default_rng(0)).take([0, 1, 3, 2, 4])
    with pytest.raises(ValueError, match="window 3 ends at t=5, not after t=6$"):
        save_dataset(split_dataset(labeled), tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_a_standard_dataset_saves_as_it_loads_byte_for_byte(tmp_path, dataset_dir,
                                                           standard_dataset):
    save_dataset(standard_dataset, tmp_path / "d")
    for name in ("frames.npy", "rasters.npy", "samples.csv", "dataset.json"):
        assert (tmp_path / "d" / name).read_bytes() == (dataset_dir / name).read_bytes(), name


def test_a_format_1_dataset_is_refused_naming_the_file_and_version(tmp_path):
    # Format 2 held a scenario, label and label_valid column in samples.csv,
    # format 3 held frames.csv and the rasters as samples.csv columns, and
    # format 4 numbered each window's frame rows in T0 columns of samples.csv.
    save_dataset(split_dataset(random_windows(3, np.random.default_rng(0))), tmp_path / "d")
    path = tmp_path / "d" / "dataset.json"
    payload = json.loads(path.read_text())
    for version in (1, 2, 3, 4):
        payload["meta"]["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as err:
            load_dataset(tmp_path / "d")
        assert "dataset.json" in str(err.value) and f"format_version {version}" in str(err.value)


def test_standard_dataset_stores_the_covered_frames_once_and_rebuilds_the_windows(
        standard_config, standard_bundle, dataset_dir, standard_dataset):
    cfg = standard_config
    flags = blockage_labels_from_rssi(standard_bundle.rssi,
                                      standard_bundle.meta["power_threshold"])
    centroids = scenario_centroids(
        standard_bundle, SrcConfig(cfg["proximity_radius"], tuple(cfg["road_region"])),
        DbscanConfig(cfg["eps"], cfg["min_pts"]))
    built = build_windows(standard_bundle, centroids, cfg["window_len"], cfg["horizon"], flags,
                          cfg["raster_bins"], cfg["lidar_max_range"])
    assert _same_windows(standard_dataset.labeled, built)

    window_len = cfg["window_len"]
    first_t = int(standard_bundle.t[0])
    covered = sorted({i for t in built.t.tolist()
                      for i in range(t - first_t - window_len + 1, t - first_t + 1)})
    assert len(covered) < len(built) * window_len
    assert _same_bits(np.load(dataset_dir / "frames.npy", allow_pickle=False),
                      standard_bundle.rssi[covered])


# ---------------------------------------------------------------------------
# Property tests: random scenarios and datasets, and corrupted copies
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
# Scenario names land only in meta.json, as JSON strings.
names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


def _rejected(cell: str) -> bool:
    for parse in (float, int):
        try:
            parse(cell)
            return False
        except ValueError:
            pass
    return True


garbage = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
                  min_size=1, max_size=5).filter(_rejected)


# The rules of a drive, each by the words of its refusal. Each drawn fault
# breaks one of them.
DRIVE_RULES = {
    "frame times": "RSSI frames are not in time order",
    "scan times": "lidar scans are not in time order",
    "truth times": "truth time repeats",
    "truth position": "x and y must be finite, or blank (NaN) together",
    "beams": "scenario has no RSSI frames or no beams",
}


@st.composite
def drives(draw, faults=True):
    """The ScenarioBundle arguments of one drawn drive, and its expected
    refusal: None when it keeps every rule, else the words of the rule
    that its one drawn fault breaks and the t named (None for no t)."""
    fault = draw(st.none() | st.sampled_from(sorted(DRIVE_RULES))) if faults else None
    beams = 0 if fault == "beams" else draw(st.integers(1, 4))
    t0, n = draw(st.integers(-5, 5)), draw(st.integers(2 if fault == "frame times" else 1, 6))
    times, stray = list(range(t0, t0 + n)), None
    if fault == "frame times":  # a repeated or falling t, or a gap
        k, shift = draw(st.integers(1, n - 1)), draw(st.sampled_from([-3, -2, -1, 1, 2]))
        times[k:] = [t + shift for t in times[k:]]
        stray = times[k]
    power = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
    rssi = draw(arrays(np.float64, (n, beams), elements=power))
    scan_times = sorted(draw(st.sets(st.sampled_from(times))))
    if fault == "scan times":  # two scans at one step, or a scan before the one above
        scan_times = draw(st.lists(st.sampled_from(times), min_size=2, max_size=4).filter(
            lambda ts: any(b <= a for a, b in zip(ts, ts[1:]))))
        stray = next(b for a, b in zip(scan_times, scan_times[1:]) if b <= a)
    point = st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True),
                      st.floats(0.0, exclude_min=True, allow_infinity=False))
    lidar = [LidarScan(t, np.array(draw(st.lists(point, max_size=3))).reshape(-1, 2))
             for t in scan_times]
    truth = None
    if fault in ("truth times", "truth position") or draw(st.booleans()):
        # Unique truth times, in any order; an unknown position is blank.
        truth_t = draw(st.permutations(times))[:draw(st.integers(1, n))]
        position = st.just((math.nan, math.nan)) | st.tuples(finite, finite)
        positions = draw(st.lists(position, min_size=len(truth_t), max_size=len(truth_t)))
        k = draw(st.integers(0, len(truth_t) - 1))
        if fault == "truth times":
            truth_t.append(truth_t[k])
            positions.append(draw(position))
            stray = truth_t[k]
        if fault == "truth position":  # known in one coordinate only, or infinite
            coordinate = finite | st.sampled_from([math.nan, math.inf, -math.inf])
            positions[k] = draw(st.tuples(coordinate, coordinate).filter(
                lambda xy: not (np.isfinite(xy).all() or np.isnan(xy).all())))
            stray = truth_t[k]
        truth = Truth(truth_t, positions, draw(arrays(np.bool_, len(truth_t))))
    parts = dict(scenario_id=draw(names), t=times, rssi=rssi, lidar=lidar, truth=truth,
                 meta={"note": draw(finite)})
    return parts, None if fault is None else (DRIVE_RULES[fault], stray)


def bundles():
    """Drawn drives that keep every rule."""
    return drives(faults=False).map(lambda drive: ScenarioBundle(**drive[0]))


def drive_steps(draw, n: int, window_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The end times t of n windows of one drawn drive, and the (n,
    window_len) drive rows each covers. The times rise by gaps of 1 to
    2 * window_len + 1 steps, so neighbours may share frames or leave steps
    between them (windows dropped mid-drive)."""
    gaps = draw(st.lists(st.integers(1, 2 * window_len + 1), min_size=max(n - 1, 0),
                         max_size=max(n - 1, 0)))
    t = (draw(st.integers(-3, 50)) + np.cumsum([0] + gaps))[:n].astype(np.int64)
    return t, (t - t[:1])[:, None] + np.arange(window_len)


# Floats a text or binary format could lose: both zeros, subnormals and the
# largest magnitudes.
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                               -1e308, 1.7976931348623157e308, -1.7976931348623157e308]) | finite


@st.composite
def datasets(draw, min_samples=0):
    window_len, beams, horizon, bins = (draw(st.integers(1, 3)) for _ in range(4))
    n = draw(st.integers(min_samples, 5))
    t, rows = drive_steps(draw, n, window_len)
    drive = draw(arrays(np.float64, (int(rows.max(initial=-1)) + 1, beams), elements=edge_floats))
    labeled = WindowSet(
        t=t, windows=drive[rows],
        futures=draw(arrays(np.float64, (n, horizon, 2), elements=finite)),
        blocked=draw(arrays(np.bool_, (n, horizon))),
        rasters=draw(arrays(np.float64, (n, bins), elements=finite)),
    )
    return split_dataset(labeled, meta={"note": draw(finite)})


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@settings(max_examples=150)
@given(drives())
@example((dict(scenario_id="two scans at t=1", t=[0, 1, 2], rssi=np.ones((3, 1)),
               lidar=[LidarScan(1, np.array([[0.5, 9.0]])), LidarScan(1, np.array([[2.5, 9.0]]))],
               meta={}), (DRIVE_RULES["scan times"], 1)))
def test_random_scenarios_round_trip_bit_exactly_and_resave_identically(drive):
    # A bundle refuses what load_scenario refuses, so each one built saves
    # and loads back bit for bit.
    parts, refusal = drive
    if refusal is not None:
        rule, t = refusal
        with pytest.raises(SchemaError) as err:
            ScenarioBundle(**parts)
        assert rule in str(err.value) and (t is None or re.search(rf"t={t}\b", str(err.value)))
        return
    bundle = ScenarioBundle(**parts)
    with tempfile.TemporaryDirectory() as tmp:
        save_scenario(bundle, Path(tmp) / "a")
        loaded = load_scenario(Path(tmp) / "a")
        save_scenario(loaded, Path(tmp) / "b")
        assert _files(Path(tmp) / "a") == _files(Path(tmp) / "b")
    assert (loaded.scenario_id, loaded.meta["note"]) == (bundle.scenario_id, bundle.meta["note"])
    assert _same_bits(loaded.t, bundle.t)
    assert _same_bits(loaded.rssi, bundle.rssi)
    scanned = [s for s in bundle.lidar if len(s.points)]  # lidar.csv has no row for an empty scan
    assert [s.t for s in loaded.lidar] == [s.t for s in scanned]
    assert all(_same_bits(a.points, b.points) for a, b in zip(loaded.lidar, scanned))
    if bundle.truth is None:
        assert loaded.truth is None
    else:  # an unknown position is NaN, NaN on both sides
        assert all(_same_bits(a, b) for a, b in zip(loaded.truth, bundle.truth))


@given(datasets())
def test_random_datasets_round_trip_bit_exactly_and_resave_identically(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(dataset, Path(tmp) / "a")
        loaded = load_dataset(Path(tmp) / "a")
        save_dataset(loaded, Path(tmp) / "b")
        assert _files(Path(tmp) / "a") == _files(Path(tmp) / "b")
    assert loaded.splits == dataset.splits and loaded.meta["note"] == dataset.meta["note"]
    assert _same_windows(loaded.labeled, dataset.labeled)


@given(st.data())
def test_a_saved_dataset_loads_every_field_bit_for_bit_with_the_same_frame_keys(data):
    window_len, beams, horizon, bins = (data.draw(st.integers(1, 3)) for _ in range(4))
    n = data.draw(st.integers(1, 4))
    pool_size = data.draw(st.integers(2, 6))
    pool = data.draw(arrays(np.float64, (pool_size, beams), elements=edge_floats))
    pool[0], pool[1] = 0.0, -0.0  # equal as numbers, two frames by their bytes
    t, rows = drive_steps(data.draw, n, window_len)
    picks = data.draw(arrays(np.int64, int(rows.max()) + 1,
                             elements=st.integers(0, pool_size - 1)))
    windows = pool[picks][rows]  # the drive repeats frames
    labeled = WindowSet(
        t=t, windows=windows,
        futures=data.draw(arrays(np.float64, (n, horizon, 2), elements=edge_floats)),
        blocked=data.draw(arrays(np.bool_, (n, horizon))),
        rasters=data.draw(arrays(np.float64, (n, bins), elements=edge_floats)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(split_dataset(labeled), Path(tmp))
        loaded = load_dataset(Path(tmp)).labeled
        stored = np.load(Path(tmp) / "frames.npy", allow_pickle=False)
    assert _same_windows(loaded, labeled)
    # Row k is the frame of the k-th step that some window covers, in step
    # order, equal frames stored once per step.
    steps = {}
    for end, window in zip(t.tolist(), windows):
        steps.update(zip(range(end - window_len + 1, end + 1), window))
    keys = {step: k for k, step in enumerate(sorted(steps))}
    assert _same_bits(stored, np.array([steps[step] for step in sorted(steps)]))
    assert all(_same_bits(stored[[keys[step] for step in range(end - window_len + 1, end + 1)]],
                          window) for end, window in zip(t.tolist(), windows))


@pytest.mark.parametrize("key, name", [("num_beams", "frames.npy"), ("window_len", "frames.npy"),
                                       ("raster_bins", "rasters.npy")])
def test_a_huge_dimension_is_refused_by_the_array_header(tmp_path, traced_peak_mib, key, name):
    save_dataset(split_dataset(random_windows(10, np.random.default_rng(0))), tmp_path)
    path = tmp_path / "dataset.json"
    payload = json.loads(path.read_text())
    payload["meta"][key] = 2**40  # 8 TiB of float64 per row, or of int64 frame rows per window
    path.write_text(json.dumps(payload))

    def refused():
        with pytest.raises(SchemaError, match=f"{name}: shape "):
            load_dataset(tmp_path)
    assert traced_peak_mib(refused) < 0.5


def test_a_dataset_of_no_window_loads_any_window_len_without_allocating(tmp_path,
                                                                        traced_peak_mib):
    # With no window, no frames.npy row bounds window_len.
    save_dataset(split_dataset(random_windows(0, np.random.default_rng(0))), tmp_path)
    path = tmp_path / "dataset.json"
    payload = json.loads(path.read_text())
    payload["meta"]["window_len"] = 2**40
    path.write_text(json.dumps(payload))
    loaded = []
    assert traced_peak_mib(lambda: loaded.append(load_dataset(tmp_path))) < 0.5
    assert loaded[0].labeled.windows.shape == (0, 2**40, 3)


def _saved(data, tmp: str) -> Path:
    """A random scenario and a random nonempty dataset saved under tmp."""
    root = Path(tmp)
    save_scenario(data.draw(bundles()), root / "scene")
    save_dataset(data.draw(datasets(min_samples=1)), root / "data")
    return root


def _load(path: Path):
    return (load_scenario if path.parent.name == "scene" else load_dataset)(path.parent)


def _lines(path: Path) -> list[str]:
    # Not str.splitlines: only "\n" ends a line, other line breaks are cell text.
    return path.read_text().split("\n")[:-1]


def _csv_with_rows(data, root: Path) -> tuple[Path, list[str], int]:
    """A saved CSV file that has data rows, its lines and one data row index."""
    with_rows = [p for p in sorted(root.glob("*/*.csv")) if len(_lines(p)) > 1]
    path = data.draw(st.sampled_from(with_rows))
    lines = _lines(path)
    return path, lines, data.draw(st.integers(1, len(lines) - 1))


@given(st.data())
def test_one_bad_cell_is_a_parse_or_schema_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, lines, row = _csv_with_rows(data, _saved(data, tmp))
        cells = lines[row].split(",")
        col = data.draw(st.integers(0, len(cells) - 1))
        cells[col] = data.draw(st.sampled_from(["nan", "inf", "-inf", ""]) | garbage)
        assume(",".join(cells) != lines[row])
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises((ParseError, SchemaError)):
            _load(path)


@given(st.data())
def test_a_dropped_cell_is_a_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, lines, row = _csv_with_rows(data, _saved(data, tmp))
        cells = lines[row].split(",")
        del cells[data.draw(st.integers(0, len(cells) - 1))]
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            _load(path)


@given(st.data())
def test_a_file_cut_mid_line_is_a_parse_error(data):
    """CSV files are cut inside a line, before its last comma, so at least
    one separator is lost; JSON and .npy files are cut anywhere."""
    with tempfile.TemporaryDirectory() as tmp:
        root = _saved(data, tmp)
        path = data.draw(st.sampled_from(sorted(root.glob("*/*"))))
        raw = path.read_bytes()
        if path.suffix in (".json", ".npy"):
            cut = data.draw(st.integers(0, len(raw) - 1))
        else:
            lines = _lines(path)
            row = data.draw(st.integers(0, len(lines) - 1))
            start = sum(len(line) + 1 for line in lines[:row])
            cut = start + data.draw(st.integers(1, lines[row].rindex(",")))
        path.write_bytes(raw[:cut])
        with pytest.raises(ParseError):
            _load(path)


# ---------------------------------------------------------------------------
# The columnar writer against the row-wise reference
# ---------------------------------------------------------------------------

def reference_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(int(value))


def reference_write_csv(path, header: list[str], rows) -> None:
    """The row-wise writer that ``write_csv`` replaced, cell by cell; a row
    that is not one line of ``len(header)`` cells is a SchemaError."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            line = ",".join([repr(v) if type(v) is float else reference_cell(v) for v in row])
            if line.count(",") != len(header) - 1 or "\n" in line or "\r" in line:
                raise SchemaError(f"{path}: a row does not make one line of {len(header)} cells")
            fh.write(line + "\n")


def _rows(columns, num_rows: int) -> list[list]:
    """The table's rows as the row-wise writer took them: Python scalars
    from arrays, list and object cells as they are."""
    rows = [[] for _ in range(num_rows)]
    for block in columns:
        for row, cells in zip(rows, block):
            if isinstance(block, np.ndarray) and block.dtype != object:
                cells = cells.tolist()
            row.extend(cells if isinstance(cells, (list, np.ndarray)) else [cells])
    return rows


# repr switches to exponent form at 1e16 and below 1e-4.
SWITCH_POINTS = [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, 1e15]
float_cells = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
     float(np.uint64(0x7FF8000000000001).view(np.float64)),
     *SWITCH_POINTS, *(-x for x in SWITCH_POINTS)]
) | st.floats(allow_subnormal=True)
int_cells = st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 1]) | st.integers(-(2**63), 2**63 - 1)
plain_text = st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)),
                     max_size=4)
mixed_cells = st.none() | plain_text | st.booleans() | int_cells | float_cells


@st.composite
def column_blocks(draw, num_rows: int):
    """One column block of any kind write_csv takes, with repeated values."""
    width = draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(num_rows,), (num_rows, width)]))
    kind = draw(st.sampled_from(["float64", "float32", "int64", "uint8", "bool", "list",
                                 "object"]))
    if kind in ("float64", "int64"):
        pool = draw(st.lists(float_cells if kind == "float64" else int_cells,
                             min_size=1, max_size=4))
        return np.array(draw(arrays(np.dtype(kind), shape, elements=st.sampled_from(pool))))
    if kind in ("float32", "uint8", "bool"):
        return draw(arrays(np.dtype(kind), shape))
    if kind == "list":
        return draw(st.lists(mixed_cells, min_size=num_rows, max_size=num_rows))
    cells = draw(st.lists(mixed_cells, min_size=num_rows * width, max_size=num_rows * width))
    return np.array(cells, dtype=object).reshape(num_rows, width)


@given(st.data())
def test_the_columnar_writer_writes_the_bytes_of_the_row_wise_one(data):
    num_rows = data.draw(st.integers(0, 6))
    columns = data.draw(st.lists(column_blocks(num_rows), min_size=1, max_size=4))
    width = sum(1 if np.ndim(b) == 1 else np.shape(b)[1] for b in columns)
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "a.csv", header, columns)
        reference_write_csv(Path(tmp) / "b.csv", header, _rows(columns, num_rows))
        assert (Path(tmp) / "a.csv").read_bytes() == (Path(tmp) / "b.csv").read_bytes()


def test_the_writer_formats_signed_zeros_and_nan_payloads_apart(tmp_path):
    payload = np.uint64(0x7FF8000000000001).view(np.float64)
    values = np.array([0.0, -0.0, np.nan, payload, 1e16, 1e-5, 0.0])
    write_csv(tmp_path / "a.csv", ["x"], [values])
    assert (tmp_path / "a.csv").read_text().split("\n")[1:-1] == [
        "0.0", "-0.0", "nan", "nan", "1e+16", "1e-05", "0.0"]


@pytest.mark.parametrize("columns", [
    [np.zeros(3)],                                # 1 column for 2 names
    [np.zeros((3, 2)), np.zeros(3)],              # 3 columns for 2 names
    [np.zeros(3), np.zeros(2)],                   # unequal lengths
    [["a", "b"], np.zeros((3, 1))],
])
def test_a_table_that_does_not_fit_its_header_is_a_schema_error(tmp_path, columns):
    with pytest.raises(SchemaError):
        write_csv(tmp_path / "a.csv", ["x", "y"], columns)
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb", ",", "\r\n"])
def test_a_str_cell_holding_a_separator_is_a_schema_error(tmp_path, cell):
    for columns in ([["ok", cell], np.arange(2)],
                    [np.array([["ok", 1], [cell, 2]], dtype=object)]):
        with pytest.raises(SchemaError):
            write_csv(tmp_path / "a.csv", ["name", "n"], columns)
        assert not (tmp_path / "a.csv").exists()
        with pytest.raises(SchemaError):
            reference_write_csv(tmp_path / "b.csv", ["name", "n"], _rows(columns, 2))


def test_standard_drive_files_equal_the_row_wise_writer(tmp_path, monkeypatch, standard_config):
    """simulate and label write the bytes the row-wise reference writes for
    the rows of the bundle and dataset they hold in memory."""
    held = {}

    def holding(save, key):
        def wrapper(obj, out_dir):
            held[key] = obj
            return save(obj, out_dir)
        return wrapper

    monkeypatch.setattr(cli, "save_scenario", holding(save_scenario, "bundle"))
    monkeypatch.setattr(cli, "save_dataset", holding(save_dataset, "dataset"))
    cli.cmd_simulate(standard_config, {"scenario_id": "drive"}, tmp_path / "scene")
    cli.cmd_label(standard_config, {"scenario": str(tmp_path / "scene")}, tmp_path / "data")
    bundle, ref = held["bundle"], tmp_path / "ref"
    ref.mkdir()

    num_beams = bundle.rssi.shape[1]
    reference_write_csv(ref / "rssi.csv", ["t"] + [f"p{m}" for m in range(num_beams)],
                        ([t] + row for t, row in zip(bundle.t.tolist(), bundle.rssi.tolist())))
    reference_write_csv(ref / "lidar.csv", ["t", "angle", "depth"],
                        ([scan.t, a, d] for scan in bundle.lidar for a, d in scan.points.tolist()))
    truth_rows = zip(*(column.tolist() for column in bundle.truth))
    reference_write_csv(ref / "truth.csv", ["t", "x", "y", "blocked"],
                        ([t, *(None if math.isnan(v) else v for v in pos), blocked]
                         for t, pos, blocked in truth_rows))
    for name in ("rssi.csv", "lidar.csv", "truth.csv"):
        assert (ref / name).read_bytes() == (tmp_path / "scene" / name).read_bytes(), name

    samples = held["dataset"].samples
    window_len, horizon = samples[0].window.shape[0], samples[0].future.shape[0]
    reference_write_csv(
        ref / "samples.csv", _samples_header(horizon),
        ([s.t] + s.future.ravel().tolist() + s.future_blocked.tolist() for s in samples),
    )
    steps = {}  # each covered step's frame, from the first window that covers it
    for s in samples:
        for step, row in zip(range(s.t - window_len + 1, s.t + 1), s.window):
            steps.setdefault(step, row)
    frames = np.array([steps[step] for step in sorted(steps)])
    assert (ref / "samples.csv").read_bytes() == (tmp_path / "data" / "samples.csv").read_bytes()
    rasters = np.array([s.lidar_raster for s in samples])
    for name, want in (("frames.npy", frames), ("rasters.npy", rasters)):
        assert _same_bits(np.load(tmp_path / "data" / name, allow_pickle=False), want), name


# ---------------------------------------------------------------------------
# The typed, chunked reader against the object-table reader it replaced
# ---------------------------------------------------------------------------

class _ObjectTable:
    """The reader ``CsvTable`` replaced: every data cell of the file as a
    Python str in one object array, cast per column group on demand."""

    def __init__(self, path: Path, header: list[str]):
        if not path.exists():
            raise ParseError(str(path), 0, "file not found")
        self.path, self.header, self.line_nos = path, header, []
        expected, width, flat = ",".join(header), len(header), []
        try:
            with path.open(encoding="utf-8") as fh:
                for line_no, raw in enumerate(fh, start=1):
                    line = raw.rstrip("\n")
                    if not line:
                        continue
                    if line_no == 1:
                        if line != expected:
                            raise ParseError(path, 1, f"expected header {expected!r}, got {line!r}")
                        continue
                    cells = line.split(",")
                    if len(cells) != width:
                        raise ParseError(path, line_no, f"expected {width} cells, got {len(cells)}")
                    self.line_nos.append(line_no)
                    flat.extend(cells)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        self.cells = np.array(flat, dtype=object).reshape(len(self.line_nos), width)

    def _cast(self, lo: int, hi: int, dtype, parse) -> np.ndarray:
        block = self.cells[:, lo:hi]
        try:
            values = block.astype(dtype)
            if dtype is np.int64 or np.isfinite(values).all():
                return values
        except (ValueError, OverflowError):
            pass
        for line_no, row in zip(self.line_nos, block):
            for column, cell in zip(self.header[lo:hi], row):
                parse(self.path, line_no, cell, column)
        raise AssertionError("the cast rejected a cell the scalar parsers accept")

    def floats(self, lo: int, hi: int) -> np.ndarray:
        return self._cast(lo, hi, np.float64, _parse_float)

    def ints(self, lo: int, hi: int) -> np.ndarray:
        return self._cast(lo, hi, np.int64, _parse_int)

    def flags(self, lo: int, hi: int) -> np.ndarray:
        values = self.ints(lo, hi)
        for column, cells in zip(self.header[lo:hi], values.T):
            self.reject_rows((cells != 0) & (cells != 1), f"{column} must be 0 or 1")
        return values.astype(bool)

    def reject_rows(self, bad: np.ndarray, message: str) -> None:
        if bad.any():
            raise ParseError(self.path, self.line_nos[int(bad.argmax())], message)


def reference_table(path: Path, header: list[str]) -> _ObjectTable:
    return _ObjectTable(path, header)


def _runs(types: str) -> list[tuple[int, int]]:
    """The (lo, hi) column ranges of equal type, left to right."""
    bounds = [j for j in range(1, len(types)) if types[j] != types[j - 1]]
    return list(zip([0] + bounds, bounds + [len(types)]))


def _typed_read(table: CsvTable, types: str) -> list[np.ndarray]:
    """Every column run through its accessor, as a loader reads them; a
    float-or-blank run checks its blanks first, as ``load_scenario`` does."""
    out = []
    for lo, hi in _runs(types):
        kind = types[lo]
        if kind == "o":
            blank = table.blanks(lo, hi)
            table.reject_rows(blank.any(axis=1) & ~blank.all(axis=1), "blank together")
        read = {"f": table.floats, "o": table.floats, "i": table.ints, "b": table.flags}[kind]
        out.append(read(lo, hi))
    return out


def _reference_read(table: _ObjectTable, types: str) -> list[np.ndarray]:
    """The same reads on the object table: blank float cells are cast from
    a "0" placeholder, then read as NaN."""
    out = []
    for lo, hi in _runs(types):
        kind = types[lo]
        if kind == "o":
            blank = table.cells[:, lo:hi] == ""
            table.reject_rows(blank.any(axis=1) & ~blank.all(axis=1), "blank together")
            table.cells[:, lo:hi][blank] = "0"
            out.append(np.where(blank, np.nan, table.floats(lo, hi)))
        else:
            out.append({"f": table.floats, "i": table.ints, "b": table.flags}[kind](lo, hi))
    return out


def _outcome(read):
    """(arrays, line numbers) of a read, or the text of its ParseError."""
    try:
        return read()
    except ParseError as exc:
        return str(exc)


float_text = st.sampled_from(
    ["0.0", "-0.0", "5e-324", "1e+16", "1e-05", "1.7976931348623157e+308", " 1.5", "2.5 ",
     "\t3", "1_000.5", "+7", "-2E3", ".5", "5.", "1e1_0", "0_1", " -0_0.0_1e-1_0 "]
) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
int_text = st.sampled_from(
    [" 7", "+3", "-0", "1_000", "007", "9223372036854775807", "-9223372036854775808", "\t-12 "]
) | st.integers(-(2**63), 2**63 - 1).map(str)
flag_text = st.sampled_from(["0", "1", " 1", "+1", "-0", "0_0", "01", "1 "])
CELLS = {"f": float_text, "o": float_text, "i": int_text, "b": flag_text}
# One fault per kind that a cell of that column type can hold. A blank in a
# float-or-blank column is a fault only beside a filled one.
FAULTS = {"f": ["nan", "inf", "-inf", "x", "2**63", ""], "o": ["nan", "inf", "x", " ", ""],
          "i": ["x", "2**63", "1.0", "9223372036854775808", "-9223372036854775809"],
          "b": ["2", "-1", "x", "2**63", "1.0", "9223372036854775808"]}


@st.composite
def typed_csv(draw):
    """(types, header, file text, whether a fault was made): rows of typed
    cells with blank lines and mixed line ends, and maybe one bad cell or
    one short row in a line that is not blank. Runs of rows repeat one or two
    pooled rows, so some chunks repeat their cells (the reader parses each
    distinct string once) and others do not."""
    types = "".join(draw(st.lists(st.sampled_from("fibo"), min_size=1, max_size=5)))
    header = [f"c{j}" for j in range(len(types))]

    def fresh_row():
        unknown = draw(st.booleans())  # the float-or-blank cells of a row are blank together
        return ["" if kind == "o" and unknown else draw(CELLS[kind]) for kind in types]

    pool = [fresh_row() for _ in range(draw(st.integers(1, 2)))]
    rows = []
    for pooled in (True, False, True):  # runs of repeated rows around fresh ones
        rows += [list(draw(st.sampled_from(pool))) if pooled else fresh_row()
                 for _ in range(draw(st.integers(0, 8)))]
    faulty = False
    if rows and draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            del rows[row][draw(st.integers(0, len(types) - 1))]
            faulty = ",".join(rows[row]) != ""  # a blank line is skipped, fault and all
        else:
            col = draw(st.integers(0, len(types) - 1))
            rows[row][col] = draw(st.sampled_from(FAULTS[types[col]]))
            blank_o = types[col] == "o" and rows[row][col] == ""
            faulty = any(rows[row][j] for j, kind in enumerate(types) if kind == "o") if blank_o \
                else ",".join(rows[row]) != ""
    lines = [",".join(header)]
    for row in rows:
        lines += [""] * draw(st.integers(0, 2)) * draw(st.booleans()) + [",".join(row)]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return types, header, "".join(map(str.__add__, lines, ends)), faulty


def repeating_csv(types: str, row: str, odd: str, faulty: bool) -> tuple:
    """A typed_csv case of ten copies of ``row`` with ``odd`` as line 5:
    every chunk of two or more rows repeats its cells."""
    header = [f"c{j}" for j in range(len(types))]
    lines = [",".join(header)] + [row] * 3 + [odd] + [row] * 6
    return types, header, "\n".join(lines) + "\n", faulty


@settings(max_examples=300)
@given(typed_csv(), st.integers(1, 40))
@example(repeating_csv("if", "1,2.5", "1,x", True), 1000)           # a bad float
@example(repeating_csv("if", "1,2.5", "1,inf", True), 8)            # a non-finite value
@example(repeating_csv("fi", "2.5,7", "2.5,9223372036854775808", True), 12)  # int64 overflow
@example(repeating_csv("oo", "1.5,2.5", ",2.5", True), 1000)        # a blank beside a filled cell
@example(repeating_csv("ib", "3,1", "3,2", True), 6)                # a flag other than 0/1
@example(repeating_csv("ffo", "-0.0,5e-324,", "0.0,-5e-324,1e-310", False), 9)
def test_the_chunked_reader_reads_what_the_object_table_reads(case, chunk_cells):
    """Rows cross chunk boundaries (CHUNK_CELLS of 1-40 cells), and chunks
    of repeated rows, faults among them, take the parse-once path: the
    typed arrays and line numbers equal the object table's bit for bit
    (-0.0 and subnormals too), and a file with a fault raises the object
    table's ParseError, with its file, line and text."""
    types, header, text, faulty = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(lambda: (_reference_read(ref := reference_table(path, header), types),
                                 np.array(ref.line_nos, dtype=np.int64)))
        with mock.patch.object(ingest, "CHUNK_CELLS", chunk_cells):
            got = _outcome(lambda: (_typed_read(table := CsvTable(path, header, types), types),
                                    table.line_nos))
    assert isinstance(want, str) or not faulty
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert _same_bits(got[1], want[1])
    for a, b in zip(got[0], want[0]):
        assert _same_bits(a, b), types


@pytest.mark.parametrize("bad_line, want", [(900, "t.csv:3: expected 3 cells, got 2"),
                                             (50, "t.csv:50: byte 0xff is not UTF-8 text")])
def test_a_short_row_and_a_later_bad_byte_raise_what_a_line_by_line_read_meets(
    tmp_path, bad_line, want
):
    """A line-by-line read decodes about 8 KB ahead of the line it checks:
    a bad byte 900 lines (about 20 KB) after a short row leaves the short
    row to be found first, one 50 lines on is met before it. The reader,
    which reads a chunk of lines at once, raises the same error."""
    lines = [b"t,angle,depth"] + [b"%d,1.25,3.5" % i for i in range(1000)]
    lines[2] = b"1,1.25"  # line 3
    lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for read in (lambda: reference_table(path, ["t", "angle", "depth"]),
                 lambda: CsvTable(path, ["t", "angle", "depth"], "iff")):
        with pytest.raises(ParseError) as err:
            read()
        assert str(err.value).endswith(want)


# Peaks of the standard drive under tracemalloc, measured at 13.4 MiB for
# load_scenario and 11.4 MiB for load_dataset (the output arrays plus one
# chunk of text), bounded with at least 40% headroom. The object-table reader
# peaked at 53.1 and 48.4 MiB.
def test_load_scenario_keeps_only_its_arrays_and_one_chunk(scenario_dir, traced_peak_mib):
    assert traced_peak_mib(lambda: load_scenario(scenario_dir)) < 19.0


def test_load_dataset_keeps_only_its_arrays_and_one_chunk(dataset_dir, traced_peak_mib):
    assert traced_peak_mib(lambda: load_dataset(dataset_dir)) < 17.5
