"""Scenario and dataset serialization.

A scenario lives in its own directory as three CSV files plus a JSON
sidecar:

  rssi.csv   t,p0,...,p{M-1}       one row per frame, consecutive t
  lidar.csv  t,angle,depth         zero or more points per frame
  truth.csv  t,x,y,blocked         optional; x,y blank when unknown
  meta.json                        codebook, channel, link, region, threshold

Datasets of training windows use the same approach: samples.csv with one
row per (scenario, t, flattened window, label, future, raster) record and
dataset.json carrying preprocessing settings and split assignments. All
floats are written with repr so a load after save is bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError, SchemaError, TimeIndexGapError
from .preprocess import LabeledSample
from .scene import BlockageLabel, GroundTruth, LidarScan, RssiFrame

SCENARIO_FORMAT_VERSION = 1
DATASET_FORMAT_VERSION = 1


@dataclass
class ScenarioBundle:
    """One recorded drive: RSSI frames, lidar scans, optional ground truth."""

    scenario_id: str
    rssi: list[RssiFrame]
    lidar: list[LidarScan]
    truth: list[GroundTruth] | None = None
    labels: list[BlockageLabel] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.rssi:
            raise SchemaError("scenario has no RSSI frames")
        times = [f.t for f in self.rssi]
        missing = sorted(set(range(times[0], times[-1] + 1)) - set(times))
        if missing or times != sorted(times):
            if not missing:
                raise SchemaError("RSSI frames are not in time order")
            raise TimeIndexGapError(missing)
        frame_times = set(times)
        for scan in self.lidar:
            if scan.t not in frame_times:
                raise SchemaError(f"lidar scan at t={scan.t} has no matching RSSI frame")
        if self.truth is not None:
            for row in self.truth:
                if row.t not in frame_times:
                    raise SchemaError(f"truth row at t={row.t} has no matching RSSI frame")
        if self.labels is not None:
            if [lab.t for lab in self.labels] != times:
                raise SchemaError("blockage labels do not align with RSSI frames")


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(path: Path, line_no: int, cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(str(path), line_no, f"bad float {cell!r} in column {column}") from None
    if not math.isfinite(value):
        raise ParseError(str(path), line_no, f"non-finite value in column {column}")
    return value


def _parse_int(path: Path, line_no: int, cell: str, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(str(path), line_no, f"bad integer {cell!r} in column {column}") from None


def _read_csv(path: Path, expected_header: list[str]) -> list[tuple[int, list[str]]]:
    if not path.exists():
        raise ParseError(str(path), 0, "file not found")
    rows: list[tuple[int, list[str]]] = []
    with path.open(encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if line_no == 1:
                if cells != expected_header:
                    raise ParseError(
                        str(path), 1,
                        f"expected header {','.join(expected_header)!r}, got {line!r}",
                    )
                continue
            if len(cells) != len(expected_header):
                raise ParseError(
                    str(path), line_no,
                    f"expected {len(expected_header)} cells, got {len(cells)}",
                )
            rows.append((line_no, cells))
    return rows


def save_scenario(bundle: ScenarioBundle, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    num_beams = bundle.rssi[0].powers.shape[0]

    header = ["t"] + [f"p{m}" for m in range(num_beams)]
    lines = [",".join(header)]
    for frame in bundle.rssi:
        lines.append(",".join([str(frame.t)] + [_fmt(p) for p in frame.powers]))
    (out / "rssi.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["t,angle,depth"]
    for scan in bundle.lidar:
        for angle, depth in scan.points:
            lines.append(f"{scan.t},{_fmt(angle)},{_fmt(depth)}")
    (out / "lidar.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if bundle.truth is not None:
        lines = ["t,x,y,blocked"]
        for row in bundle.truth:
            x = "" if row.pos is None else _fmt(row.pos[0])
            y = "" if row.pos is None else _fmt(row.pos[1])
            lines.append(f"{row.t},{x},{y},{int(row.blocked)}")
        (out / "truth.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if bundle.labels is not None:
        lines = ["t,blocked"]
        for lab in bundle.labels:
            lines.append(f"{lab.t},{int(lab.blocked)}")
        (out / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    meta = dict(bundle.meta)
    meta["format_version"] = SCENARIO_FORMAT_VERSION
    meta["scenario_id"] = bundle.scenario_id
    meta["num_beams"] = num_beams
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2), encoding="utf-8")
    return out


def load_scenario(scenario_dir) -> ScenarioBundle:
    root = Path(scenario_dir)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise ParseError(str(meta_path), 0, "file not found")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(str(meta_path), exc.lineno, exc.msg) from None
    if not isinstance(meta, dict):
        raise SchemaError(f"{meta_path}: meta must be a JSON object")
    if meta.get("format_version") != SCENARIO_FORMAT_VERSION:
        raise SchemaError(
            f"{meta_path}: unsupported format_version {meta.get('format_version')!r}"
        )
    if "num_beams" not in meta or "scenario_id" not in meta:
        raise SchemaError(f"{meta_path}: missing num_beams or scenario_id")
    num_beams = int(meta["num_beams"])

    rssi_path = root / "rssi.csv"
    header = ["t"] + [f"p{m}" for m in range(num_beams)]
    frames = []
    for line_no, cells in _read_csv(rssi_path, header):
        t = _parse_int(rssi_path, line_no, cells[0], "t")
        powers = np.array(
            [_parse_float(rssi_path, line_no, c, f"p{m}") for m, c in enumerate(cells[1:])]
        )
        if np.any(powers < 0):
            raise ParseError(str(rssi_path), line_no, "negative power")
        frames.append(RssiFrame(t, powers))

    lidar_path = root / "lidar.csv"
    by_time: dict[int, list[list[float]]] = {}
    for line_no, cells in _read_csv(lidar_path, ["t", "angle", "depth"]):
        t = _parse_int(lidar_path, line_no, cells[0], "t")
        angle = _parse_float(lidar_path, line_no, cells[1], "angle")
        depth = _parse_float(lidar_path, line_no, cells[2], "depth")
        by_time.setdefault(t, []).append([angle, depth])
    scans = [
        LidarScan(t, np.array(pts).reshape(-1, 2)) for t, pts in sorted(by_time.items())
    ]

    truth = None
    truth_path = root / "truth.csv"
    if truth_path.exists():
        truth = []
        for line_no, cells in _read_csv(truth_path, ["t", "x", "y", "blocked"]):
            t = _parse_int(truth_path, line_no, cells[0], "t")
            if (cells[1] == "") != (cells[2] == ""):
                raise ParseError(str(truth_path), line_no, "x and y must be blank together")
            flag = _parse_int(truth_path, line_no, cells[3], "blocked")
            if flag not in (0, 1):
                raise ParseError(str(truth_path), line_no, "blocked must be 0 or 1")
            if cells[1] == "":
                pos = None
            else:
                pos = np.array(
                    [
                        _parse_float(truth_path, line_no, cells[1], "x"),
                        _parse_float(truth_path, line_no, cells[2], "y"),
                    ]
                )
            truth.append(GroundTruth(t, pos, bool(flag)))

    labels = None
    labels_path = root / "labels.csv"
    if labels_path.exists():
        labels = []
        for line_no, cells in _read_csv(labels_path, ["t", "blocked"]):
            t = _parse_int(labels_path, line_no, cells[0], "t")
            flag = _parse_int(labels_path, line_no, cells[1], "blocked")
            if flag not in (0, 1):
                raise ParseError(str(labels_path), line_no, "blocked must be 0 or 1")
            labels.append(BlockageLabel(t, bool(flag)))

    return ScenarioBundle(
        scenario_id=str(meta["scenario_id"]),
        rssi=frames,
        lidar=scans,
        truth=truth,
        labels=labels,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Datasets of labeled windows
# ---------------------------------------------------------------------------

class SplitArrays(NamedTuple):
    """One split's samples stacked along a leading batch axis."""

    windows: np.ndarray  # (B, T0, M) raw powers
    futures: np.ndarray  # (B, N, 2) road-frame centroids
    blocked: np.ndarray  # (B, N) bool
    rasters: np.ndarray  # (B, bins) lidar depths
    times: list[int]


@dataclass
class DatasetFile:
    samples: list[LabeledSample]
    splits: dict[str, list[int]]  # split name -> sample indices
    meta: dict

    def subset(self, split: str) -> list[LabeledSample]:
        if split not in self.splits:
            raise KeyError(f"unknown split {split!r}; have {sorted(self.splits)}")
        return [self.samples[i] for i in self.splits[split]]

    def arrays(self, split: str) -> SplitArrays:
        """The split's samples stacked into arrays; an empty split is an error."""
        samples = self.subset(split)
        if not samples:
            raise ValueError(f"split {split!r} is empty")
        return SplitArrays(
            np.stack([s.window for s in samples]),
            np.stack([s.future for s in samples]),
            np.stack([s.future_blocked for s in samples]),
            np.stack([s.lidar_raster for s in samples]),
            [s.t for s in samples],
        )


def split_dataset(
    samples: list[LabeledSample],
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
    meta: dict | None = None,
) -> DatasetFile:
    """Assign contiguous per-scenario blocks to train/val/test.

    Windows overlap in time, so shuffling would leak nearly identical
    samples across splits; contiguous blocks keep evaluation honest.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    by_scenario: dict[str, list[int]] = {}
    for idx, sample in enumerate(samples):
        by_scenario.setdefault(sample.scenario, []).append(idx)
    splits: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    for scenario in sorted(by_scenario):
        idxs = by_scenario[scenario]
        n = len(idxs)
        n_train = int(n * ratios[0] + 1e-9)
        n_val = int(n * ratios[1] + 1e-9)
        splits["train"].extend(idxs[:n_train])
        splits["val"].extend(idxs[n_train : n_train + n_val])
        splits["test"].extend(idxs[n_train + n_val :])
    return DatasetFile(samples=samples, splits=splits, meta=dict(meta or {}))


def save_dataset(dataset: DatasetFile, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if dataset.samples:
        first = dataset.samples[0]
        window_len, num_beams = first.window.shape
        horizon = first.future.shape[0]
        raster_bins = first.lidar_raster.shape[0]
    else:
        window_len = num_beams = horizon = raster_bins = 0

    header = (
        ["scenario", "t"]
        + [f"w{i}" for i in range(window_len * num_beams)]
        + ["label_x", "label_y", "label_valid"]
        + [f"f{i}" for i in range(horizon * 2)]
        + [f"b{i}" for i in range(horizon)]
        + [f"r{i}" for i in range(raster_bins)]
    )
    lines = [",".join(header)]
    for s in dataset.samples:
        if s.window.shape != (window_len, num_beams) or s.future.shape != (horizon, 2):
            raise SchemaError("dataset samples have inconsistent shapes")
        cells = [s.scenario, str(s.t)]
        cells += [_fmt(v) for v in s.window.ravel()]
        cells += [_fmt(s.label.x), _fmt(s.label.y), str(int(s.label.valid))]
        cells += [_fmt(v) for v in s.future.ravel()]
        cells += [str(int(b)) for b in s.future_blocked]
        cells += [_fmt(v) for v in s.lidar_raster]
        lines.append(",".join(cells))
    (out / "samples.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    meta = dict(dataset.meta)
    meta["format_version"] = DATASET_FORMAT_VERSION
    meta["num_samples"] = len(dataset.samples)
    meta["window_len"] = window_len
    meta["num_beams"] = num_beams
    meta["horizon"] = horizon
    meta["raster_bins"] = raster_bins
    payload = {"meta": meta, "splits": dataset.splits}
    (out / "dataset.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2), encoding="utf-8"
    )
    return out


def load_dataset(dataset_dir) -> DatasetFile:
    from .preprocess import Centroid  # local import keeps module load order flexible

    root = Path(dataset_dir)
    json_path = root / "dataset.json"
    if not json_path.exists():
        raise ParseError(str(json_path), 0, "file not found")
    try:
        payload = json.loads(json_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(str(json_path), exc.lineno, exc.msg) from None
    meta = payload.get("meta", {})
    if meta.get("format_version") != DATASET_FORMAT_VERSION:
        raise SchemaError(
            f"{json_path}: unsupported format_version {meta.get('format_version')!r}"
        )
    window_len = int(meta["window_len"])
    num_beams = int(meta["num_beams"])
    horizon = int(meta["horizon"])
    raster_bins = int(meta["raster_bins"])

    csv_path = root / "samples.csv"
    header = (
        ["scenario", "t"]
        + [f"w{i}" for i in range(window_len * num_beams)]
        + ["label_x", "label_y", "label_valid"]
        + [f"f{i}" for i in range(horizon * 2)]
        + [f"b{i}" for i in range(horizon)]
        + [f"r{i}" for i in range(raster_bins)]
    )
    samples = []
    for line_no, cells in _read_csv(csv_path, header):
        pos = 0
        scenario = cells[pos]; pos += 1
        t = _parse_int(csv_path, line_no, cells[pos], "t"); pos += 1
        window = np.array(
            [_parse_float(csv_path, line_no, c, "w") for c in cells[pos : pos + window_len * num_beams]]
        ).reshape(window_len, num_beams)
        pos += window_len * num_beams
        lx = _parse_float(csv_path, line_no, cells[pos], "label_x")
        ly = _parse_float(csv_path, line_no, cells[pos + 1], "label_y")
        lvalid = _parse_int(csv_path, line_no, cells[pos + 2], "label_valid")
        pos += 3
        future = np.array(
            [_parse_float(csv_path, line_no, c, "f") for c in cells[pos : pos + horizon * 2]]
        ).reshape(horizon, 2)
        pos += horizon * 2
        future_blocked = np.array(
            [_parse_int(csv_path, line_no, c, "b") for c in cells[pos : pos + horizon]],
            dtype=bool,
        )
        pos += horizon
        raster = np.array(
            [_parse_float(csv_path, line_no, c, "r") for c in cells[pos : pos + raster_bins]]
        )
        samples.append(
            LabeledSample(
                scenario=scenario,
                t=t,
                window=window,
                label=Centroid(t, lx, ly, bool(lvalid)),
                future=future,
                future_blocked=future_blocked,
                lidar_raster=raster,
            )
        )

    splits = {name: list(map(int, idxs)) for name, idxs in payload.get("splits", {}).items()}
    for name, idxs in splits.items():
        for i in idxs:
            if not 0 <= i < len(samples):
                raise SchemaError(f"{json_path}: split {name!r} references sample {i}")
    return DatasetFile(samples=samples, splits=splits, meta=meta)
