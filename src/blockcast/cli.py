"""Command-line pipeline.

One binary, one subcommand per pipeline stage::

    blockcast simulate --out runs/scene
    blockcast label    --scenario runs/scene --out runs/data
    blockcast train    --dataset runs/data --variant localization --out runs/loc
    blockcast predict  --checkpoint runs/loc/model.json --dataset runs/data --out runs/pred
    blockcast evaluate --dataset runs/data --loc runs/loc/model.json --out runs/report
    blockcast transfer --scenario runs/scene --loc runs/loc/model.json \
                       --rx 4,12 --rx -6,12 --out runs/sweep

A flag named as a config key (``--steps``) overrides that key; every
other flag is a stage input. ``config.check_value`` checks every config
value, whatever its source, and the stages read them as given;
``ingest.json_field`` checks the JSON fields a stage reads.

Every run writes a ``manifest.json`` next to its outputs holding the
subcommand, the fully resolved config, the stage inputs, and a sha256
checksum per output file. ``replay_manifest`` re-executes a manifest into
a fresh directory and verifies the outputs byte for byte; nothing is
written outside the chosen output directory.

Exit codes: 0 success, 1 domain error (contract violation, bad data),
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .config import DEFAULTS, check_config, check_value, parse_value, resolve_config
from .errors import ConfigMismatchError, PipelineError, SchemaError
from .evaluation import (
    BLOCKAGE_CSV_HEADER,
    LOCALIZATION_CSV_HEADER,
    MULTI_SEED_CSV_HEADER,
    blockage_rows,
    blockage_table,
    evaluate_blockage,
    evaluate_localization,
    localization_rows,
    multi_seed_rows,
)
from .geometry import LinkGeometry, blockage_labels_from_rssi, transfer_link
from .ingest import (
    Lidar,
    ScenarioBundle,
    Truth,
    json_field,
    load_dataset,
    load_scenario,
    read_json_object,
    save_dataset,
    save_scenario,
    split_dataset,
    write_csv,
)
from .models import (
    Model,
    TrainConfig,
    load_model,
    predict_blockage_probs,
    predict_locations_batch,
    road_frame,
    save_model,
    train_blockage,
    train_localization,
)
from .preprocess import (
    DbscanConfig,
    SrcConfig,
    WindowSet,
    build_windows,
    scenario_centroids,
)
from .scene import (
    ChannelConfig,
    Vehicle,
    WorldState,
    build_codebook,
    segment_intersects_rect,
    simulate_scenario,
)

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, subcommand: str, cfg: dict, inputs: dict,
                   outputs: list[str], wall_clock: float) -> Path:
    manifest = {
        "format_version": MANIFEST_VERSION,
        "subcommand": subcommand,
        "config": cfg,
        "inputs": inputs,
        "outputs": {name: _sha256(out_dir / name) for name in sorted(outputs)},
        "wall_clock_seconds": wall_clock,
    }
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8")
    return path


class _ManifestInputs(dict):
    """A manifest's stage inputs: an input that the stage reads and the
    manifest lacks is a SchemaError naming the manifest and the input."""

    def __init__(self, path, inputs: dict):
        super().__init__(inputs)
        self.path = path

    def __missing__(self, key):
        raise SchemaError(f"{self.path}: inputs has no {key!r}")


def replay_manifest(manifest_path, out_dir) -> dict[str, bool]:
    """Re-execute a recorded run into out_dir; map output name -> checksum
    match. Input files referenced by the manifest must still exist. A
    manifest of another layout (a top-level key missing or of another JSON
    type, a config key missing or not of its default's form, an input that
    the stage reads missing) is a SchemaError naming the manifest."""
    manifest = read_json_object(manifest_path)
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise SchemaError(
            f"{manifest_path}: unsupported manifest version "
            f"{manifest.get('format_version')!r}"
        )
    for key, kind in (("subcommand", str), ("config", dict), ("inputs", dict), ("outputs", dict)):
        if not isinstance(manifest.get(key), kind):
            raise SchemaError(f"{manifest_path}: {key} is missing or not a JSON "
                              + ("string" if kind is str else "object"))
    subcommand = manifest["subcommand"]
    if subcommand not in _COMMANDS:
        raise SchemaError(f"{manifest_path}: unknown subcommand {subcommand!r}")
    for key in DEFAULTS:
        if key not in manifest["config"]:
            raise SchemaError(f"{manifest_path}: config has no {key!r}")
    try:
        cfg = check_config({key: manifest["config"][key] for key in DEFAULTS})
    except SchemaError as exc:
        raise SchemaError(f"{manifest_path}: config {exc}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _COMMANDS[subcommand](cfg, _ManifestInputs(manifest_path, manifest["inputs"]), out)
    return {
        name: (out / name).exists() and _sha256(out / name) == checksum
        for name, checksum in manifest["outputs"].items()
    }


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _road_frame_link(tx, rx, origin, object_width: float) -> LinkGeometry:
    """The link shifted into the road frame (of centroids and predictions) at world ``origin``."""
    return LinkGeometry(tx=tuple(np.subtract(tx, origin).tolist()),
                        rx=tuple(np.subtract(rx, origin).tolist()),
                        object_width=object_width)


def _scenario_windows(cfg: dict, bundle: ScenarioBundle, threshold: float | None,
                      known: np.ndarray | None = None) -> WindowSet:
    """The labeled windows of one scenario as the config cuts them, ``known``
    as in ``build_windows``; flags from ``threshold``, all False when None."""
    flags = None if threshold is None else blockage_labels_from_rssi(bundle.rssi, threshold)
    src_cfg = SrcConfig(cfg["proximity_radius"], cfg["road_region"])
    db_cfg = DbscanConfig(cfg["eps"], cfg["min_pts"])
    return build_windows(bundle, scenario_centroids(bundle, src_cfg, db_cfg), cfg["window_len"],
                         cfg["horizon"], flags, cfg["raster_bins"], cfg["lidar_max_range"],
                         known=known)


def _window_steps(times, horizon: int) -> list[np.ndarray]:
    """The sample, t and step columns of one row per window and horizon step."""
    return [np.repeat(np.arange(len(times)), horizon),
            np.repeat(np.asarray(times, dtype=np.int64), horizon),
            np.tile(np.arange(1, horizon + 1), len(times))]


_CHECKPOINT_FLAGS = {"localization": "loc", "rf": "rf", "rf+lidar": "lidar"}  # kind -> flag


def _check_dims(path, model: Model, dims: dict, source) -> None:
    """Raise ConfigMismatchError, naming ``path`` and the key, unless the
    model's num_beams, window_len, horizon and (rf+lidar) raster_bins match
    those that ``dims`` holds, read from ``source`` (the dataset.json, the
    resolved config or the scenario) its inputs are cut by, and a localization
    model's road frame that of a ``road_region`` in ``dims``, in which its
    predictions are scored and crossed with the link."""
    keys = ("num_beams", "window_len", "horizon") + (
        ("raster_bins",) if model.kind == "rf+lidar" else ())
    for key in keys:
        if key in dims and getattr(model, key) != int(dims[key]):
            raise ConfigMismatchError(
                f"{path}: checkpoint {key}={getattr(model, key)} does not match "
                f"the {source} {key}={dims[key]}"
            )
    frame = [model.stats.road_origin.tolist(), model.stats.road_size.tolist()]
    if model.kind == "localization" and "road_region" in dims and not all(
            map(np.array_equal, frame, road_frame(dims, source))):
        raise ConfigMismatchError(f"{path}: checkpoint road origin and size {frame} do not "
                                  f"match the {source} road_region={dims['road_region']}")


def _load_checked(path, kind: str, dims: dict, source) -> Model:
    """Load a checkpoint given under the flag for ``kind`` and check its
    dimensions against ``dims``."""
    model = load_model(path)
    if model.kind != kind:
        raise SchemaError(
            f"{path}: --{_CHECKPOINT_FLAGS[kind]} expects a {kind} checkpoint, "
            f"got a {model.kind} one"
        )
    _check_dims(path, model, dims, source)
    return model


# ---------------------------------------------------------------------------
# Subcommand bodies. Each takes (resolved config, inputs, out_dir) and
# returns the produced file names relative to out_dir; the dispatcher
# appends the manifest. Keeping them pure in (cfg, inputs) is what makes
# manifests replayable.
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, inputs: dict, out_dir: Path) -> list[str]:
    codebook = build_codebook(cfg["num_beams"], cfg["theta_offset"], cfg["fov"])
    channel = ChannelConfig(**{field.name: cfg[field.name] for field in fields(ChannelConfig)})
    vehicle = Vehicle(cfg["vehicle_center"], cfg["vehicle_width"], cfg["vehicle_depth"],
                      cfg["vehicle_velocity"])
    world = WorldState(cfg["tx"], cfg["rx"], (vehicle,), cfg["walls"] or (),
                       cfg["lidar_max_range"], cfg["bounce_x"])
    result = simulate_scenario(world, codebook, channel, cfg["steps"], cfg["seed"],
                               cfg["lidar_rays"])
    meta = {key: cfg[key] for key in (
        "tx", "rx", "road_region", "vehicle_width", "vehicle_depth", "theta_offset", "fov",
        "noise_variance", "blocked_attenuation_db", "scatter_gain", "scatter_fluctuation_db",
        "symbol_power", "lidar_max_range", "num_subcarriers", "steps", "seed", "lidar_rays")}
    meta["power_threshold"] = result.power_threshold
    steps = np.arange(len(result.frames))
    bundle = ScenarioBundle(
        scenario_id=str(inputs.get("scenario_id") or out_dir.name),
        t=steps,
        rssi=result.frames,
        lidar=Lidar(np.repeat(steps, [len(scan.points) for scan in result.scans]),
                    np.concatenate([scan.points for scan in result.scans])),
        truth=Truth(steps, result.positions, result.occluded),
        meta=meta,
    )
    del result  # and with it the per-step scans, now the bundle's rows
    save_scenario(bundle, out_dir)
    return ["rssi.csv", "lidar.csv", "truth.csv", "meta.json"]


def _labeled_drive(cfg: dict, scenario_dir) -> tuple[WindowSet, dict]:
    """One scenario's labeled windows, and the link fields of its meta.json
    that dataset.json copies; the drive itself is dropped on return."""
    bundle = load_scenario(scenario_dir)
    meta_path = Path(scenario_dir) / "meta.json"
    threshold = json_field(bundle.meta, "power_threshold", meta_path, positive=True, optional=True)
    if threshold is None:
        raise SchemaError(f"{meta_path}: no power_threshold; blockage flags cannot be derived")
    for key in ("tx", "rx"):  # copied into dataset.json, where evaluate reads them
        json_field(bundle.meta, key, meta_path, (2,), optional=True)
    link = {"tx": bundle.meta.get("tx"), "rx": bundle.meta.get("rx"), "power_threshold": threshold}
    return _scenario_windows(cfg, bundle, threshold), link


def cmd_label(cfg: dict, inputs: dict, out_dir: Path) -> list[str]:
    labeled, link = _labeled_drive(cfg, inputs["scenario"])
    if not labeled:
        raise ValueError("no valid windows were produced from the scenario")
    meta = {key: cfg[key] for key in (
        "road_region", "lidar_max_range", "eps", "min_pts", "proximity_radius", "object_width")}
    dataset = split_dataset(labeled, cfg["ratios"], meta={**meta, **link})
    save_dataset(dataset, out_dir)
    return ["samples.csv", "frames.npy", "rasters.npy", "dataset.json"]


def cmd_train(cfg: dict, inputs: dict, out_dir: Path) -> list[str]:
    dataset = load_dataset(inputs["dataset"])
    path = Path(inputs["dataset"]) / "dataset.json"
    json_field(dataset.meta, "road_region", path, (4,))
    json_field(dataset.meta, "lidar_max_range", path, positive=True, optional=True)  # or 16.0
    tcfg = TrainConfig(cfg["lr"], cfg["batch_size"], cfg["episodes"], cfg["iterations"],
                       cfg["train_seed"], cfg["delta"])
    variant = inputs["variant"]
    if variant == "localization":
        model, curves = train_localization(dataset, tcfg)
    elif variant in ("rf", "rf+lidar"):
        model, curves = train_blockage(dataset, tcfg, variant)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    save_model(model, out_dir / "model.json")

    val = [None] * len(curves.train)  # filled at the last iteration of each episode
    for episode, loss in enumerate(curves.val, start=1):
        val[episode * tcfg.iterations - 1] = loss
    write_csv(out_dir / "curves.csv", ["iteration", "train_loss", "val_loss"],
              [np.arange(1, len(curves.train) + 1), np.array(curves.train), val])
    return ["model.json", "curves.csv"]


def cmd_predict(cfg: dict, inputs: dict, out_dir: Path) -> list[str]:
    del cfg
    dataset = load_dataset(inputs["dataset"])
    model = load_model(inputs["checkpoint"])
    _check_dims(inputs["checkpoint"], model, dataset.meta,
                Path(inputs["dataset"]) / "dataset.json")
    split = dataset.arrays(inputs["split"])
    if model.kind == "localization":
        coords = predict_locations_batch(model, split)
        write_csv(out_dir / "predictions.csv", ["sample", "t", "step", "x", "y"],
                  _window_steps(split.t, coords.shape[1]) + [coords.reshape(-1, 2)])
    else:
        probs = predict_blockage_probs(model, split, split.rasters)
        write_csv(out_dir / "predictions.csv", ["sample", "t", "step", "probability", "blocked"],
                  _window_steps(split.t, probs.shape[1]) + [probs.ravel(), probs.ravel() >= 0.5])
    return ["predictions.csv"]


def cmd_evaluate(cfg: dict, inputs: dict, out_dir: Path) -> list[str]:
    del cfg
    dataset = load_dataset(inputs["dataset"])
    split = dataset.arrays(inputs["split"])
    futures, blocked = split.futures, split.blocked
    groups = [(kind, inputs.get(flag) or []) for kind, flag in _CHECKPOINT_FLAGS.items()]
    if not any(paths for _, paths in groups):
        raise ValueError("no checkpoints given; pass --loc/--rf/--lidar")

    meta, path = dataset.meta, Path(inputs["dataset"]) / "dataset.json"
    link = None
    if groups[0][1]:
        tx, rx = (json_field(meta, key, path, (2,)) for key in ("tx", "rx"))
        origin = road_frame(meta, path)[0]
        width = json_field(meta, "object_width", path, positive=True, optional=True)
        link = _road_frame_link(tx, rx, origin,
                                DEFAULTS["object_width"] if width is None else width)

    blockage, localization = [], []  # CSV rows
    accuracies: dict[str, list[list[float]]] = {}  # method -> per-step accuracies per checkpoint
    raw: list[tuple[str, np.ndarray, np.ndarray | None]] = []  # per checkpoint
    for method, paths in groups:
        for run_idx, ckpt in enumerate(paths):
            model = _load_checked(ckpt, method, meta, path)
            label = f"{method}#{run_idx}"
            if method == "localization":
                coords = predict_locations_batch(model, split)
                # The width-only object is the box of depth 0.
                flags = segment_intersects_rect(link.tx, link.rx, coords, link.object_width, 0.0)
                probs = None
                localization += localization_rows(label, evaluate_localization(coords, futures))
            else:
                probs = predict_blockage_probs(model, split, split.rasters)
                flags = probs >= 0.5
            rows = blockage_rows(label, evaluate_blockage(flags, blocked))
            blockage += rows
            accuracies.setdefault(method, []).append([acc for *_, acc, _ in rows[:-1]])
            raw.append((label, flags.ravel(), None if probs is None else probs.ravel()))

    outputs = ["blockage.csv", "predictions_raw.csv", "report.txt"]
    write_csv(out_dir / "blockage.csv", BLOCKAGE_CSV_HEADER, [blockage])
    cells = blocked.size
    write_csv(
        out_dir / "predictions_raw.csv",
        ["method", "sample", "t", "step", "probability", "predicted", "actual"],
        [[label for label, _, _ in raw for _ in range(cells)],
         *(np.tile(column, len(raw)) for column in _window_steps(split.t, blocked.shape[1])),
         [p for _, _, probs in raw
          for p in ([None] * cells if probs is None else probs.tolist())],
         np.concatenate([flags for _, flags, _ in raw]),
         np.tile(blocked.ravel(), len(raw))],
    )
    (out_dir / "report.txt").write_text(blockage_table(blockage), encoding="utf-8")
    if localization:
        write_csv(out_dir / "localization.csv", LOCALIZATION_CSV_HEADER, [localization])
        outputs.append("localization.csv")
    summary = [row for method, acc in sorted(accuracies.items()) if len(acc) >= 2
               for row in multi_seed_rows(method, acc)]
    if summary:
        write_csv(out_dir / "summary.csv", MULTI_SEED_CSV_HEADER, [summary])
        outputs.append("summary.csv")
    return outputs


def _transfer_windows(cfg: dict, scenario) -> tuple:
    """The windows of ``scenario`` whose next horizon steps all have a true
    position: (their WindowSet, (B, N, 2) world-frame positions, tx, rx,
    vehicle width, vehicle depth), the only ones built. Of the scenario
    bundle only the RSSI frames outlive this call, as the windows' frames."""
    bundle = load_scenario(scenario)
    meta = bundle.meta
    if bundle.truth is None:
        raise SchemaError(f"{scenario}: transfer needs truth.csv")
    meta_path = Path(scenario) / "meta.json"
    tx, rx0 = (json_field(meta, key, meta_path, (2,)) for key in ("tx", "rx"))
    width, depth = (json_field(meta, key, meta_path, positive=True, optional=True)
                    for key in ("vehicle_width", "vehicle_depth"))
    if width is None or depth is None:
        raise SchemaError(f"{meta_path}: transfer needs vehicle_width and vehicle_depth")
    json_field(meta, "power_threshold", meta_path, positive=True, optional=True)  # not read

    t0 = bundle.t[0]
    truth = np.full((len(bundle.t), 2), np.nan)  # NaN: no known position
    truth[bundle.truth.t - t0] = bundle.truth.pos
    labeled = _scenario_windows(cfg, bundle, None, ~np.isnan(truth).any(axis=1))
    if not labeled:
        raise ValueError("no windows with complete ground truth positions")
    ahead = truth[labeled.t[:, None] - t0 + np.arange(1, cfg["horizon"] + 1)]
    return labeled, ahead, tx, rx0, width, depth


def cmd_transfer(cfg: dict, inputs: dict, out_dir: Path) -> list[str]:
    # The windows are cut as the config says, from the scenario's beams.
    dims = {key: cfg[key] for key in ("window_len", "horizon", "raster_bins")}
    checked = [(ckpt, _load_checked(ckpt, kind, dims, "config")) for kind, ckpts in (
        ("localization", [inputs["loc"]]), ("rf", inputs.get("rf") or []),
        ("rf+lidar", inputs.get("lidar") or [])) for ckpt in ckpts]
    windows, positions, tx, rx0, width, depth = _transfer_windows(cfg, inputs["scenario"])
    for ckpt, model in checked:
        _check_dims(ckpt, model, {"num_beams": windows.frames.shape[1]}, "scenario")
    loc_model = checked[0][1]

    coords = predict_locations_batch(loc_model, windows)
    # The baselines cannot use the receiver position: their flags are fixed.
    baseline_flags = [
        (m.kind, predict_blockage_probs(m, windows, windows.rasters) >= 0.5) for _, m in checked[1:]
    ]
    # Predictions live in the road frame the model was trained in; shift
    # the link into that frame rather than trusting the local config, then
    # move only its receiver: the zero-shot step.
    origin = loc_model.stats.road_origin
    link = _road_frame_link(tx, rx0, origin, cfg["object_width"])
    rx_positions = [rx0]
    rx_positions += [tuple(map(float, p)) for p in inputs["rx_positions"]]

    rows = []
    for pos_idx, rx in enumerate(rx_positions):
        moved = transfer_link(link, np.subtract(rx, origin))
        truth_flags = segment_intersects_rect(tx, rx, positions, width, depth)
        pred = segment_intersects_rect(moved.tx, moved.rx, coords, moved.object_width, 0.0)
        for name, predicted in [("localization", pred)] + baseline_flags:
            rows.append(
                [name, pos_idx, rx[0], rx[1], pos_idx == 0, np.mean(predicted == truth_flags)]
            )
    write_csv(out_dir / "transfer.csv",
              ["method", "position", "rx_x", "rx_y", "is_original", "accuracy"], [rows])
    return ["transfer.csv"]


_COMMANDS = {
    "simulate": cmd_simulate,
    "label": cmd_label,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "transfer": cmd_transfer,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _set_pair(text: str):
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key.strip(), parse_value(key.strip(), value.strip())
    except SchemaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag_value(key: str, text: str):
    """The text of the flag named as config ``key`` as a number of the
    default's type, checked as a ``--set`` value is."""
    try:
        value = (int if type(DEFAULTS[key]) is int else float)(text)
    except ValueError:
        value = text  # no number: refused below, quoted
    try:
        return check_value(key, value)
    except SchemaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _config_flags(sub: argparse.ArgumentParser, **helps) -> None:
    """A flag per config key in ``helps``: ``--window-len`` sets ``window_len``."""
    for key, text in helps.items():
        sub.add_argument("--" + key.replace("_", "-"), type=partial(_flag_value, key), help=text)


def _path(text: str) -> str:
    return str(Path(text).resolve())


def _rx_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected X,Y coordinates, got {text!r}")
    try:
        pair = [float(parts[0]), float(parts[1])]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coordinates {text!r}") from None
    if not all(map(math.isfinite, pair)):
        raise argparse.ArgumentTypeError(f"coordinates must be finite, got {text!r}")
    return pair


class _Once(argparse.Action):
    """Store the option's value; giving the option again is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, values)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", required=True, help="output directory for artifacts + manifest")
    sub.add_argument("--config", help="key = value config file (default: $BLOCKCAST_CONFIG)")
    sub.add_argument(
        "--set",
        dest="overrides",
        type=_set_pair,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (JSON value); repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockcast",
        description="Synthetic mmWave blockage prediction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario directory")
    _add_common(p)
    _config_flags(p, seed="simulation seed", steps="number of time steps")
    p.add_argument("--scenario-id", help="identifier stored in meta.json (default: out dir name)")

    p = sub.add_parser("label", help="derive labels and build a windowed dataset")
    _add_common(p)
    p.add_argument("--scenario", type=_path, action=_Once, required=True, metavar="DIR",
                   help="scenario directory: one drive")
    _config_flags(p, window_len="observation window length", horizon="prediction horizon")

    p = sub.add_parser("train", help="train one model on a dataset")
    _add_common(p)
    p.add_argument("--dataset", type=_path, required=True, help="dataset directory")
    p.add_argument(
        "--variant", required=True, choices=["localization", "rf", "rf+lidar"],
        help="which model to train",
    )
    _config_flags(p, lr="learning rate", batch_size=None, episodes=None,
                  iterations="minibatches per episode", train_seed="init + batch sampling seed",
                  delta="robust-loss transition point")

    p = sub.add_parser("predict", help="dump raw model predictions for a split")
    _add_common(p)
    p.add_argument("--checkpoint", type=_path, required=True, help="model.json path")
    p.add_argument("--dataset", type=_path, required=True)
    p.add_argument("--split", default="test", help="dataset split (default: test)")

    p = sub.add_parser("evaluate", help="score checkpoints against a split")
    _add_common(p)
    p.add_argument("--dataset", type=_path, required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--loc", type=_path, action="append", default=[], metavar="CKPT",
                   help="localization checkpoint; repeatable")
    p.add_argument("--rf", type=_path, action="append", default=[], metavar="CKPT",
                   help="rssi-only blockage checkpoint; repeatable")
    p.add_argument("--lidar", type=_path, action="append", default=[], metavar="CKPT",
                   help="rssi+lidar blockage checkpoint; repeatable")

    p = sub.add_parser(
        "transfer",
        help="sweep receiver positions, reusing a trained location model",
    )
    _add_common(p)
    p.add_argument("--scenario", type=_path, required=True,
                   help="scenario directory with truth.csv")
    p.add_argument("--loc", type=_path, required=True, help="localization checkpoint")
    p.add_argument("--rf", type=_path, action="append", default=[], metavar="CKPT")
    p.add_argument("--lidar", type=_path, action="append", default=[], metavar="CKPT")
    p.add_argument(
        "--rx", dest="rx_positions", type=_rx_pair, action="append", required=True,
        metavar="X,Y", help="receiver position to sweep; repeatable",
    )
    return parser


def _gather(args: argparse.Namespace) -> tuple[dict, dict]:
    """The config overrides and the stage inputs of a parsed command line. A
    flag named as a config key overrides it, after ``--set``, when given;
    every other flag of the subcommand is a stage input."""
    overrides, inputs = dict(args.overrides), {}
    for name, value in vars(args).items():
        if name in ("command", "out", "config", "overrides"):
            continue
        if name not in DEFAULTS:
            inputs[name] = value
        elif value is not None:
            overrides[name] = value
    if args.command == "simulate":
        inputs["scenario_id"] = inputs["scenario_id"] or Path(args.out).name
    return overrides, inputs


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        overrides, inputs = _gather(args)
        cfg = resolve_config(overrides, args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        outputs = _COMMANDS[args.command](cfg, inputs, out_dir)
        wall = time.perf_counter() - start
        write_manifest(out_dir, args.command, cfg, inputs, outputs, wall)
    except (PipelineError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
