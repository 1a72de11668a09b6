"""The benchmark workloads, driven through blockcast's public API.

Both workloads are a user session with the same phases, weighted
differently so that each stresses its own layers:

- ``data``     simulate the drive and label it into a dataset;
- ``train``    fit the localization, rf and rf+lidar predictors;
- ``score``    evaluate the three checkpoints and run the zero-shot transfer;
- ``forecast`` single-window (B=1) forecasts in time order, the three models
  interleaved, each call timed on its own (a closed loop, one caller).

``pipeline`` is the README quick start: its job is data, full training and
score (backward passes and Adam at B=8; forwards over ~1.5k-window
batches); forecasts over the test split follow. ``stream`` is a deployed
forecaster: set-up builds the drive and fits the models on a short
schedule (a forward pass costs the same whatever the weights; accuracy
belongs to ``pipeline``); its job is forecasts over every window.

Only the job is traced, so the per-layer numbers describe what each
workload is about. The program sees only the resolved config.

Timings are rescaled to a fixed CPU speed (``speed.py``). The short
phases (data, short fit, score) run ``REPEATS`` times and report the
median; training on the standard schedule (~18 s) runs once. Latency
percentiles are taken over every forecast of the loop.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blockcast import cli, geometry, ingest, models
from blockcast.config import resolve_config
from blockcast.preprocess import Centroid

from measure import latency_summary
from speed import REFERENCE_S, SpeedProbe

REPEATS = 3
# The short schedule of the ``stream`` fit.
SHORT_FIT = {"episodes": 1, "iterations": 200}
# ``transfer`` sweep of the README quick start.
RX_SWEEP = ["--rx", "4,12", "--rx=-6,12", "--rx", "8,12"]
# Acceptance floors of the fully trained models (test-split accuracy).
FLOORS = {"localization": 0.70, "rf": 0.85, "rf+lidar": 0.85}
TRANSFER_TOLERANCE = 0.15
PROB_TOLERANCE = 1e-12
COORD_TOLERANCE_M = 1e-9
VARIANT_DIRS = {"localization": "loc", "rf": "rf", "rf+lidar": "lidar"}
STAGE_KEYS = {"localization": "train_localization", "rf": "train_rf",
              "rf+lidar": "train_rf_lidar"}
MODELS = ("loc", "rf", "rf_lidar")


class StageFailed(RuntimeError):
    """A CLI stage returned non-zero; later phases cannot run."""


@dataclass
class Session:
    """State of one workload run: what it has measured, and the operations
    it attempted and failed."""

    seed: int
    tracer: object
    speed: SpeedProbe = field(default_factory=SpeedProbe)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)   # phase -> list of rescaled seconds
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def record(self, key: str, value, table: dict | None = None) -> None:
        (self.phases if table is None else table).setdefault(key, []).append(value)

    def phase_done(self, key: str, start: float) -> None:
        """Record a phase that began at ``start``: rescaled, and raw in the
        record."""
        end = time.perf_counter()
        self.record(key, self.speed.scaled(start, end))
        self.record(key, end - start, self.info.setdefault("wall_s", {}))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stage(sess: Session, name: str, argv: list[str]) -> dict[str, str]:
    """One ``cli.run`` call: timed, traced as operation ``cli.<name>``,
    counted, and its manifest checked against the files on disk. Returns
    the manifest's output hashes."""
    out = Path(argv[argv.index("--out") + 1])
    with sess.tracer.span(f"cli.{name}", op=f"cli.{name}"):
        t0 = time.perf_counter()
        rc = cli.run(argv)
        seconds = time.perf_counter() - t0
    sess.record(name, seconds, sess.info.setdefault("stage_s", {}))
    if not sess.check(rc == 0, f"{name} exited {rc}"):
        raise StageFailed(f"{name} exited {rc}")
    manifest = json.loads((out / cli.MANIFEST_NAME).read_text(encoding="utf-8"))
    sess.record(name, manifest["wall_clock_seconds"], sess.info.setdefault("manifest_wall_s", {}))
    sess.check(all(_sha256(out / f) == h for f, h in manifest["outputs"].items()),
               f"{name}: manifest sha256 does not match {out}")
    return manifest["outputs"]


def check_repeat(sess: Session, what: str, first: dict, again: dict) -> None:
    """A repeated phase must reproduce its outputs byte for byte."""
    sess.check(first == again, f"{what}: repeated run changed its outputs")


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def data_phase(sess: Session, root: Path) -> tuple[Path, Path, dict]:
    """Simulate the drive (config seed = workload seed) and label it."""
    scene, data = root / "scene", root / "data"
    t0 = time.perf_counter()
    hashes = stage(sess, "simulate", ["simulate", "--out", str(scene), "--seed", str(sess.seed)])
    hashes = {**hashes, **stage(sess, "label", ["label", "--scenario", str(scene),
                                                "--out", str(data)])}
    sess.phase_done("data_s", t0)
    return scene, data, hashes


def full_train_phase(sess: Session, root: Path, data: Path) -> dict[str, Path]:
    """The three CLI train stages on the standard schedule."""
    t0 = time.perf_counter()
    ckpts = {}
    for variant, sub in VARIANT_DIRS.items():
        out = root / sub
        stage(sess, STAGE_KEYS[variant],
              ["train", "--dataset", str(data), "--variant", variant, "--out", str(out)])
        ckpts[variant] = out / "model.json"
    sess.phase_done("train_s", t0)
    return ckpts


def short_fit_phase(sess: Session, root: Path, data: Path) -> dict[str, Path]:
    """Fit the three predictors on the short schedule from one dataset load."""
    cfg = resolve_config(dict(SHORT_FIT))
    tcfg = models.TrainConfig(
        lr=float(cfg["lr"]), batch_size=int(cfg["batch_size"]),
        episodes=int(cfg["episodes"]), iterations=int(cfg["iterations"]),
        seed=int(cfg["train_seed"]), delta=float(cfg["delta"]),
    )
    t0 = time.perf_counter()
    dataset = ingest.load_dataset(data)
    ckpts = {}
    for variant, sub in VARIANT_DIRS.items():
        if variant == "localization":
            model, _ = models.train_localization(dataset, tcfg)
        else:
            model, _ = models.train_blockage(dataset, tcfg, variant)
        (root / sub).mkdir(parents=True, exist_ok=True)
        ckpts[variant] = root / sub / "model.json"
        models.save_model(model, ckpts[variant])
    sess.phase_done("train_s", t0)
    return ckpts


def score_phase(sess: Session, root: Path, data: Path, scene: Path,
                ckpts: dict[str, Path]) -> dict:
    """Evaluate the three checkpoints on the test split and sweep the
    receiver with ``transfer``; records accuracies in ``sess.info``."""
    ck = ["--loc", str(ckpts["localization"]), "--rf", str(ckpts["rf"]),
          "--lidar", str(ckpts["rf+lidar"])]
    t0 = time.perf_counter()
    hashes = stage(sess, "evaluate", ["evaluate", "--dataset", str(data), *ck,
                                      "--out", str(root / "report")])
    hashes = {**hashes, **stage(sess, "transfer", ["transfer", "--scenario", str(scene), *ck,
                                                   *RX_SWEEP, "--out", str(root / "sweep")])}
    sess.phase_done("score_s", t0)

    with (root / "report" / "blockage.csv").open(newline="") as fh:
        acc = {row["method"].split("#")[0]: float(row["accuracy"])
               for row in csv.DictReader(fh) if row["step"] == "all"}
    with (root / "sweep" / "transfer.csv").open(newline="") as fh:
        loc = [(row["is_original"] == "1", float(row["accuracy"]))
               for row in csv.DictReader(fh) if row["method"] == "localization"]
    moved = [a for original, a in loc if not original]
    sess.info["accuracy"] = acc
    sess.info["transfer_localization"] = {"original": [a for o, a in loc if o][0],
                                          "moved": moved}
    sess.check(set(acc) == set(FLOORS) and len(moved) == 3,
               "evaluate/transfer reports are incomplete")
    return hashes


def forecast_inputs(data: Path, split: str | None):
    """Windows, rasters and the road-frame link of a dataset, in time order
    (every window when ``split`` is None)."""
    dataset = ingest.load_dataset(data)
    samples = dataset.samples if split is None else dataset.subset(split)
    samples = sorted(samples, key=lambda s: s.t)
    meta = dataset.meta
    region = meta["road_region"]
    ox, oy = min(region[0], region[2]), min(region[1], region[3])
    link = geometry.LinkGeometry(
        tx=(meta["tx"][0] - ox, meta["tx"][1] - oy),
        rx=(meta["rx"][0] - ox, meta["rx"][1] - oy),
        object_width=float(meta["object_width"]),
        power_threshold=float(meta["power_threshold"]),
    )
    windows = np.stack([s.window for s in samples])
    rasters = np.stack([s.lidar_raster for s in samples])
    return windows, rasters, link


def load_predictors(ckpts: dict[str, Path]) -> dict:
    return {variant: models.load_model(path) for variant, path in ckpts.items()}


def forecast(sess: Session, predictors: dict, i: int, window, raster, link):
    """One forecast per model for one window, interleaved, each timed on its
    own; returns (outputs, seconds) per model, or None when a forecast
    raised. Raising and non-finite forecasts count as failures."""
    tracer, clock = sess.tracer, time.perf_counter
    out, seconds = {}, {}
    try:
        with tracer.span("forecast.loc", op=f"loc#{i}"):
            t0 = clock()
            coords = models.predict_locations_batch(predictors["localization"], window)
            for x, y in coords[0]:
                geometry.blockage_from_location(Centroid(0, float(x), float(y)), link)
            seconds["loc"] = clock() - t0
        out["loc"] = coords[0]
        with tracer.span("forecast.rf", op=f"rf#{i}"):
            t0 = clock()
            probs = models.predict_blockage_probs(predictors["rf"], window)
            seconds["rf"] = clock() - t0
        out["rf"] = probs[0]
        with tracer.span("forecast.rf_lidar", op=f"rf_lidar#{i}"):
            t0 = clock()
            probs = models.predict_blockage_probs(predictors["rf+lidar"], window, raster)
            seconds["rf_lidar"] = clock() - t0
        out["rf_lidar"] = probs[0]
    except Exception as exc:  # a failed forecast is counted, not fatal
        sess.check(False, f"forecast {i} raised {type(exc).__name__}: {exc}")
        return None
    for key, value in out.items():
        sess.check(bool(np.all(np.isfinite(value))), f"forecast {key}#{i} is not finite")
    return out, seconds


def forecast_phase(sess: Session, predictors: dict, windows, rasters, link,
                   seconds: float | None) -> dict:
    """Closed loop over the windows in time order, wrapping around, until
    ``seconds`` have passed (one pass when None; always at least one). The
    first pass is checked against one batched call per model."""
    n = windows.shape[0]
    latencies = {key: [] for key in MODELS}
    first = {key: [] for key in MODELS}
    reference = []   # the reference kernel's time just before each window
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    with sess.speed.paused():
        while i < n or (deadline is not None and time.perf_counter() < deadline):
            k = i % n
            ref = sess.speed.measure()
            result = forecast(sess, predictors, k, windows[k:k + 1], rasters[k:k + 1], link)
            if result is not None:
                reference.append(ref)
                for key in MODELS:
                    latencies[key].append(result[1][key])
                    if i < n:
                        first[key].append(result[0][key])
            i += 1
    check_against_batch(sess, predictors, windows, rasters, first)
    sess.info["forecast_windows"] = int(n)
    sess.info["forecast_wall_ms"] = {key: latency_summary(v) for key, v in latencies.items()}
    return {key: latency_summary([t * REFERENCE_S / r for t, r in zip(v, reference)])
            for key, v in latencies.items()}


def check_against_batch(sess: Session, predictors: dict, windows, rasters,
                        outputs: dict) -> None:
    """Single-window outputs must match one batched call over the same
    windows (not bitwise: BLAS may sum in another order)."""
    batched = {
        "loc": models.predict_locations_batch(predictors["localization"], windows),
        "rf": models.predict_blockage_probs(predictors["rf"], windows),
        "rf_lidar": models.predict_blockage_probs(predictors["rf+lidar"], windows, rasters),
    }
    tolerance = {"loc": COORD_TOLERANCE_M, "rf": PROB_TOLERANCE, "rf_lidar": PROB_TOLERANCE}
    diffs = {}
    for key, ref in batched.items():
        single = np.stack(outputs[key]) if len(outputs[key]) == len(ref) else None
        diff = math.inf if single is None else float(np.max(np.abs(single - ref)))
        diffs[key] = diff
        sess.check(diff <= tolerance[key],
                   f"forecast {key}: single-window output differs from batch by {diff}")
    sess.info["single_vs_batch_max_abs_diff"] = diffs


# ---------------------------------------------------------------------------
# Workloads. ``setup`` is paid before the job and counts in ``setup_s``
# (its phases are named in ``SETUP_PHASES``); ``job`` is the part that is
# traced in the traced run; ``epilogue`` runs once after the job, in the
# timed run only, repeats the short phases and returns the latency figures.
# ---------------------------------------------------------------------------

class Pipeline:
    """The README quick start through ``cli.run``."""

    SETUP_PHASES: tuple = ()

    def __init__(self, sess: Session, work: Path):
        self.sess, self.work = sess, work

    def setup(self) -> None:
        pass

    def job(self, root: Path, seconds: float | None) -> None:
        sess = self.sess
        self.scene, self.data, self.data_hashes = data_phase(sess, root)
        self.ckpts = full_train_phase(sess, root, self.data)
        self.score_hashes = score_phase(sess, root, self.data, self.scene, self.ckpts)
        self.root = root

    def epilogue(self, seconds: float) -> dict:
        sess, root = self.sess, self.root
        acc = sess.info["accuracy"]
        for variant, floor in FLOORS.items():
            sess.check(acc.get(variant, 0.0) >= floor,
                       f"{variant} accuracy {acc.get(variant)} is below {floor}")
        tr = sess.info["transfer_localization"]
        for a in tr["moved"]:
            sess.check(abs(a - tr["original"]) <= TRANSFER_TOLERANCE,
                       f"moved-receiver localization accuracy {a} is more than "
                       f"{TRANSFER_TOLERANCE} from {tr['original']}")
        hashed = [root / d / f for d in VARIANT_DIRS.values() for f in ("model.json", "curves.csv")]
        hashed += [root / "report" / "report.txt", root / "sweep" / "transfer.csv"]
        sess.info["artifact_sha256"] = {str(p.relative_to(root)): _sha256(p) for p in hashed}

        windows, rasters, link = forecast_inputs(self.data, "test")
        latency = forecast_phase(sess, load_predictors(self.ckpts), windows, rasters, link,
                                 seconds)
        for r in range(1, REPEATS):
            again = self.work / f"repeat{r}"
            _, _, hashes = data_phase(sess, again)
            check_repeat(sess, "simulate + label", self.data_hashes, hashes)
            hashes = score_phase(sess, again, self.data, self.scene, self.ckpts)
            check_repeat(sess, "evaluate + transfer", self.score_hashes, hashes)
        return latency


class Stream:
    """Single-window forecasts over every window of the standard drive."""

    SETUP_PHASES = ("data_s", "train_s", "load_s")

    def __init__(self, sess: Session, work: Path):
        self.sess, self.work = sess, work

    def setup(self) -> None:
        sess = self.sess
        self.root = self.work / "setup"
        self.scene, self.data, self.data_hashes = data_phase(sess, self.root)
        self.ckpts = short_fit_phase(sess, self.root, self.data)
        t0 = time.perf_counter()
        self.predictors = load_predictors(self.ckpts)
        self.inputs = forecast_inputs(self.data, None)
        sess.phase_done("load_s", t0)

    def job(self, root: Path, seconds: float | None) -> None:
        self.latency = forecast_phase(self.sess, self.predictors, *self.inputs, seconds)

    def epilogue(self, seconds: float) -> dict:
        sess = self.sess
        first = None
        for r in range(REPEATS):
            again = self.work / f"repeat{r}"
            if r:
                _, _, hashes = data_phase(sess, again)
                check_repeat(sess, "simulate + label", self.data_hashes, hashes)
                short_fit_phase(sess, again, self.data)
            hashes = score_phase(sess, again, self.data, self.scene, self.ckpts)
            first = first or hashes
            check_repeat(sess, "evaluate + transfer", first, hashes)
        return self.latency


WORKLOADS = {"pipeline": Pipeline, "stream": Stream}
