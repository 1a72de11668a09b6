"""Span recorder and function wrappers for the traced benchmark run.

The benchmark's traced run wraps blockcast's public functions from
outside: every module attribute bound to a listed function is replaced by
a wrapper that records a span (name, start, end, parent, operation id)
and feeds the layer's work counters. Spans stay in memory as flat arrays
and are written out once, when the run ends. ``Tracer.restore`` puts the
original functions back; the untimed-vs-timed separation relies on it.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (layer, function) pairs whose calls and self time the traced run reports.
TRACED = {
    "scene": ["simulate_scenario", "segment_intersects_rect"],
    "ingest": ["save_scenario", "load_scenario", "save_dataset", "load_dataset"],
    "preprocess": ["scenario_centroids", "src_filter", "dbscan", "build_windows",
                   "rasterize_scan"],
    "nn": ["lstm_forward", "lstm_backward", "conv1d_forward", "conv1d_backward",
           "dense_forward", "dense_backward", "sigmoid", "adam_step", "bce_loss",
           "huber_loss"],
    "models": ["train_localization", "train_blockage", "rssi_features",
               "predict_locations_batch", "predict_blockage_probs", "load_model",
               "save_model"],
    "geometry": ["blockage_from_location", "blockage_labels_from_rssi"],
    "evaluation": ["evaluate_blockage", "evaluate_localization", "blockage_table"],
    "cli": ["write_manifest"],
}

# Stage spans the benchmark opens around ``cli.run``; reported as wall time.
CLI_STAGES = ["simulate", "label", "train_localization", "train_rf", "train_rf_lidar",
              "evaluate", "transfer"]

COUNTERS = {
    "scene.frames": "count",
    "scene.lidar_points": "count",
    "ingest.bytes_written": "B",
    "ingest.bytes_read": "B",
    "preprocess.points_in": "count",
    "preprocess.points_kept": "count",
    "preprocess.clusters": "count",
    "preprocess.windows_attempted": "count",
    "preprocess.windows_kept": "count",
    "models.train_steps": "count",
}

RATIOS = {
    "preprocess.points_kept_ratio": ("preprocess.points_kept", "preprocess.points_in"),
    "preprocess.windows_kept_ratio": ("preprocess.windows_kept",
                                      "preprocess.windows_attempted"),
}


def _dir_bytes(path) -> int:
    """Bytes of the data files in an artifact directory (manifest excluded)."""
    return sum(p.stat().st_size for p in Path(path).iterdir()
               if p.is_file() and p.name != "manifest.json")


def _count_simulate(counters, args, kwargs, result):
    counters["scene.frames"] += len(result.frames)
    counters["scene.lidar_points"] += sum(s.points.shape[0] for s in result.scans)


def _count_save(counters, args, kwargs, result):
    counters["ingest.bytes_written"] += _dir_bytes(args[1])


def _count_load(counters, args, kwargs, result):
    counters["ingest.bytes_read"] += _dir_bytes(args[0])


def _count_src_filter(counters, args, kwargs, result):
    counters["preprocess.points_in"] += args[0].points.shape[0]
    counters["preprocess.points_kept"] += result.shape[0]


def _count_dbscan(counters, args, kwargs, result):
    counters["preprocess.clusters"] += len(result[0])


def _count_build_windows(counters, args, kwargs, result):
    bundle, _, window_len, horizon = args[:4]
    counters["preprocess.windows_attempted"] += max(
        0, len(bundle.rssi) - horizon - window_len + 1)
    counters["preprocess.windows_kept"] += len(result)


def _count_train(counters, args, kwargs, result):
    counters["models.train_steps"] += len(result[1].train)


COUNT_HOOKS = {
    "scene.simulate_scenario": _count_simulate,
    "ingest.save_scenario": _count_save,
    "ingest.save_dataset": _count_save,
    "ingest.load_scenario": _count_load,
    "ingest.load_dataset": _count_load,
    "preprocess.src_filter": _count_src_filter,
    "preprocess.dbscan": _count_dbscan,
    "preprocess.build_windows": _count_build_windows,
    "models.train_localization": _count_train,
    "models.train_blockage": _count_train,
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"cli.{stage}.s", "s") for stage in CLI_STAGES]
    for layer, functions in TRACED.items():
        for fn in functions:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    names += list(COUNTERS.items())
    names += [(name, "ratio") for name in RATIOS]
    names.append(("trace.overhead_s", "s"))
    return names


def _blockcast_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "blockcast" or n.startswith("blockcast."))]


def wrappers_left() -> list[str]:
    """Module attributes still bound to a tracing wrapper."""
    return [f"{m.__name__}.{attr}" for m in _blockcast_modules()
            for attr, value in vars(m).items()
            if getattr(value, "traced_by_perfbench", False)]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover. Children may nest, abut or overlap; covered time is counted once."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        s0, e0 = starts[i], ends[i]
        covered = 0.0
        reach = s0
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e0)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append((e0 - s0) - covered)
    return out


class Tracer:
    """In-memory span recorder. One per traced run; not thread-safe (the
    benchmark runs one caller)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(name_id)
        self.op_id.append(self._op)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, op: str | None = None):
        """Context manager for a span the benchmark opens itself; ``op``
        starts a new operation id for every span recorded inside it."""
        return _Span(self, self._name(name), op)

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        """Wrap each TRACED function in every blockcast module attribute
        bound to it."""
        modules = _blockcast_modules()
        for layer, functions in TRACED.items():
            home = sys.modules[f"blockcast.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        nid = self._name(name)
        hook = COUNT_HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.traced_by_perfbench = True
        return wrapper

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls and self time per wrapped function, wall
        time per CLI stage, counters and ratios. Absent work reads 0."""
        out: dict[str, float] = {name: 0 for name, _ in per_layer_names()}
        selfs = self_times(self.start, self.end, self.parent)
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            if name.startswith("cli.") and name[4:] in CLI_STAGES:
                out[f"{name}.s"] += self.end[i] - self.start[i]
            elif f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += selfs[i]
        out.update(self.counters)
        for name, (num, den) in RATIOS.items():
            out[name] = self.counters[num] / self.counters[den] if self.counters[den] else 0.0
        del out["trace.overhead_s"]
        return out

    def dump(self, path) -> None:
        """Write every span as numpy columns (times in seconds since an
        arbitrary origin); names and ops are indexed by ``name`` and ``op``."""
        np.savez(
            path,
            names=np.array(self.names), ops=np.array(self.ops, dtype=str),
            name=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
        )


class _Span:
    def __init__(self, tracer: Tracer, name_id: int, op: str | None):
        self.tracer, self.name_id, self.op = tracer, name_id, op

    def __enter__(self):
        t = self.tracer
        if self.op is not None:
            self._prev_op = t._op
            t._op = len(t.ops)
            t.ops.append(self.op)
        self.sid = t.open(self.name_id)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.close(self.sid)
        if self.op is not None:
            t._op = self._prev_op
        return False


class NullTracer:
    """Stands in for a tracer in the timed runs: opens no spans, wraps nothing."""

    def span(self, name: str, op: str | None = None):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
