"""blockcast benchmark: one workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 6 --trace 0

Workloads (``workloads.py`` says why each exists and how the host's CPU
stalls are handled):

- ``pipeline``: the README quick start through ``cli.run`` (simulate, label,
  train x3, evaluate, transfer), then single-window forecasts over the test
  split for ``--seconds``, then simulate + label and evaluate + transfer
  twice more;
- ``stream``: set-up simulates, labels and fits the three models on a short
  schedule; the job is single-window forecasts, three models interleaved,
  over every window of the drive for ``--seconds``; simulate + label, the
  short fit and evaluate + transfer are then repeated.

``--seed`` (default 7, the config's ``seed``) is the simulated drive's
seed; hold out a second seed (e.g. 8) for claim checks.

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json`` with no wrapper installed; times are rescaled to a
fixed CPU speed (``speed.py``) and the raw wall times go to the record.
With ``--trace 1`` it runs the job once untraced, then once with every
listed blockcast function wrapped (``tracer.py``), restores the
originals, and reports the per-layer metrics (raw wall times) plus
``trace.overhead_s``. Either way it prints every
metric with its unit, the run's record (artifact hashes and sizes, the
``src/`` line count, the environment) and, last, one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Output checks count in
``failed``; a failed CLI stage ends the run with exit code 1.

Scratch files go to ``.bench_work/`` under the repository root and are
removed at exit; the result record and the spans of traced runs stay in
``.bench_work/results/``.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, blockcast.cli; "
                "from blockcast.config import resolve_config; resolve_config(); "
                "t = time.perf_counter() - t; import speed; "
                "print(t / speed.SpeedProbe().factor_now())")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread: the matrices are small, and on a shared machine a second
# thread adds run-to-run spread rather than speed.
BLAS_THREADS = 1
# Stage times of the standard config at the ROADMAP re-anchor (manifest
# ``wall_clock_seconds``, 2 cores, Python 3.11, numpy 2.4).
BASELINE_STAGE_S = {"simulate": 1.18, "label": 2.43, "train_localization": 3.74,
                    "train_rf": 5.68, "train_rf_lidar": 10.40, "evaluate": 0.95,
                    "transfer": 4.07}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "stream"])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=int, default=6,
                        help="length of the single-window forecast loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def import_seconds() -> float:
    """Imports and config resolution in a fresh interpreter, timed and
    rescaled inside it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def file_sizes(wl) -> dict:
    return {"rssi.csv": (wl.scene / "rssi.csv").stat().st_size,
            "lidar.csv": (wl.scene / "lidar.csv").stat().st_size,
            "samples.csv": (wl.data / "samples.csv").stat().st_size}


def end_to_end(sess, wl, latency: dict, imports_s: float) -> dict:
    acc = sess.info["accuracy"]
    medians = {phase: statistics.median(values) for phase, values in sess.phases.items()}
    out = {
        "setup_s": imports_s + sum(medians[p] for p in wl.SETUP_PHASES),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_loc": acc["localization"],
        "acc_rf": acc["rf"],
        "acc_rf_lidar": acc["rf+lidar"],
        "transfer_acc_loc": statistics.fmean(sess.info["transfer_localization"]["moved"]),
        **medians,
    }
    for model, summary in latency.items():
        for q in ("p50", "p90"):
            out[f"{model}_{q}_ms"] = summary[q]
    return out


def run_timed(workloads, tracer_mod, name: str, seed: int, seconds: int, work: Path,
              imports_s: float):
    sess = workloads.Session(seed, tracer_mod.NullTracer())
    wl = workloads.WORKLOADS[name](sess, work)
    # Set-up is imports and config: repeated in fresh interpreters.
    imports = [imports_s] + [import_seconds() for _ in range(workloads.REPEATS - 1)]
    sess.info["imports_s"] = imports
    speed = sess.speed
    speed.start()
    try:
        wl.setup()
        wl.job(work / "job", seconds)
        latency = wl.epilogue(seconds)
    finally:
        speed.stop()
    sess.info["latency_ms"] = latency
    sess.info["phase_s"] = sess.phases
    sess.info["file_bytes"] = file_sizes(wl)
    return sess, end_to_end(sess, wl, latency, statistics.median(imports))


def run_traced(workloads, tracer_mod, name: str, seed: int, work: Path, spans_path: Path):
    sess = workloads.Session(seed, tracer_mod.NullTracer())
    wl = workloads.WORKLOADS[name](sess, work)
    speed = sess.speed
    wl.setup()
    speed.start()
    try:
        t0 = time.perf_counter()
        wl.job(work / "untraced", None)
        t1 = time.perf_counter()
        tracer = tracer_mod.Tracer()
        sess.tracer = tracer
        tracer.install()
        try:
            t2 = time.perf_counter()
            wl.job(work / "traced", None)
            t3 = time.perf_counter()
        finally:
            tracer.restore()
            sess.tracer = tracer_mod.NullTracer()
    finally:
        speed.stop()
    sess.check(not tracer_mod.wrappers_left(), "tracing wrappers remain after restore")
    tracer.dump(spans_path)
    metrics = tracer.metrics()
    # Both job times rescaled, like the timed run's metrics; spans are raw.
    metrics["trace.overhead_s"] = speed.scaled(t2, t3) - speed.scaled(t0, t1)
    sess.info["job_wall_s"] = {"untraced": t1 - t0, "traced": t3 - t2}
    sess.info["file_bytes"] = file_sizes(wl)
    return sess, metrics


def stage_table(sess) -> list[str]:
    walls = sess.info.get("manifest_wall_s", {})
    lines = ["stage               median_s  baseline_s  ratio"]
    for stage, base in BASELINE_STAGE_S.items():
        if stage in walls:
            med = statistics.median(walls[stage])
            flag = "  (off by more than 25%)" if abs(med / base - 1) > 0.25 else ""
            lines.append(f"{stage:<18}  {med:8.3f}  {base:10.2f}  {med / base:5.2f}{flag}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockcast" / "__init__.py").is_file():
        print(f"error: blockcast sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("BLOCKCAST_CONFIG", None)  # the standard config only
    sys.path.insert(0, str(SRC))

    import tracer as tracer_mod
    import workloads

    workloads.resolve_config()
    imports_s = time.perf_counter() - T_START
    imports_s /= workloads.SpeedProbe().factor_now()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            sess, measured = run_traced(workloads, tracer_mod, args.workload, args.seed,
                                        work, results / f"{tag}-spans.npz")
        else:
            sess, measured = run_timed(workloads, tracer_mod, args.workload, args.seed,
                                       args.seconds, work, imports_s)
    except workloads.StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if measured.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    sess.info.update(environment=environment(), src_lines=src_lines(),
                     failures=sess.failures)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {sess.failed / sess.attempted:>14.6g} "
          f"({sess.failed}/{sess.attempted})")
    if not args.trace and args.workload == "pipeline":
        print("\n".join(stage_table(sess)))
    print("record " + json.dumps(sess.info, sort_keys=True, default=str))
    result = {"correct": sess.failed == 0, "attempted": sess.attempted,
              "failed": sess.failed, "metrics": metrics}
    (results / f"{tag}.json").write_text(
        json.dumps({"result": result, "record": sess.info}, indent=1, default=str),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
