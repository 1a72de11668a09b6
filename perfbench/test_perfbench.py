"""Tests of the benchmark's own helpers (no workload is run here)."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize(
    "n, q, reported",
    [
        (100, 0.9, True),    # exactly 10 samples beyond p90
        (99, 0.9, False),
        (20, 0.5, True),
        (19, 0.5, False),
        (1000, 0.99, True),
        (999, 0.99, False),
        (0, 0.5, False),
    ],
)
def test_percentile_needs_ten_samples_beyond(n, q, reported):
    value = measure.percentile(list(range(n)), q)
    assert (value is not None) == reported
    if reported:
        assert sum(v > value for v in range(n)) >= measure.MIN_TAIL


def test_percentile_value_is_a_sample():
    values = [float(v) for v in range(1, 101)]
    assert measure.percentile(values, 0.5) == 50.0
    assert measure.percentile(values, 0.9) == 90.0
    assert measure.percentile(list(reversed(values)), 0.9) == 90.0


def test_latency_summary_reports_ms_and_count():
    summary = measure.latency_summary([0.001] * 50)
    assert summary == {"p50": 1.0, "p90": None, "p99": None, "n": 50}


def test_self_time_subtracts_nested_and_back_to_back_children():
    #   0: [0, 10]  root
    #   1: [1, 4]   child of 0, holding 2
    #   2: [2, 3]   grandchild, inside 1: must not be subtracted from 0 twice
    #   3: [4, 6]   child of 0, starts where 1 ends
    #   4: [6, 7]   child of 0, back to back with 3
    starts = [0.0, 1.0, 2.0, 4.0, 6.0]
    ends = [10.0, 4.0, 3.0, 6.0, 7.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracer.self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0]
    assert tracer.self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import blockcast
    from blockcast import models, nn

    originals = {
        "nn.sigmoid": nn.sigmoid,
        "nn.lstm_forward": nn.lstm_forward,
        "models.lstm_forward": models.lstm_forward,
        "models.load_model": models.load_model,
        "blockcast.load_model": blockcast.load_model,
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert nn.sigmoid is not originals["nn.sigmoid"]
        assert models.lstm_forward is not originals["models.lstm_forward"]
        assert blockcast.load_model is not originals["blockcast.load_model"]
        assert tracer.wrappers_left()
        p = nn.lstm_init(np.random.default_rng(0), 3, 2)
        with t.span("cli.evaluate", op="op0"):
            models.lstm_forward(p, np.zeros((4, 1, 3)))
    finally:
        t.restore()

    assert nn.sigmoid is originals["nn.sigmoid"]
    assert nn.lstm_forward is originals["nn.lstm_forward"]
    assert models.lstm_forward is originals["models.lstm_forward"]
    assert models.load_model is originals["models.load_model"]
    assert blockcast.load_model is originals["blockcast.load_model"]
    assert tracer.wrappers_left() == []

    m = t.metrics()
    assert m["nn.lstm_forward.calls"] == 1
    assert m["nn.sigmoid.calls"] == 3 * 4  # three gates per step, reached via nn's global
    assert m["cli.evaluate.s"] > 0
    lstm = t.names.index("nn.lstm_forward")
    sig = t.names.index("nn.sigmoid")
    lstm_span = list(t.name_id).index(lstm)
    assert all(t.parent[i] == lstm_span for i, n in enumerate(t.name_id) if n == sig)
    assert set(t.op_id) == {0} and t.ops == ["op0"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == tracer.per_layer_names()
    names = [m["name"] for m in spec["end_to_end"]] + [n for n, _ in per_layer]
    assert len(names) == len(set(names))
    bad = [n for n in names if not measure.valid_metric_name(n)]
    assert bad == []
    assert not measure.valid_metric_name("acc_rf+lidar")
    assert "setup_s" in names

