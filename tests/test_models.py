import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockcast
from blockcast import cli, models, nn, numeric_environment, preprocess
from blockcast.errors import ConfigMismatchError, NonFiniteError, SchemaError
from blockcast.ingest import DatasetFile
from blockcast.models import (
    SCORE_BLOCK,
    STD_FLOOR,
    NormStats,
    TrainConfig,
    build_model,
    compute_norm_stats,
    forward,
    load_model,
    loss_and_grads,
    power_to_db,
    predict_blockage_probs,
    predict_locations_batch,
    rssi_features,
    save_model,
    train_blockage,
    train_localization,
)
from blockcast.nn import bce_loss, huber_loss
from blockcast.preprocess import WindowSet

ROAD = [-14.0, 4.0, 14.0, 8.0]


def toy_stats(beams):
    return NormStats(
        rssi_mean=np.zeros(beams),
        rssi_std=np.ones(beams),
        road_origin=np.array([-14.0, 4.0]),
        road_size=np.array([28.0, 4.0]),
        lidar_max_range=16.0,
    )


def synth_dataset(n=40, window_len=4, beams=3, horizon=2, bins=13, seed=0,
                  constant_future=None, all_clear=False):
    rng = np.random.default_rng(seed)
    windows, futures, blocked, rasters = [], [], [], []
    for _ in range(n):
        if constant_future is not None:
            future = np.tile(np.asarray(constant_future, dtype=np.float64), (horizon, 1))
        else:
            future = rng.uniform(0.0, 1.0, size=(horizon, 2)) * [28.0, 4.0]
        futures.append(future)
        blocked.append(
            np.zeros(horizon, dtype=bool)
            if all_clear
            else rng.integers(0, 2, size=horizon).astype(bool)
        )
        windows.append(rng.uniform(1e-6, 2.0, size=(window_len, beams)))
        rasters.append(rng.uniform(0.1, 16.0, size=bins))
    futures = np.array(futures)
    # Independent windows: window i is frames rows i * T0 .. i * T0 + T0 - 1.
    labeled = WindowSet(np.arange(n) + window_len - 1, np.arange(n) * window_len, futures,
                        np.array(blocked), np.array(rasters), np.concatenate(windows), window_len)
    cut1, cut2 = int(n * 0.7), int(n * 0.85)
    splits = {
        "train": list(range(cut1)),
        "val": list(range(cut1, cut2)),
        "test": list(range(cut2, n)),
    }
    meta = {"road_region": ROAD, "lidar_max_range": 16.0}
    return DatasetFile(labeled, splits, meta)


def fd_grad(fn, arr, h=1e-5):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        hi = fn()
        arr[idx] = orig - h
        lo = fn()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# Whole-model gradients
# ---------------------------------------------------------------------------

# Each perturbed loss is the cache-free forward plus the loss alone: the
# backward pass of loss_and_grads would be computed and thrown away.

def test_localization_model_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    model = build_model("localization", 4, 3, 2, toy_stats(4), seed=1)
    feats = rng.normal(size=(2, 3, 4))
    targets = rng.uniform(0.0, 1.0, size=(2, 4))
    loss, grads = loss_and_grads(model, feats, targets, delta=1.0)

    def loss_only():
        return huber_loss(forward(model, feats), targets, 1.0)[0]

    assert loss_only() == loss
    for name, arr in model.named_params().items():
        fd = fd_grad(loss_only, arr)
        assert max_rel_err(grads[name], fd) < 1e-4, name


def test_rf_blockage_model_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    model = build_model("rf", 4, 3, 2, toy_stats(4), seed=2)
    feats = rng.normal(size=(2, 3, 4))
    targets = rng.integers(0, 2, size=(2, 2)).astype(np.float64)
    loss, grads = loss_and_grads(model, feats, targets)

    def loss_only():
        return bce_loss(forward(model, feats), targets)[0]

    assert loss_only() == loss
    for name, arr in model.named_params().items():
        fd = fd_grad(loss_only, arr)
        assert max_rel_err(grads[name], fd) < 1e-4, name


def test_rf_lidar_model_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    model = build_model("rf+lidar", 4, 3, 2, toy_stats(4), 13, seed=3)
    feats = rng.normal(size=(2, 3, 4))
    rasters = rng.uniform(0.05, 1.0, size=(2, 13))
    targets = rng.integers(0, 2, size=(2, 2)).astype(np.float64)
    loss, grads = loss_and_grads(model, feats, targets, rasters)

    def loss_only():
        return bce_loss(forward(model, feats, rasters), targets)[0]

    assert loss_only() == loss
    for name, arr in model.named_params().items():
        fd = fd_grad(loss_only, arr)
        assert max_rel_err(grads[name], fd) < 1e-4, name


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_power_to_db_floors_at_minus_120():
    out = power_to_db(np.array([0.0, 1.0, 10.0]))
    np.testing.assert_allclose(out, [-120.0, 0.0, 10.0], atol=1e-12)


def test_norm_stats_standardize_the_training_windows():
    ds = synth_dataset(30)
    train = ds.arrays("train")
    stats = compute_norm_stats(train, ds.meta)
    feats = rssi_features(train.windows(), stats)
    flat = feats.reshape(-1, feats.shape[-1])
    np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-9)


def test_norm_stats_std_is_floored_for_constant_beams():
    ds = synth_dataset(10)
    ds.labeled.frames[:, 1] = 0.5
    stats = compute_norm_stats(ds.arrays("train"), ds.meta)
    assert stats.rssi_std[1] == STD_FLOOR
    assert stats.rssi_std[0] > STD_FLOOR


def test_norm_stats_validation():
    ds = synth_dataset(10)
    with pytest.raises(ValueError):
        compute_norm_stats(ds.labeled.take(slice(0, 0)), ds.meta)
    with pytest.raises(SchemaError):
        compute_norm_stats(ds.arrays("train"), {"lidar_max_range": 16.0})


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(episodes=0)
    with pytest.raises(ValueError):
        TrainConfig(delta=-1.0)


# ---------------------------------------------------------------------------
# Training behavior
# ---------------------------------------------------------------------------

def test_training_is_bit_reproducible():
    cfg = TrainConfig(episodes=2, iterations=5, seed=4)
    a, curves_a = train_localization(synth_dataset(20), cfg)
    b, curves_b = train_localization(synth_dataset(20), cfg)
    for name, arr in a.named_params().items():
        np.testing.assert_array_equal(arr, b.named_params()[name])
    assert curves_a.train == curves_b.train
    assert curves_a.val == curves_b.val

    ra, _ = train_blockage(synth_dataset(20), cfg, "rf")
    rb, _ = train_blockage(synth_dataset(20), cfg, "rf")
    for name, arr in ra.named_params().items():
        np.testing.assert_array_equal(arr, rb.named_params()[name])


# sha256 of the model.json that `blockcast train` writes for each variant on
# the standard config; the session fixtures train the same models in process.
# (float64 text via repr, numpy 2.4 on x86-64, in the numeric environment of
# the README: OpenBLAS's SkylakeX kernel on one thread, numpy's AVX-512 loops.)
STANDARD_MODEL_SHA256 = {
    "trained_localization": "c5c9091bf5d98d69d491fc57f8c27e481a5f21f3e7031d3a458f8e0b6476d7c3",
    "trained_rf": "389e9c29e5ac4726f921023d66287c135963894473fafc9111fc2b032b1d4e8e",
    "trained_lidar": "50c82319ab260322f9fb1c5d78d39304c27072fb4819523e2d3b1fe2c31e0bb9",
}


@pytest.mark.parametrize("fixture", sorted(STANDARD_MODEL_SHA256))
def test_standard_training_writes_the_pinned_checkpoint(request, tmp_path, fixture):
    # A failure names the numeric environment it ran in.
    path = tmp_path / "model.json"
    save_model(request.getfixturevalue(fixture), path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest() == STANDARD_MODEL_SHA256[fixture]
            ), numeric_environment()


# sha256 of what `blockcast evaluate` and the README's 3-rx `blockcast
# transfer` write from those checkpoints, in the same environment.
STANDARD_OUTPUT_SHA256 = {
    "report.txt": "ec0c68dd8db542f78fd214b49c80647f9b48ebd60929c145f5276b1dfe160282",
    "predictions_raw.csv": "76cf6671bfe45a51f686275e6fb46916321c21cc29874e991367d2e1788ebfb1",
    "transfer.csv": "3fbbaafd916ca17c1626770fe0a64aed046a2f076605385549f62a92cea9d2a4",
}


def test_the_standard_checkpoints_evaluate_and_transfer_to_the_pinned_outputs(
        tmp_path, monkeypatch, standard_config, dataset_dir, scenario_dir, trained_localization,
        trained_rf, trained_lidar):
    checkpoints = {}
    for flag, model in (("loc", trained_localization), ("rf", trained_rf),
                        ("lidar", trained_lidar)):
        checkpoints[flag] = [str(tmp_path / f"{flag}.json")]
        save_model(model, checkpoints[flag][0])
    cli.cmd_evaluate(dict(standard_config),
                     {"dataset": str(dataset_dir), "split": "test", **checkpoints}, tmp_path)

    def labeler_called(*args, **kwargs):
        raise AssertionError("transfer ran the LiDAR labeler")
    # transfer scores against truth.csv: it never filters or clusters a scan.
    for module in (preprocess, cli):
        for name in ("scenario_centroids", "src_filter", "_cluster_roots"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, labeler_called)
    cli.cmd_transfer(dict(standard_config),
                     {**checkpoints, "scenario": str(scenario_dir), "loc": checkpoints["loc"][0],
                      "rx_positions": [(4.0, 12.0), (-6.0, 12.0), (8.0, 12.0)]}, tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in STANDARD_OUTPUT_SHA256} == STANDARD_OUTPUT_SHA256, numeric_environment()


def test_curve_lengths_match_schedule():
    cfg = TrainConfig(episodes=3, iterations=7, seed=0)
    _, curves = train_localization(synth_dataset(20), cfg)
    assert len(curves.train) == 21
    assert len(curves.val) == 3


def test_constant_target_is_learned_to_small_val_loss():
    # Noise windows with a fixed label: the net has to learn to ignore its
    # input. Validation Huber plateaus near 3.6e-3 on this data regardless
    # of budget, down from ~0.1 at initialization.
    ds = synth_dataset(50, constant_future=(14.0, 2.0), seed=5)
    _, curves = train_localization(ds, TrainConfig(episodes=5, iterations=100, seed=0))
    assert curves.val[-1] <= 5e-3


def test_first_episode_loss_trend_is_downward(localization_training):
    _, curves = localization_training
    first = np.array(curves.train[:100]).reshape(10, 10).mean(axis=1)
    drops = sum(1 for a, b in zip(first, first[1:]) if b <= a)
    assert drops >= 8, first


def test_all_clear_dataset_drives_probabilities_down():
    ds = synth_dataset(50, all_clear=True, seed=6)
    model, _ = train_blockage(ds, TrainConfig(episodes=4, iterations=100, seed=0), "rf")
    probs = predict_blockage_probs(model, ds.arrays("test"))
    assert float(probs.max()) < 0.1


def test_rf_model_fits_its_training_split(trained_rf, standard_dataset):
    train = standard_dataset.arrays("train")
    probs = predict_blockage_probs(trained_rf, train.windows())
    truth = train.blocked
    acc = float(((probs >= 0.5) == truth).mean())
    assert acc >= 0.9


def test_near_horizon_location_error_is_small(trained_localization, standard_dataset):
    test = standard_dataset.arrays("test")
    pred = predict_locations_batch(trained_localization, test)
    truth = test.futures
    step1 = float(np.linalg.norm(pred[:, 0] - truth[:, 0], axis=1).mean())
    assert step1 <= 1.0


def test_training_validates_inputs():
    ds = synth_dataset(20)
    empty = DatasetFile(ds.labeled, {"train": [], "val": [], "test": []}, ds.meta)
    with pytest.raises(ValueError):
        train_localization(empty)
    with pytest.raises(ValueError):
        train_blockage(ds, variant="fusion")

    tagged = DatasetFile(ds.labeled, ds.splits, dict(ds.meta, horizon=99))
    with pytest.raises(ConfigMismatchError):
        train_localization(tagged, TrainConfig(episodes=1, iterations=1))


@pytest.mark.parametrize("kind", ["localization", "rf", "rf+lidar"])
def test_a_fit_without_a_val_split_is_judged_on_its_train_split(kind):
    ds = synth_dataset(40)
    no_val = DatasetFile(ds.labeled, dict(ds.splits, val=[]), ds.meta)

    def fit(lr):
        cfg = TrainConfig(lr=lr, episodes=2, iterations=5)
        return (train_localization(no_val, cfg) if kind == "localization"
                else train_blockage(no_val, cfg, kind))

    with pytest.raises(NonFiniteError, match=r"diverged in episode 1 of 2 \(train loss .* "
                                             r"above the untrained model's .*lr below 1e\+30"):
        fit(1e30)
    _, curves = fit(1e-3)
    assert len(curves.train) == 10 and curves.val == []


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def test_zeroed_model_predicts_the_road_origin_corner():
    model = build_model("localization", 3, 4, 2, toy_stats(3))
    for arr in model.named_params().values():
        arr[...] = 0.0
    for batch in (1, 3):  # N=2 centroids per window, each at (0, 0) in the road frame
        out = predict_locations_batch(model, np.full((batch, 4, 3), 0.5))
        np.testing.assert_array_equal(out, np.zeros((batch, 2, 2)))


def test_zeroed_blockage_model_is_maximally_unsure():
    model = build_model("rf", 3, 4, 2, toy_stats(3))
    for arr in model.named_params().values():
        arr[...] = 0.0
    probs = predict_blockage_probs(model, np.full((2, 4, 3), 0.5))
    np.testing.assert_array_equal(probs, np.full((2, 2), 0.5))


def test_prediction_shapes_ranges_and_determinism():
    rng = np.random.default_rng(8)
    windows = rng.uniform(1e-6, 2.0, size=(5, 4, 3))
    rasters = rng.uniform(0.1, 16.0, size=(5, 13))

    loc = build_model("localization", 3, 4, 2, toy_stats(3), seed=1)
    out = predict_locations_batch(loc, windows)
    assert out.shape == (5, 2, 2)
    assert np.all(out >= 0.0)
    np.testing.assert_array_equal(out, predict_locations_batch(loc, windows))

    lidar = build_model("rf+lidar", 3, 4, 2, toy_stats(3), 13, seed=1)
    probs = predict_blockage_probs(lidar, windows, rasters)
    assert probs.shape == (5, 2)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_prediction_input_validation():
    loc = build_model("localization", 3, 4, 2, toy_stats(3))
    with pytest.raises(ConfigMismatchError):
        predict_locations_batch(loc, np.zeros((1, 4, 5)))
    with pytest.raises(ConfigMismatchError):
        predict_locations_batch(loc, np.zeros((4, 3)))

    lidar = build_model("rf+lidar", 3, 4, 2, toy_stats(3), 13)
    with pytest.raises(ValueError):
        predict_blockage_probs(lidar, np.zeros((1, 4, 3)))
    with pytest.raises(ConfigMismatchError):
        predict_blockage_probs(lidar, np.zeros((1, 4, 3)), np.zeros((1, 12)))
    for rows in (1, 3):  # one raster per window; a numpy ValueError before blocks
        with pytest.raises(ConfigMismatchError, match="does not match 2 windows"):
            predict_blockage_probs(lidar, np.full((2, 4, 3), 0.5), np.full((rows, 13), 4.0))


def test_the_lidar_model_without_rasters_is_refused_by_every_forward():
    lidar = build_model("rf+lidar", 3, 4, 2, toy_stats(3), 13)
    feats = np.zeros((2, 4, 3))
    needs = "the rf\\+lidar model needs lidar rasters"
    with pytest.raises(ValueError, match=needs):
        predict_blockage_probs(lidar, feats)
    with pytest.raises(ValueError, match=needs):
        forward(lidar, feats)
    with pytest.raises(ValueError, match=needs):
        forward(lidar, feats, caches={})
    with pytest.raises(ValueError, match=needs):
        loss_and_grads(lidar, feats, np.zeros((2, 2)))


@pytest.mark.parametrize("rows", [1, 3])
def test_a_raster_block_of_other_rows_is_refused_by_every_forward(rows):
    # A training step used to end in np.concatenate's ValueError.
    lidar = build_model("rf+lidar", 3, 4, 2, toy_stats(3), 13)
    feats, rasters = np.zeros((2, 4, 3)), np.full((rows, 13), 0.25)
    mismatch = rf"raster shape \({rows}, 13\) does not match 2 windows and model bins 13"
    with pytest.raises(ConfigMismatchError, match=mismatch):
        forward(lidar, feats, rasters)
    with pytest.raises(ConfigMismatchError, match=mismatch):
        loss_and_grads(lidar, feats, np.zeros((2, 2)), rasters)


KINDS = ["localization", "rf", "rf+lidar"]


def predictor(kind, beams=6, window_len=5, horizon=3, bins=40, seed=7):
    """A random-weight model and a predict function over (windows, rasters)."""
    stats = toy_stats(beams)
    stats.rssi_mean[:] = np.linspace(-1.0, 1.0, beams)
    model = build_model(kind, beams, window_len, horizon, stats, bins, seed=seed)
    return model, scorer(model)


def scorer(model):
    """``model``'s predict function over (windows, rasters)."""
    if model.kind == "localization":
        return lambda w, r: predict_locations_batch(model, w)
    if model.kind == "rf":
        return lambda w, r: predict_blockage_probs(model, w)
    return lambda w, r: predict_blockage_probs(model, w, r)


def whole_batch_prediction(model, windows, rasters, caches=None):
    """The prediction through one ``forward`` over every window; given
    ``caches``, through the training forward, which fills them."""
    out = forward(
        model, rssi_features(windows, model.stats),
        rasters / model.stats.lidar_max_range, caches=caches,
    )
    if model.kind == "localization":
        return out.reshape(-1, model.horizon, 2) * model.stats.road_size
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_single_window_forecasts_match_the_batch_and_the_buffered_forward(kind):
    model, predict = predictor(kind)
    rng = np.random.default_rng(12)
    windows = rng.uniform(1e-6, 2.0, size=(9, 5, 6))
    rasters = rng.uniform(0.1, 16.0, size=(9, 40))
    batch = predict(windows, rasters)
    assert batch.tobytes() == whole_batch_prediction(model, windows, rasters, {}).tobytes()
    for i in range(len(windows)):
        w, r = windows[i : i + 1], rasters[i : i + 1]
        one = predict(w, r)
        assert one.tobytes() == whole_batch_prediction(model, w, r, {}).tobytes()
        # BLAS picks its kernel by row count, so a window's result may differ
        # from its row of the batch in the last bits, as the buffered path does.
        np.testing.assert_allclose(one[0], batch[i], rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("batch", [1, 8, 64, 65])
@pytest.mark.parametrize("kind", ["rf", "rf+lidar"])
def test_the_training_forward_leaves_the_caches_of_chained_lstm_layers(kind, batch):
    # A stack runs as one buffered wavefront at every batch size, which keeps
    # layer l's step t on diagonal l + t of its buffers.
    model, _ = predictor(kind, beams=64, window_len=8, horizon=5, bins=360)
    rng = np.random.default_rng(batch)
    feats = rng.normal(size=(batch, 8, 64))
    caches = {}
    forward(model, feats, rng.uniform(0.0, 1.0, size=(batch, 360)), caches=caches)
    seq = np.ascontiguousarray(np.transpose(feats, (1, 0, 2)))
    buffers = caches["lstm"]
    assert buffers.inputs.tobytes() == seq.tobytes()
    for l, name in enumerate(model.names(nn.LstmParams)):
        inputs = seq
        seq, _, want = nn.lstm_forward(model.layers[name], seq)
        if l:
            assert buffers.hidden[l : l + 8, l - 1].tobytes() == inputs.tobytes(), name
        for array, steps in (("gates", 8), ("cells", 9), ("cell_tanh", 8), ("hidden", 9)):
            got = np.ascontiguousarray(getattr(buffers, array)[l : l + steps, l])
            assert got.tobytes() == getattr(want, array).tobytes(), (name, array)


# A model keeps one LSTM plan per storage mode and runs it again while T and
# B hold. Only its buffers are reused: each run must read the weights as
# they are now and give the bytes of a model that has no plan yet.

def planless_twin(model):
    """A model of ``model``'s architecture and current weights, with no plan."""
    twin = build_model(model.kind, model.num_beams, model.window_len, model.horizon,
                       model.stats, model.raster_bins)
    twin.params[:] = model.params
    return twin


def assert_same_forwards(model, feats, rasters):
    """Both forwards of ``model`` give the bytes of a planless twin's, the
    training forward's LSTM buffers too, which it returns."""
    twin = planless_twin(model)
    assert forward(model, feats, rasters).tobytes() == forward(twin, feats, rasters).tobytes()
    got, want = {}, {}
    assert (forward(model, feats, rasters, caches=got).tobytes()
            == forward(twin, feats, rasters, caches=want).tobytes())
    for array in ("inputs", "gates", "cells", "cell_tanh", "hidden"):
        assert (getattr(got["lstm"], array).tobytes()
                == getattr(want["lstm"], array).tobytes()), array
    return got["lstm"]


def train_step(model, opt, feats, rasters, rng):
    """One Adam step of ``model`` on a random batch, its parameters updated in place."""
    width = model.horizon * (2 if model.kind == "localization" else 1)
    targets = rng.integers(0, 2, size=(len(feats), width)).astype(np.float64)
    grad = np.empty_like(model.params)
    loss_and_grads(model, feats, targets, rasters, views=model.views(grad))
    nn.adam_step(opt, model.params, grad)


@pytest.mark.parametrize("kind", KINDS)
def test_a_reused_plan_reads_the_weights_that_adam_updated_in_place(kind):
    # The gate rows that no diagonal reaches stay zero through every run.
    model, _ = predictor(kind, beams=64, window_len=8, horizon=5, bins=360)
    rng = np.random.default_rng(21)
    feats, rasters = rng.normal(size=(8, 8, 64)), rng.uniform(0.0, 1.0, size=(8, 360))
    opt = nn.adam_init(model.params, lr=0.05)
    for _ in range(3):
        forward(model, feats, rasters)
        train_step(model, opt, feats, rasters, rng)
        gates = assert_same_forwards(model, feats, rasters).gates
        for layer in range(1, model.lstm.depth):  # diagonals d < l skip layer l
            assert not gates[:layer, layer].any()
    assert len(model.plans) == (1 if kind == "localization" else 2)


@pytest.mark.parametrize("kind", KINDS)
def test_plans_follow_the_batch_size_through_scoring_and_training(kind):
    model, predict = predictor(kind, beams=64, window_len=8, horizon=5, bins=360)
    rng = np.random.default_rng(22)
    windows = rng.uniform(1e-6, 2.0, size=(64, 8, 64))
    rasters = rng.uniform(0.1, 16.0, size=(64, 360))
    opt = nn.adam_init(model.params, lr=0.05)
    for step, n in enumerate([1, 64, 16, 1, 64]):
        if step == 2:  # a training step between two scoring calls
            feats = rssi_features(windows[:8], model.stats)
            train_step(model, opt, feats, rasters[:8] / model.stats.lidar_max_range, rng)
        want = scorer(planless_twin(model))(windows[:n], rasters[:n])
        assert predict(windows[:n], rasters[:n]).tobytes() == want.tobytes(), n
        assert model.plans[True].shape == (8, n, 64)


@pytest.mark.parametrize("kind", KINDS)
def test_the_backward_plan_is_kept_while_t_and_b_hold_and_replaced_when_they_change(kind):
    model, _ = predictor(kind, beams=64, window_len=8, horizon=5, bins=360)
    rng = np.random.default_rng(24)
    opt = nn.adam_init(model.params, lr=0.05)
    width = model.horizon * (2 if kind == "localization" else 1)
    plans = []
    for steps, batch in [(8, 8), (8, 8), (8, 16), (5, 16), (5, 1), (8, 8)]:
        feats, rasters = rng.normal(size=(batch, steps, 64)), rng.uniform(size=(batch, 360))
        targets = rng.integers(0, 2, size=(batch, width)).astype(np.float64)
        twin = planless_twin(model)
        got, want = np.empty_like(model.params), np.empty_like(model.params)
        loss_and_grads(model, feats, targets, rasters, views=model.views(got))
        loss_and_grads(twin, feats, targets, rasters, views=twin.views(want))
        assert got.tobytes() == want.tobytes(), (steps, batch)
        assert model.backward.shape == (steps, batch, 64)
        plans.append(model.backward)
        nn.adam_step(opt, model.params, got)
    assert plans[1] is plans[0]
    assert len({id(plan) for plan in plans[1:]}) == 5  # a new plan at each change


@pytest.mark.parametrize("kind", KINDS)
def test_a_later_forward_leaves_an_earlier_output_as_it_was(kind):
    model, predict = predictor(kind, beams=64, window_len=8, horizon=5, bins=360)
    rng = np.random.default_rng(23)
    windows = rng.uniform(1e-6, 2.0, size=(2, 8, 64))
    rasters = rng.uniform(0.1, 16.0, size=(2, 360))
    feats = rssi_features(windows, model.stats)
    first, trained = predict(windows[:1], rasters[:1]), forward(model, feats, rasters, caches={})
    kept = first.tobytes(), trained.tobytes()
    predict(windows[1:], rasters[1:])
    forward(model, feats[::-1].copy(), rasters[::-1].copy(), caches={})
    assert (first.tobytes(), trained.tobytes()) == kept
    seq = np.ascontiguousarray(feats.transpose(1, 0, 2))
    top = nn.LstmPlan(model.lstm, seq.shape, rolling=True).run(seq)[0]
    kept = top.tobytes()
    nn.LstmPlan(model.lstm, seq.shape, rolling=True).run(seq[:, ::-1].copy())
    nn.LstmPlan(model.lstm, seq.shape, rolling=False).run(seq[:, ::-1].copy())
    assert top.tobytes() == kept


@pytest.mark.parametrize("n", [1, 2, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1,
                               2 * SCORE_BLOCK + 1, 3 * SCORE_BLOCK + 5])
@pytest.mark.parametrize("shape", [(6, 5, 3, 40), (64, 8, 5, 360)])  # (M, T0, N, bins)
@pytest.mark.parametrize("kind", KINDS)
def test_scoring_in_blocks_equals_one_forward_over_every_window(kind, shape, n):
    beams, window_len, horizon, bins = shape
    model, predict = predictor(kind, beams, window_len, horizon, bins)
    rng = np.random.default_rng(n)
    windows = rng.uniform(1e-6, 2.0, size=(n, window_len, beams))
    rasters = rng.uniform(0.1, 16.0, size=(n, bins))
    got = predict(windows, rasters)
    assert got.tobytes() == whole_batch_prediction(model, windows, rasters).tobytes()


def window_tensor(dataset_dir, dataset: DatasetFile) -> np.ndarray:
    """The (n, T0, M) tensor of every window, as the loader once built it:
    frames.npy rows start_i .. start_i + T0 - 1, where start_i counts the
    covered steps before window i's first (the dataset format's rule)."""
    frames = np.load(dataset_dir / "frames.npy", allow_pickle=False)
    t, window_len = dataset.labeled.t, dataset.meta["window_len"]
    fresh = np.minimum(np.diff(t, prepend=t[0] - window_len), window_len)
    return frames[(np.cumsum(fresh) - window_len)[:, None] + np.arange(window_len)]


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_windows_gathered_per_block_and_per_batch_are_the_window_tensor(
        dataset_dir, standard_dataset, monkeypatch, split):
    want = window_tensor(dataset_dir, standard_dataset)[standard_dataset.splits[split]]
    part = standard_dataset.arrays(split)
    assert part.frames is standard_dataset.labeled.frames
    rows = standard_dataset.subset(split)  # views into the shared frames
    assert all(np.shares_memory(row.window, part.frames) for row in rows)
    assert np.stack([row.window for row in rows]).tobytes() == want.tobytes()

    # Scoring gathers SCORE_BLOCK windows at a time, the last block taking a
    # lone trailing window; rssi_features sees each block's raw windows.
    seen, real = [], models.rssi_features

    def features(windows, *args, **kwargs):
        seen.append(windows.copy())
        return real(windows, *args, **kwargs)
    monkeypatch.setattr(models, "rssi_features", features)
    model = build_model("rf", want.shape[2], want.shape[1], part.blocked.shape[1],
                        compute_norm_stats(part, standard_dataset.meta))
    predict_blockage_probs(model, part)
    assert all(len(block) <= SCORE_BLOCK + 1 for block in seen) and len(seen) > 1
    assert np.concatenate(seen).tobytes() == want.tobytes()
    monkeypatch.setattr(models, "rssi_features", real)
    if split != "train":
        return

    # A training batch gathers its windows from frames standardized once:
    # the bits of standardizing the gathered windows.
    batches, real_step = [], models.loss_and_grads

    def step(model, features, *args, **kwargs):
        batches.append(features.copy())
        return real_step(model, features, *args, **kwargs)
    monkeypatch.setattr(models, "loss_and_grads", step)
    cfg = TrainConfig(episodes=1, iterations=6, seed=3)
    model, _ = train_localization(standard_dataset, cfg)
    rng = np.random.default_rng(cfg.seed)  # _train's only draws: each batch's rows
    for features in batches:
        idx = rng.integers(0, len(part), size=cfg.batch_size)
        assert features.tobytes() == rssi_features(want[idx], model.stats).tobytes()
    assert len(batches) == cfg.iterations


@pytest.mark.parametrize("kind", KINDS)
def test_the_validation_loss_is_that_of_one_forward_over_the_split(standard_dataset, kind):
    # Training scores the validation split in blocks; one episode's loss comes
    # from the final weights.
    cfg = TrainConfig(episodes=1, iterations=5, seed=0)
    if kind == "localization":
        model, curves = train_localization(standard_dataset, cfg)
    else:
        model, curves = train_blockage(standard_dataset, cfg, kind)
    val = standard_dataset.arrays("val")
    assert len(val) > 3 * SCORE_BLOCK + 1
    out = forward(model, rssi_features(val.windows(), model.stats),
                  val.rasters / model.stats.lidar_max_range)
    want = models._loss(model, out, models._targets(model, val), cfg.delta)[0]
    assert np.array(curves.val).tobytes() == np.array([want]).tobytes()


@pytest.fixture(scope="module")
def score_standard(trained_localization, trained_rf, trained_lidar, standard_dataset):
    """Scores every standard window with the three session-trained models."""
    windows, rasters = standard_dataset.labeled, standard_dataset.labeled.rasters
    assert len(windows) == 1488
    return lambda: [predict_locations_batch(trained_localization, windows).tobytes(),
                    predict_blockage_probs(trained_rf, windows).tobytes(),
                    predict_blockage_probs(trained_lidar, windows, rasters).tobytes()]


@pytest.mark.parametrize("block", [4, 8, 100, 256, 1000, 100000])
def test_scoring_the_standard_windows_keeps_its_bits_at_other_block_sizes(
        monkeypatch, score_standard, block):
    # Blocks that start on multiples of 4 keep every bit; at 3, 7 and 255
    # the localization outputs moved (see the models docstring).
    assert SCORE_BLOCK == 64
    want = score_standard()
    monkeypatch.setattr(models, "SCORE_BLOCK", block)
    assert score_standard() == want


def run_without_a_thread_count(args, **env):
    """``python args`` in a fresh process whose environment sets no
    ``OPENBLAS_NUM_THREADS`` and adds ``env``. The directory that holds the
    ``blockcast`` imported here leads its ``PYTHONPATH``, so the child
    imports the same package however this suite was started."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    package_root = str(Path(blockcast.__file__).resolve().parent.parent)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(environ, **env), capture_output=True,
                          text=True, timeout=300, cwd=Path(__file__).resolve().parent.parent)


def test_block_scoring_keeps_its_bits_on_the_haswell_kernel_at_the_default_thread_count():
    # At OpenBLAS's default two threads, its Haswell kernel moved the last bits
    # of trailing blocks of 65 and 69 windows; importing blockcast pins one.
    # The conv property runs there too, at batches of 64 and 65 windows.
    run = run_without_a_thread_count(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         str(Path(__file__).with_name("test_nn.py")),
         "-k", "scoring_in_blocks or unrolled_conv_matches"],
        OPENBLAS_CORETYPE="Haswell")
    assert run.returncode == 0 and "43 passed" in run.stdout, run.stdout[-3000:]


THREADS_AFTER_IMPORT = """
import ctypes, pathlib, numpy
libs = (pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
get = ctypes.CDLL(str(next(libs))).scipy_openblas_get_num_threads64_
before = get()
import blockcast
print(before, get())
"""


@pytest.mark.parametrize("setting, want", [(None, 1), ("2", 2), ("1", 1)])
def test_importing_blockcast_runs_one_blas_thread_unless_the_environment_says(setting, want):
    if not any((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")):
        pytest.skip("numpy ships no scipy-openblas here")
    env = {} if setting is None else {"OPENBLAS_NUM_THREADS": setting}
    run = run_without_a_thread_count(["-c", THREADS_AFTER_IMPORT], **env)
    assert run.returncode == 0, run.stderr
    before, after = map(int, run.stdout.split())
    assert after == want and (setting is None or before == want)


ENVIRONMENT_AFTER_IMPORT = """
import json, blockcast
print(json.dumps(blockcast.numeric_environment()))
"""


def test_the_numeric_environment_names_the_blas_kernel_in_use():
    if not any((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")):
        pytest.skip("numpy ships no scipy-openblas here")
    here = numeric_environment()
    assert here["blas_threads"] >= 1 and here["blas_core"] and here["blas_config"]
    assert here["simd"] and all(isinstance(name, str) for name in here["simd"])
    run = run_without_a_thread_count(["-c", ENVIRONMENT_AFTER_IMPORT],
                                     OPENBLAS_CORETYPE="Haswell")
    assert run.returncode == 0, run.stderr
    forced = json.loads(run.stdout)
    assert forced["blas_core"] == "Haswell" and forced["blas_threads"] == 1
    assert forced["simd"] == here["simd"]


@pytest.mark.parametrize("block", [6, 0])
@pytest.mark.parametrize("kind", KINDS)
def test_a_score_block_outside_its_domain_is_refused(monkeypatch, kind, block):
    _, predict = predictor(kind)
    rng = np.random.default_rng(0)
    windows = rng.uniform(1e-6, 2.0, size=(9, 5, 6))
    rasters = rng.uniform(0.1, 16.0, size=(9, 40))
    monkeypatch.setattr(models, "SCORE_BLOCK", block)
    with pytest.raises(ValueError, match=f"SCORE_BLOCK must be a positive multiple of 4, "
                                         f"not {block}$"):
        predict(windows, rasters)


def test_rf_lidar_scoring_memory_does_not_grow_with_the_drive(traced_peak_mib):
    """Scoring the 1488 windows of the standard drive peaked at 61.1 MiB
    above its inputs when every window went through one forward pass, and
    4x the windows at 4x that. In blocks, only the (B, N) output grows."""
    model, predict = predictor("rf+lidar", beams=64, window_len=8, horizon=5, bins=360)
    rng = np.random.default_rng(4)
    windows = rng.uniform(1e-6, 2.0, size=(1488, 8, 64))
    rasters = rng.uniform(0.1, 16.0, size=(1488, 360))
    one = traced_peak_mib(lambda: predict(windows, rasters))
    windows, rasters = np.tile(windows, (4, 1, 1)), np.tile(rasters, (4, 1))
    four = traced_peak_mib(lambda: predict(windows, rasters))
    assert four <= 1.1 * one


@pytest.mark.parametrize("kind", KINDS)
def test_a_non_finite_window_is_rejected_by_every_predictor(kind):
    _, predict = predictor(kind)
    windows = np.full((2, 5, 6), 0.5)
    rasters = np.full((2, 40), 4.0)
    windows[1, 2, 3] = math.nan
    with pytest.raises(NonFiniteError, match="lstm input"):
        predict(windows, rasters)
    if kind == "rf+lidar":
        windows[1, 2, 3] = 0.5
        rasters[0, 7] = math.inf
        with pytest.raises(NonFiniteError, match="conv output"):
            predict(windows, rasters)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["localization", "rf", "rf+lidar"])
def test_model_checkpoint_round_trip_is_bitwise(tmp_path, kind):
    stats = toy_stats(3)
    stats.rssi_mean[:] = [0.3, -1.2, math.pi]
    if kind == "localization":
        model = build_model("localization", 3, 4, 2, stats, seed=9)
    elif kind == "rf":
        model = build_model("rf", 3, 4, 2, stats, seed=9)
    else:
        model = build_model("rf+lidar", 3, 4, 2, stats, 13, seed=9)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert type(loaded) is type(model)
    assert loaded.kind == model.kind
    assert loaded.raster_bins == model.raster_bins
    assert (loaded.window_len, loaded.horizon) == (4, 2)
    for name, arr in model.named_params().items():
        np.testing.assert_array_equal(loaded.named_params()[name], arr)
    np.testing.assert_array_equal(loaded.stats.rssi_mean, stats.rssi_mean)

    rng = np.random.default_rng(0)
    windows = rng.uniform(1e-6, 2.0, size=(3, 4, 3))
    if kind == "localization":
        np.testing.assert_array_equal(
            predict_locations_batch(loaded, windows),
            predict_locations_batch(model, windows),
        )
    elif kind == "rf":
        np.testing.assert_array_equal(
            predict_blockage_probs(loaded, windows),
            predict_blockage_probs(model, windows),
        )


@pytest.mark.parametrize("kind", KINDS)
def test_every_parameter_is_a_view_of_the_model_vector(tmp_path, kind):
    model = build_model(kind, 3, 4, 2, toy_stats(3), 13, seed=5)
    path = tmp_path / "model.json"
    save_model(model, path)
    for m in (model, load_model(path)):
        live = m.named_params()
        assert m.params.dtype == np.float64 and m.params.ndim == 1
        assert m.params.size == sum(arr.size for arr in live.values())
        for name, arr in live.items():
            assert np.shares_memory(arr, m.params), name
        # the views tile the vector in named_params() order
        assert m.params.tobytes() == np.concatenate([a.ravel() for a in live.values()]).tobytes()
    np.testing.assert_array_equal(m.params, model.params)
    m.params[:] = 0.0  # a write through the vector reaches every layer
    assert not any(arr.any() for arr in m.named_params().values())


def offset(arr, vector):
    """Where ``arr`` starts in ``vector``, in elements."""
    return (arr.__array_interface__["data"][0] - vector.__array_interface__["data"][0]) // 8


@pytest.mark.parametrize("kind", KINDS)
def test_the_model_owns_its_lstm_weights_stacked(tmp_path, kind):
    model = build_model(kind, 3, 4, 2, toy_stats(3), 13, seed=5)
    model.params[:] = np.random.default_rng(0).normal(size=model.params.size)
    stack, lstm = model.lstm, [model.layers[n] for n in model.names(nn.LstmParams)]
    depth, hid = len(lstm), 16 if kind != "localization" else 32
    assert (stack.depth, stack.input_size, stack.hidden_size) == (depth, 3, hid)
    # w_in0, then w_in (L - 1, H, 4H), w_rec (L, H, 4H) and bias (L, 4H): each
    # one contiguous block of the vector, whose rows are the layers' arrays
    blocks = [stack.w_in0, stack.w_in, stack.w_rec, stack.bias]
    start = 0
    for block in blocks:
        assert block.flags.c_contiguous
        if block.size:  # one layer has no w_in block
            assert np.shares_memory(block, model.params) and offset(block, model.params) == start
        start += block.size
    for l, p in enumerate(lstm):
        for arr, row in ((p.w_in, stack.w_in0 if l == 0 else stack.w_in[l - 1]),
                         (p.w_rec, stack.w_rec[l]), (p.bias, stack.bias[l])):
            assert np.shares_memory(arr, model.params)
            assert arr.shape == row.shape and offset(arr, model.params) == offset(row, model.params)
    # a checkpoint loads into the same layout and saves back byte for byte
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    loaded = load_model(first)
    assert loaded.params.tobytes() == model.params.tobytes()
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    # one Adam step over the vector is one update per named array
    rng = np.random.default_rng(1)
    grad = rng.normal(size=model.params.size)
    want = {}
    for name, arr in model.named_params().items():
        g = model.views(grad)[0][name]
        m, v = (1.0 - nn.ADAM_BETA1) * g, (1.0 - nn.ADAM_BETA2) * g**2
        step = 1e-3 * (m / (1.0 - nn.ADAM_BETA1)) / (np.sqrt(v / (1.0 - nn.ADAM_BETA2))
                                                     + nn.ADAM_EPS)
        want[name] = arr - step
    nn.adam_step(nn.adam_init(model.params), model.params, grad)
    for name, arr in model.named_params().items():
        assert arr.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize(
    "kind, checkpoint_kind, names",
    [
        ("localization", "localization", [
            "dense1.bias", "dense1.weight", "dense2.bias", "dense2.weight",
            "lstm.bias", "lstm.w_in", "lstm.w_rec",
        ]),
        ("rf", "rf-blockage", [
            "head.bias", "head.weight",
            "lstm0.bias", "lstm0.w_in", "lstm0.w_rec",
            "lstm1.bias", "lstm1.w_in", "lstm1.w_rec",
            "lstm2.bias", "lstm2.w_in", "lstm2.w_rec",
            "lstm3.bias", "lstm3.w_in", "lstm3.w_rec",
        ]),
        ("rf+lidar", "rf+lidar-blockage", [
            "conv1.bias", "conv1.weight", "conv2.bias", "conv2.weight",
            "head.bias", "head.weight",
            "lstm0.bias", "lstm0.w_in", "lstm0.w_rec",
            "lstm1.bias", "lstm1.w_in", "lstm1.w_rec",
        ]),
    ],
)
def test_checkpoint_names_and_kind_are_pinned(tmp_path, kind, checkpoint_kind, names):
    model = build_model(kind, 3, 4, 2, toy_stats(3), 13)
    assert sorted(model.named_params()) == names
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["descriptor"]["kind"] == checkpoint_kind
    assert sorted(payload["params"]) == names


def test_checkpoint_kind_and_params_are_checked(tmp_path):
    model = build_model("rf", 3, 4, 2, toy_stats(3))
    path = tmp_path / "model.json"
    save_model(model, path)

    payload = json.loads(path.read_text())
    payload["descriptor"]["kind"] = "mystery"
    bad = tmp_path / "bad_kind.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        load_model(bad)

    payload = json.loads(path.read_text())
    del payload["params"]["head.bias"]
    bad2 = tmp_path / "bad_params.json"
    bad2.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        load_model(bad2)


def test_save_model_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "x.json")


# Traced-peak bounds in MiB, read by kind so that a tightening renames no test.
FIT_PEAK_BOUNDS = {"localization": 4.75, "rf": 5.3, "rf+lidar": 8.65}


@pytest.mark.parametrize("kind", FIT_PEAK_BOUNDS)
def test_a_fit_keeps_its_splits_as_views_of_the_loaded_dataset(
        standard_dataset, traced_peak_mib, kind):
    """A 1-episode fit on the standard dataset peaks at 4.13 MiB
    (localization), 4.61 (rf) and 7.52 MiB (rf+lidar) under tracemalloc
    above the loaded dataset: in compute_norm_stats' one buffer (the train
    windows' rows, gathered) or in the val scoring of the fit and of the
    untrained model, which gathers one block of windows at a time; rf+lidar
    holds its normalized train rasters throughout. The bounds are about 15%
    above. When the train windows were standardized up front as (n, T0, M)
    features and the stats took a centred copy, the fits peaked at 8.20,
    8.20 and 10.78 MiB; when ``DatasetFile.arrays`` also copied each split,
    at 15.49, 16.40 and 19.30 MiB."""
    cfg = TrainConfig(episodes=1, iterations=20, seed=0)
    bound = FIT_PEAK_BOUNDS[kind]
    if kind == "localization":
        assert traced_peak_mib(lambda: train_localization(standard_dataset, cfg)) < bound
    else:
        assert traced_peak_mib(lambda: train_blockage(standard_dataset, cfg, kind)) < bound


def test_batch_forward_over_the_whole_drive_keeps_no_dead_intermediates(
    trained_lidar, trained_rf, standard_dataset, traced_peak_mib
):
    """rf+lidar on all 1488 windows peaks at 2.49 MiB under tracemalloc in
    blocks of SCORE_BLOCK = 64 windows, with the conv forward unrolling 8
    windows at a time. The bound is 15% above that peak: array sizes fix
    the peak exactly. Earlier forms peaked higher: 3.03 MiB with the
    tap-wise conv (under the old 3.5 MiB bound), 3.97 MiB unrolling all 64
    windows at once, 11.9 MiB in blocks of 256 windows (10.6 MiB there
    when no block ran as a wavefront), 61.1 MiB in one pass, and 76.1 MiB
    when conv and dense outputs stayed in a throwaway dict and ReLU and the
    conv taps allocated.

    The four-layer rf model peaks at 1.53 MiB, its LSTM keeping rolling
    (L, B, ·) states and one (T0, B, 4H) pre-activation buffer; the bound is
    15% above that, so neither can grow with the depth or T0 unnoticed. It
    peaked at 2.65 MiB when the cache-free wavefront kept every diagonal's
    pre-activations."""
    windows, rasters = standard_dataset.labeled, standard_dataset.labeled.rasters
    assert traced_peak_mib(lambda: predict_blockage_probs(trained_lidar, windows, rasters)) < 2.86
    assert traced_peak_mib(lambda: predict_blockage_probs(trained_rf, windows)) < 1.76
