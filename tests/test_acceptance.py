"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS line with
the numbers that justify it; a failed assertion is the FAIL line. The
heavier tests share trained models through module fixtures so the suite
trains each configuration only once.
"""

import json
import math
import time

import numpy as np
import pytest

from blockcast import cli
from blockcast.config import resolve_config
from blockcast.geometry import LinkGeometry, blockage_from_location
from blockcast.models import (
    TrainConfig,
    build_model,
    loss_and_grads,
    predict_locations_batch,
    save_model,
    train_blockage,
    train_localization,
)
from blockcast.models import NormStats
from blockcast.nn import (
    bce_loss,
    conv1d_backward,
    conv1d_forward,
    conv1d_init,
    dense_backward,
    dense_forward,
    dense_init,
    huber_loss,
    lstm_backward,
    lstm_forward,
    lstm_init,
)
from blockcast.preprocess import Centroid, DbscanConfig, dbscan

SWEPT_RX = [(4.0, 12.0), (-6.0, 12.0), (8.0, 12.0), (-10.0, 12.0), (2.0, 12.0)]


def fd_grad_entry(fn, arr, idx, h=1e-5):
    orig = arr[idx]
    arr[idx] = orig + h
    hi = fn()
    arr[idx] = orig - h
    lo = fn()
    arr[idx] = orig
    return (hi - lo) / (2.0 * h)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def toy_stats(beams):
    return NormStats(
        rssi_mean=np.zeros(beams),
        rssi_std=np.ones(beams),
        road_origin=np.array([-14.0, 4.0]),
        road_size=np.array([28.0, 4.0]),
        lidar_max_range=16.0,
    )


def road_link(threshold):
    return LinkGeometry((14.0, -4.0), (14.0, 8.0), 4.0, threshold)


def geometric_flags(coords, link):
    flags = np.zeros(coords.shape[:2], dtype=bool)
    for i in range(coords.shape[0]):
        for k in range(coords.shape[1]):
            flags[i, k] = blockage_from_location(
                Centroid(0, float(coords[i, k, 0]), float(coords[i, k, 1])), link
            )
    return flags


@pytest.fixture(scope="module")
def standard_models(standard_dataset):
    """The three predictors at the default training budget, plus how long
    the training took."""
    start = time.perf_counter()
    loc, _ = train_localization(standard_dataset, TrainConfig(seed=0))
    rf, _ = train_blockage(standard_dataset, TrainConfig(seed=0), "rf")
    lidar, _ = train_blockage(standard_dataset, TrainConfig(seed=0), "rf+lidar")
    elapsed = time.perf_counter() - start
    return loc, rf, lidar, elapsed


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradients():
    start = time.perf_counter()
    worst = 0.0

    for seed in range(10):
        rng = np.random.default_rng(seed)

        # dense layer, every entry
        p = dense_init(rng, 5, 4)
        p.bias[:] = rng.normal(size=4)
        x = rng.normal(size=(3, 5))
        probe = rng.normal(size=(3, 4))
        _, cache = dense_forward(p, x)
        _, grads = dense_backward(p, probe, cache)

        def dense_obj():
            return float((dense_forward(p, x)[0] * probe).sum())

        for name, arr in (("weight", p.weight), ("bias", p.bias)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                worst = max(worst, rel_err(grads[name][idx], fd_grad_entry(dense_obj, arr, idx)))

        # lstm layer, every entry
        lp = lstm_init(rng, 4, 5)
        seq = rng.normal(size=(3, 2, 4))
        lprobe = rng.normal(size=(3, 2, 5))
        _, _, lcache = lstm_forward(lp, seq)
        _, lgrads = lstm_backward(lp, lprobe, lcache)

        def lstm_obj():
            return float((lstm_forward(lp, seq)[0] * lprobe).sum())

        for name, arr in (("w_in", lp.w_in), ("w_rec", lp.w_rec), ("bias", lp.bias)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                worst = max(worst, rel_err(lgrads[name][idx], fd_grad_entry(lstm_obj, arr, idx)))

        # strided conv layer, every entry
        cp = conv1d_init(rng, 2, 3, 4, stride=2)
        cp.bias[:] = rng.normal(size=3)
        cx = rng.normal(size=(2, 2, 9))
        cy, ccache = conv1d_forward(cp, cx)
        cprobe = rng.normal(size=cy.shape)
        _, cgrads = conv1d_backward(cp, cprobe, ccache)

        def conv_obj():
            return float((conv1d_forward(cp, cx)[0] * cprobe).sum())

        for name, arr in (("weight", cp.weight), ("bias", cp.bias)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                worst = max(worst, rel_err(cgrads[name][idx], fd_grad_entry(conv_obj, arr, idx)))

        # full models, sampled entries per parameter array
        feats = rng.normal(size=(2, 3, 4))
        rasters = rng.uniform(0.05, 1.0, size=(2, 13))
        loc_targets = rng.uniform(0.0, 1.0, size=(2, 4))
        cls_targets = rng.integers(0, 2, size=(2, 2)).astype(np.float64)

        loc = build_model("localization", 4, 3, 2, toy_stats(4), seed=seed)
        rf = build_model("rf", 4, 3, 2, toy_stats(4), seed=seed)
        lidar = build_model("rf+lidar", 4, 3, 2, toy_stats(4), 13, seed=seed)
        cases = [
            (loc, lambda: loss_and_grads(loc, feats, loc_targets, delta=1.0)),
            (rf, lambda: loss_and_grads(rf, feats, cls_targets)),
            (lidar, lambda: loss_and_grads(lidar, feats, cls_targets, rasters)),
        ]
        for model, closure in cases:
            _, grads = closure()
            for name, arr in model.named_params().items():
                flat = rng.choice(arr.size, size=min(3, arr.size), replace=False)
                for k in flat:
                    idx = np.unravel_index(int(k), arr.shape)
                    fd = fd_grad_entry(lambda: closure()[0], arr, idx)
                    worst = max(worst, rel_err(grads[name][idx], fd))

    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, worst
    assert elapsed < 60.0, elapsed
    print(
        f"PASS criterion 1: gradients within 1e-4 of finite differences "
        f"(worst rel err {worst:.2e}, 10 seeds, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 2. Clustering vs a naive reference
# ---------------------------------------------------------------------------

def reference_dbscan(points, eps, min_pts):
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    within = d2 <= eps * eps
    core = within.sum(axis=1) >= min_pts

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    core_idx = np.flatnonzero(core)
    sub = within[np.ix_(core_idx, core_idx)]
    for a, b in zip(*np.nonzero(np.triu(sub, k=1))):
        ra, rb = find(int(core_idx[a])), find(int(core_idx[b]))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    comp: dict[int, list[int]] = {}
    for c in core_idx:
        comp.setdefault(find(int(c)), []).append(int(c))
    roots = sorted(comp)
    clusters = [list(comp[r]) for r in roots]
    noise = []
    for i in range(n):
        if core[i]:
            continue
        hosts = [k for k, r in enumerate(roots) if any(within[i, c] for c in comp[r])]
        if hosts:
            clusters[hosts[0]].append(i)
        else:
            noise.append(i)
    return [sorted(c) for c in clusters], sorted(noise)


def test_criterion_2_clustering_equivalence():
    start = time.perf_counter()
    params = [(0.8, 3), (1.5, 4), (2.5, 6)]
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        blobs = [
            rng.normal(loc=rng.uniform(-10, 10, size=2), scale=rng.uniform(0.4, 1.2),
                       size=(50, 2))
            for _ in range(3)
        ]
        noise = rng.uniform(-12, 12, size=(50, 2))
        pts = np.concatenate(blobs + [noise])
        rng.shuffle(pts)
        assert pts.shape == (200, 2)
        eps, min_pts = params[case % len(params)]
        got = dbscan(pts, DbscanConfig(eps=eps, min_pts=min_pts))
        want = reference_dbscan(pts, eps, min_pts)
        assert got == want, f"case {case}: partition mismatch (eps={eps}, min_pts={min_pts})"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    print(
        f"PASS criterion 2: clustering matches the naive reference on "
        f"100 sets of 200 points ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 3. Geometric test vs dense sampling, plus invariances
# ---------------------------------------------------------------------------

def test_criterion_3_geometry():
    rng = np.random.default_rng(42)
    samples = 20001
    step = 1.0 / (samples - 1)
    t = np.linspace(0.0, 1.0, samples)
    blocked_count = 0
    for _ in range(1000):
        tx = rng.uniform(-20.0, 20.0, size=2)
        rx = tx + np.array(
            [rng.uniform(-15.0, 15.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 15.0)]
        )
        w = rng.uniform(0.5, 6.0)
        link = LinkGeometry(tuple(tx), tuple(rx), object_width=w)
        lo_x, hi_x = sorted((tx[0], rx[0]))
        lo_y, hi_y = sorted((tx[1], rx[1]))
        where = Centroid(
            0,
            rng.uniform(lo_x - 5.0, hi_x + 5.0),
            rng.uniform(lo_y - 2.0, hi_y + 2.0),
        )
        got = blockage_from_location(where, link)
        blocked_count += got

        px = tx[0] + t * (rx[0] - tx[0])
        py = tx[1] + t * (rx[1] - tx[1])
        near = np.abs(py - where.y) <= 0.5 * abs(rx[1] - tx[1]) * step + 1e-12
        ref = bool(np.any(near & (np.abs(px - where.x) <= w / 2.0)))
        if got != ref:
            dy = rx[1] - tx[1]
            along = (where.y - tx[1]) / dy
            crossing = tx[0] + along * (rx[0] - tx[0])
            m_along = min(abs(along), abs(along - 1.0))
            m_across = abs(abs(crossing - where.x) - w / 2.0)
            assert (
                m_along <= 2.0 * step
                or m_across <= 2.0 * (abs(rx[0] - tx[0]) + 1.0) * step
            ), (link, where, got, ref)
    assert 100 < blocked_count < 900

    flips = {"translation": 0, "swap": 0, "width": 0}
    for _ in range(1000):
        tx = rng.uniform(-10.0, 10.0, size=2)
        rx = tx + np.array(
            [rng.uniform(-8.0, 8.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0)]
        )
        w = rng.uniform(0.5, 4.0)
        where = rng.uniform(-12.0, 12.0, size=2)
        base = blockage_from_location(
            Centroid(0, *where), LinkGeometry(tuple(tx), tuple(rx), object_width=w)
        )

        shift = rng.uniform(-50.0, 50.0, size=2)
        moved = blockage_from_location(
            Centroid(0, *(where + shift)),
            LinkGeometry(tuple(tx + shift), tuple(rx + shift), object_width=w),
        )
        flips["translation"] += moved != base

        swapped = blockage_from_location(
            Centroid(0, *where), LinkGeometry(tuple(rx), tuple(tx), object_width=w)
        )
        flips["swap"] += swapped != base

        wider = blockage_from_location(
            Centroid(0, *where),
            LinkGeometry(tuple(tx), tuple(rx), object_width=w + rng.uniform(0.1, 4.0)),
        )
        flips["width"] += base and not wider

    assert flips == {"translation": 0, "swap": 0, "width": 0}, flips
    print(
        "PASS criterion 3: blockage test agrees with dense sampling on 1000 "
        "configurations and holds translation/swap/width properties (1000 each)"
    )


# ---------------------------------------------------------------------------
# 4. Loss spot values
# ---------------------------------------------------------------------------

def test_criterion_4_loss_values():
    loss, grad = huber_loss(np.array([1.0]), np.array([1.0]))
    assert loss == 0.0 and grad[0] == 0.0
    loss, grad = huber_loss(np.array([0.5]), np.array([0.0]), 1.0)
    assert abs(loss - 0.125) <= 1e-12 and abs(grad[0] - 0.5) <= 1e-12
    loss, grad = huber_loss(np.array([2.0]), np.array([0.0]), 1.0)
    assert abs(loss - 1.5) <= 1e-12 and abs(grad[0] - 1.0) <= 1e-12

    for delta in (0.5, 1.0, 2.0):
        lo, gl = huber_loss(np.array([delta - 1e-9]), np.array([0.0]), delta)
        hi, gh = huber_loss(np.array([delta + 1e-9]), np.array([0.0]), delta)
        assert abs(hi - lo) <= 1e-8
        assert abs(gh[0] - gl[0]) <= 1e-8

    loss, grad = bce_loss(np.array([0.5]), np.array([1.0]))
    assert abs(loss - math.log(2.0)) <= 1e-12
    assert abs(grad[0] + 0.5) <= 1e-12
    loss, _ = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert loss <= 1e-6
    print("PASS criterion 4: loss spot values exact to 1e-12, seam continuous to 1e-8")


# ---------------------------------------------------------------------------
# 5. End-to-end accuracy ordering on the standard scenario
# ---------------------------------------------------------------------------

def test_criterion_5_end_to_end(standard_models, standard_dataset):
    loc, rf, lidar, train_time = standard_models
    start = time.perf_counter()
    samples = standard_dataset.subset("test")
    windows = np.stack([s.window for s in samples])
    rasters = np.stack([s.lidar_raster for s in samples])
    blocked = np.stack([s.future_blocked for s in samples])

    link = road_link(standard_dataset.meta["power_threshold"])
    from blockcast.models import predict_blockage_probs

    loc_flags = geometric_flags(predict_locations_batch(loc, windows), link)
    rf_flags = predict_blockage_probs(rf, windows) >= 0.5
    lidar_flags = predict_blockage_probs(lidar, windows, rasters) >= 0.5

    acc = {
        "localization": float((loc_flags == blocked).mean()),
        "rf": float((rf_flags == blocked).mean()),
        "rf+lidar": float((lidar_flags == blocked).mean()),
    }
    eval_time = time.perf_counter() - start

    assert acc["localization"] >= 0.70, acc
    assert acc["rf"] >= 0.85, acc
    assert acc["rf+lidar"] >= 0.85, acc
    assert acc["rf+lidar"] >= acc["rf"] >= acc["localization"], acc
    assert train_time + eval_time < 300.0, (train_time, eval_time)
    print(
        f"PASS criterion 5: accuracy localization={acc['localization']:.3f}, "
        f"rf={acc['rf']:.3f}, rf+lidar={acc['rf+lidar']:.3f} "
        f"(train {train_time:.0f}s + eval {eval_time:.0f}s < 300s)"
    )


# ---------------------------------------------------------------------------
# 6. Zero-shot receiver moves
# ---------------------------------------------------------------------------

def test_criterion_6_zero_shot_transfer(
    standard_models, scenario_dir, standard_config, tmp_path
):
    loc, rf, lidar, _ = standard_models
    save_model(loc, tmp_path / "loc.json")
    save_model(rf, tmp_path / "rf.json")
    save_model(lidar, tmp_path / "lidar.json")
    inputs = {
        "scenario": str(scenario_dir),
        "loc": str(tmp_path / "loc.json"),
        "rf": [str(tmp_path / "rf.json")],
        "lidar": [str(tmp_path / "lidar.json")],
        "rx_positions": [list(p) for p in SWEPT_RX],
    }
    out = tmp_path / "sweep"
    out.mkdir()
    cli.cmd_transfer(dict(standard_config), inputs, out)

    table: dict[tuple[str, int], float] = {}
    lines = (out / "transfer.csv").read_text().strip().splitlines()
    for line in lines[1:]:
        method, pos, _, _, _, accuracy = line.split(",")
        table[(method, int(pos))] = float(accuracy)

    original = table[("localization", 0)]
    beats_both = 0
    drops = []
    for pos in range(1, len(SWEPT_RX) + 1):
        moved = table[("localization", pos)]
        drops.append(abs(moved - original))
        assert abs(moved - original) <= 0.15, (pos, original, moved)
        if moved > table[("rf", pos)] and moved > table[("rf+lidar", pos)]:
            beats_both += 1
    assert beats_both >= 3, table
    print(
        f"PASS criterion 6: zero-shot accuracy within "
        f"{max(drops) * 100:.1f} points of the original link at 5 receiver "
        f"positions; beats both baselines at {beats_both}/5"
    )


# ---------------------------------------------------------------------------
# 7. Manifest replay
# ---------------------------------------------------------------------------

def test_criterion_7_manifest_replay(tmp_path):
    root = tmp_path
    scene, data = root / "scene", root / "data"
    assert cli.run(["simulate", "--out", str(scene), "--set", "steps=200"]) == 0
    assert cli.run(["label", "--scenario", str(scene), "--out", str(data)]) == 0
    assert cli.run(
        ["train", "--dataset", str(data), "--variant", "localization",
         "--episodes", "2", "--iterations", "40", "--out", str(root / "loc")]
    ) == 0
    assert cli.run(
        ["train", "--dataset", str(data), "--variant", "rf",
         "--episodes", "1", "--iterations", "15", "--out", str(root / "rf")]
    ) == 0
    assert cli.run(
        ["predict", "--checkpoint", str(root / "loc" / "model.json"),
         "--dataset", str(data), "--out", str(root / "pred")]
    ) == 0
    assert cli.run(
        ["evaluate", "--dataset", str(data), "--out", str(root / "report"),
         "--loc", str(root / "loc" / "model.json"),
         "--rf", str(root / "rf" / "model.json")]
    ) == 0
    assert cli.run(
        ["transfer", "--scenario", str(scene),
         "--loc", str(root / "loc" / "model.json"),
         "--rf", str(root / "rf" / "model.json"),
         "--rx", "4,12", "--rx=-6,12", "--out", str(root / "sweep")]
    ) == 0

    stages = ["scene", "data", "loc", "rf", "pred", "report", "sweep"]
    for stage in stages:
        matches = cli.replay_manifest(root / stage / "manifest.json", root / f"replay_{stage}")
        assert matches and all(matches.values()), (stage, matches)
    print(
        f"PASS criterion 7: all {len(stages)} pipeline stages replay from "
        "their manifests byte for byte"
    )


# ---------------------------------------------------------------------------
# 8. Horizon stability across training seeds
# ---------------------------------------------------------------------------

def test_criterion_8_horizon_stability(standard_models, standard_dataset):
    loc0, _, _, _ = standard_models
    samples = standard_dataset.subset("test")
    windows = np.stack([s.window for s in samples])
    blocked = np.stack([s.future_blocked for s in samples])
    link = road_link(standard_dataset.meta["power_threshold"])

    models = [loc0]
    for seed in range(1, 5):
        model, _ = train_localization(standard_dataset, TrainConfig(seed=seed))
        models.append(model)

    per_seed = []
    for model in models:
        flags = geometric_flags(predict_locations_batch(model, windows), link)
        per_seed.append([float((flags[:, k] == blocked[:, k]).mean())
                         for k in range(flags.shape[1])])
    std = np.std(np.asarray(per_seed), axis=0, ddof=1)
    assert std[-1] <= 2.0 * std[0], (std, per_seed)
    print(
        f"PASS criterion 8: across 5 seeds the step-5 accuracy spread "
        f"({std[-1]:.4f}) is within 2x the step-1 spread ({std[0]:.4f})"
    )
