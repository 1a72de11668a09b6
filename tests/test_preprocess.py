import math
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockcast import preprocess
from blockcast.ingest import Lidar, ScenarioBundle
from blockcast.preprocess import (
    Centroid,
    DbscanConfig,
    LabeledSample,
    SrcConfig,
    build_windows,
    dbscan,
    rasterize_scan,
    scenario_centroids,
    src_filter,
)
from blockcast.scene import LidarScan


def polar_scan(t, xy):
    """Build a scan from Cartesian points (sensor at the origin)."""
    xy = np.asarray(xy, dtype=np.float64)
    angle = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * math.pi)
    depth = np.hypot(xy[:, 0], xy[:, 1])
    return LidarScan(t, np.column_stack([angle, depth]))


def joined(scans) -> Lidar:
    """The lidar table of per-step scans: their rows, in their order."""
    t = np.repeat(np.array([s.t for s in scans], np.int64), [len(s.points) for s in scans])
    return Lidar(t, np.concatenate([s.points for s in scans] + [np.empty((0, 2))]))


def scans_of(bundle):
    """The bundle's lidar rows as one LidarScan per time, in time order."""
    t, points = bundle.lidar
    return [LidarScan(s, points[t == s]) for s in dict.fromkeys(t.tolist())]


def reference_dbscan(points, eps, min_pts):
    """Naive quadratic DBSCAN used as an independent check.

    Cores are unioned pairwise; components are ordered by their smallest
    core index; a border point joins the earliest component that has a
    core within eps of it.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    n = len(pts)
    if n == 0:
        return [], []
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    within = d2 <= eps * eps
    core = within.sum(axis=1) >= min_pts

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cores = [int(i) for i in np.flatnonzero(core)]
    for a in cores:
        for b in cores:
            if a < b and within[a, b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    comp = {}
    for c in cores:
        comp.setdefault(find(c), []).append(c)
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


def bfs_dbscan(points, eps, min_pts):
    """DBSCAN grown one cluster at a time, breadth first, from the lowest-index
    unclaimed core point: the expansion order `dbscan` must reproduce."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return [], []
    pts = pts.reshape(n, -1)
    diff = pts[:, None, :] - pts[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= eps**2
    neighbor_lists = [np.flatnonzero(within[i]) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbor_lists])

    labels = np.full(n, -1, dtype=np.int64)
    clusters = []
    for start in range(n):
        if labels[start] != -1 or not core[start]:
            continue
        cid = len(clusters)
        labels[start] = cid
        members = [start]
        queue = deque([start])
        while queue:
            j = queue.popleft()
            if not core[j]:
                continue  # border point: claimed, never expanded
            for k in neighbor_lists[j]:
                if labels[k] == -1:
                    labels[k] = cid
                    members.append(int(k))
                    queue.append(int(k))
        clusters.append(sorted(members))
    noise = [int(i) for i in np.flatnonzero(labels == -1)]
    return clusters, noise


# ---------------------------------------------------------------------------
# Static return removal
# ---------------------------------------------------------------------------

def test_src_filter_empty_scan():
    out = src_filter(LidarScan(0, np.empty((0, 2))), SrcConfig())
    assert out.shape == (0, 2)


def test_src_filter_drops_near_and_offroad_points():
    cfg = SrcConfig(proximity_radius=1.0, road_region=(-10.0, -10.0, 10.0, 10.0))
    pts = [
        (0.5, 0.0),    # too close to the sensor
        (1.0, 0.0),    # exactly at the proximity radius: kept
        (0.0, 11.0),   # outside the region
        (10.0, 0.0),   # exactly on the region edge: kept
        (3.0, -4.0),
    ]
    out = src_filter(polar_scan(0, pts), cfg)
    np.testing.assert_allclose(out, [(1.0, 0.0), (10.0, 0.0), (3.0, -4.0)], atol=1e-12)


def test_src_filter_matches_loop_oracle():
    rng = np.random.default_rng(5)
    cfg = SrcConfig(proximity_radius=1.5, road_region=(-6.0, 2.0, 6.0, 7.0))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=300)
    depth = rng.uniform(0.1, 12.0, size=300)
    scan = LidarScan(0, np.column_stack([angle, depth]))
    expected = []
    for a, d in zip(angle, depth):
        x, y = d * math.cos(a), d * math.sin(a)
        if d >= 1.5 and -6.0 <= x <= 6.0 and 2.0 <= y <= 7.0:
            expected.append((x, y))
    out = src_filter(scan, cfg)
    np.testing.assert_allclose(out, np.array(expected).reshape(-1, 2), rtol=1e-12)


def test_src_filter_keeps_vehicle_returns_only(standard_bundle, standard_config):
    # In the standard scenario the only on-road object is the vehicle, so
    # every surviving return must lie on its (inflated) outline.
    cfg = SrcConfig(road_region=tuple(standard_config["road_region"]))
    hits = 0
    scans = scans_of(standard_bundle)
    assert standard_bundle.truth.t.tolist() == [scan.t for scan in scans]
    for scan, (cx, cy) in zip(scans[:200], standard_bundle.truth.pos.tolist()):
        pts = src_filter(scan, cfg)
        hits += pts.shape[0]
        if pts.shape[0] == 0:
            continue
        assert np.all(np.abs(pts[:, 0] - cx) <= 2.0 + 1e-9)
        assert np.all(np.abs(pts[:, 1] - cy) <= 0.9 + 1e-9)
    assert hits > 0


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def test_dbscan_empty():
    assert dbscan(np.empty((0, 2)), DbscanConfig()) == ([], [])


def test_dbscan_identical_points_form_one_cluster():
    pts = np.zeros((4, 2))
    clusters, noise = dbscan(pts, DbscanConfig(eps=0.5, min_pts=4))
    assert clusters == [[0, 1, 2, 3]]
    assert noise == []


def test_dbscan_single_point_with_min_pts_one():
    clusters, noise = dbscan(np.array([[3.0, 4.0]]), DbscanConfig(eps=1.0, min_pts=1))
    assert clusters == [[0]] and noise == []


def test_dbscan_sparse_points_are_noise():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    clusters, noise = dbscan(pts, DbscanConfig(eps=2.0, min_pts=2))
    assert clusters == [] and noise == [0, 1, 2]


def test_border_point_goes_to_earlier_cluster():
    # Two tight stacks of five points with a lone point halfway between.
    # The middle point is border to both; it must join whichever cluster
    # is discovered first, which follows input order.
    left = [(0.0, 0.1 * i) for i in range(5)]
    right = [(2.0, 0.1 * i) for i in range(5)]
    cfg = DbscanConfig(eps=1.0, min_pts=5)

    clusters, noise = dbscan(np.array(left + right + [(1.0, 0.0)]), cfg)
    assert noise == []
    assert clusters == [[0, 1, 2, 3, 4, 10], [5, 6, 7, 8, 9]]

    clusters, noise = dbscan(np.array(right + left + [(1.0, 0.0)]), cfg)
    assert clusters == [[0, 1, 2, 3, 4, 10], [5, 6, 7, 8, 9]]


def test_dbscan_matches_reference_on_random_sets():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        blobs = [
            rng.normal(loc=rng.uniform(-8, 8, size=2), scale=0.7, size=(rng.integers(5, 15), 2))
            for _ in range(3)
        ]
        scatter = rng.uniform(-10, 10, size=(12, 2))
        pts = np.concatenate(blobs + [scatter])
        rng.shuffle(pts)
        for eps, min_pts in ((1.0, 3), (2.0, 4), (0.5, 2)):
            got = dbscan(pts, DbscanConfig(eps=eps, min_pts=min_pts))
            want = reference_dbscan(pts, eps, min_pts)
            assert got == want, f"seed={seed} eps={eps} min_pts={min_pts}"


EPS_VALUES = (0.5, 1.0, 1.5, 2.0)


@st.composite
def point_sets(draw):
    """Up to 60 points in a box: corners of a grid spaced exactly eps (so
    distances land on the inclusive radius, and repeats make duplicates)
    mixed with arbitrary points."""
    eps = draw(st.sampled_from(EPS_VALUES))
    width, height, n = draw(st.integers(1, 16)), draw(st.integers(1, 6)), draw(st.integers(0, 60))
    grid = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)).map(
        lambda ij: (eps * ij[0], eps * ij[1]))
    free = st.tuples(st.floats(-eps, eps * width), st.floats(-eps, eps * height))
    pts = draw(st.lists(grid | free, min_size=n, max_size=n))
    return np.array(pts, dtype=np.float64).reshape(n, 2), eps


@settings(max_examples=300)
@given(point_sets(), st.integers(1, 6))
def test_dbscan_matches_breadth_first_growth(case, min_pts):
    pts, eps = case
    assert dbscan(pts, DbscanConfig(eps=eps, min_pts=min_pts)) == bfs_dbscan(pts, eps, min_pts)


def test_dbscan_joins_a_chain_whose_lowest_index_is_at_the_far_end():
    # A chain of points exactly eps apart, indexed against its order in
    # space, so the lowest index has to travel its whole length; the lone
    # end points are border points of the chain's two last cores.
    eps = 1.0
    order = [0, 8, 2, 6, 4, 5, 3, 7, 1, 9]
    pts = np.array([[eps * order.index(i), 0.0] for i in range(10)])
    assert dbscan(pts, DbscanConfig(eps=eps, min_pts=3)) == ([list(range(10))], [])
    assert dbscan(pts, DbscanConfig(eps=eps, min_pts=3)) == bfs_dbscan(pts, eps, 3)


def test_border_point_exactly_eps_from_two_clusters_joins_the_earlier():
    # Grid cells eps apart hold 2,1,1,1,2 points; with min_pts=4 the cells
    # beside the middle one are cores of two clusters, and the middle point,
    # exactly eps from both, is border to each.
    eps = 1.5
    cells = [3, 4, 0, 1, 2, 0, 4]  # x / eps of each point, in index order
    pts = np.array([[eps * c, 0.0] for c in cells])
    clusters, noise = dbscan(pts, DbscanConfig(eps=eps, min_pts=4))
    assert (clusters, noise) == ([[0, 1, 4, 6], [2, 3, 5]], [])
    assert (clusters, noise) == bfs_dbscan(pts, eps, 4)


def test_dbscan_output_is_a_partition():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5, 5, size=(80, 2))
    clusters, noise = dbscan(pts, DbscanConfig(eps=1.2, min_pts=3))
    seen = sorted(noise + [i for c in clusters for i in c])
    assert seen == list(range(80))


def test_dbscan_clusters_stable_under_permutation_when_separated():
    # Well separated blobs have no contested border points, so the
    # resulting partition cannot depend on input order.
    rng = np.random.default_rng(3)
    blobs = [rng.normal(loc=(12.0 * k, 0.0), scale=0.4, size=(8, 2)) for k in range(3)]
    pts = np.concatenate(blobs)
    cfg = DbscanConfig(eps=2.0, min_pts=4)
    base, base_noise = dbscan(pts, cfg)
    base_sets = {frozenset(map(tuple, pts[c])) for c in base}
    assert base_noise == [] and len(base_sets) == 3
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(len(pts))
        clusters, noise = dbscan(pts[perm], cfg)
        got = {frozenset(map(tuple, pts[perm][c])) for c in clusters}
        assert noise == [] and got == base_sets


def test_dbscan_config_validation():
    with pytest.raises(ValueError):
        DbscanConfig(eps=0.0)
    with pytest.raises(ValueError):
        DbscanConfig(min_pts=0)
    with pytest.raises(ValueError):
        SrcConfig(proximity_radius=-1.0)
    with pytest.raises(ValueError):
        SrcConfig(road_region=(0.0, 0.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Centroid extraction
# ---------------------------------------------------------------------------

def reference_centroid(scan, src, db):
    """The per-scan labeler that ``scenario_centroids`` replaced, clustering
    with ``bfs_dbscan``: the road-frame mean of the largest cluster; ties go
    to the smaller mean distance to the road centre, then to the earliest
    cluster. (NaN, NaN) when the scan has no cluster."""
    cart = src_filter(scan, src)
    clusters, _ = bfs_dbscan(cart, db.eps, db.min_pts)
    if not clusters:
        return math.nan, math.nan
    center = np.asarray(src.road_center)

    def rank(item):
        _, members = item
        spread = float(np.mean(np.linalg.norm(cart[members] - center, axis=1)))
        return (-len(members), spread, item[0])

    _, best = min(enumerate(clusters), key=rank)
    mean = cart[best].mean(axis=0)
    ox, oy = src.road_origin
    return float(mean[0] - ox), float(mean[1] - oy)


def reference_scenario_centroids(bundle, src, db):
    out = np.full((len(bundle.t), 2), np.nan)
    for scan in scans_of(bundle):
        out[scan.t - bundle.t[0]] = reference_centroid(scan, src, db)
    return out


def drive(scans, t0=0, steps=None):
    """A bundle of ``steps`` frames from ``t0`` holding ``scans``."""
    steps = steps or max([scan.t - t0 + 1 for scan in scans] + [1])
    return ScenarioBundle("x", np.arange(t0, t0 + steps), np.ones((steps, 2)), joined(scans))


def scan_centroid(xy):
    """The road-frame centroid of one scan of Cartesian points."""
    return scenario_centroids(drive([polar_scan(0, xy)]), SrcConfig(), DbscanConfig())[0]


def test_a_scan_with_no_cluster_has_a_nan_centroid():
    assert np.isnan(scan_centroid([(-5.0, 6.0), (5.0, 6.0), (0.0, 7.0)])).all()


def test_the_largest_cluster_wins():
    big = [(-5.0 + 0.1 * i, 6.0) for i in range(6)]
    small = [(5.0 + 0.1 * i, 7.0) for i in range(4)]
    x, y = scan_centroid(big + small)
    mean = np.mean(big, axis=0)
    assert x == pytest.approx(mean[0] + 14.0, abs=1e-9)
    assert y == pytest.approx(mean[1] - 4.0, abs=1e-9)


def test_a_size_tie_prefers_the_cluster_nearer_the_road_center():
    far = [(-6.0 + 0.1 * i, 6.0) for i in range(4)]
    near = [(2.0 + 0.1 * i, 6.0) for i in range(4)]
    assert scan_centroid(far + near)[0] == pytest.approx(np.mean(near, axis=0)[0] + 14.0, abs=1e-9)


# Angles a in (0.45, pi/2) whose mirror pi - a has exactly the negated
# cosine and the same sine, so a scan and its mirror image about the road
# centre's x = 0 filter to exactly mirrored points.
_GRID = np.linspace(0.45, math.pi / 2 - 0.02, 4000)
MIRROR_ANGLES = _GRID[(np.cos(math.pi - _GRID) == -np.cos(_GRID))
                      & (np.sin(math.pi - _GRID) == np.sin(_GRID))]
DEPTHS = np.linspace(4.5, 9.0, 19)


def test_a_full_tie_goes_to_the_earlier_cluster():
    # Mirror-image clusters: the same size and the same distances to the
    # road centre, in the same order, so only the cluster order decides.
    a = LidarScan(0, np.column_stack([MIRROR_ANGLES[-8:-4], np.full(4, 6.0)]))
    b = LidarScan(0, np.column_stack([math.pi - MIRROR_ANGLES[-8:-4], np.full(4, 6.0)]))
    src, db = SrcConfig(), DbscanConfig()
    left, right = src_filter(a, src), src_filter(b, src)
    assert right.tolist() == (left * [-1.0, 1.0]).tolist()
    for first, second in ((a, b), (b, a)):
        scan = LidarScan(0, np.concatenate([first.points, second.points]))
        assert len(dbscan(src_filter(scan, src), db)[0]) == 2
        got = scenario_centroids(drive([scan]), src, db)[0]
        assert got.tobytes() == np.array(reference_centroid(scan, src, db)).tobytes()
        mean = src_filter(first, src).mean(axis=0)
        assert got.tolist() == [mean[0] + 14.0, mean[1] - 4.0]


def test_centroid_tracks_vehicle_within_half_depth(standard_bundle):
    # Scans see the vehicle faces nearest the sensor, so the centroid sits
    # off the true center; the offset stays under half the vehicle depth
    # on each axis when averaged over the whole run.
    centroids = scenario_centroids(standard_bundle, SrcConfig(), DbscanConfig())
    truth = standard_bundle.truth
    assert truth.t.tolist() == standard_bundle.t.tolist()
    known = ~np.isnan(centroids).any(axis=1) & ~np.isnan(truth.pos).any(axis=1)
    dx = np.abs(centroids[known, 0] - 14.0 - truth.pos[known, 0])
    dy = np.abs(centroids[known, 1] + 4.0 - truth.pos[known, 1])
    assert len(dx) >= 0.99 * len(truth.t)
    assert np.mean(dx) <= 0.9
    assert np.mean(dy) <= 0.9


def test_the_standard_drive_labels_equal_the_per_scan_labeler(standard_bundle):
    src, db = SrcConfig(), DbscanConfig()
    got = scenario_centroids(standard_bundle, src, db)
    assert got.tobytes() == reference_scenario_centroids(standard_bundle, src, db).tobytes()


def test_scenario_centroids_mark_missing_scans_invalid():
    cluster = [(0.2 + 0.1 * i, 6.0) for i in range(5)]
    scans = [polar_scan(5, cluster), polar_scan(7, cluster), polar_scan(8, [(0.2, 6.0)])]
    cs = scenario_centroids(drive(scans, t0=5), SrcConfig(), DbscanConfig())
    assert cs.shape == (4, 2)
    # Frame 6 has no scan, and frame 8's one point makes no cluster.
    assert np.isnan(cs).any(axis=1).tolist() == [False, True, False, True]
    assert np.isnan(cs[[1, 3]]).all()
    assert cs[0].tolist() == cs[2].tolist() == list(reference_centroid(scans[0], SrcConfig(),
                                                                          DbscanConfig()))


@st.composite
def lidar_scans(draw, t):
    """One scan at time ``t``: empty, off the road (nothing kept), sparse
    (all noise at small eps), or blobs of pooled angles and depths near a
    few centres, some points repeated, maybe followed by its mirror image
    (full ties), maybe with off-road points mixed in."""
    kind = draw(st.sampled_from(["empty", "off road", "blobs", "blobs", "blobs"]))
    if kind == "empty":
        return LidarScan(t, np.empty((0, 2)))
    if kind == "off road":  # near the sensor or beyond the far edge
        depth = draw(st.sampled_from([0.5, 20.0]))
        angles = draw(st.lists(st.sampled_from(MIRROR_ANGLES.tolist()), min_size=1, max_size=6))
        return LidarScan(t, np.column_stack([angles, np.full(len(angles), depth)]))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        a, d = draw(st.integers(0, len(MIRROR_ANGLES) - 1)), draw(st.integers(0, len(DEPTHS) - 1))
        spread = draw(st.sampled_from([0, 3, 40]))
        for _ in range(draw(st.integers(1, 9))):
            i = min(max(a + draw(st.integers(-spread, spread)), 0), len(MIRROR_ANGLES) - 1)
            j = min(max(d + draw(st.integers(-2, 2)), 0), len(DEPTHS) - 1)
            points.append((MIRROR_ANGLES[i], DEPTHS[j]))
    points = np.array(points)
    if draw(st.booleans()):
        points = np.concatenate([points, np.column_stack([math.pi - points[:, 0], points[:, 1]])])
    if draw(st.booleans()):
        points = np.concatenate([points, [[MIRROR_ANGLES[0], 0.5], [MIRROR_ANGLES[-1], 20.0]]])
    return LidarScan(t, points[draw(st.permutations(range(len(points))))]
                     if draw(st.booleans()) else points)


@st.composite
def lidar_drives(draw):
    """(bundle, eps, min_pts, pair budget): up to 12 frames from a random t0,
    scans at random frame times (some frames without one)."""
    t0, steps = draw(st.integers(0, 5)), draw(st.integers(1, 12))
    times = sorted(draw(st.sets(st.integers(t0, t0 + steps - 1))))
    scans = [draw(lidar_scans(t)) for t in times]
    eps = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
    budget = draw(st.sampled_from([1, 9, 64, 400, preprocess.PAIR_BUDGET]))
    return drive(scans, t0, steps), eps, draw(st.integers(1, 5)), budget


@settings(max_examples=150)
@given(lidar_drives())
def test_blocked_centroids_equal_the_per_scan_labeler_bit_for_bit(case):
    """Blocks of one to all scans (pair budgets of 1 pair to the default, so a
    scan can be over the budget), with empty scans, scans with no kept
    point, all-noise scans, size and full ties, and point counts that vary
    within a block."""
    bundle, eps, min_pts, budget = case
    src, db = SrcConfig(), DbscanConfig(eps=eps, min_pts=min_pts)
    with mock.patch.object(preprocess, "PAIR_BUDGET", budget):
        got = scenario_centroids(bundle, src, db)
    assert got.tobytes() == reference_scenario_centroids(bundle, src, db).tobytes()


def test_blocks_keep_to_the_pair_budget_and_a_large_set_runs_alone():
    counts = np.array([3, 0, 30, 5, 700, 30, 1, 0, 29])
    blocks = preprocess._blocks(counts)
    assert sorted(np.concatenate(blocks).tolist()) == [0, 2, 3, 4, 5, 6, 8]
    assert [4] in [b.tolist() for b in blocks]
    for block in blocks:
        assert len(block) == 1 or len(block) * counts[block].max() ** 2 <= preprocess.PAIR_BUDGET


def test_a_large_scan_among_small_ones_needs_its_own_matrix_plus_one_block(traced_peak_mib):
    """600 scans of 30 kept points fill several blocks; an 800-point scan is
    over the pair budget and runs alone. The drive peaks at no more than
    the large scan alone plus the small ones alone."""
    rng = np.random.default_rng(5)

    def scan(t, n):
        return polar_scan(t, np.column_stack([rng.uniform(-13, 13, n), rng.uniform(4.5, 7.5, n)]))

    small = [scan(t, 30) for t in range(600)]
    large = scan(600, 800)
    src, db = SrcConfig(), DbscanConfig()
    assert 30**2 * 600 > preprocess.PAIR_BUDGET and 800**2 > preprocess.PAIR_BUDGET
    alone = traced_peak_mib(lambda: scenario_centroids(drive([large], 600), src, db))
    blocks = traced_peak_mib(lambda: scenario_centroids(drive(small), src, db))
    both = traced_peak_mib(lambda: scenario_centroids(drive(small + [large]), src, db))
    assert both <= alone + blocks


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def test_rasterize_hand_case():
    scan = LidarScan(0, np.array([
        [0.1, 5.0],
        [0.3, 3.0],
        [1.6, 7.0],
        [5.0, 2.5],
    ]))
    out = rasterize_scan(scan, 4, 16.0)
    np.testing.assert_allclose(out, [3.0, 7.0, 16.0, 2.5], rtol=1e-12)


def test_rasterize_empty_scan_is_all_max_range():
    out = rasterize_scan(LidarScan(0, np.empty((0, 2))), 10, 12.5)
    np.testing.assert_array_equal(out, np.full(10, 12.5))


def test_rasterize_matches_loop_oracle():
    rng = np.random.default_rng(9)
    n, bins, max_range = 500, 37, 16.0
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    depth = rng.uniform(0.1, 20.0, size=n)
    out = rasterize_scan(LidarScan(0, np.column_stack([angle, depth])), bins, max_range)
    want = np.full(bins, max_range)
    for a, d in zip(angle, depth):
        k = int(a * bins / (2.0 * math.pi)) % bins
        want[k] = min(want[k], d)
    np.testing.assert_array_equal(out, want)


def test_an_angle_that_rounds_up_to_a_full_turn_wraps_to_bin_0():
    # The largest angle below 2*pi times 5 / (2*pi) rounds to 5.0.
    last = np.nextafter(2.0 * math.pi, 0.0)
    scan = LidarScan(0, np.array([[last, 4.0]]))
    np.testing.assert_array_equal(rasterize_scan(scan, 5, 16.0), [4.0, 16.0, 16.0, 16.0, 16.0])


def test_rasterize_rejects_bad_bins():
    with pytest.raises(ValueError):
        rasterize_scan(LidarScan(0, np.empty((0, 2))), 0, 16.0)


# ---------------------------------------------------------------------------
# Window assembly
# ---------------------------------------------------------------------------

def toy_bundle(n, num_beams=3, seed=0):
    rng = np.random.default_rng(seed)
    powers = rng.uniform(0.1, 2.0, size=(n, num_beams))
    cluster = [(0.1 * i, 6.0) for i in range(5)]
    scans = [polar_scan(t, cluster) for t in range(n)]
    return ScenarioBundle("toy", np.arange(n), powers, joined(scans))


def all_valid_centroids(n):
    return np.column_stack([14.0 + 0.25 * np.arange(n), np.full(n, 2.0)])


def test_no_window_fits_when_run_is_too_short():
    bundle = toy_bundle(12)
    windows = build_windows(bundle, all_valid_centroids(12), 8, 5)
    assert len(windows) == 0 and not windows
    assert windows.windows().shape == (0, 8, 3) and windows.futures.shape == (0, 5, 2)
    assert windows.rasters.shape == (0, 360) and windows.rows() == []


def test_exactly_one_window_and_its_contents():
    bundle = toy_bundle(13)
    centroids = all_valid_centroids(13)
    blocked = [t >= 9 for t in range(13)]
    windows = build_windows(bundle, centroids, 8, 5, blocked=blocked, raster_bins=12)
    assert len(windows) == 1
    assert windows.t.tolist() == [7]
    assert windows.windows().shape == (1, 8, 3)
    np.testing.assert_array_equal(windows.windows()[0], bundle.rssi[:8])
    assert windows.frames is bundle.rssi and windows.starts.tolist() == [0]  # no copy
    np.testing.assert_allclose(
        windows.futures[0], [[14.0 + 0.25 * t, 2.0] for t in range(8, 13)], rtol=1e-12
    )
    np.testing.assert_array_equal(
        windows.blocked[0], [False, True, True, True, True]
    )
    np.testing.assert_array_equal(
        windows.rasters[0], rasterize_scan(scans_of(bundle)[7], 12, 16.0)
    )


def test_windows_skip_spans_touching_an_invalid_centroid():
    n = 100
    bundle = toy_bundle(n)
    centroids = all_valid_centroids(n)
    centroids[50] = math.nan, math.nan
    windows = build_windows(bundle, centroids, 8, 5)
    got = set(windows.t.tolist())
    want = {end for end in range(7, n - 5) if not 45 <= end <= 50}
    assert got == want
    assert len(windows) == 82


def test_windows_skip_spans_whose_horizon_has_an_unknown_step():
    # Only the steps after a window's end must be known, not the end itself.
    n = 100
    known = np.ones(n, dtype=bool)
    known[50] = False
    windows = build_windows(toy_bundle(n), all_valid_centroids(n), 8, 5, known=known)
    assert set(windows.t.tolist()) == {end for end in range(7, n - 5) if not 45 <= end <= 49}


def test_windows_default_flags_are_all_false():
    bundle = toy_bundle(14)
    windows = build_windows(bundle, all_valid_centroids(14), 8, 5)
    assert len(windows) == 2
    assert windows.blocked.shape == (2, 5) and not windows.blocked.any()


def test_build_windows_argument_validation():
    bundle = toy_bundle(13)
    cs = all_valid_centroids(13)
    with pytest.raises(ValueError):
        build_windows(bundle, cs, 0, 5)
    with pytest.raises(ValueError):
        build_windows(bundle, cs, 8, 0)
    with pytest.raises(ValueError):
        build_windows(bundle, cs[:-1], 8, 5)
    with pytest.raises(ValueError):
        build_windows(bundle, cs, 8, 5, blocked=[False] * 12)
    with pytest.raises(ValueError, match="known steps"):
        build_windows(bundle, cs, 8, 5, known=[True] * 12)
    with pytest.raises(ValueError, match="known steps"):
        build_windows(bundle, cs, 8, 5, known=np.ones((13, 1), dtype=bool))


def test_window_set_take_and_row_views():
    windows = build_windows(toy_bundle(20), all_valid_centroids(20), 4, 2, raster_bins=6)
    assert len(windows) == 15
    part = windows.take(np.array([3, 0]))
    assert part.t.tolist() == [6, 3]
    assert np.array_equal(part.rasters, windows.rasters[[3, 0]])
    row = windows.rows()[2]
    assert (row.t, row.future.tolist()) == (5, [[15.5, 2.0], [15.75, 2.0]])
    row.window[0, 0] = -1.0  # a view: writes land in the set
    assert windows.windows()[2, 0, 0] == -1.0
    with pytest.raises(ValueError, match="window counts"):
        replace(windows, t=windows.t[:3])
    # The 20 frames hold windows starting at rows 0..16; one row either side is refused.
    assert len(replace(windows, starts=windows.starts + 2)) == 15
    for starts in (windows.starts - 1, windows.starts + 3):
        with pytest.raises(ValueError, match="outside the frame array"):
            replace(windows, starts=starts)


# ---------------------------------------------------------------------------
# The array build_windows against the per-window loop it replaced
# ---------------------------------------------------------------------------

def reference_rasterize_scan(scan, bins, max_range):
    out = np.full(bins, float(max_range))
    pts = scan.points
    if pts.shape[0]:
        idx = (pts[:, 0] * (bins / (2.0 * math.pi))).astype(np.int64) % bins
        np.minimum.at(out, idx, pts[:, 1])
    return out


def reference_build_windows(bundle, centroids, window_len, horizon, blocked=None,
                            raster_bins=360, max_range=16.0, known=None):
    """One LabeledSample per window, built by a loop over the window ends;
    a centroid row holding a NaN is invalid, and a window whose next horizon
    steps are not all ``known`` is dropped."""
    times = bundle.t.tolist()
    scan_at = {scan.t: scan for scan in scans_of(bundle)}
    empty = LidarScan(0, np.empty((0, 2)))
    samples = []
    for end in range(window_len - 1, len(times) - horizon):
        span = [Centroid(times[i], x, y, not (math.isnan(x) or math.isnan(y)))
                for i, (x, y) in enumerate(centroids[end : end + horizon + 1].tolist(), end)]
        if not all(c.valid for c in span):
            continue
        if known is not None and not all(known[end + 1 : end + horizon + 1]):
            continue
        window = np.stack([bundle.rssi[i] for i in range(end - window_len + 1, end + 1)])
        future = np.array([[c.x, c.y] for c in span[1:]], dtype=np.float64)
        flags = (
            np.array([bool(blocked[i]) for i in range(end + 1, end + horizon + 1)])
            if blocked is not None
            else np.zeros(horizon, dtype=bool)
        )
        raster = reference_rasterize_scan(scan_at.get(times[end], empty), raster_bins, max_range)
        samples.append(LabeledSample(times[end], window, future, flags, raster))
    return samples


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@st.composite
def window_inputs(draw):
    n, beams = draw(st.integers(1, 16)), draw(st.integers(1, 3))
    t0 = draw(st.integers(-5, 5))
    power = st.floats(0.0, 1e3) | st.just(-0.0)
    powers = draw(arrays(np.float64, (n, beams), elements=power))
    point = st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True),
                      st.floats(0.01, 20.0))
    scanned = sorted(draw(st.sets(st.integers(0, n - 1))))  # the other frames have no scan
    scans = [LidarScan(t0 + i, np.array(draw(st.lists(point, max_size=4))).reshape(-1, 2))
             for i in scanned]
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for where in draw(st.sets(st.sampled_from([0, n // 2, n - 1]))):  # start, middle, end
        valid[where] = False
    coord = st.floats(-50.0, 50.0)
    centroids = np.array([(draw(coord), draw(coord)) if ok else (math.nan, math.nan)
                          for ok in valid]).reshape(n, 2)
    blocked = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    # Mostly known steps, so a window can survive both masks.
    known = draw(st.none() | st.lists(st.sampled_from([True, True, True, False]),
                                      min_size=n, max_size=n))
    return (ScenarioBundle("drive", t0 + np.arange(n), powers, joined(scans)), centroids,
            draw(st.integers(1, 6)),
            draw(st.integers(1, 6)), blocked, draw(st.integers(1, 12)),
            draw(st.floats(0.5, 30.0)), known)


@settings(max_examples=200)
@given(window_inputs())
def test_build_windows_equals_the_per_window_loop_bit_for_bit(inputs):
    bundle, centroids, window_len, horizon, blocked, bins, max_range, known = inputs
    got = build_windows(*inputs[:-1], known=known)
    want = reference_build_windows(*inputs)
    assert len(got) == len(want)
    if len(bundle.rssi) < window_len + horizon:
        assert len(got) == 0
    assert got.t.tolist() == [s.t for s in want]
    beams = bundle.rssi.shape[1]
    assert got.windows().shape[1:] == (window_len, beams) and got.futures.shape[1:] == (horizon, 2)
    assert got.blocked.shape[1:] == (horizon,) and got.rasters.shape[1:] == (bins,)
    for name, field in (("windows", "window"), ("futures", "future"),
                        ("blocked", "future_blocked"), ("rasters", "lidar_raster")):
        got_rows = got.windows() if name == "windows" else getattr(got, name)
        assert [_bits(v) for v in got_rows] == [_bits(getattr(s, field)) for s in want]
