"""Self-supervised labeling of LiDAR sweeps and sliding-window assembly.

A raw polar scan is filtered down to on-road returns, clustered with
DBSCAN, and reduced to the dominant cluster's centroid, which serves as
the location label for the power window ending at the same step. Windows
pair an observation span of received-power vectors with the next `horizon`
centroids and, optionally, blockage flags.

Centroid coordinates are stored in the road frame: meters, origin at the
road region's minimum corner, so every valid label is nonnegative and a
clamping output activation cannot cut off legitimate targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .scene import LidarScan, ensure_finite

if TYPE_CHECKING:
    from .ingest import ScenarioBundle


@dataclass(frozen=True)
class SrcConfig:
    """Static clutter removal: drop near-sensor returns and everything
    outside the road rectangle (world frame, sensor at origin)."""

    proximity_radius: float = 1.0
    road_region: tuple[float, float, float, float] = (-14.0, 4.0, 14.0, 8.0)

    def __post_init__(self):
        if self.proximity_radius < 0:
            raise ValueError("proximity_radius must be >= 0")
        x0, y0, x1, y1 = self.road_region
        if x1 <= x0 or y1 <= y0:
            raise ValueError("road_region must have positive area")

    @property
    def road_origin(self) -> tuple[float, float]:
        return (self.road_region[0], self.road_region[1])

    @property
    def road_size(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.road_region
        return (x1 - x0, y1 - y0)

    @property
    def road_center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.road_region
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass(frozen=True)
class DbscanConfig:
    eps: float = 2.0
    min_pts: int = 4

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass(frozen=True)
class Centroid:
    """Object location label in the road frame; valid=False when the scan
    produced no cluster."""

    t: int
    x: float
    y: float
    valid: bool = True

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)


@dataclass
class LabeledSample:
    """One training sample: a power window ending at step t, the centroid
    at t, the next `horizon` centroids, matching blockage flags, and the
    rasterized sweep at t for the multimodal baseline."""

    scenario: str
    t: int
    window: np.ndarray          # (window_len, num_beams) linear powers
    label: Centroid
    future: np.ndarray          # (horizon, 2) road-frame meters
    future_blocked: np.ndarray  # (horizon,) bool
    lidar_raster: np.ndarray    # (raster_bins,) depths, max-range filled


def src_filter(scan: LidarScan, cfg: SrcConfig) -> np.ndarray:
    """Cartesian on-road returns, order preserved, shape (n, 2)."""
    pts = scan.points
    if pts.shape[0] == 0:
        return np.empty((0, 2), dtype=np.float64)
    x = pts[:, 1] * np.cos(pts[:, 0])
    y = pts[:, 1] * np.sin(pts[:, 0])
    x0, y0, x1, y1 = cfg.road_region
    keep = (
        (pts[:, 1] >= cfg.proximity_radius)
        & (x >= x0) & (x <= x1)
        & (y >= y0) & (y <= y1)
    )
    return np.column_stack([x[keep], y[keep]])


def dbscan(points, cfg: DbscanConfig) -> tuple[list[list[int]], list[int]]:
    """Density clustering with deterministic cluster order.

    Core points have >= min_pts neighbors within eps (inclusive radius,
    the point counts itself). Each cluster is a connected component of the
    core-core neighbor graph plus its border points, numbered by its lowest
    core index; a border point joins the lowest-numbered cluster among its
    core neighbors. This is the partition that growing clusters one at a
    time from the lowest-index unclaimed core point gives.
    Returns (clusters as sorted index lists, noise indices).
    """
    pts = ensure_finite("points", points)
    n = pts.shape[0]
    if n == 0:
        return [], []
    pts = pts.reshape(n, -1)
    diff = pts[:, None, :] - pts[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= cfg.eps**2
    core = within.sum(axis=1) >= cfg.min_pts

    # Min-label propagation with pointer jumping: a core point's label is
    # the lowest core index reached so far in its component; n marks "none".
    label = np.where(core, np.arange(n), n)
    while True:
        reach = np.where(within, label, n).min(axis=1)  # lowest label among core neighbors
        jumped = label.copy()
        jumped[core] = reach[reach[core]]
        if (jumped == label).all():
            break
        label = jumped
    # At the fixed point, reach holds each core point's component label and
    # each border point's lowest neighboring one; noise keeps n.
    clusters = [np.flatnonzero(reach == root).tolist() for root in np.unique(reach[reach < n])]
    return clusters, np.flatnonzero(reach == n).tolist()


def extract_centroid(scan: LidarScan, src: SrcConfig, db: DbscanConfig) -> Centroid:
    """Dominant-cluster centroid in the road frame.

    Largest cluster wins; ties go to the cluster whose points sit closest
    (on average) to the road center, then to the earliest cluster.
    """
    cart = src_filter(scan, src)
    clusters, _ = dbscan(cart, db)
    if not clusters:
        return Centroid(scan.t, math.nan, math.nan, valid=False)
    center = np.asarray(src.road_center)

    def rank(item):
        _, members = item
        spread = float(np.mean(np.linalg.norm(cart[members] - center, axis=1)))
        return (-len(members), spread, item[0])

    _, best = min(enumerate(clusters), key=rank)
    mean = cart[best].mean(axis=0)
    ox, oy = src.road_origin
    return Centroid(scan.t, float(mean[0] - ox), float(mean[1] - oy), valid=True)


def scenario_centroids(
    bundle: "ScenarioBundle", src: SrcConfig, db: DbscanConfig
) -> list[Centroid]:
    """One centroid per RSSI frame; frames without a scan come out invalid."""
    by_time = {scan.t: scan for scan in bundle.lidar}
    out = []
    for frame in bundle.rssi:
        scan = by_time.get(frame.t)
        if scan is None:
            out.append(Centroid(frame.t, math.nan, math.nan, valid=False))
        else:
            out.append(extract_centroid(scan, src, db))
    return out


def rasterize_scan(scan: LidarScan, bins: int, max_range: float) -> np.ndarray:
    """Fixed-length polar depth vector; empty bins hold max_range, bins
    with several returns keep the nearest."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    out = np.full(bins, float(max_range))
    pts = scan.points
    if pts.shape[0]:
        idx = (pts[:, 0] * (bins / (2.0 * math.pi))).astype(np.int64) % bins
        np.minimum.at(out, idx, pts[:, 1])
    return out


def build_windows(
    bundle: "ScenarioBundle",
    centroids: Sequence[Centroid],
    window_len: int,
    horizon: int,
    blocked: Sequence[bool] | None = None,
    raster_bins: int = 360,
    max_range: float = 16.0,
) -> list[LabeledSample]:
    """Stride-1 sliding windows over one scenario.

    A window ends at step index `end` when window_len frames exist up to
    and including `end` and the centroids at end..end+horizon are all
    valid; windows touching an invalid detection are dropped, not imputed.
    """
    if window_len < 1 or horizon < 1:
        raise ValueError("window_len and horizon must be >= 1")
    frames = bundle.rssi
    scan_at = {scan.t: scan for scan in bundle.lidar}
    empty = LidarScan(0, np.empty((0, 2)))
    if len(centroids) != len(frames):
        raise ValueError("centroids must align one-to-one with frames")
    if blocked is not None and len(blocked) != len(frames):
        raise ValueError("blocked flags must align one-to-one with frames")

    samples: list[LabeledSample] = []
    n = len(frames)
    for end in range(window_len - 1, n - horizon):
        span = centroids[end : end + horizon + 1]
        if not all(c.valid for c in span):
            continue
        window = np.stack([frames[i].powers for i in range(end - window_len + 1, end + 1)])
        future = np.stack([c.as_array() for c in span[1:]])
        flags = (
            np.array([bool(blocked[i]) for i in range(end + 1, end + horizon + 1)])
            if blocked is not None
            else np.zeros(horizon, dtype=bool)
        )
        samples.append(
            LabeledSample(
                scenario=bundle.scenario_id,
                t=frames[end].t,
                window=window,
                label=span[0],
                future=future,
                future_blocked=flags,
                lidar_raster=rasterize_scan(
                    scan_at.get(frames[end].t, empty), raster_bins, max_range
                ),
            )
        )
    return samples
