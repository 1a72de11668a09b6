"""Self-supervised labeling of LiDAR sweeps and sliding-window assembly.

A raw polar scan is filtered down to on-road returns, clustered with
DBSCAN, and reduced to the dominant cluster's centroid, the object's
location at that step. Windows pair an observation span of received-power
vectors with the next `horizon` centroids as location labels, matching
blockage flags, and the rasterized sweep at the span's last step. A
window's own centroid must be valid but is not kept.

Centroid coordinates are stored in the road frame: meters, origin at the
road region's minimum corner, so every valid label is nonnegative and a
clamping output activation cannot cut off legitimate targets.

A drive's scans, its lidar rows at each time, are filtered one by one and
clustered in blocks: the kept point sets, in order of size, are padded to
(S, K, 2) and clustered at once, a block holding at most ``PAIR_BUDGET``
padded point pairs S * K**2. A set of more points than that is a block of
its own, so a drive needs no more memory than its largest scan's n x n
distances or one block. ``dbscan`` runs the same kernel on one set. Each
set's centroid has the bits of clustering and averaging it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ensure_finite
from .scene import LidarScan

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
    def road_center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.road_region
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass(frozen=True)
class DbscanConfig:
    eps: float = 2.0
    min_pts: int = 4

    def __post_init__(self):
        # DBSCAN compares squared distances with eps**2, which must be finite.
        if not (self.eps > 0 and math.isfinite(self.eps * self.eps)):
            raise ValueError(f"eps must be positive, with a finite square; got {self.eps!r}")
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


@dataclass
class LabeledSample:
    """One row of a ``WindowSet``: a power window ending at step t, the
    next `horizon` centroids, matching blockage flags, and the rasterized
    sweep at t for the multimodal baseline."""

    t: int
    window: np.ndarray          # (window_len, num_beams) linear powers
    future: np.ndarray          # (horizon, 2) road-frame meters
    future_blocked: np.ndarray  # (horizon,) bool
    lidar_raster: np.ndarray    # (raster_bins,) depths, max-range filled


@dataclass(frozen=True)
class WindowSet:
    """Labeled windows of one drive, window i in row i of each per-window
    field, in time order. The power frames are stored once, window i being
    ``frames[starts[i]:starts[i] + window_len]``; ``windows(rows)`` gathers
    the (k, T0, M) block a consumer needs. A dataset holds one, and its
    splits are ``take`` of row indices or of a slice, over the same frames."""

    t: np.ndarray        # (B,) int64, step of the window's last frame
    starts: np.ndarray   # (B,) int64, frames row of the window's first frame
    futures: np.ndarray  # (B, N, 2) the next N centroids
    blocked: np.ndarray  # (B, N) bool
    rasters: np.ndarray  # (B, bins) depths, max-range filled
    frames: np.ndarray   # (F, M) linear powers, shared by every window
    window_len: int      # T0, frames per window
    _PER_WINDOW = ("t", "starts", "futures", "blocked", "rasters")  # fields of one row per window

    def __post_init__(self):
        if len({len(getattr(self, name)) for name in self._PER_WINDOW}) != 1:
            raise ValueError("window set fields hold different window counts")
        if ((self.starts < 0) | (self.starts > len(self.frames) - self.window_len)).any():
            raise ValueError("a window's frames lie outside the frame array")

    def __len__(self) -> int:
        return len(self.t)

    def take(self, idx) -> "WindowSet":
        """The windows at row indices ``idx``, in that order, over the same
        frames: copies, or views into this set when ``idx`` is a slice."""
        return replace(self, **{name: getattr(self, name)[idx] for name in self._PER_WINDOW})

    def windows(self, rows=slice(None)) -> np.ndarray:
        """(k, T0, M) the windows at ``rows`` (indices or a slice), gathered anew."""
        return self.frames[self.starts[rows, None] + np.arange(self.window_len)]

    def rows(self) -> list[LabeledSample]:
        """Each window as a LabeledSample whose arrays are views into this set."""
        return [LabeledSample(t, self.frames[s:s + self.window_len], *row) for t, s, *row
                in zip(self.t.tolist(), self.starts.tolist(), self.futures, self.blocked,
                       self.rasters)]


def src_filter(scan: LidarScan, cfg: SrcConfig) -> np.ndarray:
    """Cartesian on-road returns, order preserved, shape (n, 2)."""
    pts = scan.points
    x = pts[:, 1] * np.cos(pts[:, 0])
    y = pts[:, 1] * np.sin(pts[:, 0])
    x0, y0, x1, y1 = cfg.road_region
    keep = (
        (pts[:, 1] >= cfg.proximity_radius)
        & (x >= x0) & (x <= x1)
        & (y >= y0) & (y <= y1)
    )
    return np.column_stack([x[keep], y[keep]])


# Point sets are clustered in blocks: S sets padded to K points each, with
# S * K**2 kept within this many point pairs. A set of more than
# sqrt(PAIR_BUDGET) points is a block of its own, so no block holds more
# pairs than the larger of this and the largest set's n**2. On the standard
# drive, 2**16 pairs label as fast as 2**18 with a third of the peak memory.
PAIR_BUDGET = 2**16


def _cluster_roots(points: np.ndarray, valid: np.ndarray, cfg: DbscanConfig) -> np.ndarray:
    """DBSCAN of S point sets at once, padded to (S, K, D), ``valid`` (S, K)
    marking each set's points (its first ones). Returns (S, K) the root of
    each point's cluster, its lowest core index; K marks noise and padding.

    Min-label propagation with pointer jumping: a core point's label is the
    lowest core index reached so far in its component, K for "none". Each
    set is independent, and a set at its fixed point stays there, so the
    block runs until no label of any set moves.
    """
    k = valid.shape[1]
    coords = np.ascontiguousarray(points.transpose(0, 2, 1))  # (S, D, K)
    diff = coords[:, :, :, None] - coords[:, :, None, :]
    within = np.einsum("sdij,sdij->sij", diff, diff) <= cfg.eps**2
    within &= valid[:, :, None] & valid[:, None, :]
    core = within.sum(axis=2) >= cfg.min_pts
    label = np.where(core, np.arange(k), k)
    while True:
        # The lowest label among each point's core neighbors.
        reach = np.min(np.broadcast_to(label[:, None, :], within.shape), axis=2,
                       initial=k, where=within)
        jumped = np.where(core, np.take_along_axis(reach, np.where(core, reach, 0), axis=1), label)
        if (jumped == label).all():
            # reach now holds each core point's component label and each
            # border point's lowest neighboring one; noise keeps K.
            return reach
        label = jumped


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
    reach = _cluster_roots(pts.reshape(1, n, -1), np.ones((1, n), dtype=bool), cfg)[0]
    clusters = [np.flatnonzero(reach == root).tolist() for root in np.unique(reach[reach < n])]
    return clusters, np.flatnonzero(reach == n).tolist()


def _dominant_centroids(points: np.ndarray, roots: np.ndarray, center: np.ndarray) -> np.ndarray:
    """(S, D) mean of each padded set's dominant cluster, given the
    ``_cluster_roots`` of its points; NaN where a set has no cluster.

    The largest cluster wins; ties go to the cluster whose points sit
    closest (on average) to ``center``, then to the lowest root.
    """
    s, k = roots.shape
    sizes = np.bincount((np.arange(s)[:, None] * (k + 1) + roots).ravel(),
                        minlength=s * (k + 1)).reshape(s, k + 1)[:, :k]
    best = sizes.argmax(axis=1)  # the lowest root of the largest size
    size = sizes[np.arange(s), best]
    for i in np.flatnonzero(((sizes == size[:, None]).sum(axis=1) > 1) & (size > 0)).tolist():
        spread = {root: float(np.mean(np.linalg.norm(points[i, roots[i] == root] - center, axis=1)))
                  for root in np.flatnonzero(sizes[i] == size[i]).tolist()}
        best[i] = min(spread, key=lambda root: (spread[root], root))
    # -0.0 is the identity of float addition, so the sum over the padded
    # axis has the bits of the members' own sum, taken in their order.
    sums = np.where((roots == best[:, None])[:, :, None], points, -0.0).sum(axis=1)
    out = np.full(sums.shape, np.nan)
    out[size > 0] = sums[size > 0] / size[size > 0, None]
    return out


def _blocks(counts: np.ndarray) -> list[np.ndarray]:
    """Indices of the point sets of ``counts[i]`` points grouped into
    blocks: the nonempty sets in order of size, each block closed before its
    padded pair count S * K**2 would pass PAIR_BUDGET."""
    blocks, block = [], []
    for i in np.argsort(counts, kind="stable").tolist():
        if block and (len(block) + 1) * int(counts[i]) ** 2 > PAIR_BUDGET:
            blocks.append(np.array(block))
            block = []
        if counts[i]:
            block.append(i)
    return blocks + [np.array(block)] if block else blocks


def scenario_centroids(bundle: "ScenarioBundle", src: SrcConfig, db: DbscanConfig) -> np.ndarray:
    """(T, 2) road-frame centroids, row i for frame i; NaN rows where a frame
    has no lidar row or its scan no cluster. The rows at one t are one scan,
    filtered alone; the kept point sets are clustered in blocks (``_blocks``)."""
    scan_t, starts = np.unique(bundle.lidar.t, return_index=True)
    scans = np.split(bundle.lidar.points, starts[1:])
    kept = [src_filter(LidarScan(t, points), src) for t, points in zip(scan_t.tolist(), scans)]
    counts = np.array([len(pts) for pts in kept], dtype=np.int64)
    centroids = np.full((len(kept), 2), np.nan)
    for idx in _blocks(counts):
        k = int(counts[idx].max())
        valid = np.arange(k) < counts[idx, None]
        points = np.zeros((len(idx), k, 2))
        points[valid] = np.concatenate([kept[i] for i in idx.tolist()])
        roots = _cluster_roots(points, valid, db)
        centroids[idx] = _dominant_centroids(points, roots, np.asarray(src.road_center))
    out = np.full((len(bundle.t), 2), np.nan)
    out[scan_t - bundle.t[0]] = centroids - src.road_origin
    return out


# Points ``_rasterize`` draws per pass, the length of its index temporaries.
# Any positive value draws the same bits: np.minimum.at applies the points in
# index order, block after block, so a bin meets its returns in one order.
RASTER_POINT_BLOCK = 2**13


def _rasterize(points: np.ndarray, t: np.ndarray, t0: int, row_at: np.ndarray, bins: int,
               max_range: float) -> np.ndarray:
    """(R, bins) polar depth rasters, R = row_at.max() + 1: the (angle,
    depth) point i, taken at time t[i], drawn into row row_at[t[i] - t0], or
    into none where that is < 0; empty bins hold max_range, bins with several
    returns keep the nearest."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    out = np.full((int(row_at.max(initial=-1)) + 1, bins), float(max_range))
    for lo in range(0, len(points), RASTER_POINT_BLOCK):
        block = points[lo:lo + RASTER_POINT_BLOCK]
        rows = row_at[t[lo:lo + RASTER_POINT_BLOCK] - t0]
        drawn = rows >= 0
        flat = (block[drawn, 0] * (bins / (2.0 * math.pi))).astype(np.int64)
        flat %= bins
        flat += rows[drawn] * bins
        np.minimum.at(out.reshape(-1), flat, block[drawn, 1])
    return out


def rasterize_scan(scan: LidarScan, bins: int, max_range: float) -> np.ndarray:
    """Fixed-length polar depth vector of one scan (see ``_rasterize``)."""
    return _rasterize(scan.points, np.zeros(len(scan.points), np.int64), 0,
                      np.zeros(1, np.int64), bins, max_range)[0]


def build_windows(
    bundle: "ScenarioBundle",
    centroids: np.ndarray,
    window_len: int,
    horizon: int,
    blocked: np.ndarray | None = None,
    raster_bins: int = 360,
    max_range: float = 16.0,
    *, known: np.ndarray | None = None,
) -> WindowSet:
    """Stride-1 sliding windows over one drive, in time order.

    ``centroids`` is (T, 2), a NaN in a row marking an invalid detection,
    and ``blocked`` (T,) flags, all False when None. A window ends at step
    index `end` when window_len frames exist up to and including `end` and
    the centroids at end..end+horizon are all valid; windows touching an
    invalid detection are dropped, not imputed, and so are those whose
    steps end+1..end+horizon are not all set in a (T,) ``known`` mask. The
    windows point into the bundle's ``rssi``, only the scans at the kept ends
    are rasterized, and the centroids and flags are sliced there: no
    drive-sized temporary is left.
    """
    if window_len < 1 or horizon < 1:
        raise ValueError("window_len and horizon must be >= 1")
    powers = bundle.rssi
    n = len(powers)
    xy = np.asarray(centroids, dtype=np.float64)
    if xy.shape != (n, 2):
        raise ValueError("centroids must align one-to-one with frames")
    flags = np.zeros(n, dtype=bool) if blocked is None else np.asarray(blocked, dtype=bool)
    if flags.shape != (n,):
        raise ValueError("blocked flags must align one-to-one with frames")
    known = np.ones(n, dtype=bool) if known is None else np.asarray(known, dtype=bool)
    if known.shape != (n,):
        raise ValueError("known steps must align one-to-one with frames")

    invalid = np.isnan(xy).any(axis=1)
    gaps = np.concatenate([[0], np.cumsum(invalid | ~known)])  # before each step
    ends = np.arange(window_len - 1, max(window_len - 1, n - horizon))
    ends = ends[~invalid[ends] & (gaps[ends + horizon + 1] == gaps[ends + 1])]
    ahead = ends[:, None] + np.arange(1, horizon + 1)

    row_at = np.full(n, -1)  # each step's window row, -1 where no window ends
    row_at[ends] = np.arange(len(ends))
    return WindowSet(
        t=bundle.t[0] + ends,  # frame times are consecutive
        starts=ends - (window_len - 1),
        futures=xy[ahead],
        blocked=flags[ahead],
        rasters=_rasterize(bundle.lidar.points, bundle.lidar.t, bundle.t[0], row_at,
                           raster_bins, max_range),
        frames=powers, window_len=window_len,
    )
