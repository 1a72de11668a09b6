"""Physical-world domain types and a synthetic scenario simulator.

The simulator generates correlated per-beam received-power streams and 2D
LiDAR point clouds for a transmitter-mounted sensor watching vehicles move
along a road, together with ground-truth object positions and link
blockage flags. It stands in for a hardware testbed at desk scale.

Signal model, per beam and subcarrier: the received sample is the beam's
complex amplitude plus circular Gaussian noise. The amplitude sums a
direct path toward the receiver (attenuated by a fixed dB amount while the
line of sight is occluded) and one scattered path per vehicle, arriving
from the vehicle's bearing and decaying with the two-hop distance. Beam
gain is a raised-cosine main lobe of width fov/M around each steering
direction, so the power vector carries the bearing of both the receiver
and the scatterers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BeamCodebook:
    """Fixed set of steering directions partitioning the transmit FoV."""

    num_beams: int
    theta_offset: float
    fov: float
    steering_dirs: tuple[float, ...]

    def __post_init__(self):
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if not (0.0 < self.fov <= TWO_PI):
            raise ValueError("fov must be in (0, 2*pi]")
        if len(self.steering_dirs) != self.num_beams:
            raise ValueError("steering_dirs length must equal num_beams")
        dirs = np.asarray(self.steering_dirs)
        if self.num_beams > 1 and not np.all(np.diff(dirs) > 0):
            raise ValueError("steering_dirs must be strictly increasing")
        lo, hi = self.theta_offset, self.theta_offset + self.fov
        if np.any(dirs < lo - 1e-12) or np.any(dirs > hi + 1e-12):
            raise ValueError("steering_dirs must lie within the field of view")

    @property
    def beam_width(self) -> float:
        return self.fov / self.num_beams


def build_codebook(num_beams: int, theta_offset: float, fov: float) -> BeamCodebook:
    """Evenly spaced beam centers: dir_m = offset + (m + 1/2) * fov / M."""
    if num_beams < 1:
        raise ValueError("num_beams must be >= 1")
    if fov <= 0:
        raise ValueError("fov must be positive")
    step = fov / num_beams
    dirs = tuple(theta_offset + (m + 0.5) * step for m in range(num_beams))
    return BeamCodebook(num_beams, theta_offset, fov, dirs)


@dataclass(frozen=True)
class ChannelConfig:
    """OFDM channel knobs. blocked_attenuation_db and scatter_gain are
    simulator-only; real captures carry whatever the hardware saw."""

    num_subcarriers: int = 64
    noise_variance: float = 1e-4
    blocked_attenuation_db: float = 25.0
    scatter_gain: float = 10.0
    scatter_fluctuation_db: float = 0.0
    symbol_power: float = 1.0

    def __post_init__(self):
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        if self.blocked_attenuation_db <= 0:
            raise ValueError("blocked_attenuation_db must be > 0")
        if self.scatter_gain < 0:
            raise ValueError("scatter_gain must be >= 0")
        if self.scatter_fluctuation_db < 0:
            raise ValueError("scatter_fluctuation_db must be >= 0")
        if self.symbol_power <= 0:
            raise ValueError("symbol_power must be > 0")


@dataclass(frozen=True)
class LidarScan:
    """Polar point set at one time step: (n, 2) rows of (angle [rad], depth
    [m]); only the simulator's output per step and ``src_filter``'s input."""

    t: int
    points: np.ndarray


@dataclass(frozen=True)
class Vehicle:
    """Axis-aligned rectangle: width along x, depth along y, moving at
    velocity (meters per step)."""

    center: tuple[float, float]
    width: float
    depth: float
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.width <= 0 or self.depth <= 0:
            raise ValueError("vehicle width and depth must be positive")


@dataclass(frozen=True)
class WorldState:
    """Scene description: link endpoints, movers, static scenery.

    bounce_x, when set, reflects vehicle x-velocity at the given bounds so
    a single vehicle can cross the link repeatedly in one long run;
    without it vehicles advance linearly.
    """

    tx_pos: tuple[float, float]
    rx_pos: tuple[float, float]
    vehicles: tuple[Vehicle, ...] = ()
    static_obstacles: tuple[tuple[float, float, float, float], ...] = ()
    lidar_max_range: float = 16.0
    bounce_x: tuple[float, float] | None = None

    def __post_init__(self):
        if tuple(self.tx_pos) == tuple(self.rx_pos):
            raise ValueError("tx_pos and rx_pos must differ")
        if self.lidar_max_range <= 0:
            raise ValueError("lidar_max_range must be positive")
        if self.bounce_x is not None and self.bounce_x[0] >= self.bounce_x[1]:
            raise ValueError("bounce_x must be an increasing (min, max) pair")


@dataclass
class SimulationResult:
    """One simulated drive, row t of each array for step t."""

    frames: np.ndarray     # (T, M) per-beam received power, linear units
    scans: list[LidarScan]
    positions: np.ndarray  # (T, 2) first vehicle's centre (world frame); NaN without one
    occluded: np.ndarray   # (T,) bool, the line of sight is blocked
    power_threshold: float | None


def _rect_bounds(center, width, depth):
    cx, cy = center
    return cx - width / 2.0, cy - depth / 2.0, cx + width / 2.0, cy + depth / 2.0


def segment_intersects_rect(p, q, center, width, depth) -> bool | np.ndarray:
    """Closed segment p-q against closed axis-aligned boxes (Liang-Barsky).

    ``center`` is one (x, y) pair, giving a bool, or an (..., 2) array of
    box centres, giving a bool array of shape (...). Depth 0 is a segment
    of the given width along x. The segment meets the box iff, on each
    axis it is parallel to, it lies between the box's sides, and its
    entering parameters (and 0) all stay <= its exiting ones (and 1).
    Only arithmetic and comparisons touch ``center``, and the branches
    read only the scalar endpoints, so the same code runs in pure Python
    on a pair and vectorizes over an array.
    """
    if isinstance(center, np.ndarray):
        center = np.moveaxis(center, -1, 0)
    x0, y0, x1, y1 = _rect_bounds(center, width, depth)
    px, py = p
    hits = True
    enters, exits = [0.0], [1.0]
    for delta, lo_gap, hi_gap in (
        (q[0] - px, px - x0, x1 - px),
        (q[1] - py, py - y0, y1 - py),
    ):
        if delta == 0.0:
            hits = hits & (lo_gap >= 0.0) & (hi_gap >= 0.0)
        elif delta < 0.0:
            enters.append(hi_gap / delta)
            exits.append(lo_gap / -delta)
        else:
            enters.append(lo_gap / -delta)
            exits.append(hi_gap / delta)
    for enter in enters:
        for leave in exits:
            hits = hits & (enter <= leave)
    return hits


def _rect_edges(center, width, depth):
    x0, y0, x1, y1 = _rect_bounds(center, width, depth)
    return [
        (x0, y0, x1, y0),
        (x1, y0, x1, y1),
        (x1, y1, x0, y1),
        (x0, y1, x0, y0),
    ]


def _cast_rays(origin, angles, segments, max_range, steps):
    """Min positive ray-segment hit distance per step and angle, (steps, rays);
    inf when no hit within max_range. Segment ends are scalars (static
    scenery) or (steps, 1) arrays (a moving box's edges); the segments are
    visited in order, so ties go to the earlier one."""
    ox, oy = origin
    dirs_x = np.cos(angles)
    dirs_y = np.sin(angles)
    best = np.full((steps, angles.size), np.inf)
    for x0, y0, x1, y1 in segments:
        ex, ey = x1 - x0, y1 - y0
        ax, ay = x0 - ox, y0 - oy
        denom = dirs_x * ey - dirs_y * ex
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_ray = (ax * ey - ay * ex) / denom
            s_seg = (ax * dirs_y - ay * dirs_x) / denom
        hit = (np.abs(denom) > 1e-15) & (t_ray > 1e-12) & (s_seg >= 0.0) & (s_seg <= 1.0)
        best = np.where(hit & (t_ray < best), t_ray, best)
    best[best > max_range] = np.inf
    return best


def beam_gains(codebook: BeamCodebook, bearing) -> np.ndarray:
    """Raised-cosine main-lobe amplitude of every beam toward a bearing; a
    (n, 1) array of bearings gives (n, M) rows, one per bearing."""
    dirs = np.asarray(codebook.steering_dirs)
    delta = np.mod(bearing - dirs + math.pi, TWO_PI) - math.pi
    half = codebook.beam_width / 2.0
    gains = 0.5 * (1.0 + np.cos(math.pi * delta / half))
    gains[np.abs(delta) > half] = 0.0
    return gains


def _vehicle_tracks(vehicles, steps: int, bounce_x) -> np.ndarray:
    """(steps, V, 2) vehicle centres, each step's taken after that step's
    move; with bounce_x, x reflects off the bounds and its velocity flips."""
    tracks = np.empty((steps, len(vehicles), 2))
    for j, v in enumerate(vehicles):
        (cx, cy), (vx, vy) = v.center, v.velocity
        xs, ys = [], []
        for _ in range(steps):
            cx, cy = cx + vx, cy + vy
            if bounce_x is not None:
                lo, hi = bounce_x
                if cx > hi:
                    cx, vx = 2.0 * hi - cx, -vx
                elif cx < lo:
                    cx, vx = 2.0 * lo - cx, -vx
            xs.append(cx)
            ys.append(cy)
        tracks[:, j, 0], tracks[:, j, 1] = xs, ys
    return tracks


# Steps measured per block of arrays. A step's noise is 2*M*K normals (64 KB
# on the standard 64-beam, 64-subcarrier channel), so each of a block's
# arrays holds about 1 MB; larger blocks are no faster and raise peak RSS.
CHUNK_STEPS = 16


def simulate_scenario(
    world: WorldState,
    codebook: BeamCodebook,
    channel: ChannelConfig,
    steps: int,
    seed: int,
    lidar_rays: int = 360,
) -> SimulationResult:
    """Run the scene forward; deterministic given identical arguments.

    Each step advances vehicles first, then measures: LoS occlusion, the
    per-beam power vector, a LiDAR sweep, and the true position. The motion
    and occlusion of all steps are computed up front; the rest runs in
    blocks of CHUNK_STEPS steps. Each step reads, in this order, one normal
    per vehicle (when scatter_fluctuation_db > 0), then M*K real and M*K
    imaginary noise normals (when noise_variance > 0), so a block reads one
    (steps, draws per step) array from the generator.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lidar_rays < 1:
        raise ValueError("lidar_rays must be >= 1")

    rng = np.random.default_rng(seed)
    tx = tuple(map(float, world.tx_pos))
    rx = tuple(map(float, world.rx_pos))
    rx_bearing = math.atan2(rx[1] - tx[1], rx[0] - tx[0])
    los_gains = beam_gains(codebook, rx_bearing)
    att_amp = 10.0 ** (-channel.blocked_attenuation_db / 20.0)
    amp0 = math.sqrt(channel.symbol_power)
    ray_angles = np.arange(lidar_rays) * (TWO_PI / lidar_rays)
    num_beams, num_k = codebook.num_beams, channel.num_subcarriers
    sigma = channel.noise_variance
    fluctuation = channel.scatter_fluctuation_db

    vehicles = world.vehicles
    tracks = _vehicle_tracks(vehicles, steps, world.bounce_x)
    if not np.isfinite(tracks).all():
        raise ValueError("vehicle track is not finite: vehicle_center or vehicle_velocity too large")
    occluded = np.zeros(steps, dtype=bool)
    for j, v in enumerate(vehicles):
        occluded |= segment_intersects_rect(tx, rx, tracks[:, j], v.width, v.depth)
    # Per vehicle and step: the scatter amplitude before its wobble, and the
    # bearing from tx, in Python floats as the scalar model states them.
    scatter, bearings = [], []
    for j in range(len(vehicles)):
        amps, angles = [], []
        for cx, cy in tracks[:, j].tolist():
            d_tx = math.hypot(cx - tx[0], cy - tx[1])
            d_rx = math.hypot(cx - rx[0], cy - rx[1])
            amps.append(channel.scatter_gain / ((1.0 + d_tx) * (1.0 + d_rx)))
            angles.append(math.atan2(cy - tx[1], cx - tx[0]))
        scatter.append(amps)
        bearings.append(np.array(angles))

    num_wobbles = len(vehicles) if fluctuation > 0.0 else 0
    num_noise = 2 * num_beams * num_k if sigma > 0.0 else 0
    frames: list[np.ndarray] = []  # per block, (steps, M)
    scans: list[LidarScan] = []
    for lo in range(0, steps, CHUNK_STEPS):
        hi = min(lo + CHUNK_STEPS, steps)
        draws = rng.standard_normal((hi - lo, num_wobbles + num_noise))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by its keys
            amps = np.where(occluded[lo:hi], amp0 * att_amp, amp0)[:, None] * los_gains
            for j in range(len(vehicles)):
                scatter_amp = scatter[j][lo:hi]
                if num_wobbles:
                    # Per-step log-normal reflection wobble, the main source of randomness.
                    try:
                        scatter_amp = [a * 10.0 ** (fluctuation * z / 20.0)
                                       for a, z in zip(scatter_amp, draws[:, j].tolist())]
                    except OverflowError:
                        raise ValueError("scatter_fluctuation_db overflows the wobble") from None
                gains = beam_gains(codebook, bearings[j][lo:hi, None])
                amps = amps + gains * np.array(scatter_amp)[:, None]

            if num_noise:
                noise_scale = math.sqrt(sigma / 2.0)
                parts = draws[:, num_wobbles:].reshape(hi - lo, 2, num_beams, num_k)
                noise = noise_scale * (parts[:, 0] + 1j * parts[:, 1])
                samples = amps[:, :, None] + noise
                # The sum runs over the contiguous last axis, in the order of a
                # single step's (M, K) sum.
                powers = np.sum(np.abs(samples) ** 2, axis=-1)
            else:
                powers = num_k * amps**2
            if not np.isfinite(powers.sum(axis=1)).all():  # as the threshold and labels sum it
                raise ValueError("received power is not finite: symbol_power, scatter_gain, "
                                 "scatter_fluctuation_db or noise_variance is too large")
        frames.append(powers)

        segments = list(world.static_obstacles)
        for j, v in enumerate(vehicles):
            centre = (tracks[lo:hi, j, 0:1], tracks[lo:hi, j, 1:2])
            segments.extend(_rect_edges(centre, v.width, v.depth))
        dists = _cast_rays(tx, ray_angles, segments, world.lidar_max_range, hi - lo)
        for t, row in zip(range(lo, hi), dists):
            hit = np.isfinite(row)
            scans.append(LidarScan(t, np.column_stack([ray_angles[hit], row[hit]])))

    powers = np.concatenate(frames)
    positions = tracks[:, 0] if vehicles else np.full((steps, 2), np.nan)
    threshold = calibrate_power_threshold(powers.sum(axis=1), occluded)
    return SimulationResult(powers, scans, positions, occluded, threshold)


def calibrate_power_threshold(totals: np.ndarray, blocked: np.ndarray) -> float | None:
    """dB midpoint between mean blocked and mean unblocked total power,
    given each step's total power and blockage flag.

    Returns None when the run contains only one class.
    """
    blocked = np.asarray(blocked, dtype=bool)
    if not blocked.any() or blocked.all():
        return None
    db = 10.0 * np.log10(np.maximum(totals, 1e-300))
    midpoint = 0.5 * (db[blocked].mean() + db[~blocked].mean())
    return float(10.0 ** (midpoint / 10.0))
