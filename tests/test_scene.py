import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockcast.scene import (
    CHUNK_STEPS,
    BeamCodebook,
    ChannelConfig,
    LidarScan,
    Vehicle,
    WorldState,
    _rect_edges,
    beam_gains,
    build_codebook,
    calibrate_power_threshold,
    segment_intersects_rect,
    simulate_scenario,
)

TX = (0.0, 0.0)
RX = (0.0, 12.0)
WALL = (-15.0, 9.0, 15.0, 9.0)


def quiet_channel(**kw):
    defaults = dict(noise_variance=0.0, scatter_gain=0.0, scatter_fluctuation_db=0.0)
    defaults.update(kw)
    return ChannelConfig(**defaults)


# ---------------------------------------------------------------------------
# Codebook
# ---------------------------------------------------------------------------

def test_single_beam_points_at_fov_center():
    cb = build_codebook(1, 0.0, math.pi)
    assert cb.steering_dirs == (math.pi / 2,)


def test_four_beam_directions():
    cb = build_codebook(4, 0.0, 2.0)
    assert cb.steering_dirs == (0.25, 0.75, 1.25, 1.75)


def test_sixteen_beams_monotone_within_fov():
    cb = build_codebook(16, -math.pi / 4, math.pi / 2)
    dirs = np.array(cb.steering_dirs)
    assert dirs.shape == (16,)
    assert np.all(np.diff(dirs) > 0)
    assert np.all(dirs > -math.pi / 4)
    assert np.all(dirs < math.pi / 4)


def test_codebook_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_codebook(0, 0.0, math.pi)
    with pytest.raises(ValueError):
        build_codebook(4, 0.0, 0.0)
    with pytest.raises(ValueError):
        build_codebook(4, 0.0, -1.0)


def test_codebook_invariants_enforced():
    with pytest.raises(ValueError):
        BeamCodebook(2, 0.0, 1.0, (0.25,))
    with pytest.raises(ValueError):
        BeamCodebook(2, 0.0, 1.0, (0.75, 0.25))
    with pytest.raises(ValueError):
        BeamCodebook(2, 0.0, 1.0, (0.25, 1.5))
    with pytest.raises(ValueError):
        BeamCodebook(2, 0.0, 7.0, (0.25, 0.75))


# ---------------------------------------------------------------------------
# Beam gains
# ---------------------------------------------------------------------------

def test_gain_peaks_at_steering_direction():
    cb = build_codebook(8, 0.0, math.pi)
    for m, d in enumerate(cb.steering_dirs):
        g = beam_gains(cb, d)
        assert g[m] == pytest.approx(1.0)
        others = np.delete(g, m)
        assert np.all(others == 0.0)


def test_gain_zero_outside_half_width():
    cb = build_codebook(8, 0.0, math.pi)
    half = cb.beam_width / 2
    g = beam_gains(cb, cb.steering_dirs[3] + half * 1.0001)
    assert g[3] == 0.0


def test_at_most_one_beam_sees_any_bearing():
    # Lobe width equals beam spacing, so lobes tile without overlap.
    cb = build_codebook(16, 0.1, 2.5)
    rng = np.random.default_rng(5)
    for bearing in rng.uniform(0.1, 2.6, size=200):
        assert np.count_nonzero(beam_gains(cb, bearing)) <= 1


def test_gain_wraps_modulo_two_pi():
    cb = build_codebook(8, 0.0, math.pi)
    bearing = 1.234
    np.testing.assert_array_equal(
        beam_gains(cb, bearing), beam_gains(cb, bearing - 2 * math.pi)
    )


# ---------------------------------------------------------------------------
# Segment vs rectangle
# ---------------------------------------------------------------------------

def test_segment_hits_and_misses_rect():
    center = (0.0, 6.0)
    assert segment_intersects_rect((0, 0), (0, 12), center, 4.0, 1.8)
    assert not segment_intersects_rect((5, 0), (5, 12), center, 4.0, 1.8)
    # touching the boundary counts as blocked (closed test)
    assert segment_intersects_rect((2.0, 0), (2.0, 12), center, 4.0, 1.8)
    # segment entirely inside
    assert segment_intersects_rect((-1, 5.5), (1, 6.5), center, 4.0, 1.8)
    # collinear with an edge but outside
    assert not segment_intersects_rect((2.1, 0), (2.1, 12), center, 4.0, 1.8)


def clip_reference(p, q, center, width, depth) -> bool:
    """The scalar Liang-Barsky clip with early exits, kept as the reference
    for the branch-free kernel."""
    cx, cy = center
    x0, y0, x1, y1 = cx - width / 2.0, cy - depth / 2.0, cx + width / 2.0, cy + depth / 2.0
    px, py = p
    dx, dy = q[0] - p[0], q[1] - p[1]
    t_lo, t_hi = 0.0, 1.0
    for delta, lo_gap, hi_gap in (
        (dx, px - x0, x1 - px),
        (dy, py - y0, y1 - py),
    ):
        for sign, gap in ((-delta, lo_gap), (delta, hi_gap)):
            if sign == 0.0:
                if gap < 0.0:
                    return False
            else:
                ratio = gap / sign
                if sign < 0.0:
                    t_lo = max(t_lo, ratio)
                else:
                    t_hi = min(t_hi, ratio)
                if t_lo > t_hi:
                    return False
    return True


# Small integers hit the edge cases (axis-parallel links, touching corners,
# coincident endpoints); arbitrary floats hit everything else.
coord = st.integers(-12, 12).map(float) | st.floats(-40.0, 40.0)
point = st.tuples(coord, coord)
size = st.integers(1, 6).map(float) | st.floats(0.01, 20.0)
depth = st.just(0.0) | size


@settings(max_examples=500)
@given(point, point, point, size, depth)
def test_kernel_matches_the_scalar_clip_on_a_pair(p, q, center, width, d):
    assert segment_intersects_rect(p, q, center, width, d) is clip_reference(p, q, center, width, d)


@settings(max_examples=200)
@given(point, point, st.lists(point, min_size=1, max_size=12), size, depth)
def test_kernel_matches_the_scalar_clip_on_an_array(p, q, centers, width, d):
    want = [clip_reference(p, q, c, width, d) for c in centers]
    got = segment_intersects_rect(p, q, np.array(centers), width, d)
    assert got.shape == (len(centers),) and got.tolist() == want
    got = segment_intersects_rect(p, q, np.array(centers).reshape(1, -1, 1, 2), width, d)
    assert got.shape == (1, len(centers), 1) and got.ravel().tolist() == want


# On an integer grid every coordinate, gap and box side is exact, and equal
# ratios round equally, so the symmetries must hold bit for bit.
grid = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


@settings(max_examples=300)
@given(grid, grid, grid, grid, st.integers(1, 8), st.integers(0, 8))
def test_kernel_is_invariant_under_translation_swap_and_rotation(p, q, c, shift, w, d):
    base = segment_intersects_rect(p, q, c, w, d)

    def moved(a):
        return (a[0] + shift[0], a[1] + shift[1])

    def turned(a):  # 90 degrees counter-clockwise
        return (-a[1], a[0])

    assert segment_intersects_rect(moved(p), moved(q), moved(c), w, d) == base
    assert segment_intersects_rect(q, p, c, w, d) == base
    assert segment_intersects_rect(turned(p), turned(q), turned(c), d, w) == base


# Links of every orientation: exactly horizontal, exactly vertical, shallow
# (|dy| < 0.5) and at an arbitrary angle.
length = st.floats(0.5, 30.0) | st.floats(-30.0, -0.5)
direction = st.one_of(
    st.tuples(length, st.just(0.0)),
    st.tuples(st.just(0.0), length),
    st.tuples(length, st.floats(-0.49, 0.49)),
    st.builds(lambda a, r: (r * math.cos(a), r * math.sin(a)),
              st.floats(0.0, 2.0 * math.pi), st.floats(0.5, 30.0)),
)
offset = st.just(0.0) | st.floats(-2.0, 2.0)


def dense_verdict(p, q, center, width, depth, samples=4001, tol=1e-9):
    """True if points sampled along the link show it meets the closed box,
    False if they show it misses, None inside the boundary band.

    A sample inside the box, or two neighbours on either side of the box's
    centre line (y = cy) with both x inside, show a hit. The sample nearest
    any hit point lies within half a step of it on each axis, so no sample
    inside the box grown by half a step shows a miss. On an axis the link
    does not move along, a sample exactly on the box's centre is inside.
    """
    p, q, c = (np.asarray(v, dtype=np.float64) for v in (p, q, center))
    pts = p + np.linspace(0.0, 1.0, samples)[:, None] * (q - p)
    off = np.abs(pts - c)
    half = np.array([width, depth]) / 2.0
    inside = (off <= half - tol) | ((p == q) & (off == 0.0))
    y_gap = pts[:, 1] - c[1]
    side = np.where(np.abs(y_gap) >= tol, np.sign(y_gap), 0.0)  # 0: too close to tell
    crosses = side[:-1] * side[1:] < 0.0
    if inside.all(axis=1).any() or (crosses & inside[:-1, 0] & inside[1:, 0]).any():
        return True
    step = np.abs(q - p) / (samples - 1)
    if not (off <= half + step / 2.0 + tol).all(axis=1).any():
        return False
    return None


@settings(max_examples=400)
@given(point, direction, st.floats(-0.25, 1.25), st.tuples(offset, offset), size, depth)
def test_kernel_agrees_with_dense_sampling_at_all_angles(p, d, along, off, width, box_depth):
    q = (p[0] + d[0], p[1] + d[1])
    center = (p[0] + along * d[0] + off[0], p[1] + along * d[1] + off[1])
    want = dense_verdict(p, q, center, width, box_depth)
    assume(want is not None)
    assert segment_intersects_rect(p, q, center, width, box_depth) is want


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_empty_world_never_blocks_and_is_static():
    world = WorldState(TX, RX, vehicles=(), static_obstacles=(WALL,))
    cb = build_codebook(64, math.pi / 128, math.pi)
    res = simulate_scenario(world, cb, quiet_channel(), steps=6, seed=3)
    assert not res.occluded.any()
    assert np.isnan(res.positions).all()
    np.testing.assert_array_equal(res.frames, np.broadcast_to(res.frames[0], res.frames.shape))
    # only the wall is visible, so every return lies on it
    for scan in res.scans:
        x = scan.points[:, 1] * np.cos(scan.points[:, 0])
        y = scan.points[:, 1] * np.sin(scan.points[:, 0])
        assert np.all(np.abs(y - 9.0) <= 1e-9)
        assert np.all(x >= -15.0 - 1e-9)
        assert np.all(x <= 15.0 + 1e-9)


def test_parked_blocker_attenuates_power_exactly():
    cb = build_codebook(64, math.pi / 128, math.pi)
    channel = quiet_channel(blocked_attenuation_db=30.0)
    free = WorldState(TX, RX, vehicles=())
    blocked = WorldState(
        TX, RX, vehicles=(Vehicle((0.0, 6.0), 4.0, 1.8, (0.0, 0.0)),)
    )
    res_free = simulate_scenario(free, cb, channel, steps=4, seed=0)
    res_blk = simulate_scenario(blocked, cb, channel, steps=4, seed=0)
    assert res_blk.occluded.all()
    p_free = res_free.frames[0].sum()
    np.testing.assert_allclose(res_blk.frames.sum(axis=1), p_free * 1e-3, rtol=1e-12)


def test_crossing_interval_matches_kinematics():
    # Center advances before each measurement: cx(t) = -5 + 0.5 (t+1).
    # The x=0 link is occluded while |cx| <= width/2 = 2, i.e. t in [5, 13].
    vehicle = Vehicle((-5.0, 6.0), 4.0, 1.8, (0.5, 0.0))
    world = WorldState(TX, RX, vehicles=(vehicle,))
    cb = build_codebook(16, math.pi / 32, math.pi)
    res = simulate_scenario(world, cb, quiet_channel(), steps=25, seed=1)
    flags = res.occluded.tolist()
    expected = [abs(-5.0 + 0.5 * (t + 1)) <= 2.0 for t in range(25)]
    assert flags == expected
    assert flags[4] is False and flags[5] is True
    assert flags[13] is True and flags[14] is False


def test_truth_flags_match_dense_sampling_oracle():
    vehicle = Vehicle((-13.0, 6.0), 4.0, 1.8, (0.25, 0.0))
    world = WorldState(TX, RX, vehicles=(vehicle,), bounce_x=(-13.0, 13.0))
    cb = build_codebook(16, math.pi / 32, math.pi)
    res = simulate_scenario(world, cb, quiet_channel(), steps=150, seed=2)
    ts = np.linspace(0.0, 1.0, 1000)
    seg = np.array(TX) + ts[:, None] * (np.array(RX) - np.array(TX))
    for (cx, cy), blocked in zip(res.positions.tolist(), res.occluded.tolist()):
        inside = (
            (seg[:, 0] >= cx - 2.0) & (seg[:, 0] <= cx + 2.0)
            & (seg[:, 1] >= cy - 0.9) & (seg[:, 1] <= cy + 0.9)
        )
        assert bool(inside.any()) == blocked


def test_bounce_reflects_the_vehicle():
    vehicle = Vehicle((12.0, 6.0), 4.0, 1.8, (0.5, 0.0))
    world = WorldState(TX, RX, vehicles=(vehicle,), bounce_x=(-13.0, 13.0))
    cb = build_codebook(8, 0.0, math.pi)
    res = simulate_scenario(world, cb, quiet_channel(), steps=12, seed=0)
    xs = res.positions[:, 0].tolist()
    assert max(xs) <= 13.0
    assert xs[0] < xs[1]        # initially moving right
    assert xs[-2] > xs[-1]      # moving left after the bounce


def test_lidar_points_lie_on_obstacle_boundaries():
    vehicle = Vehicle((-4.0, 6.0), 4.0, 1.8, (0.5, 0.0))
    world = WorldState(TX, RX, vehicles=(vehicle,), static_obstacles=(WALL,))
    cb = build_codebook(8, 0.0, math.pi)
    res = simulate_scenario(world, cb, quiet_channel(), steps=10, seed=0)

    def point_to_segment(px, py, x0, y0, x1, y1):
        ex, ey = x1 - x0, y1 - y0
        t = ((px - x0) * ex + (py - y0) * ey) / (ex * ex + ey * ey)
        t = min(1.0, max(0.0, t))
        return math.hypot(px - (x0 + t * ex), py - (y0 + t * ey))

    for scan, (cx, cy) in zip(res.scans, res.positions.tolist()):
        segments = [WALL]
        x0, y0, x1, y1 = cx - 2.0, cy - 0.9, cx + 2.0, cy + 0.9
        segments += [
            (x0, y0, x1, y0), (x1, y0, x1, y1), (x1, y1, x0, y1), (x0, y1, x0, y0),
        ]
        assert scan.points.shape[0] > 0
        assert np.all(scan.points[:, 1] <= world.lidar_max_range)
        for angle, depth in scan.points:
            px, py = depth * math.cos(angle), depth * math.sin(angle)
            best = min(point_to_segment(px, py, *seg) for seg in segments)
            assert best <= 1e-9


def test_obstacles_beyond_max_range_are_invisible():
    far_wall = (-15.0, 20.0, 15.0, 20.0)
    world = WorldState(TX, RX, vehicles=(), static_obstacles=(far_wall,),
                       lidar_max_range=16.0)
    cb = build_codebook(8, 0.0, math.pi)
    res = simulate_scenario(world, cb, quiet_channel(), steps=2, seed=0)
    assert all(scan.points.shape[0] == 0 for scan in res.scans)


def test_simulation_is_deterministic():
    vehicle = Vehicle((-6.0, 6.0), 4.0, 1.8, (0.5, 0.0))
    world = WorldState(TX, RX, vehicles=(vehicle,), static_obstacles=(WALL,))
    cb = build_codebook(32, math.pi / 64, math.pi)
    channel = ChannelConfig(noise_variance=1e-4, scatter_fluctuation_db=4.0)
    a = simulate_scenario(world, cb, channel, steps=20, seed=11)
    b = simulate_scenario(world, cb, channel, steps=20, seed=11)
    np.testing.assert_array_equal(a.frames, b.frames)
    for sa, sb in zip(a.scans, b.scans):
        np.testing.assert_array_equal(sa.points, sb.points)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.occluded, b.occluded)
    assert a.power_threshold == b.power_threshold


def test_seed_changes_noise():
    world = WorldState(TX, RX, vehicles=())
    cb = build_codebook(8, 0.0, math.pi)
    channel = ChannelConfig(noise_variance=1e-2)
    a = simulate_scenario(world, cb, channel, steps=3, seed=1)
    b = simulate_scenario(world, cb, channel, steps=3, seed=2)
    assert not np.array_equal(a.frames[0], b.frames[0])


def test_scatter_fluctuation_varies_parked_vehicle_power():
    vehicle = Vehicle((5.0, 6.0), 4.0, 1.8, (0.0, 0.0))
    world = WorldState(TX, RX, vehicles=(vehicle,))
    cb = build_codebook(32, math.pi / 64, math.pi)
    steady = simulate_scenario(world, cb, quiet_channel(scatter_gain=10.0),
                               steps=6, seed=4)
    wobbly = simulate_scenario(
        world, cb,
        quiet_channel(scatter_gain=10.0, scatter_fluctuation_db=4.0),
        steps=6, seed=4,
    )
    steady_totals = set(steady.frames.sum(axis=1).tolist())
    wobbly_totals = set(wobbly.frames.sum(axis=1).tolist())
    assert len(steady_totals) == 1
    assert len(wobbly_totals) == 6


# ---------------------------------------------------------------------------
# The array simulator against the per-step reference
# ---------------------------------------------------------------------------

def reference_advance(vehicles, bounce_x):
    moved = []
    for v in vehicles:
        cx = v.center[0] + v.velocity[0]
        cy = v.center[1] + v.velocity[1]
        vx = v.velocity[0]
        if bounce_x is not None:
            lo, hi = bounce_x
            if cx > hi:
                cx = 2.0 * hi - cx
                vx = -vx
            elif cx < lo:
                cx = 2.0 * lo - cx
                vx = -vx
        moved.append(Vehicle((cx, cy), v.width, v.depth, (vx, v.velocity[1])))
    return moved


def reference_cast_rays(origin, angles, segments, max_range):
    ox, oy = origin
    dirs_x = np.cos(angles)
    dirs_y = np.sin(angles)
    best = np.full(angles.shape, np.inf)
    for x0, y0, x1, y1 in segments:
        ex, ey = x1 - x0, y1 - y0
        ax, ay = x0 - ox, y0 - oy
        denom = dirs_x * ey - dirs_y * ex
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ray = (ax * ey - ay * ex) / denom
            s_seg = (ax * dirs_y - ay * dirs_x) / denom
        hit = (np.abs(denom) > 1e-15) & (t_ray > 1e-12) & (s_seg >= 0.0) & (s_seg <= 1.0)
        best = np.where(hit & (t_ray < best), t_ray, best)
    best[best > max_range] = np.inf
    return best


def reference_simulate(world, codebook, channel, steps, seed, lidar_rays):
    """The per-step loop ``simulate_scenario`` replaced: one step at a time,
    drawing each step's normals as it goes, and each frame's total power
    summed on its own. Returns (T, M) powers, the scans, (T, 2) positions
    (NaN without a vehicle), (T,) occlusion flags and the threshold."""
    rng = np.random.default_rng(seed)
    tx = tuple(map(float, world.tx_pos))
    rx = tuple(map(float, world.rx_pos))
    los_gains = beam_gains(codebook, math.atan2(rx[1] - tx[1], rx[0] - tx[0]))
    att_amp = 10.0 ** (-channel.blocked_attenuation_db / 20.0)
    amp0 = math.sqrt(channel.symbol_power)
    ray_angles = np.arange(lidar_rays) * (2.0 * math.pi / lidar_rays)
    num_k, sigma = channel.num_subcarriers, channel.noise_variance
    vehicles = list(world.vehicles)
    frames, scans, positions, flags = [], [], [], []
    for t in range(steps):
        vehicles = reference_advance(vehicles, world.bounce_x)
        occluded = any(segment_intersects_rect(tx, rx, v.center, v.width, v.depth)
                       for v in vehicles)
        amps = los_gains * (amp0 * att_amp if occluded else amp0)
        for v in vehicles:
            d_tx = math.hypot(v.center[0] - tx[0], v.center[1] - tx[1])
            d_rx = math.hypot(v.center[0] - rx[0], v.center[1] - rx[1])
            bearing = math.atan2(v.center[1] - tx[1], v.center[0] - tx[0])
            scatter_amp = channel.scatter_gain / ((1.0 + d_tx) * (1.0 + d_rx))
            if channel.scatter_fluctuation_db > 0.0:
                scatter_amp *= 10.0 ** (
                    channel.scatter_fluctuation_db * rng.standard_normal() / 20.0)
            amps = amps + beam_gains(codebook, bearing) * scatter_amp
        if sigma > 0.0:
            noise = math.sqrt(sigma / 2.0) * (
                rng.standard_normal((codebook.num_beams, num_k))
                + 1j * rng.standard_normal((codebook.num_beams, num_k)))
            powers = np.sum(np.abs(amps[:, None] + noise) ** 2, axis=1)
        else:
            powers = num_k * amps**2
        frames.append(powers)
        segments = list(world.static_obstacles)
        for v in vehicles:
            segments.extend(_rect_edges(v.center, v.width, v.depth))
        dists = reference_cast_rays(tx, ray_angles, segments, world.lidar_max_range)
        hit = np.isfinite(dists)
        scans.append(LidarScan(t, np.column_stack([ray_angles[hit], dists[hit]])))
        positions.append(tuple(map(float, vehicles[0].center)) if vehicles else (math.nan,) * 2)
        flags.append(occluded)
    totals = np.array([np.sum(powers) for powers in frames])
    return (np.array(frames), scans, np.array(positions), np.array(flags, dtype=bool),
            calibrate_power_threshold(totals, flags))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


coordinate = st.floats(-14.0, 14.0)
vehicles_st = st.lists(st.builds(
    Vehicle, st.tuples(coordinate, st.floats(1.0, 11.0)), st.floats(0.5, 5.0),
    st.floats(0.5, 3.0), st.tuples(st.floats(-1.5, 1.5), st.floats(-0.2, 0.2))), max_size=3)
walls_st = st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate), max_size=2)
# Hypothesis leans to the first choice, so the common case leads each list.
step_counts = st.sampled_from([CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 3, 1, CHUNK_STEPS - 1,
                               CHUNK_STEPS, 2 * CHUNK_STEPS, 77])


@settings(max_examples=60)
@given(vehicles_st, walls_st, st.sampled_from([(-4.0, 4.0), None]),
       st.sampled_from([1e-4, 0.0, 0.3]), st.sampled_from([4.0, 0.0]),
       st.sampled_from([4, 1, 3, 5, 2]), st.sampled_from([3, 1, 4, 2]),
       st.sampled_from([7, 1, 3, 9, 31, 45]), step_counts, st.integers(0, 2**32 - 1),
       st.sampled_from([(0.0, 12.0), (7.5, 9.0), (-3.0, 0.0)]))
def test_the_array_simulator_equals_the_per_step_loop(
        vehicles, walls, bounce, noise, fluctuation, beams, subcarriers, rays, steps, seed, rx):
    world = WorldState(TX, rx, tuple(vehicles), tuple(walls), lidar_max_range=15.0,
                       bounce_x=bounce)
    codebook = build_codebook(beams, math.pi / 16, math.pi)
    channel = ChannelConfig(num_subcarriers=subcarriers, noise_variance=noise,
                            scatter_fluctuation_db=fluctuation)
    got = simulate_scenario(world, codebook, channel, steps, seed, rays)
    frames, scans, positions, occluded, threshold = reference_simulate(
        world, codebook, channel, steps, seed, rays)
    assert got.frames.shape == frames.shape == (steps, beams)
    assert got.frames.dtype == np.float64 and _bits(got.frames) == _bits(frames)
    assert [s.t for s in got.scans] == [s.t for s in scans]
    assert all(a.points.shape == b.points.shape and _bits(a.points) == _bits(b.points)
               for a, b in zip(got.scans, scans))
    assert got.positions.shape == (steps, 2) and _bits(got.positions) == _bits(positions)
    assert got.occluded.dtype == bool and got.occluded.tolist() == occluded.tolist()
    assert (got.power_threshold is None) == (threshold is None)
    assert threshold is None or _bits(got.power_threshold) == _bits(threshold)


# ---------------------------------------------------------------------------
# Frames, calibration, validation
# ---------------------------------------------------------------------------

def test_row_totals_equal_each_frames_own_sum():
    # Labels and the threshold read (T, M) row sums; they must be the bits
    # of summing each frame on its own.
    powers = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert powers.sum(axis=1).tolist() == [0.0, 6.0]
    rng = np.random.default_rng(9)
    for beams in (1, 7, 64, 200):
        powers = rng.uniform(0.0, 5.0, size=(50, beams))
        assert _bits(powers.sum(axis=1)) == _bits([np.sum(row) for row in powers])
    np.testing.assert_allclose(powers.sum(axis=1), [math.fsum(row) for row in powers],
                               rtol=1e-12)


def test_calibrated_threshold_is_db_midpoint():
    thr = calibrate_power_threshold(np.array([1.0, 1.0, 1e-3, 1e-3]),
                                    np.array([False, False, True, True]))
    assert thr == pytest.approx(10.0 ** (-1.5), rel=1e-12)


def test_calibration_needs_both_classes():
    assert calibrate_power_threshold(np.array([1.0, 2.0]), np.array([False, False])) is None
    assert calibrate_power_threshold(np.array([1.0, 2.0]), np.array([True, True])) is None


def test_world_and_vehicle_validation():
    with pytest.raises(ValueError):
        WorldState((1.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        WorldState(TX, RX, lidar_max_range=0.0)
    with pytest.raises(ValueError):
        WorldState(TX, RX, bounce_x=(5.0, 5.0))
    with pytest.raises(ValueError):
        Vehicle((0.0, 0.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        ChannelConfig(noise_variance=-1.0)
    with pytest.raises(ValueError):
        ChannelConfig(blocked_attenuation_db=0.0)
    for power in (0.0, -1.0):  # its square root scales the direct path
        with pytest.raises(ValueError, match="symbol_power"):
            ChannelConfig(symbol_power=power)
    with pytest.raises(ValueError):
        simulate_scenario(WorldState(TX, RX), build_codebook(2, 0, 1.0),
                          ChannelConfig(), steps=0, seed=0)
