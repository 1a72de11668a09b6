import dataclasses
import math

import numpy as np
import pytest

from blockcast.errors import DegenerateLinkError, NonFiniteError
from blockcast.geometry import (
    LinkGeometry,
    blockage_from_location,
    blockage_labels_from_rssi,
    transfer_link,
)
from blockcast.models import predict_locations_batch
from blockcast.preprocess import Centroid, DbscanConfig, SrcConfig, scenario_centroids
from blockcast.scene import segment_intersects_rect

VERTICAL = LinkGeometry((0.0, 0.0), (0.0, 12.0), object_width=4.0)


def loc(x, y):
    return Centroid(0, float(x), float(y), True)


def sampled_blockage(link, location, samples=4001):
    """Independent check: walk the segment and look for a point at the
    object's y whose x falls inside the object's extent."""
    tx = np.asarray(link.tx)
    rx = np.asarray(link.rx)
    t = np.linspace(0.0, 1.0, samples)
    px = tx[0] + t * (rx[0] - tx[0])
    py = tx[1] + t * (rx[1] - tx[1])
    step_y = abs(rx[1] - tx[1]) / (samples - 1)
    near = np.abs(py - location.y) <= 0.5 * step_y + 1e-12
    return bool(np.any(near & (np.abs(px - location.x) <= link.object_width / 2.0)))


def boundary_margins(link, location):
    dx = link.rx[0] - link.tx[0]
    dy = link.rx[1] - link.tx[1]
    along = (location.y - link.tx[1]) / dy
    crossing = link.tx[0] + along * dx
    m_along = min(abs(along), abs(along - 1.0))
    m_across = abs(abs(crossing - location.x) - link.object_width / 2.0)
    return m_along, m_across, abs(dx)


# ---------------------------------------------------------------------------
# Direct cases
# ---------------------------------------------------------------------------

def test_object_on_the_midpoint_blocks():
    assert blockage_from_location(loc(0.0, 6.0), VERTICAL)


def test_object_beside_the_link_does_not_block():
    assert not blockage_from_location(loc(3.0, 6.0), VERTICAL)
    assert not blockage_from_location(loc(-2.1, 6.0), VERTICAL)


def test_interval_edges_are_inclusive():
    assert blockage_from_location(loc(2.0, 6.0), VERTICAL)
    assert blockage_from_location(loc(-2.0, 6.0), VERTICAL)
    assert blockage_from_location(loc(0.0, 0.0), VERTICAL)
    assert blockage_from_location(loc(0.0, 12.0), VERTICAL)
    assert not blockage_from_location(loc(0.0, 12.1), VERTICAL)
    assert not blockage_from_location(loc(0.0, -0.1), VERTICAL)


def test_horizontal_link_meets_the_object_only_on_its_own_line():
    # The object is the depth-0 box [x - 2, x + 2] x [y, y]: a horizontal
    # link meets it only at the object's y, wherever the x ranges overlap.
    link = LinkGeometry((0.0, 5.0), (10.0, 5.0), object_width=4.0)
    assert blockage_from_location(loc(5.0, 5.0), link)
    assert blockage_from_location(loc(-2.0, 5.0), link)
    assert blockage_from_location(loc(12.0, 5.0), link)
    assert not blockage_from_location(loc(-2.1, 5.0), link)
    assert not blockage_from_location(loc(12.1, 5.0), link)
    assert not blockage_from_location(loc(5.0, 5.1), link)
    assert not blockage_from_location(loc(5.0, 4.9), link)


def test_answer_is_continuous_in_the_link_slope():
    """A link tilting towards horizontal keeps its answers: the object off
    the link's line never blocks, the one on it always does."""
    off_line, on_line = set(), set()
    for dy in (1e-6, 1e-8, 1e-10, 0.0):
        link = LinkGeometry((0.0, 2.0), (20.0, 2.0 + dy), object_width=4.0)
        off_line.add(blockage_from_location(loc(10.0, 3.0), link))
        on_line.add(blockage_from_location(loc(10.0, 2.0 + dy / 2.0), link))
    assert off_line == {False}
    assert on_line == {True}


def test_diagonal_link_hand_case():
    link = LinkGeometry((0.0, 0.0), (10.0, 10.0), object_width=2.0)
    # At y=4 the link crosses x=4; the object at x=4.9 still overlaps.
    assert blockage_from_location(loc(4.9, 4.0), link)
    assert not blockage_from_location(loc(5.1, 4.0), link)


def test_invalid_location_is_rejected():
    with pytest.raises(ValueError):
        blockage_from_location(Centroid(0, math.nan, math.nan, False), VERTICAL)


def test_link_validation():
    with pytest.raises(DegenerateLinkError):
        LinkGeometry((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        LinkGeometry((0.0, 0.0), (0.0, 12.0), object_width=0.0)
    with pytest.raises(ValueError):
        LinkGeometry((0.0, 0.0), (0.0, 12.0), power_threshold=0.0)
    # Only coincident endpoints are degenerate: a 1e-10-long link answers
    # exactly, in the scalar and the array form alike.
    short = LinkGeometry((1.0, 1.0), (1.0, 1.0 + 1e-10), object_width=4.0)
    centres = np.array([[1.0, 1.0 + 5e-11], [2.9, 1.0], [1.0, 1.0 + 2e-10], [3.1, 1.0]])
    expect = [True, True, False, False]
    assert [blockage_from_location(loc(*c), short) for c in centres] == expect
    with np.errstate(all="raise"):
        flags = segment_intersects_rect(short.tx, short.rx, centres, 4.0, 0.0)
    assert flags.tolist() == expect


@pytest.mark.parametrize(
    "field, value", [("tx", (math.nan, 0.0)), ("rx", (0.0, math.inf)), ("object_width", math.nan),
                     ("power_threshold", math.nan), ("power_threshold", math.inf),
                     ("power_threshold", -math.inf)]
)
def test_link_rejects_non_finite_values_naming_the_field(field, value):
    args = {"tx": (0.0, 0.0), "rx": (0.0, 12.0), "object_width": 4.0, field: value}
    with pytest.raises(NonFiniteError, match=field):
        LinkGeometry(**args)


# ---------------------------------------------------------------------------
# Properties against independent sampling
# ---------------------------------------------------------------------------

def test_blockage_matches_dense_segment_sampling():
    rng = np.random.default_rng(21)
    samples = 4001
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        tx = rng.uniform(-20.0, 20.0, size=2)
        rx = tx + np.array(
            [rng.uniform(-15.0, 15.0),
             rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 15.0)]
        )
        w = rng.uniform(0.5, 6.0)
        link = LinkGeometry(tuple(tx), tuple(rx), object_width=w)
        lo_x, hi_x = sorted((tx[0], rx[0]))
        lo_y, hi_y = sorted((tx[1], rx[1]))
        where = loc(rng.uniform(lo_x - 5.0, hi_x + 5.0),
                    rng.uniform(lo_y - 2.0, hi_y + 2.0))
        got = blockage_from_location(where, link)
        ref = sampled_blockage(link, where, samples)
        outcomes[got] += 1
        if got != ref:
            m_along, m_across, adx = boundary_margins(link, where)
            step = 1.0 / (samples - 1)
            assert m_along <= 2.0 * step or m_across <= 2.0 * (adx + 1.0) * step, (
                link, where, got, ref
            )
    assert outcomes[True] > 20 and outcomes[False] > 20


def test_blockage_is_translation_invariant():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        tx = rng.uniform(-10.0, 10.0, size=2)
        rx = tx + np.array([rng.uniform(-8.0, 8.0),
                            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0)])
        w = rng.uniform(0.5, 5.0)
        where = rng.uniform(-12.0, 12.0, size=2)
        shift = rng.uniform(-50.0, 50.0, size=2)
        a = blockage_from_location(
            loc(*where), LinkGeometry(tuple(tx), tuple(rx), object_width=w)
        )
        b = blockage_from_location(
            loc(*(where + shift)),
            LinkGeometry(tuple(tx + shift), tuple(rx + shift), object_width=w),
        )
        assert a == b


def test_blockage_is_symmetric_in_the_endpoints():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        tx = rng.uniform(-10.0, 10.0, size=2)
        rx = tx + np.array([rng.uniform(-8.0, 8.0),
                            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0)])
        w = rng.uniform(0.5, 5.0)
        where = loc(*rng.uniform(-12.0, 12.0, size=2))
        a = blockage_from_location(where, LinkGeometry(tuple(tx), tuple(rx), object_width=w))
        b = blockage_from_location(where, LinkGeometry(tuple(rx), tuple(tx), object_width=w))
        assert a == b


def test_wider_objects_block_at_least_as_often():
    rng = np.random.default_rng(24)
    for _ in range(1000):
        tx = rng.uniform(-10.0, 10.0, size=2)
        rx = tx + np.array([rng.uniform(-8.0, 8.0),
                            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0)])
        w = rng.uniform(0.5, 4.0)
        where = loc(*rng.uniform(-12.0, 12.0, size=2))
        narrow = blockage_from_location(
            where, LinkGeometry(tuple(tx), tuple(rx), object_width=w)
        )
        wide = blockage_from_location(
            where, LinkGeometry(tuple(tx), tuple(rx), object_width=w + rng.uniform(0.1, 4.0))
        )
        assert wide or not narrow


# ---------------------------------------------------------------------------
# Threshold labels
# ---------------------------------------------------------------------------

def test_threshold_comparison_is_strict():
    powers = np.array([
        [0.5, 0.5],        # exactly the threshold
        [0.5, 0.49999],    # just under
        [0.7, 0.4],        # above
    ])
    labels = blockage_labels_from_rssi(powers, 1.0)
    assert labels.dtype == bool and labels.tolist() == [False, True, False]


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        blockage_labels_from_rssi(np.array([[1.0]]), 0.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_threshold_must_be_finite(threshold):
    # A NaN threshold compares false against every power: all flags clear.
    with pytest.raises(ValueError, match="finite positive"):
        blockage_labels_from_rssi(np.array([[1.0]]), threshold)


def test_geometric_and_threshold_labels_agree_on_the_standard_run(
    standard_config, standard_bundle, standard_dataset
):
    link = LinkGeometry(
        (14.0, -4.0), (14.0, 8.0),
        object_width=4.0,
        power_threshold=standard_bundle.meta["power_threshold"],
    )
    flags = blockage_labels_from_rssi(standard_bundle.rssi, link.power_threshold)
    by_t = dict(zip(standard_bundle.t.tolist(), flags.tolist()))
    cfg = standard_config
    centroids = scenario_centroids(
        standard_bundle, SrcConfig(cfg["proximity_radius"], tuple(cfg["road_region"])),
        DbscanConfig(cfg["eps"], cfg["min_pts"]))
    at = dict(zip(standard_bundle.t.tolist(), centroids.tolist()))  # road frame, per step
    hits = total = 0
    for s in standard_dataset.samples:
        total += 1
        hits += blockage_from_location(Centroid(s.t, *at[s.t]), link) == by_t[s.t]
    assert total > 1000
    assert hits / total >= 0.99


# ---------------------------------------------------------------------------
# Prediction plumbing and zero-shot transfer
# ---------------------------------------------------------------------------

def test_trained_model_tracks_transitions(trained_localization, standard_dataset):
    link = LinkGeometry((14.0, -4.0), (14.0, 8.0), object_width=4.0)
    samples = [
        s for s in standard_dataset.subset("test")
        if s.future_blocked.any() and not s.future_blocked.all()
    ]
    assert len(samples) >= 5
    coords = predict_locations_batch(
        trained_localization, np.stack([s.window for s in samples])
    )
    good = 0
    for s, path in zip(samples, coords):
        flags = np.array(
            [blockage_from_location(loc(x, y), link) for x, y in path]
        )
        good += int((flags == s.future_blocked).sum()) >= 3
    assert good >= math.ceil(len(samples) / 2), (good, len(samples))


def test_transfer_link_replaces_only_the_receiver():
    link = LinkGeometry((14.0, -4.0), (14.0, 8.0), object_width=4.0, power_threshold=0.5)
    moved = transfer_link(link, (28, 8))
    assert moved.rx == (28.0, 8.0)
    assert moved.tx == link.tx
    assert moved.object_width == 4.0 and moved.power_threshold == 0.5
    assert link.rx == (14.0, 8.0)  # original untouched

    # The same object stops blocking once the receiver moves aside.
    between = loc(14.0, 2.0)
    assert blockage_from_location(between, link)
    assert not blockage_from_location(between, moved)

    with pytest.raises(DegenerateLinkError):
        transfer_link(link, link.tx)


def test_transfer_link_is_a_fresh_frozen_instance():
    link = LinkGeometry((0.0, 0.0), (0.0, 12.0))
    moved = transfer_link(link, (3.0, 12.0))
    assert moved is not link
    with pytest.raises(dataclasses.FrozenInstanceError):
        moved.object_width = 2.0
