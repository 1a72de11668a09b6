"""Line-of-sight blockage tests driven by object locations.

An object at (x, y) with cross-link width w blocks a Tx-Rx link when the
link segment passes through the w-wide interval the object occupies. The
test is split into two unit-interval coordinates: how far along the link
the object's y falls, and where the link's crossing point lands within
the object's extent. Both must land in [0, 1]. Swapping a trained
location predictor onto a new link only means re-running this test with
new endpoints; the model itself is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import DegenerateLinkError
from .preprocess import Centroid
from .scene import BlockageLabel, RssiFrame, total_power

# Below this endpoint separation the along-link fraction is numerically
# undefined and the test switches to the other axis.
AXIS_EPS = 1e-9


@dataclass(frozen=True)
class LinkGeometry:
    """Everything the geometric blockage test needs for one Tx-Rx pair."""

    tx: tuple[float, float]
    rx: tuple[float, float]
    object_width: float = 4.0
    power_threshold: float = 1.0

    def __post_init__(self):
        if self.object_width <= 0:
            raise ValueError("object_width must be positive")
        if self.power_threshold <= 0:
            raise ValueError("power_threshold must be positive")
        dx = self.rx[0] - self.tx[0]
        dy = self.rx[1] - self.tx[1]
        if abs(dx) < AXIS_EPS and abs(dy) < AXIS_EPS:
            raise DegenerateLinkError("tx and rx coincide")


def blockage_from_location(loc: Centroid, link: LinkGeometry) -> bool:
    """True when the link segment crosses the object's occupied interval.

    Parameterizes the link by y (by x for near-horizontal links): `along`
    is the object's fractional position between the endpoints, `across`
    is where the link's crossing point falls within the object's
    width-wide extent. Blocked iff both lie in [0, 1].
    """
    if not loc.valid:
        raise ValueError("blockage test requires a valid location")
    tx, rx, w = link.tx, link.rx, link.object_width
    dy = rx[1] - tx[1]
    if abs(dy) >= AXIS_EPS:
        along = (loc.y - tx[1]) / dy
        crossing = tx[0] + along * (rx[0] - tx[0])
        across = 0.5 + (crossing - loc.x) / w
    else:
        dx = rx[0] - tx[0]
        along = (loc.x - tx[0]) / dx
        crossing = tx[1] + along * dy
        across = 0.5 + (crossing - loc.y) / w
    return 0.0 <= along <= 1.0 and 0.0 <= across <= 1.0


def blockage_labels_from_rssi(
    frames: Sequence[RssiFrame], power_threshold: float
) -> list[BlockageLabel]:
    """Blocked iff total power drops strictly below the threshold."""
    if power_threshold <= 0:
        raise ValueError("power_threshold must be positive")
    return [BlockageLabel(f.t, total_power(f) < power_threshold) for f in frames]


def transfer_link(link: LinkGeometry, new_rx: tuple[float, float]) -> LinkGeometry:
    """Re-target the link to a new receiver; the whole zero-shot step."""
    return replace(link, rx=(float(new_rx[0]), float(new_rx[1])))
