"""Line-of-sight blockage tests driven by object locations.

The object is the paper's width-only blocker: a segment of width w along
x, centred on its location, i.e. the axis-aligned box of depth 0. It
blocks a Tx-Rx link when the closed link segment meets it. The test is
`scene.segment_intersects_rect`, the one segment-vs-box kernel that also
gives the simulator's occlusion and `transfer`'s truth, so it holds for
links of any orientation, horizontal ones included. Swapping a trained
location predictor onto a new link only means re-running this test with
new endpoints; the model itself is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLinkError, ensure_finite
from .preprocess import Centroid
from .scene import segment_intersects_rect


@dataclass(frozen=True)
class LinkGeometry:
    """Everything the geometric blockage test needs for one Tx-Rx pair."""

    tx: tuple[float, float]
    rx: tuple[float, float]
    object_width: float = 4.0
    power_threshold: float = 1.0

    def __post_init__(self):
        for name in ("tx", "rx", "object_width", "power_threshold"):
            ensure_finite(name, getattr(self, name))
        if self.object_width <= 0:
            raise ValueError("object_width must be positive")
        if self.power_threshold <= 0:
            raise ValueError("power_threshold must be positive")
        if self.tx[0] == self.rx[0] and self.tx[1] == self.rx[1]:
            raise DegenerateLinkError("tx and rx coincide")


def blockage_from_location(loc: Centroid, link: LinkGeometry) -> bool:
    """True when the link segment meets the object's width-w extent."""
    if not loc.valid:
        raise ValueError("blockage test requires a valid location")
    return bool(
        segment_intersects_rect(link.tx, link.rx, (loc.x, loc.y), link.object_width, 0.0)
    )


def blockage_labels_from_rssi(powers: np.ndarray, power_threshold: float) -> np.ndarray:
    """(T,) flags of (T, M) per-beam powers: blocked iff a step's total power
    drops strictly below the threshold."""
    if not (math.isfinite(power_threshold) and power_threshold > 0):
        raise ValueError(
            f"power_threshold must be a finite positive number, got {power_threshold!r}")
    return np.asarray(powers, dtype=np.float64).sum(axis=1) < power_threshold


def transfer_link(link: LinkGeometry, new_rx: tuple[float, float]) -> LinkGeometry:
    """Re-target the link to a new receiver; the whole zero-shot step."""
    return replace(link, rx=(float(new_rx[0]), float(new_rx[1])))
