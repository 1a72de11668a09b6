"""Blockage prediction for beam-steered links from RSSI and 2D lidar.

The pipeline: simulate (or import) a scenario of per-beam power vectors
plus lidar sweeps, derive self-supervised location and blockage labels,
train sequence models, and evaluate blockage prediction, including
zero-shot receiver moves through a geometric line-of-sight test.
Import from the submodules (``blockcast.cli``, ``blockcast.models``, ...).
"""

from .models import load_model

__all__ = ["load_model"]
