"""Blockage prediction for beam-steered links from RSSI and 2D lidar.

The pipeline: simulate (or import) a scenario of per-beam power vectors
plus lidar sweeps, derive self-supervised location and blockage labels,
train sequence models, and evaluate blockage prediction, including
zero-shot receiver moves through a geometric line-of-sight test.
Import from the submodules (``blockcast.cli``, ``blockcast.models``, ...).

Importing the package runs numpy's bundled OpenBLAS on one thread, unless
``OPENBLAS_NUM_THREADS`` sets the count: with OpenBLAS's Haswell kernel at
two threads, a trailing block of 65 or 69 scored windows lost the bits of
one forward over every window (``models._score``).
"""

import os

from .models import load_model

__all__ = ["load_model"]


def _pin_blas_threads() -> None:
    """One OpenBLAS thread, through the ``scipy_openblas`` library that numpy
    ships; nothing when the environment sets the count, or when that library
    or its setter is not there."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    import ctypes
    from pathlib import Path

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


_pin_blas_threads()
