"""Blockage prediction for beam-steered links from RSSI and 2D lidar.

The pipeline: simulate (or import) a scenario of per-beam power vectors
plus lidar sweeps, derive self-supervised location and blockage labels,
train sequence models, and evaluate blockage prediction, including
zero-shot receiver moves through a geometric line-of-sight test.
Import from the submodules (``blockcast.cli``, ``blockcast.models``, ...).

Importing the package runs numpy's bundled OpenBLAS on one thread, unless
``OPENBLAS_NUM_THREADS`` sets the count: with OpenBLAS's Haswell kernel at
two threads, a trailing block of 65 or 69 scored windows lost the bits of
one forward over every window (``models._score``). ``numeric_environment()``
names what the last bits of training and scoring depend on.
"""

import os

from .models import load_model

__all__ = ["load_model", "numeric_environment"]


def _openblas(symbol: str, restype, *argtypes):
    """``symbol`` of the ``scipy_openblas`` library that numpy ships, through
    ``ctypes``; None when that library or the symbol is not there."""
    import ctypes
    from pathlib import Path

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            function = getattr(ctypes.CDLL(str(lib)), symbol)
        except (OSError, AttributeError):
            continue
        function.argtypes = list(argtypes)
        function.restype = restype
        return function
    return None


def _pin_blas_threads() -> None:
    """One OpenBLAS thread; nothing when the environment sets the count, or
    when numpy's OpenBLAS or its setter is not there."""
    import ctypes

    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    set_threads = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if set_threads is not None:
        set_threads(1)


def numeric_environment() -> dict:
    """The numeric environment that the pinned hashes belong to: numpy's
    OpenBLAS kernel (``blas_core``, e.g. "SkylakeX"), its build
    configuration and thread count, and the SIMD features that numpy's own
    loops use (``simd``, sorted). An OpenBLAS entry is None where numpy
    ships no ``scipy_openblas``."""
    import ctypes

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    config = _openblas("scipy_openblas_get_config64_", ctypes.c_char_p)
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return {
        "blas_core": core().decode() if core else None,
        "blas_config": config().decode().strip() if config else None,
        "blas_threads": threads() if threads else None,
        "simd": sorted(name for name, enabled in __cpu_features__.items() if enabled),
    }


_pin_blas_threads()
