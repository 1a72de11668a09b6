"""Exception types shared across the pipeline, and ``ensure_finite``.

ValueError is used for plain precondition violations (bad shapes, bad
arguments); the classes below mark failures callers may want to handle
separately.
"""

import numpy as np


class PipelineError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(PipelineError):
    """A file could not be parsed; carries file and line context."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class SchemaError(PipelineError):
    """File content does not match the documented schema."""


class TimeIndexGapError(PipelineError):
    """Time indices are not consecutive; lists the missing indices."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        shown = ", ".join(str(t) for t in self.missing[:10])
        more = "" if len(self.missing) <= 10 else f" (+{len(self.missing) - 10} more)"
        super().__init__(f"missing time indices: {shown}{more}")


class VersionError(PipelineError):
    """Unknown format version in a persisted artifact."""


class ConfigMismatchError(PipelineError):
    """Dataset and model were built with incompatible settings."""


class DegenerateLinkError(PipelineError):
    """Tx and Rx coincide; link geometry is undefined."""


class NonFiniteError(PipelineError):
    """A NaN or infinity appeared where only finite values are allowed."""


def ensure_finite(name: str, values) -> np.ndarray:
    """Return values as a float array, raising NonFiniteError on NaN/Inf."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr
