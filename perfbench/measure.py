"""Small measurement helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
import re

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> float | None:
    """The nearest-rank q-quantile (0 < q < 1) of ``values``, or None when
    fewer than MIN_TAIL samples lie beyond it."""
    rank = math.ceil(q * len(values))
    if len(values) - rank < MIN_TAIL:
        return None
    return sorted(values)[rank - 1]


def latency_summary(samples_s) -> dict[str, float | None]:
    """p50/p90/p99 in milliseconds (None where the tail is too thin) and
    the sample count."""
    ms = [1e3 * s for s in samples_s]
    return {
        "p50": percentile(ms, 0.5),
        "p90": percentile(ms, 0.9),
        "p99": percentile(ms, 0.99),
        "n": len(ms),
    }


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None
