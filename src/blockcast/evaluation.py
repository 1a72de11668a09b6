"""Metrics and report rows.

Blockage predictions are scored with exact confusion accounting, per
horizon step and over all steps: ``evaluate_blockage`` returns a table of
tp, fp, tn, fn counts. Location predictions get Euclidean error statistics
per horizon step: ``evaluate_localization`` returns a table of mean,
median and p90. The row helpers turn these tables into CSV rows, which
``ingest.write_csv`` writes as they are and ``blockage_table`` lays out as
an aligned plain-text table. Precision is reported as absent (None: an
empty CSV cell, "-" in tables) when no positive was predicted, never as 0
or 1.
"""

from __future__ import annotations

import numpy as np

BLOCKAGE_CSV_HEADER = ["method", "step", "tp", "fp", "tn", "fn", "accuracy", "precision"]
LOCALIZATION_CSV_HEADER = ["method", "step", "mean", "median", "p90"]
MULTI_SEED_CSV_HEADER = ["method", "step", "mean_accuracy", "stddev", "num_seeds"]


def evaluate_blockage(predictions, truth) -> np.ndarray:
    """The (N+1, 4) int table of tp, fp, tn, fn of per-step boolean
    predictions (n, N) against truth (n, N): a row per horizon step, then
    the row of all steps. 1-D inputs are one step."""
    pred = np.asarray(predictions, dtype=bool)
    true = np.asarray(truth, dtype=bool)
    if pred.ndim == 1:
        pred = pred[:, None]
    if true.ndim == 1:
        true = true[:, None]
    if pred.shape != true.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth shape {true.shape}")
    if pred.size == 0:
        raise ValueError("nothing to evaluate")
    per_step = np.stack([(pred & true).sum(axis=0), (pred & ~true).sum(axis=0),
                         (~pred & ~true).sum(axis=0), (~pred & true).sum(axis=0)], axis=1)
    return np.vstack([per_step, per_step.sum(axis=0)])


def evaluate_localization(pred, truth) -> np.ndarray:
    """The (N, 3) table of mean, median and p90 Euclidean error per horizon
    step of (n, N, 2) predicted vs true positions; (N, 2) inputs are one
    window. Each step's stats are 1-D reductions of its error column."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim == 2:
        pred = pred[None]
    if truth.ndim == 2:
        truth = truth[None]
    if pred.shape != truth.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if pred.ndim != 3 or pred.shape[2] != 2 or pred.size == 0:
        raise ValueError("positions must have shape (n, N, 2), nonempty")
    errors = np.linalg.norm(pred - truth, axis=2)
    # errors.mean(axis=0) sums in another order, and its bits differ.
    return np.array([[e.mean(), np.median(e), np.quantile(e, 0.9)] for e in errors.T])


# ---------------------------------------------------------------------------
# Rows: CSV rows of the tables, and the aligned text table
# ---------------------------------------------------------------------------

def blockage_rows(label: str, counts: np.ndarray) -> list[list]:
    """The CSV rows of a count table: one per horizon step, then the "all"
    row; accuracy and precision are divisions of Python ints, and precision
    is None when no positive was predicted."""
    steps = [*range(1, len(counts)), "all"]
    return [[label, step, tp, fp, tn, fn, (tp + tn) / (tp + fp + tn + fn),
             tp / (tp + fp) if tp + fp else None]
            for step, (tp, fp, tn, fn) in zip(steps, counts.tolist())]


def localization_rows(label: str, stats: np.ndarray) -> list[list]:
    """The CSV rows of an error-stats table, one per horizon step."""
    return [[label, k, *row] for k, row in enumerate(stats.tolist(), start=1)]


def multi_seed_rows(label: str, per_seed_accuracies) -> list[list]:
    """Mean and sample stddev (ddof=1) of per-step accuracy across seeds, a
    CSV row per step. ``per_seed_accuracies`` holds one equal-length row of
    per-step accuracies per seed, at least two."""
    acc = np.asarray(per_seed_accuracies, dtype=np.float64)
    if acc.ndim != 2:
        raise ValueError("expected one accuracy row per seed")
    if acc.shape[0] < 2:
        raise ValueError(f"need at least 2 seeds, got {acc.shape[0]}")
    spread = zip(acc.mean(axis=0).tolist(), acc.std(axis=0, ddof=1).tolist())
    return [[label, k, mean, std, len(acc)] for k, (mean, std) in enumerate(spread, start=1)]


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def blockage_table(rows: list[list]) -> str:
    """``blockage_rows`` rows as a text table: accuracy and precision to 4
    places, "-" for an absent precision."""
    cells = [[*map(str, cells), f"{accuracy:.4f}",
              "-" if precision is None else f"{precision:.4f}"]
             for *cells, accuracy, precision in rows]
    return format_table(BLOCKAGE_CSV_HEADER, cells)
