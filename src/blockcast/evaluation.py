"""Metrics and report emission.

Blockage predictions are scored with exact confusion accounting, both
aggregate and per horizon step; location predictions with Euclidean error
statistics per horizon step. Reports serialize to CSV (plot-ready) and to
an aligned plain-text table. Precision is reported as absent (empty CSV
cell, "-" in tables) when no positive was predicted, never as 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import write_csv


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("no samples counted")
        return (self.tp + self.tn) / self.total

    @property
    def precision(self) -> float | None:
        if self.tp + self.fp == 0:
            return None
        return self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float | None:
        if self.tp + self.fn == 0:
            return None
        return self.tp / (self.tp + self.fn)

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


@dataclass
class BlockageReport:
    aggregate: ConfusionCounts
    per_step: list[ConfusionCounts]


def _count(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    return ConfusionCounts(
        tp=int(np.sum(pred & truth)),
        fp=int(np.sum(pred & ~truth)),
        tn=int(np.sum(~pred & ~truth)),
        fn=int(np.sum(~pred & truth)),
    )


def evaluate_blockage(predictions, truth) -> BlockageReport:
    """Score per-step boolean predictions (n, N) against truth (n, N)."""
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
    per_step = [_count(pred[:, k], true[:, k]) for k in range(pred.shape[1])]
    aggregate = ConfusionCounts()
    for c in per_step:
        aggregate = aggregate + c
    return BlockageReport(aggregate=aggregate, per_step=per_step)


@dataclass(frozen=True)
class ErrorStats:
    mean: float
    median: float
    p90: float


@dataclass
class LocalizationReport:
    per_step: list[ErrorStats]
    errors: np.ndarray  # (n, N) raw Euclidean errors, for recounting

    @property
    def overall_mean(self) -> float:
        return float(self.errors.mean())


def evaluate_localization(pred, truth) -> LocalizationReport:
    """Euclidean error stats from (n, N, 2) predicted vs true positions."""
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
    per_step = [
        ErrorStats(
            mean=float(errors[:, k].mean()),
            median=float(np.median(errors[:, k])),
            p90=float(np.quantile(errors[:, k], 0.9)),
        )
        for k in range(errors.shape[1])
    ]
    return LocalizationReport(per_step=per_step, errors=errors)


@dataclass
class MultiSeedReport:
    per_step_mean: np.ndarray    # (N,)
    per_step_stddev: np.ndarray  # (N,) sample stddev (ddof=1)
    num_seeds: int


def multi_seed_report(per_seed_accuracies) -> MultiSeedReport:
    """Mean and sample stddev of per-horizon accuracy across seeds.

    per_seed_accuracies: sequence over seeds of per-horizon accuracy
    sequences, all the same length; needs at least two seeds.
    """
    acc = np.asarray(per_seed_accuracies, dtype=np.float64)
    if acc.ndim != 2:
        raise ValueError("expected one accuracy row per seed")
    if acc.shape[0] < 2:
        raise ValueError(f"need at least 2 seeds, got {acc.shape[0]}")
    return MultiSeedReport(
        per_step_mean=acc.mean(axis=0),
        per_step_stddev=acc.std(axis=0, ddof=1),
        num_seeds=acc.shape[0],
    )


# ---------------------------------------------------------------------------
# Emission: CSV plus aligned text table
# ---------------------------------------------------------------------------

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


def blockage_report_rows(label: str, report: BlockageReport) -> list[list]:
    """One row per horizon step plus an "all" row; precision None when absent."""
    steps = list(enumerate(report.per_step, start=1)) + [("all", report.aggregate)]
    return [[label, step, c.tp, c.fp, c.tn, c.fn, c.accuracy, c.precision] for step, c in steps]


BLOCKAGE_CSV_HEADER = ["method", "step", "tp", "fp", "tn", "fn", "accuracy", "precision"]


def write_blockage_csv(path, labeled_reports: list[tuple[str, BlockageReport]]) -> None:
    rows = [row for label, report in labeled_reports for row in blockage_report_rows(label, report)]
    cells = np.array(rows, dtype=object).reshape(len(rows), len(BLOCKAGE_CSV_HEADER))
    write_csv(path, BLOCKAGE_CSV_HEADER, [cells])


LOCALIZATION_CSV_HEADER = ["method", "step", "mean", "median", "p90"]


def write_localization_csv(path, labeled_reports: list[tuple[str, LocalizationReport]]) -> None:
    rows = [[label, k, stats.mean, stats.median, stats.p90]
            for label, report in labeled_reports
            for k, stats in enumerate(report.per_step, start=1)]
    cells = np.array(rows, dtype=object).reshape(len(rows), len(LOCALIZATION_CSV_HEADER))
    write_csv(path, LOCALIZATION_CSV_HEADER, [cells])


MULTI_SEED_CSV_HEADER = ["method", "step", "mean_accuracy", "stddev", "num_seeds"]


def write_multi_seed_csv(path, labeled_reports: list[tuple[str, MultiSeedReport]]) -> None:
    rows = [[label, k + 1, report.per_step_mean[k], report.per_step_stddev[k], report.num_seeds]
            for label, report in labeled_reports
            for k in range(report.per_step_mean.shape[0])]
    cells = np.array(rows, dtype=object).reshape(len(rows), len(MULTI_SEED_CSV_HEADER))
    write_csv(path, MULTI_SEED_CSV_HEADER, [cells])


def blockage_table(labeled_reports: list[tuple[str, BlockageReport]]) -> str:
    rows = []
    for label, report in labeled_reports:
        for *cells, accuracy, precision in blockage_report_rows(label, report):
            pretty = "-" if precision is None else f"{precision:.4f}"
            rows.append([str(c) for c in cells] + [f"{accuracy:.4f}", pretty])
    return format_table(BLOCKAGE_CSV_HEADER, rows)
