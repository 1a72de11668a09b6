import numpy as np
import pytest

from blockcast.evaluation import (
    BLOCKAGE_CSV_HEADER,
    LOCALIZATION_CSV_HEADER,
    MULTI_SEED_CSV_HEADER,
    blockage_rows,
    blockage_table,
    evaluate_blockage,
    evaluate_localization,
    format_table,
    localization_rows,
    multi_seed_rows,
)
from blockcast.ingest import write_csv


def _scores(label, counts):
    """(accuracy, precision) of each blockage row, the "all" row last."""
    return [(row[6], row[7]) for row in blockage_rows(label, counts)]


# ---------------------------------------------------------------------------
# Confusion accounting
# ---------------------------------------------------------------------------

def test_perfect_predictions_score_one():
    truth = np.array([[True, False], [False, True], [True, True]])
    counts = evaluate_blockage(truth, truth)
    assert counts.shape == (3, 4) and counts.dtype.kind == "i"
    tp, fp, tn, fn = counts[-1]
    assert fp == 0 and fn == 0 and tp == 4 and tn == 2
    assert _scores("rf", counts)[-1] == (1.0, 1.0)


def test_inverted_predictions_score_zero():
    truth = np.array([[True, False], [False, True]])
    assert _scores("rf", evaluate_blockage(~truth, truth))[-1] == (0.0, 0.0)


def test_precision_is_absent_without_positive_predictions():
    truth = np.array([[True], [False]])
    pred = np.array([[False], [False]])
    assert _scores("rf", evaluate_blockage(pred, truth)) == [(0.5, None), (0.5, None)]


def test_one_dimensional_inputs_are_single_step():
    counts = evaluate_blockage([True, False, True], [True, True, True])
    assert counts.tolist() == [[2, 0, 0, 1], [2, 0, 0, 1]]
    rows = blockage_rows("rf", counts)
    assert [row[1] for row in rows] == [1, "all"]
    assert rows[-1][6] == pytest.approx(2 / 3)


def test_counts_match_a_recount_on_random_data():
    rng = np.random.default_rng(30)
    pred = rng.integers(0, 2, size=(200, 5)).astype(bool)
    truth = rng.integers(0, 2, size=(200, 5)).astype(bool)
    counts = evaluate_blockage(pred, truth)
    assert counts.shape == (6, 4)
    for k in range(5):
        assert counts[k].tolist() == [
            int(np.sum(pred[:, k] & truth[:, k])), int(np.sum(pred[:, k] & ~truth[:, k])),
            int(np.sum(~pred[:, k] & ~truth[:, k])), int(np.sum(~pred[:, k] & truth[:, k])),
        ]
    assert (counts[:5].sum(axis=1) == 200).all()
    assert counts[5].tolist() == [
        int(np.sum(pred & truth)), int(np.sum(pred & ~truth)),
        int(np.sum(~pred & ~truth)), int(np.sum(~pred & truth)),
    ]
    rows = blockage_rows("rf", counts)
    assert [row[1] for row in rows] == [1, 2, 3, 4, 5, "all"]
    for row in rows:
        tp, fp, tn, fn = row[2:6]
        assert all(type(c) is int for c in (tp, fp, tn, fn))
        assert row[6] == (tp + tn) / (tp + fp + tn + fn)
        assert row[7] == tp / (tp + fp)
    # The "all" accuracy is the sample-weighted mean of per-step accuracy.
    weighted = sum(row[6] * 200 for row in rows[:5]) / 1000
    assert rows[5][6] == pytest.approx(weighted, rel=1e-12)


def test_evaluate_blockage_validation():
    with pytest.raises(ValueError):
        evaluate_blockage(np.zeros((2, 3), dtype=bool), np.zeros((2, 4), dtype=bool))
    with pytest.raises(ValueError):
        evaluate_blockage(np.zeros((0, 3), dtype=bool), np.zeros((0, 3), dtype=bool))


# ---------------------------------------------------------------------------
# Localization error stats
# ---------------------------------------------------------------------------

def test_zero_error_stats():
    pts = np.ones((4, 3, 2))
    stats = evaluate_localization(pts, pts)
    assert stats.shape == (3, 3)
    assert not stats.any()


def test_single_offset_error_is_its_norm():
    pred = np.array([[[3.0, 4.0]]])
    truth = np.array([[[0.0, 0.0]]])
    assert evaluate_localization(pred, truth).tolist() == [[5.0, 5.0, 5.0]]


def test_localization_stats_match_a_recount():
    rng = np.random.default_rng(31)
    pred = rng.normal(size=(50, 4, 2))
    truth = rng.normal(size=(50, 4, 2))
    stats = evaluate_localization(pred, truth)
    assert stats.shape == (4, 3)
    for k in range(4):
        err = np.sqrt(((pred[:, k] - truth[:, k]) ** 2).sum(axis=1))
        assert stats[k, 0] == pytest.approx(err.mean(), rel=1e-12)
        assert stats[k, 1] == pytest.approx(np.median(err), rel=1e-12)
        assert stats[k, 2] == pytest.approx(np.quantile(err, 0.9), rel=1e-12)


def test_localization_stats_are_one_reduction_per_step_column_bit_for_bit():
    """``errors.mean(axis=0)`` sums a 2-D block in another order than the
    mean of each column, and localization.csv would change bits."""
    rng = np.random.default_rng(33)
    pred = rng.normal(size=(300, 5, 2))
    truth = rng.normal(size=(300, 5, 2))
    errors = np.linalg.norm(pred - truth, axis=2)
    columns = np.array([[errors[:, k].mean(), np.median(errors[:, k]),
                         np.quantile(errors[:, k], 0.9)] for k in range(5)])
    assert (errors.mean(axis=0) != columns[:, 0]).any()  # the data tells the two apart
    assert evaluate_localization(pred, truth).tobytes() == columns.tobytes()


def test_single_window_input_is_promoted():
    assert evaluate_localization(np.zeros((3, 2)), np.zeros((3, 2))).shape == (3, 3)


def test_evaluate_localization_validation():
    with pytest.raises(ValueError):
        evaluate_localization(np.zeros((2, 3, 2)), np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        evaluate_localization(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        evaluate_localization(np.zeros((0, 3, 2)), np.zeros((0, 3, 2)))


# ---------------------------------------------------------------------------
# Multi-seed spread
# ---------------------------------------------------------------------------

def test_identical_seeds_have_zero_spread():
    rows = multi_seed_rows("rf", [[0.9, 0.8], [0.9, 0.8], [0.9, 0.8]])
    assert [row[:2] + row[4:] for row in rows] == [["rf", 1, 3], ["rf", 2, 3]]
    np.testing.assert_allclose([row[2] for row in rows], [0.9, 0.8], rtol=0, atol=1e-15)
    np.testing.assert_allclose([row[3] for row in rows], [0.0, 0.0], rtol=0, atol=1e-15)


def test_two_seed_sample_stddev():
    [row] = multi_seed_rows("rf", [[0.7], [0.8]])
    assert row[2] == pytest.approx(0.75)
    assert row[3] == pytest.approx(0.0707106781186548, rel=1e-9)


def test_multi_seed_needs_two_rows():
    with pytest.raises(ValueError):
        multi_seed_rows("rf", [[0.9, 0.8]])
    with pytest.raises(ValueError):
        multi_seed_rows("rf", [0.9, 0.8])


# ---------------------------------------------------------------------------
# Emission: the rows as ingest.write_csv writes them, and the text table
# ---------------------------------------------------------------------------

def test_blockage_csv_round_trips_counts(tmp_path):
    truth = np.array([[True, False], [True, True], [False, False]])
    pred = np.array([[True, False], [False, True], [False, True]])
    rows = blockage_rows("rf", evaluate_blockage(pred, truth))
    path = tmp_path / "blockage.csv"
    write_csv(path, BLOCKAGE_CSV_HEADER, [rows])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,step,tp,fp,tn,fn,accuracy,precision"
    assert len(lines) == 1 + 2 + 1  # per-step rows plus the "all" row
    step1 = lines[1].split(",")
    assert step1[:6] == ["rf", "1", "1", "0", "1", "1"]
    assert float(step1[6]) == rows[0][6]
    all_row = lines[3].split(",")
    assert all_row[1] == "all"
    assert float(all_row[6]) == rows[2][6] == 4 / 6


def test_blockage_csv_leaves_precision_blank_when_absent(tmp_path):
    rows = blockage_rows("loc", evaluate_blockage(np.array([[False]] * 3),
                                                  np.array([[True]] * 3)))
    path = tmp_path / "blockage.csv"
    write_csv(path, BLOCKAGE_CSV_HEADER, [rows])
    for line in path.read_text().strip().splitlines()[1:]:
        assert line.endswith(",")


def test_blockage_table_marks_absent_precision_with_a_dash():
    rows = blockage_rows("loc", evaluate_blockage(np.array([[False]] * 3),
                                                  np.array([[True]] * 3)))
    body = blockage_table(rows).splitlines()[2:]
    assert len(body) == 2
    assert all(row.rstrip().endswith("-") for row in body)
    assert "0.0000" in body[0]


def test_localization_csv_layout(tmp_path):
    rng = np.random.default_rng(32)
    stats = evaluate_localization(rng.normal(size=(10, 3, 2)), rng.normal(size=(10, 3, 2)))
    path = tmp_path / "loc.csv"
    write_csv(path, LOCALIZATION_CSV_HEADER, [localization_rows("loc", stats)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,step,mean,median,p90"
    assert len(lines) == 4
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[:2] == ["loc", str(k + 1)]
        assert cells[2:] == [repr(float(v)) for v in stats[k]]


def test_multi_seed_csv_layout(tmp_path):
    rows = multi_seed_rows("rf", [[0.7, 0.9], [0.8, 0.9]])
    path = tmp_path / "seeds.csv"
    write_csv(path, MULTI_SEED_CSV_HEADER, [rows])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,step,mean_accuracy,stddev,num_seeds"
    row1 = lines[1].split(",")
    assert row1 == ["rf", "1", repr(0.75), repr(float(np.std([0.7, 0.8], ddof=1))), "2"]
    row2 = lines[2].split(",")
    assert float(row2[3]) == 0.0


def test_format_table_alignment():
    text = format_table(["a", "blob"], [["x", "1"], ["longer", "2"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a     ")
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].startswith("x")
