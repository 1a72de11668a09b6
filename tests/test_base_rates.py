"""Each standard accuracy beside its base rate.

A model that always says "clear" scores the share of clear flags: 0.852 on
the standard test split, and 0.769 to 0.840 at the receivers of the
acceptance suite's zero-shot sweep (criterion 6). The floor's accuracy
bounds alone would pass such a model. These tests reuse the session
fixtures and require each standard checkpoint to beat that all-clear score
where it is scored, so an all-clear stub in place of any model fails them.

The standard drive's one vehicle repeats its track every 208 steps, so its
test split replays what training saw; the held-out drive (conftest's
``HELD_OUT``) moves the vehicle at another speed, on a track never seen.
"""

import numpy as np
import pytest

from blockcast import cli
from blockcast.models import save_model
from blockcast.scene import segment_intersects_rect

# Criterion 6's receivers, after the scenario's own one (position 0).
SWEPT_RX = [(4.0, 12.0), (-6.0, 12.0), (8.0, 12.0), (-10.0, 12.0), (2.0, 12.0)]
# Localization's accuracy may fall at most this far from the standard split's
# to the held-out one's. Measured: 0.9125 -> 0.8661, a fall of 0.0464.
HELD_OUT_LOCALIZATION_FALL = 0.06


def _csv(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]


@pytest.fixture
def checkpoints(tmp_path, trained_localization, trained_rf, trained_lidar) -> dict[str, str]:
    """The standard checkpoints saved under tmp_path, by their CLI flag."""
    paths = {}
    for flag, model in (("loc", trained_localization), ("rf", trained_rf),
                        ("lidar", trained_lidar)):
        paths[flag] = str(tmp_path / f"{flag}.json")
        save_model(model, paths[flag])
    return paths


def _overall(config, dataset_dir, checkpoints, out) -> dict[str, list[str]]:
    """``evaluate``'s blockage.csv row over all steps of the test split, by checkpoint."""
    out.mkdir(exist_ok=True)
    cli.cmd_evaluate(dict(config), {"dataset": str(dataset_dir), "split": "test",
                                    **{flag: [path] for flag, path in checkpoints.items()}}, out)
    return {row[0]: row for row in _csv(out / "blockage.csv") if row[1] == "all"}


def test_each_standard_checkpoint_beats_the_all_clear_score_on_the_test_split(
        standard_config, dataset_dir, checkpoints, tmp_path):
    # An all-clear model is right on each actually clear flag, fp + tn of them.
    overall = _overall(standard_config, dataset_dir, checkpoints, tmp_path)
    assert sorted(overall) == ["localization#0", "rf#0", "rf+lidar#0"]
    for method, (_, _, tp, fp, tn, fn, accuracy, _) in overall.items():
        tp, fp, tn, fn = map(int, (tp, fp, tn, fn))
        all_clear = (fp + tn) / (tp + fp + tn + fn)
        assert 0.0 < all_clear < 1.0, method  # the split holds both classes
        assert float(accuracy) > all_clear, (method, accuracy, all_clear)


def test_localization_beats_the_all_clear_score_at_every_receiver_of_the_sweep(
        standard_config, scenario_dir, checkpoints, tmp_path):
    cli.cmd_transfer(dict(standard_config), {"scenario": str(scenario_dir),
                                             "loc": checkpoints["loc"], "rx_positions": SWEPT_RX},
                     tmp_path)
    accuracy = {int(pos): float(acc) for method, pos, *_, acc in _csv(tmp_path / "transfer.csv")
                if method == "localization"}
    windows, tx, rx0, width, depth = cli._transfer_windows(standard_config, scenario_dir)
    assert sorted(accuracy) == list(range(len(SWEPT_RX) + 1))
    for pos, rx in enumerate([rx0] + SWEPT_RX):
        all_clear = np.mean(~segment_intersects_rect(tx, rx, windows.futures, width, depth))
        assert 0.0 < all_clear < 1.0, rx
        assert accuracy[pos] > all_clear, (rx, accuracy[pos], all_clear)


def test_each_standard_checkpoint_beats_the_all_clear_score_on_held_out_traffic(
        standard_config, dataset_dir, held_out_scenario_dir, checkpoints, tmp_path):
    # Measured on the held-out test split: localization 0.8661, rf 0.9348 and
    # rf+lidar 0.9179, against an all-clear score of 0.8393.
    data = tmp_path / "held_out"
    cli.cmd_label(dict(standard_config), {"scenario": str(held_out_scenario_dir)}, data)
    held_out = _overall(standard_config, data, checkpoints, tmp_path / "held_out_report")
    assert sorted(held_out) == ["localization#0", "rf#0", "rf+lidar#0"]
    for method, (_, _, tp, fp, tn, fn, accuracy, _) in held_out.items():
        tp, fp, tn, fn = map(int, (tp, fp, tn, fn))
        all_clear = (fp + tn) / (tp + fp + tn + fn)
        assert 0.0 < all_clear < 1.0, method
        assert float(accuracy) > all_clear, (method, accuracy, all_clear)
    standard = _overall(standard_config, dataset_dir, checkpoints, tmp_path / "standard_report")
    fall = float(standard["localization#0"][6]) - float(held_out["localization#0"][6])
    assert fall <= HELD_OUT_LOCALIZATION_FALL, fall
