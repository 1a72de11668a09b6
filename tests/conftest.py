"""Shared fixtures.

The heavy fixtures (scenario, dataset, trained models) are session scoped
because they feed many tests and take a few seconds each to build.  They
run the same standard configuration the CLI uses, so numbers measured
here match what `blockcast simulate` / `label` / `train` produce.
"""

import tracemalloc

import pytest
from hypothesis import settings

from blockcast import cli
from blockcast.config import resolve_config
from blockcast.ingest import load_dataset, load_scenario
from blockcast.models import (
    TrainConfig,
    train_blockage,
    train_localization,
)

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is kept between runs.
settings.register_profile(
    "blockcast", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("blockcast")


@pytest.fixture(scope="session")
def standard_config():
    return resolve_config()


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory, standard_config):
    out = tmp_path_factory.mktemp("scenario") / "drive"
    cli.cmd_simulate(standard_config, {"scenario_id": "drive"}, out)
    return out


@pytest.fixture(scope="session")
def standard_bundle(scenario_dir):
    return load_scenario(scenario_dir)


# Held-out traffic: the standard scene but for the vehicle's speed, so the
# vehicle drives a track that the standard drive (period 208 steps) never shows.
HELD_OUT = {"vehicle_velocity": [0.31, 0.0]}


@pytest.fixture(scope="session")
def held_out_scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("held_out") / "drive"
    cli.cmd_simulate(resolve_config(HELD_OUT), {"scenario_id": "held_out"}, out)
    return out


@pytest.fixture(scope="session")
def held_out_bundle(held_out_scenario_dir):
    return load_scenario(held_out_scenario_dir)


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory, standard_config, scenario_dir):
    out = tmp_path_factory.mktemp("dataset") / "data"
    cli.cmd_label(standard_config, {"scenario": str(scenario_dir)}, out)
    return out


@pytest.fixture(scope="session")
def standard_dataset(dataset_dir):
    return load_dataset(dataset_dir)


@pytest.fixture(scope="session")
def localization_training(standard_dataset):
    return train_localization(standard_dataset, TrainConfig(seed=0))


@pytest.fixture(scope="session")
def trained_localization(localization_training):
    return localization_training[0]


@pytest.fixture(scope="session")
def trained_rf(standard_dataset):
    model, _ = train_blockage(standard_dataset, TrainConfig(seed=0), "rf")
    return model


@pytest.fixture(scope="session")
def trained_lidar(standard_dataset):
    model, _ = train_blockage(standard_dataset, TrainConfig(seed=0), "rf+lidar")
    return model


@pytest.fixture
def traced_peak_mib():
    """Runs ``fn()`` under tracemalloc; returns the peak traced memory in MiB."""
    def peak(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peak
