"""Shared configuration: built-in defaults, config file, flag overrides.

The config file is plain ``key = value`` lines; values are parsed as JSON
(so lists like ``[0.7, 0.15, 0.15]`` work) and must have the form of the
key's default (``check_value``; ``walls`` and ``bounce_x`` may be
``null``), ``#`` starts a comment, blank lines are ignored. ``--set``
values are checked alike. Resolution order, highest priority
first: command-line flag, config file, built-in default. The environment
variable BLOCKCAST_CONFIG names a config file to load when --config is
not given.

The defaults describe the bundled reference scenario: a fixed link at the
roadside, one vehicle shuttling along the road between bounce points, and
a back wall that gives the lidar something static to see.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .errors import ParseError, SchemaError
from .ingest import json_field

ENV_CONFIG_VAR = "BLOCKCAST_CONFIG"

DEFAULTS: dict = {
    # link and scene geometry (meters; transmitter at the origin)
    "tx": [0.0, 0.0],
    "rx": [0.0, 12.0],
    "road_region": [-14.0, 4.0, 14.0, 8.0],
    "vehicle_center": [-13.0, 6.0],
    "vehicle_width": 4.0,
    "vehicle_depth": 1.8,
    "vehicle_velocity": [0.25, 0.0],
    "bounce_x": [-13.0, 13.0],
    "walls": [[-15.0, 9.0, 15.0, 9.0]],
    "lidar_max_range": 16.0,
    "lidar_rays": 360,
    # beam codebook and channel. The half-beam offset centers one beam on
    # the default receiver bearing (pi/2) instead of a pattern null.
    "num_beams": 64,
    "theta_offset": math.pi / 128.0,
    "fov": math.pi,
    "num_subcarriers": 64,
    "noise_variance": 1e-4,
    "blocked_attenuation_db": 25.0,
    "scatter_gain": 10.0,
    "scatter_fluctuation_db": 4.0,
    "symbol_power": 1.0,
    # simulation run
    "steps": 1500,
    "seed": 7,
    # labeling / dataset construction
    "window_len": 8,
    "horizon": 5,
    "eps": 2.0,
    "min_pts": 4,
    "proximity_radius": 1.0,
    "raster_bins": 360,
    "ratios": [0.7, 0.15, 0.15],
    # training
    "lr": 1e-3,
    "batch_size": 8,
    "episodes": 10,
    "iterations": 100,
    "train_seed": 0,
    "delta": 1.0,
    # geometric blockage test
    "object_width": 4.0,
}


def check_value(key: str, value) -> None:
    """Raise a SchemaError naming ``key`` unless ``value`` has the form of the
    key's default: an integer where that is an int, else a finite number or a
    list of as many finite numbers. ``walls`` and ``bounce_x`` go unchecked."""
    default = DEFAULTS[key]
    if key not in ("walls", "bounce_x"):
        shape = (len(default),) if isinstance(default, list) else ()
        json_field({key: value}, key, None, shape, integer=type(default) is int)


def parse_config_file(path) -> dict:
    """Read one key = value file; keys must be known, values valid JSON of
    the form ``check_value`` asks for."""
    path = Path(path)
    if not path.exists():
        raise ParseError(str(path), 0, "config file not found")
    out: dict = {}
    with path.open(encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(str(path), line_no, "expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ParseError(str(path), line_no, f"unknown config key {key!r}")
            try:
                out[key] = json.loads(value.strip())
                check_value(key, out[key])
            except json.JSONDecodeError:
                raise ParseError(
                    str(path), line_no, f"value for {key!r} is not valid JSON"
                ) from None
            except SchemaError as exc:
                raise ParseError(str(path), line_no, str(exc)) from None
    return out


def resolve_config(cli_values: dict | None = None, config_path=None) -> dict:
    """Merge defaults, config file, and CLI overrides into one dict.

    Every cli_values entry overrides, None too (``bounce_x`` and ``walls``
    may be null). When config_path is None, BLOCKCAST_CONFIG is consulted.
    """
    resolved = {k: v for k, v in DEFAULTS.items()}
    if config_path is None:
        config_path = os.environ.get(ENV_CONFIG_VAR) or None
    if config_path is not None:
        resolved.update(parse_config_file(config_path))
    for key, value in (cli_values or {}).items():
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key {key!r}")
        resolved[key] = value
    return resolved


def dump_config(cfg: dict) -> str:
    """Render a resolved config as a reloadable key = value document."""
    lines = [f"{key} = {json.dumps(cfg[key])}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"
