"""Shared configuration: built-in defaults, config file, flag overrides.

The config file is plain ``key = value`` lines; values are parsed as JSON
(so lists like ``[0.7, 0.15, 0.15]`` work), ``#`` starts a comment, blank
lines are ignored. Resolution order, highest priority first: command-line
flag, config file, built-in default. The environment variable
BLOCKCAST_CONFIG names a config file to load when --config is not given.
Every value, whatever its source, passes ``check_value``, which gives it
the form of the key's default.

The defaults describe the bundled reference scenario: a fixed link at the
roadside, one vehicle shuttling along the road between bounce points, and
a back wall that gives the lidar something static to see.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

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


def check_value(key: str, value):
    """``value`` in the form of the key's default, as ``ingest.json_field``
    gives it: an int where the default is one, else a float or a list of as
    many floats. ``walls`` is null or a list of ``[x0, y0, x1, y1]`` rows
    (none too), ``bounce_x`` null or a pair; every integer key but the seeds
    (a count or a length), ``fov``, ``symbol_power``, ``lidar_max_range``
    and ``object_width`` are positive, the seeds are not negative,
    ``road_region``'s x1 - x0 and y1 - y0 are finite and positive, and
    ``theta_offset`` gives the default codebook finite, strictly increasing
    beam directions (``check_config`` checks it again against the codebook
    configured). Anything else is a SchemaError naming ``key``."""
    rows = key == "walls" and isinstance(value, list)  # as many as given
    if rows and not value:
        return value
    shape = (len(value), 4) if rows else np.shape(DEFAULTS[key])
    integer = type(DEFAULTS[key]) is int  # a seed, or else a count or a length
    value = json_field({key: value}, key, None, shape, integer=integer,
                       positive=key in ("fov", "symbol_power", "lidar_max_range", "object_width")
                       or integer and key not in ("seed", "train_seed"),
                       optional=key in ("walls", "bounce_x"))
    if key in ("seed", "train_seed") and value < 0:
        raise SchemaError(f"{key} must be a non-negative integer, got {value}")
    if key == "road_region" and not all(
            0 < hi - lo < math.inf for lo, hi in ((value[0], value[2]), (value[1], value[3]))):
        raise SchemaError(f"{key} must be [x0, y0, x1, y1] with x1 - x0 and y1 - y0 finite "
                          f"and positive, got {value}")
    if key == "theta_offset":
        _check_beam_directions(value, DEFAULTS["num_beams"], DEFAULTS["fov"])
    return value


def _check_beam_directions(theta_offset: float, num_beams: int, fov: float) -> None:
    """Refuses a ``theta_offset`` whose M = ``num_beams`` beam directions
    theta_offset + (m + 1/2) * fov / M, as ``scene.build_codebook`` computes
    them, are not finite and strictly increasing: past about 1e15 radians
    the default beams round onto one another. They are made 4,096 at a
    time, so that a huge ``num_beams`` costs time but no memory."""
    step, last = fov / num_beams, -math.inf
    for lo in range(0, num_beams, 4096):
        dirs = theta_offset + (np.arange(lo, min(lo + 4096, num_beams)) + 0.5) * step
        if not (np.isfinite(dirs).all() and dirs[0] > last and (np.diff(dirs) > 0).all()):
            raise SchemaError(f"theta_offset must be an angle whose {num_beams} beam directions "
                              f"over a fov of {fov!r} are finite and strictly increasing, got "
                              f"{theta_offset!r}")
        last = dirs[-1]


def check_config(values: dict) -> dict:
    """Every value of ``values``, a whole config, checked by ``check_value``;
    then ``theta_offset`` against its ``num_beams`` and ``fov``."""
    cfg = {key: check_value(key, value) for key, value in values.items()}
    _check_beam_directions(cfg["theta_offset"], cfg["num_beams"], cfg["fov"])
    return cfg


def parse_value(key: str, text: str):
    """The checked value of ``key`` given as JSON text; an unknown key, text
    that is no JSON or a value ``check_value`` refuses is a SchemaError
    naming the key."""
    if key not in DEFAULTS:
        raise SchemaError(f"unknown config key {key!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        raise SchemaError(f"value for {key!r} is not valid JSON: {text!r}") from None
    return check_value(key, value)


def parse_config_file(path) -> dict:
    """Read one key = value file (``parse_value``); errors name the file and line."""
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
            try:
                out[key.strip()] = parse_value(key.strip(), value.strip())
            except SchemaError as exc:
                raise ParseError(str(path), line_no, str(exc)) from None
    return out


def resolve_config(cli_values: dict | None = None, config_path=None) -> dict:
    """Merge defaults, config file, and CLI overrides into one dict of
    values checked by ``check_config``; a bad one is a SchemaError naming
    its key.

    Every cli_values entry overrides, None too (``bounce_x`` and ``walls``
    may be null); an unknown key is a KeyError. When config_path is None,
    BLOCKCAST_CONFIG is consulted.
    """
    resolved = dict(DEFAULTS)
    if config_path is None:
        config_path = os.environ.get(ENV_CONFIG_VAR) or None
    if config_path is not None:
        resolved.update(parse_config_file(config_path))
    for key, value in (cli_values or {}).items():
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key {key!r}")
        resolved[key] = value
    return check_config(resolved)


def dump_config(cfg: dict) -> str:
    """Render a resolved config as a reloadable key = value document."""
    lines = [f"{key} = {json.dumps(cfg[key])}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"
