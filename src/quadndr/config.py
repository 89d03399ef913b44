"""Experiment configuration: flat ``key = value`` files with # comments.

Command-line ``--set key=value`` pairs override file keys, which override
the defaults below. Unknown keys are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .network import DENSE_WIDTHS
from .simulate import TrajectoryProfile


def _triple(text: str) -> tuple:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    return tuple(parts)


def _int_tuple(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",")) if text else ()


@dataclass(frozen=True)
class ExperimentConfig:
    # trajectory profile
    hover_height: float = TrajectoryProfile.hover_height
    amplitude: float = TrajectoryProfile.amplitude
    p2p_distance: float = TrajectoryProfile.p2p_distance
    total_span: float = TrajectoryProfile.total_span
    speed: float = TrajectoryProfile.speed
    sample_rate: float = TrajectoryProfile.sample_rate
    heading: float = TrajectoryProfile.heading
    num_trajectories: int = 8
    # IMU error model
    accel_bias: tuple = field(default=(0.0, 0.0, 0.0), metadata={"parse": _triple})
    gyro_bias: tuple = field(default=(0.0, 0.0, 0.0), metadata={"parse": _triple})
    accel_noise_std: float = 0.05
    gyro_noise_std: float = 0.002
    seed: int = 17
    # windowing
    window_size: int = 100
    stride: int = 50
    # training
    batch_size: int = 64
    lr: float = 1e-3
    epochs: int = 30
    runs: int = 3
    dropout: float = 0.2
    test_fraction: float = 0.25
    # empty = the architecture's own channels
    conv_channels: tuple = field(default=(), metadata={"parse": _int_tuple})
    dense_widths: tuple = field(default=DENSE_WIDTHS, metadata={"parse": _int_tuple})
    # output
    out_dir: str = "runs/exp"

    def __post_init__(self):
        if self.seed < 0:  # numpy refuses negative seeds
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.num_trajectories < 1:
            raise ValueError(f"num_trajectories must be >= 1, got {self.num_trajectories!r}")


# a key's text is read by its field's "parse" metadata, else by its default's type
_PARSERS = {f.name: f.metadata.get("parse", type(f.default)) for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into typed values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        try:
            key, value = _parse_pair(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        values[key] = value
    return values


def _parse_pair(text: str) -> tuple:
    key, _, val = text.partition("=")
    key = key.strip()
    if key not in _PARSERS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return key, _PARSERS[key](val.strip())
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Defaults, overridden by a config file, overridden by CLI pairs. Every
    error in reading or parsing the file, undecodable bytes included, is a
    ValueError that starts with its path."""
    cfg = ExperimentConfig()
    if path is not None:
        with open(path) as fh:
            try:
                cfg = replace(cfg, **parse_config_text(fh.read()))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if overrides:
        cfg = replace(cfg, **dict(_parse_pair(item) for item in overrides))
    return cfg
