"""Sliding-window dataset construction from synchronized IMU + ground truth.

A window is n consecutive IMU samples stacked as a 6 x n array (specific
force rows first, angular rate rows below); its label is the ground-truth
position change between the window's first and last sample. Splitting is
done at the level of source tags so windows from one trajectory never
straddle the train/test boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ins import ImuSeries
from .simulate import GroundTruthSeries

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class WindowSpec:
    window_size: int
    stride: int

    def __post_init__(self):
        if self.window_size <= 0:
            raise ValueError(f"window_size must be > 0, got {self.window_size!r}")
        if self.stride <= 0:
            raise ValueError(f"stride must be > 0, got {self.stride!r}")
        if self.stride > self.window_size:
            raise ValueError(f"stride must not exceed window_size, got stride {self.stride!r}"
                             f" and window_size {self.window_size!r}")


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization statistics (computed on training data)."""

    mean: np.ndarray  # (6,)
    std: np.ndarray   # (6,)


@dataclass(frozen=True)
class SampleSet:
    """A batch of fixed-size windows with their labels."""

    inputs: np.ndarray  # (M, 6, n)
    labels: np.ndarray  # (M, 3)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if inputs.ndim != 3 or inputs.shape[1] != 6:
            raise ValueError("inputs must have shape (M, 6, n)")
        if labels.shape != (inputs.shape[0], 3):
            raise ValueError("inconsistent sample-set shapes")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def window_bounds(length: int, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Start (0, stride, ...) and last sample index of every window that fits."""
    count = max(0, (length - spec.window_size) // spec.stride + 1)
    starts = np.arange(count) * spec.stride
    return starts, starts + spec.window_size - 1


def window_inputs(imu: ImuSeries, spec: WindowSpec) -> np.ndarray:
    """Stack IMU windows into an (M, 6, n) array (f rows, then w rows)."""
    starts, _ = window_bounds(len(imu), spec)
    channels = np.concatenate([imu.f.T, imu.w.T])  # (6, N)
    return channels[:, starts[:, None] + np.arange(spec.window_size)].transpose(1, 0, 2)


def window_labels(gt: GroundTruthSeries, spec: WindowSpec) -> np.ndarray:
    """(M, 3) labels: ground-truth position at each window's last sample minus first."""
    starts, ends = window_bounds(len(gt), spec)
    return gt.positions[ends] - gt.positions[starts]


def check_synchronized(imu: ImuSeries, gt: GroundTruthSeries, flight: str = "") -> None:
    """Raise ValueError, prefixed by ``flight`` when it is not empty, unless
    both series have the same length and their timestamps agree to within
    half a sample period."""
    where = f"{flight}: " if flight else ""
    if len(imu) != len(gt):
        raise ValueError(f"{where}IMU and ground-truth lengths differ"
                         f" ({len(imu)} and {len(gt)} samples)")
    if len(gt) > 1:
        half_period = 0.5 * float(gt.timestamps[1] - gt.timestamps[0])
        if np.max(np.abs(imu.timestamps - gt.timestamps)) >= half_period:
            raise ValueError(f"{where}IMU and ground-truth timestamps do not match")


def window_series(imu: ImuSeries, gt: GroundTruthSeries, spec: WindowSpec,
                  tag: str = "") -> SampleSet:
    """Window a synchronized IMU/ground-truth pair into labeled samples;
    ``tag`` names the flight in errors."""
    check_synchronized(imu, gt, tag)
    return SampleSet(inputs=window_inputs(imu, spec), labels=window_labels(gt, spec))


def concat_sets(sets) -> SampleSet:
    sets = list(sets)
    if not sets:
        raise ValueError("nothing to concatenate")
    return SampleSet(inputs=np.concatenate([s.inputs for s in sets]),
                     labels=np.concatenate([s.labels for s in sets]))


def split_tags(tags, test_fraction: float, seed: int) -> tuple[list, list]:
    """Deterministically partition distinct tags into train/test groups."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction!r}")
    distinct = sorted(set(tags))
    if len(distinct) < 2:
        raise ValueError("need at least 2 distinct source tags to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(distinct))
    n_test = int(round(test_fraction * len(distinct)))
    n_test = max(1, min(len(distinct) - 1, n_test))
    test = sorted(distinct[i] for i in order[:n_test])
    train = sorted(distinct[i] for i in order[n_test:])
    return train, test


def normalize(sset: SampleSet) -> tuple[SampleSet, NormStats]:
    """Per-channel standardization; returns the statistics for reuse."""
    if len(sset) == 0:
        raise ValueError("cannot normalize an empty sample set")
    mean = sset.inputs.mean(axis=(0, 2))
    std = np.maximum(sset.inputs.std(axis=(0, 2)), STD_FLOOR)
    stats = NormStats(mean=mean, std=std)
    normed = SampleSet(inputs=normalize_inputs(sset.inputs, stats), labels=sset.labels.copy())
    return normed, stats


def normalize_inputs(inputs: np.ndarray, stats: NormStats) -> np.ndarray:
    """Standardize (M, 6, n) windows with previously computed statistics."""
    return (inputs - stats.mean[None, :, None]) / stats.std[None, :, None]
