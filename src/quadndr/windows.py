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
            raise ValueError("window_size must be > 0")
        if self.stride <= 0:
            raise ValueError("stride must be > 0")
        if self.stride > self.window_size:
            raise ValueError("stride must not exceed window_size")


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization statistics (computed on training data)."""

    mean: np.ndarray  # (6,)
    std: np.ndarray   # (6,)


@dataclass(frozen=True)
class SampleSet:
    """A batch of fixed-size windows with labels and source tags."""

    inputs: np.ndarray  # (M, 6, n)
    labels: np.ndarray  # (M, 3)
    tags: tuple
    spec: WindowSpec

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if inputs.ndim != 3 or inputs.shape[1] != 6:
            raise ValueError("inputs must have shape (M, 6, n)")
        if inputs.shape[2] != self.spec.window_size:
            raise ValueError("window length does not match the spec")
        if labels.shape != (inputs.shape[0], 3) or len(self.tags) != inputs.shape[0]:
            raise ValueError("inconsistent sample-set shapes")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tags", tuple(self.tags))

    def __len__(self) -> int:
        return self.inputs.shape[0]


def window_starts(length: int, spec: WindowSpec) -> np.ndarray:
    """Start indices of all windows that fit: 0, stride, 2*stride, ..."""
    if length < spec.window_size:
        return np.empty(0, dtype=int)
    count = (length - spec.window_size) // spec.stride + 1
    return np.arange(count) * spec.stride


def window_inputs(imu: ImuSeries, spec: WindowSpec) -> np.ndarray:
    """Stack IMU windows into an (M, 6, n) array (f rows, then w rows)."""
    starts = window_starts(len(imu), spec)
    n = spec.window_size
    channels = np.concatenate([imu.f.T, imu.w.T])  # (6, N)
    return np.stack([channels[:, s:s + n] for s in starts]) if starts.size \
        else np.empty((0, 6, n))


def window_series(imu: ImuSeries, gt: GroundTruthSeries, spec: WindowSpec,
                  tag: str = "") -> SampleSet:
    """Window a synchronized IMU/ground-truth pair into labeled samples."""
    if len(imu) != len(gt):
        raise ValueError("IMU and ground-truth lengths differ")
    if len(gt) > 1:
        half_period = 0.5 * float(gt.timestamps[1] - gt.timestamps[0])
        if np.max(np.abs(imu.timestamps - gt.timestamps)) >= half_period:
            raise ValueError("IMU and ground-truth timestamps do not match")
    starts = window_starts(len(imu), spec)
    inputs = window_inputs(imu, spec)
    n = spec.window_size
    labels = (
        gt.positions[starts + n - 1] - gt.positions[starts]
        if starts.size else np.empty((0, 3))
    )
    return SampleSet(inputs=inputs, labels=labels, tags=(tag,) * starts.size, spec=spec)


def concat_sets(sets) -> SampleSet:
    sets = list(sets)
    if not sets:
        raise ValueError("nothing to concatenate")
    spec = sets[0].spec
    if any(s.spec != spec for s in sets):
        raise ValueError("sample sets disagree on the window spec")
    return SampleSet(
        inputs=np.concatenate([s.inputs for s in sets]),
        labels=np.concatenate([s.labels for s in sets]),
        tags=tuple(t for s in sets for t in s.tags),
        spec=spec,
    )


def split_tags(tags, test_fraction: float, seed: int) -> tuple[list, list]:
    """Deterministically partition distinct tags into train/test groups."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
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
    normed = SampleSet(inputs=normalize_inputs(sset.inputs, stats), labels=sset.labels.copy(),
                       tags=sset.tags, spec=sset.spec)
    return normed, stats


def normalize_inputs(inputs: np.ndarray, stats: NormStats) -> np.ndarray:
    """Standardize (M, 6, n) windows with previously computed statistics."""
    return (inputs - stats.mean[None, :, None]) / stats.std[None, :, None]
