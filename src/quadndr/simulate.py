"""Synthetic periodic trajectories and the IMU streams that fly them.

The generator produces a constant-speed horizontal run with a sinusoidal
altitude profile (hover height, amplitude, peak-to-peak distance), level
attitude and constant heading. ``inverse_mechanize`` converts ground truth
into the specific-force/angular-rate stream a strapdown INS would have to
integrate to reproduce it, and ``corrupt_imu`` applies a bias + white
Gaussian noise error model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .ins import (
    DEFAULT_GRAVITY,
    ImuSeries,
    NavState,
    _check_series,
    dcm_to_rotvec,
    euler_to_dcm,
)

GT_CSV_HEADER = "t,px,py,pz,roll,pitch,yaw"
IMU_CSV_HEADER = "t,fx,fy,fz,wx,wy,wz"
MIN_SAMPLES = 3  # a flight's fewest: its accelerations are second differences


@dataclass(frozen=True)
class TrajectoryProfile:
    """Parameters of the sinusoidal flight pattern."""

    hover_height: float = 0.7
    amplitude: float = 0.1
    p2p_distance: float = 0.7
    total_span: float = 3.6
    speed: float = 0.18
    sample_rate: float = 100.0
    heading: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude!r}")
        for name in ("p2p_distance", "total_span", "speed", "sample_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class GroundTruthSeries:
    """True position and attitude samples on a uniform time grid."""

    timestamps: np.ndarray  # (N,)
    positions: np.ndarray   # (N, 3)
    attitudes: np.ndarray   # (N, 3) roll, pitch, yaw

    def __post_init__(self):
        dts = _check_series(self, "ground-truth", ("positions", "attitudes"))
        if dts.size and np.max(dts) - np.min(dts) > 1e-9:
            raise ValueError("ground-truth timestamps must be uniformly spaced")

    def __len__(self) -> int:
        return self.timestamps.size


@dataclass(frozen=True)
class ImuErrorModel:
    """Constant bias plus per-sample white Gaussian noise."""

    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_noise_std: float = 0.0
    gyro_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "accel_bias", np.asarray(self.accel_bias, dtype=float))
        object.__setattr__(self, "gyro_bias", np.asarray(self.gyro_bias, dtype=float))
        for name in ("accel_bias", "gyro_bias", "accel_noise_std", "gyro_noise_std"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()!r}")
        for name in ("accel_noise_std", "gyro_noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


def generate_periodic_trajectory(profile: TrajectoryProfile) -> GroundTruthSeries:
    """Sample the sinusoidal flight pattern described by ``profile``.

    x advances at constant horizontal speed along the heading; z oscillates
    around the hover height with the configured amplitude and peak-to-peak
    distance, phase zero at the start. Attitude is level with constant yaw.
    """
    duration = profile.total_span / profile.speed
    samples = duration * profile.sample_rate
    if not math.isfinite(samples) or samples >= np.iinfo(np.intp).max:
        raise ValueError(f"sample count total_span / speed * sample_rate = {samples!r}"
                         " is not finite or too large")
    num = math.floor(samples) + 1
    dt = 1.0 / profile.sample_rate
    t = np.arange(num) * dt
    s = profile.speed * t  # horizontal arc progress
    x = s * math.cos(profile.heading)
    y = s * math.sin(profile.heading)
    z = profile.hover_height + profile.amplitude * np.sin(2.0 * np.pi * s / profile.p2p_distance)
    positions = np.column_stack([x, y, z])
    attitudes = np.zeros((num, 3))
    attitudes[:, 2] = profile.heading
    return GroundTruthSeries(timestamps=t, positions=positions, attitudes=attitudes)


def _accelerations(positions: np.ndarray, dt: float) -> np.ndarray:
    """Second time derivative of positions: central differences inside,
    one-sided second differences at both endpoints."""
    a = np.empty_like(positions)
    a[1:-1] = (positions[2:] - 2.0 * positions[1:-1] + positions[:-2]) / (dt * dt)
    a[0] = (positions[2] - 2.0 * positions[1] + positions[0]) / (dt * dt)
    a[-1] = (positions[-1] - 2.0 * positions[-2] + positions[-3]) / (dt * dt)
    return a


def inverse_mechanize(gt: GroundTruthSeries) -> ImuSeries:
    """Derive the noise-free IMU stream consistent with a ground-truth series.

    Specific force is T^T (a_n - DEFAULT_GRAVITY) with a_n from finite
    differences of the positions; angular rate is the log map of consecutive
    attitude increments divided by dt. Needs at least MIN_SAMPLES samples.
    """
    n = len(gt)
    if n < MIN_SAMPLES:
        raise ValueError(f"inverse mechanization needs at least {MIN_SAMPLES} samples")
    dt = float(gt.timestamps[1] - gt.timestamps[0])
    a_n = _accelerations(gt.positions, dt)
    dcms = [euler_to_dcm(*att) for att in gt.attitudes]
    f = np.empty((n, 3))
    w = np.empty((n, 3))
    for k in range(n):
        f[k] = dcms[k].T @ (a_n[k] - DEFAULT_GRAVITY)
        if k < n - 1:
            w[k] = dcm_to_rotvec(dcms[k].T @ dcms[k + 1]) / dt
    w[-1] = w[-2]
    return ImuSeries(timestamps=gt.timestamps.copy(), f=f, w=w)


def initial_nav_state(gt: GroundTruthSeries) -> NavState:
    """Navigation state at the first ground-truth sample.

    The velocity is the one consistent with the discrete inverse: after one
    semi-implicit Euler step with the endpoint acceleration estimate, the
    integrated velocity equals the forward difference (p1 - p0)/dt. This
    makes mechanizing the inverse-mechanized stream reproduce the ground
    truth to rounding error on constant-attitude trajectories.
    """
    if len(gt) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    dt = float(gt.timestamps[1] - gt.timestamps[0])
    a0 = _accelerations(gt.positions[:3], dt)[0]
    v0 = (gt.positions[1] - gt.positions[0]) / dt - a0 * dt
    T0 = euler_to_dcm(*gt.attitudes[0])
    return NavState(p=gt.positions[0].copy(), v=v0, T=T0, t=float(gt.timestamps[0]))


def corrupt_imu(imu: ImuSeries, model: ImuErrorModel) -> ImuSeries:
    """Apply the bias + white-noise error model; deterministic per seed. A
    zero model changes no value except -0.0, which becomes +0.0."""
    rng = np.random.default_rng(model.seed)
    f = imu.f + model.accel_bias + rng.normal(0.0, model.accel_noise_std, imu.f.shape)
    w = imu.w + model.gyro_bias + rng.normal(0.0, model.gyro_noise_std, imu.w.shape)
    return ImuSeries(timestamps=imu.timestamps.copy(), f=f, w=w)


# ---------------------------------------------------------------------------
# CSV persistence


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one comma-separated line per row of Python numbers
    (``array.tolist()``), each value as its repr, so floats read back exactly."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _read_csv(path, header: str, build):
    """Parse a CSV written by ``write_csv`` and return ``build`` of its
    (rows, columns) array. Every parse or validation error, undecodable
    bytes included, is a ValueError that starts with the path."""
    ncols = header.count(",") + 1
    rows = []
    with open(path) as fh:
        try:
            first = fh.readline().rstrip("\n")
            if first != header:
                raise ValueError(f"expected header {header!r}, got {first!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = [float(v) for v in line.split(",")]
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                if len(row) != ncols:
                    raise ValueError(f"line {lineno}: expected {ncols} values, got {len(row)}")
                rows.append(row)
            return build(np.array(rows, dtype=float).reshape(len(rows), ncols))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_gt_csv(path, gt: GroundTruthSeries) -> None:
    rows = np.column_stack([gt.timestamps, gt.positions, gt.attitudes])
    write_csv(path, GT_CSV_HEADER, rows.tolist())


def read_gt_csv(path) -> GroundTruthSeries:
    return _read_csv(path, GT_CSV_HEADER, lambda data: GroundTruthSeries(
        timestamps=data[:, 0], positions=data[:, 1:4], attitudes=data[:, 4:7]))


def write_imu_csv(path, imu: ImuSeries) -> None:
    rows = np.column_stack([imu.timestamps, imu.f, imu.w])
    write_csv(path, IMU_CSV_HEADER, rows.tolist())


def read_imu_csv(path) -> ImuSeries:
    return _read_csv(path, IMU_CSV_HEADER, lambda data: ImuSeries(
        timestamps=data[:, 0], f=data[:, 1:4], w=data[:, 4:7]))
