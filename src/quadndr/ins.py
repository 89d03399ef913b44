"""Strapdown inertial navigation primitives.

Rotation representations (Euler angles, direction cosine matrices, rotation
vectors) and the pure-inertial mechanization that integrates specific force
and angular rate into position, velocity and attitude.

Conventions:
- navigation frame: locally level, z axis aligned with gravity,
  which is fixed at DEFAULT_GRAVITY = (0, 0, 9.80665) m/s^2
- body-to-nav rotation via ZYX (yaw-pitch-roll) Euler angles
- all arithmetic in 64-bit floating point
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

GRAVITY = 9.80665
#: The gravity vector in the navigation frame, shared by every module.
DEFAULT_GRAVITY = np.array([0.0, 0.0, GRAVITY])
DEFAULT_GRAVITY.flags.writeable = False

_DCM_TOL = 1e-6


def _as_dcm(T) -> np.ndarray:
    a = np.asarray(T, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"T must have shape (3, 3), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("T must be finite")
    if np.max(np.abs(a.T @ a - np.eye(3))) > _DCM_TOL:
        raise ValueError("T is not orthonormal")
    return a


def euler_to_dcm(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Body-to-nav rotation matrix from ZYX (yaw-pitch-roll) Euler angles.

    Pitch must lie strictly inside (-pi/2, pi/2); the gimbal singularity is
    rejected.
    """
    angles = np.array([roll, pitch, yaw], dtype=float)
    if not np.all(np.isfinite(angles)):
        raise ValueError("Euler angles must be finite")
    if abs(pitch) >= np.pi / 2:
        raise ValueError("pitch magnitude must be below pi/2")
    sf, cf = np.sin(roll), np.cos(roll)
    st, ct = np.sin(pitch), np.cos(pitch)
    sp, cp = np.sin(yaw), np.cos(yaw)
    return np.array([
        [ct * cp, sf * st * cp - cf * sp, cf * st * cp + sf * sp],
        [ct * sp, sf * st * sp + cf * cp, cf * st * sp - sf * cp],
        [-st, sf * ct, cf * ct],
    ])


def dcm_to_yaw(T) -> float:
    """Extract the yaw angle, in [-pi, pi), from a body-to-nav rotation.

    Computed as the four-quadrant arctangent of (T[2,1], T[1,1]) in 1-indexed
    matrix notation, i.e. atan2(T[1,0], T[0,0]) here.
    """
    T = _as_dcm(T)
    if abs(T[0, 0]) + abs(T[1, 0]) < 1e-12:
        raise ValueError("yaw is undefined: pitch too close to +/-pi/2")
    psi = float(np.arctan2(T[1, 0], T[0, 0]))
    if psi >= np.pi:
        psi -= 2.0 * np.pi
    return psi


def dcm_to_rotvec(T) -> np.ndarray:
    """Rotation vector (log map) of a rotation matrix; its angle is in [0, pi]."""
    T = _as_dcm(T)
    vex = 0.5 * np.array([T[2, 1] - T[1, 2], T[0, 2] - T[2, 0], T[1, 0] - T[0, 1]])
    cos_theta = (np.trace(T) - 1.0) / 2.0
    theta = math.atan2(math.sqrt(vex @ vex), cos_theta)
    if theta < 1e-8:
        return vex
    if theta < np.pi / 2:
        return vex * (theta / math.sin(theta))
    # vex = sin(theta) * axis fades towards a half turn, but the symmetric
    # part (T + T^T)/2 - cos(theta) I = (1 - cos(theta)) axis axis^T does
    # not: its largest column gives the axis, and vex only its sign
    S = (T + T.T) / 2.0 - cos_theta * np.eye(3)
    col = S[:, int(np.argmax(np.diag(S)))]
    axis = col / math.sqrt(col @ col)
    return theta * (-axis if axis @ vex < 0 else axis)


def _attitude_step(T: np.ndarray, rv: np.ndarray) -> np.ndarray:
    """T times the rotation exponential of the rotation vector rv (Rodrigues
    formula), followed by one Gram-Schmidt pass over the rows with det forced
    to +1. Unchecked: T is (3, 3) and rv a finite (3,) float array."""
    theta = float(np.linalg.norm(rv))
    x, y, z = rv
    S = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    if theta < 1e-8:
        # the series 1 - theta^2/6 and 1/2 - theta^2/24: below 1e-8 the
        # theta^2 terms are under half an ulp, so they round to the constants
        # (and at theta = 0 the step is the identity exactly)
        a, b = 1.0, 0.5
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    M = T @ (np.eye(3) + a * S + b * (S @ S))
    r0 = M[0] / math.sqrt(M[0] @ M[0])
    r1 = M[1] - (M[1] @ r0) * r0
    r1 = r1 / math.sqrt(r1 @ r1)
    r2 = np.array([r0[1] * r1[2] - r0[2] * r1[1],
                   r0[2] * r1[0] - r0[0] * r1[2],
                   r0[0] * r1[1] - r0[1] * r1[0]])
    return np.array([r0, r1, r2])


@dataclass(frozen=True)
class NavState:
    """Position, velocity (nav frame) and body-to-nav rotation at time t.

    ``mechanize_series`` returns the same fields stacked over time: p and v
    of shape (N+1, 3), T of shape (N+1, 3, 3) and t of shape (N+1,).
    """

    p: np.ndarray
    v: np.ndarray
    T: np.ndarray
    t: float | np.ndarray


def _check_series(series, name: str, fields: tuple) -> np.ndarray:
    """Check a frozen series' (N,) timestamps and (N, 3) ``fields`` (shapes,
    finiteness, finite and positive timestamp steps), store them as float
    arrays and return the (N-1,) steps. Errors name the series."""
    ts = np.asarray(series.timestamps, dtype=float)
    arrays = [np.asarray(getattr(series, f), dtype=float) for f in fields]
    if ts.ndim != 1 or any(a.shape != (ts.size, 3) for a in arrays):
        raise ValueError(f"inconsistent {name} series shapes")
    if not all(np.all(np.isfinite(a)) for a in (ts, *arrays)):
        raise ValueError(f"{name} series must be finite")
    with np.errstate(over="ignore"):  # an overflowing step is refused below
        steps = np.diff(ts)
    if not np.all(np.isfinite(steps)):
        raise ValueError(f"{name} timestamp steps must be finite")
    if not np.all(steps > 0):
        raise ValueError(f"{name} timestamps must be strictly increasing")
    object.__setattr__(series, "timestamps", ts)
    for f, a in zip(fields, arrays):
        object.__setattr__(series, f, a)
    return steps


@dataclass(frozen=True)
class ImuSeries:
    """A time-ordered batch of inertial measurements.

    timestamps: (N,) strictly increasing, seconds
    f: (N, 3) specific force, body frame
    w: (N, 3) angular rate, body frame
    """

    timestamps: np.ndarray
    f: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        _check_series(self, "IMU", ("f", "w"))

    def __len__(self) -> int:
        return self.timestamps.size


def mechanize_series(init: NavState, imu: ImuSeries) -> NavState:
    """Integrate an IMU series from an initial state.

    Sample k is treated as the measurement over [t_k, t_{k+1}); the last
    sample reuses the preceding interval length, and a single sample covers
    [init.t, t_0]. Attitude is updated with the exact rotation exponential
    of w*dt and re-orthonormalized, velocity with the rotated specific force
    plus DEFAULT_GRAVITY, position with the updated velocity (semi-implicit
    Euler). Returns the initial state followed by one state per sample,
    stacked over time, so row k is the state at t_k. ``ImuSeries`` already
    holds finite samples in strictly increasing time order.
    """
    n = len(imu)
    ts = imu.timestamps
    if n == 1:
        dts = ts - init.t
        if dts[0] <= 0:
            raise ValueError("cannot infer dt from a single sample at the initial time")
    else:
        dts = np.diff(ts)
        dts = np.append(dts, dts[-1:])
    f, w = imu.f, imu.w
    p, v, T = np.empty((n + 1, 3)), np.empty((n + 1, 3)), np.empty((n + 1, 3, 3))
    p[0], v[0], T[0] = init.p, init.v, init.T
    for k in range(n):
        dt = float(dts[k])
        T[k + 1] = _attitude_step(T[k], w[k] * dt)
        v[k + 1] = v[k] + (T[k + 1] @ f[k] + DEFAULT_GRAVITY) * dt
        p[k + 1] = p[k] + v[k + 1] * dt
    return NavState(p=p, v=v, T=T, t=np.cumsum(np.append(init.t, dts)))
