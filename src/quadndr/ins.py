"""Strapdown inertial navigation primitives.

Rotation representations (Euler angles, direction cosine matrices, rotation
vectors) and the pure-inertial mechanization that integrates specific force
and angular rate into position, velocity and attitude.

Conventions:
- navigation frame: locally level, z axis aligned with gravity,
  g_n = (0, 0, 9.80665) m/s^2 by default
- body-to-nav rotation via ZYX (yaw-pitch-roll) Euler angles
- all arithmetic in 64-bit floating point
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

GRAVITY = 9.80665
#: Default gravity vector in the navigation frame.
DEFAULT_GRAVITY = np.array([0.0, 0.0, GRAVITY])

_DCM_TOL = 1e-6


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _as_dcm(T, name: str = "T") -> np.ndarray:
    a = np.asarray(T, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"{name} must have shape (3, 3), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(a.T @ a - np.eye(3))) > _DCM_TOL:
        raise ValueError(f"{name} is not orthonormal")
    return a


def skew(w) -> np.ndarray:
    """Cross-product (skew-symmetric) matrix of a 3-vector."""
    x, y, z = _as_vec3(w, "w")
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


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


def rotvec_to_dcm(rv) -> np.ndarray:
    """Rotation matrix for a rotation vector (Rodrigues formula)."""
    rv = _as_vec3(rv, "rotation vector")
    theta = float(np.linalg.norm(rv))
    S = skew(rv)
    if theta == 0.0:
        return np.eye(3)
    if theta < 1e-8:
        # series expansion keeps full precision for tiny angles
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * S + b * (S @ S)


def dcm_to_rotvec(T) -> np.ndarray:
    """Rotation vector (log map) of a rotation matrix."""
    T = _as_dcm(T)
    cos_theta = np.clip((np.trace(T) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    vex = 0.5 * np.array([T[2, 1] - T[1, 2], T[0, 2] - T[2, 0], T[1, 0] - T[0, 1]])
    if theta < 1e-8:
        return vex
    if theta > np.pi - 1e-6:
        # near pi the antisymmetric part vanishes; recover the axis from
        # the symmetric part
        A = (T + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        k = int(np.argmax(axis))
        if axis[k] > 0.0:
            axis = A[:, k] / axis[k]
            axis = axis / np.linalg.norm(axis)
        signs = np.sign(vex)
        axis = np.where((signs != 0) & (np.sign(axis) != signs), -axis, axis)
        return theta * axis
    return vex * (theta / np.sin(theta))


def orthonormalize(T) -> np.ndarray:
    """One Gram-Schmidt pass over the rows; det is forced to +1."""
    T = np.asarray(T, dtype=float)
    r0 = T[0] / math.sqrt(T[0] @ T[0])
    r1 = T[1] - (T[1] @ r0) * r0
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
        ts = np.asarray(self.timestamps, dtype=float)
        f = np.asarray(self.f, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if ts.ndim != 1 or f.shape != (ts.size, 3) or w.shape != (ts.size, 3):
            raise ValueError("inconsistent IMU series shapes")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(f)) and np.all(np.isfinite(w))):
            raise ValueError("IMU series must be finite")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("IMU timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return self.timestamps.size


def mechanize_series(init: NavState, imu: ImuSeries, g_n=DEFAULT_GRAVITY) -> NavState:
    """Integrate an IMU series from an initial state.

    Sample k is treated as the measurement over [t_k, t_{k+1}); the last
    sample reuses the preceding interval length, and a single sample covers
    [init.t, t_0]. Attitude is updated with the exact rotation exponential
    of w*dt and re-orthonormalized, velocity with the rotated specific force
    plus gravity, position with the updated velocity (semi-implicit Euler).
    Returns the initial state followed by one state per sample, stacked
    over time, so row k is the state at t_k.
    """
    n = len(imu)
    ts = imu.timestamps
    if n == 1:
        dts = ts - init.t
        if dts[0] <= 0:
            raise ValueError("cannot infer dt from a single sample at the initial time")
    else:
        dts = np.diff(ts)
        if np.any(dts <= 0):
            raise ValueError("IMU timestamps must be strictly increasing")
        dts = np.append(dts, dts[-1:])
    g_n = _as_vec3(g_n, "gravity")
    if not (np.all(np.isfinite(imu.f)) and np.all(np.isfinite(imu.w))):
        raise ValueError("IMU measurements must be finite")
    f, w = imu.f, imu.w
    p, v, T = np.empty((n + 1, 3)), np.empty((n + 1, 3)), np.empty((n + 1, 3, 3))
    p[0], v[0], T[0] = init.p, init.v, init.T
    for k in range(n):
        dt = float(dts[k])
        T[k + 1] = orthonormalize(T[k] @ rotvec_to_dcm(w[k] * dt))
        v[k + 1] = v[k] + (T[k + 1] @ f[k] + g_n) * dt
        p[k + 1] = p[k] + v[k + 1] * dt
    return NavState(p=p, v=v, T=T, t=np.cumsum(np.append(init.t, dts)))
