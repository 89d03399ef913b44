"""Dead-reckoning reconstruction and evaluation.

Chains per-window position deltas into trajectories, implements the
distance + INS-heading baseline update, and scores reconstructions against
ground truth with RMSE. Evaluation compares trajectories at window-end
instants using non-overlapping (stride = window size) chaining, so deltas
accumulate without double counting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ins import ImuSeries, NavState, dcm_to_yaw, mechanize_series
from .simulate import GroundTruthSeries
from .windows import NormStats, WindowSpec, normalize_inputs, window_inputs, window_starts
from .network import NetConfig, predict

TRAJ_CSV_HEADER = "t,px,py,pz"


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    per_axis: np.ndarray    # (3,)
    horizontal: float
    num_windows: int


def integrate_deltas(p0, deltas) -> np.ndarray:
    """Chained (M, 3) positions: the anchor plus the running sum of deltas."""
    deltas = np.asarray(deltas, dtype=float).reshape(-1, 3)
    points = np.asarray(p0, dtype=float)[None, :] + np.cumsum(deltas, axis=0)
    if not np.all(np.isfinite(points)):
        raise ValueError("anchor and deltas must be finite")
    return points


def quadnet_update(x: float, y: float, d: float, psi: float) -> tuple[float, float]:
    """Advance a horizontal position by distance d along heading psi."""
    if not all(np.isfinite(v) for v in (x, y, d, psi)):
        raise ValueError("inputs must be finite")
    return x + d * np.cos(psi), y + d * np.sin(psi)


def gt_window_end_positions(gt: GroundTruthSeries, spec: WindowSpec) -> np.ndarray:
    """Ground-truth positions at window ends, chained from the first sample.

    These are the reconstruction targets for delta chaining: the anchor plus
    the running sum of the per-window ground-truth labels, evaluated with
    the same arithmetic the predicted chains use.
    """
    starts = window_starts(len(gt), spec)
    labels = gt.positions[starts + spec.window_size - 1] - gt.positions[starts]
    return gt.positions[0][None, :] + np.cumsum(labels, axis=0)


def run_baseline(imu: ImuSeries, params: dict, cfg: NetConfig, init: NavState,
                 spec: WindowSpec, norm: NormStats | None = None) -> np.ndarray:
    """Distance + INS-heading dead reckoning; returns (M, 3) window-end points.

    The network regresses (horizontal distance, altitude change) per window;
    the heading comes from mechanizing the IMU stream and extracting yaw at
    each window's final sample.
    """
    if cfg.out_dim != 2:
        raise ValueError("baseline model must output (distance, altitude change)")
    inputs = window_inputs(imu, spec)
    if inputs.shape[2] != cfg.window:
        raise ValueError("window size does not match the model")
    if norm is not None:
        inputs = normalize_inputs(inputs, norm)
    preds = predict(params, cfg, inputs) if len(inputs) else np.empty((0, 2))
    states = mechanize_series(init, imu)
    starts = window_starts(len(imu), spec)
    x, y, z = (float(v) for v in init.p)
    points = np.empty((starts.size, 3))
    for k, s in enumerate(starts):
        psi = dcm_to_yaw(states.T[s + spec.window_size - 1])
        x, y = quadnet_update(x, y, float(preds[k, 0]), psi)
        z += float(preds[k, 1])
        points[k] = (x, y, z)
    if not np.all(np.isfinite(points)):
        raise ValueError("trajectory points must be finite")
    return points


def rmse(gt_points, pred_points) -> EvalReport:
    """Root mean squared position error between aligned point sequences."""
    a = np.asarray(gt_points, dtype=float).reshape(-1, 3)
    b = np.asarray(pred_points, dtype=float).reshape(-1, 3)
    if a.shape != b.shape or a.shape[0] == 0:
        raise ValueError("point sequences must be equal-length and non-empty")
    sq = (a - b) ** 2
    total = float(np.sqrt(np.mean(sq.sum(axis=1))))
    per_axis = np.sqrt(sq.mean(axis=0))
    horizontal = float(np.sqrt(np.mean(sq[:, 0] + sq[:, 1])))
    return EvalReport(rmse=total, per_axis=per_axis, horizontal=horizontal,
                      num_windows=a.shape[0])


def improvement_pct(baseline_rmse: float, method_rmse: float) -> float:
    """Percent error reduction of a method relative to the baseline."""
    if baseline_rmse <= 0:
        raise ValueError("baseline RMSE must be positive")
    return 100.0 * (baseline_rmse - method_rmse) / baseline_rmse


def write_trajectory_csv(path, timestamps, points) -> None:
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write(TRAJ_CSV_HEADER + "\n")
        for t, p in zip(timestamps, points):
            fh.write(",".join(repr(float(v)) for v in (t, *p)) + "\n")


def write_report(path, entries: dict) -> None:
    """Flat key=value report block."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value!r}\n" if isinstance(value, float) else f"{key}={value}\n")
