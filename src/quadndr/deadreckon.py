"""Dead-reckoning reconstruction and evaluation.

Chains per-window position deltas into trajectories, runs the
distance + INS-heading baseline, and scores reconstructions against
ground truth with RMSE. Evaluation compares trajectories at window-end
instants using non-overlapping (stride = window size) chaining, so deltas
accumulate without double counting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ins import ImuSeries, NavState, dcm_to_yaw, mechanize_series
from .simulate import GroundTruthSeries, write_csv
from .windows import (NormStats, WindowSpec, normalize_inputs, window_bounds, window_inputs,
                      window_labels)
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


def gt_window_end_positions(gt: GroundTruthSeries, spec: WindowSpec) -> np.ndarray:
    """Reconstruction targets: the first ground-truth position chained through
    the per-window labels by ``integrate_deltas``, as predicted chains are."""
    return integrate_deltas(gt.positions[0], window_labels(gt, spec))


def run_baseline(imu: ImuSeries, params: dict, cfg: NetConfig, init: NavState,
                 spec: WindowSpec, norm: NormStats) -> np.ndarray:
    """Distance + INS-heading dead reckoning; returns (M, 3) window-end points.

    The network regresses (distance d, altitude change dz) per normalized
    window, psi is the mechanized yaw at the window's last sample, and the
    steps (d cos psi, d sin psi, dz) are summed in order from ``init.p``.
    """
    if cfg.out_dim != 2:
        raise ValueError("baseline model must output (distance, altitude change)")
    preds = predict(params, cfg, normalize_inputs(window_inputs(imu, spec), norm))
    states = mechanize_series(init, imu)
    _, ends = window_bounds(len(imu), spec)
    psi = np.array([dcm_to_yaw(T) for T in states.T[ends]])
    d = preds[:, 0]
    steps = np.column_stack([d * np.cos(psi), d * np.sin(psi), preds[:, 1]])
    points = np.cumsum(np.vstack([init.p, steps]), axis=0)[1:]
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
    if not np.isfinite(total):
        raise ValueError(f"RMSE is {total}: the points are not finite or too far apart to square")
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
    write_csv(path, TRAJ_CSV_HEADER, np.column_stack(
        [np.asarray(timestamps, dtype=float), np.reshape(points, (-1, 3))]).tolist())


def write_report(path, entries: dict) -> None:
    """Flat key=value report block."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value!r}\n" if isinstance(value, float) else f"{key}={value}\n")
