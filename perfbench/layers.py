"""Which quadndr functions the traced run wraps, what it counts at each, and
how spans and counts become per-layer metrics.

A layer is a package module. Every metric is per traced iteration except
``ms_p50`` (per call) and the ratios. Metric names are
``<module>.<function>.<field>``; the fields are ``calls``, ``total_s``,
``self_s``, ``ms_p50`` and the counts below.
"""
from __future__ import annotations

import hashlib
import os

from workloads import step_gflop


def _file_bytes(tracer, name, args, result):
    tracer.counts[f"{name}.bytes"] += os.path.getsize(args["path"])


def _gflop(tracer, name, args, result):
    tracer.counts[f"{name}.gflop"] += step_gflop(args["cfg"], len(args["inputs"]))


def _predict_windows(tracer, name, args, result):
    tracer.counts[f"{name}.windows"] += len(args["inputs"])


def _result_windows(tracer, name, args, result):
    tracer.counts[f"{name}.windows"] += len(result)


def _mechanize(tracer, name, args, result):
    imu = args["imu"]
    tracer.counts[f"{name}.samples"] += len(imu)
    digest = hashlib.blake2b(imu.f.tobytes() + imu.w.tobytes(), digest_size=16).digest()
    tracer.keys[name].add((tracer.iteration, digest))


def _eval_flights(tracer, name, args, result):
    tracer.counts[f"{name}.test_flights"] += len(result["report"]["test_trajectories"].split(","))


TRACED = {
    "cli.cmd_simulate": None,
    "cli.cmd_train": None,
    "cli.cmd_eval": _eval_flights,
    "config.load_config": None,
    "simulate.generate_periodic_trajectory": None,
    "simulate.inverse_mechanize": None,
    "simulate.corrupt_imu": None,
    "simulate.initial_nav_state": None,
    "simulate.write_gt_csv": _file_bytes,
    "simulate.write_imu_csv": _file_bytes,
    "simulate.read_gt_csv": _file_bytes,
    "simulate.read_imu_csv": _file_bytes,
    "ins.mechanize_series": _mechanize,
    "windows.split_tags": None,
    "windows.window_series": _result_windows,
    "windows.window_inputs": None,
    "windows.concat_sets": _result_windows,
    "windows.normalize": None,
    "windows.normalize_inputs": None,
    "network.init_params": None,
    "network.train": None,
    "network.loss_and_gradients": _gflop,
    "network.adam_step": None,
    "network.predict": _predict_windows,
    "network.save_model": _file_bytes,
    "network.load_model": _file_bytes,
    "deadreckon.gt_window_end_positions": None,
    "deadreckon.run_baseline": None,
    "deadreckon.integrate_deltas": None,
    "deadreckon.rmse": None,
    "deadreckon.write_trajectory_csv": None,
    "deadreckon.write_report": None,
    "plotsvg.write_xz_svg": None,
}

STATS = ("calls", "total_s", "self_s", "ms_p50")
COUNTS = ("bytes", "gflop", "windows", "samples")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def full_summary(tracer, iterations: int) -> dict[str, dict]:
    """Every stat of every traced function, per iteration (ms_p50 per call)."""
    summary = tracer.summary()
    out = {}
    for fn in TRACED:
        stats = summary.get(fn, dict.fromkeys(STATS, 0.0))
        out[fn] = {k: v if k == "ms_p50" else v / iterations for k, v in stats.items()}
        for count in COUNTS:
            key = f"{fn}.{count}"
            if key in tracer.counts:
                out[fn][count] = tracer.counts[key] / iterations
    return out


def layer_metrics(tracer, iterations: int) -> dict[str, float]:
    """Flat ``<module>.<function>.<field>`` metrics, every traced function and
    count present (0 where a workload never calls the function)."""
    flat = {}
    for fn, fields in full_summary(tracer, iterations).items():
        for count in COUNTS:
            flat[f"{fn}.{count}"] = 0.0
        for field, value in fields.items():
            flat[f"{fn}.{field}"] = value
    counts = tracer.counts
    flat["ins.mechanize_series.distinct_ratio"] = _ratio(
        len(tracer.keys["ins.mechanize_series"]),
        flat["ins.mechanize_series.calls"] * iterations)
    flat["windows.window_series.used_ratio"] = _ratio(
        counts["windows.concat_sets.windows"], counts["windows.window_series.windows"])
    flat["cli.cmd_eval.flights_used_ratio"] = _ratio(
        counts["cli.cmd_eval.test_flights"],
        tracer.descendants_named("cli.cmd_eval", "simulate.read_gt_csv"))
    return flat
