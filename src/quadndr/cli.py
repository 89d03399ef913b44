"""Command-line entry point: simulate, train, eval, version.

Each subcommand is driven by a flat key=value config file (see config.py)
plus optional ``--set key=value`` overrides. Outputs are deterministic for
a fixed config and seed. ``main`` returns 0 on success, 1 after printing
``error: ...`` for bad configuration or input, and 2 after printing
``aborted: ...`` when training diverges.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .deadreckon import (
    gt_window_end_positions,
    improvement_pct,
    integrate_deltas,
    rmse,
    run_baseline,
    write_report,
    write_trajectory_csv,
)
from .ins import mechanize_series
from .network import (
    NetConfig,
    TrainConfig,
    init_params,
    load_model,
    predict,
    save_model,
    train,
)
from .plotsvg import write_xz_svg
from .simulate import (
    ImuErrorModel,
    TrajectoryProfile,
    corrupt_imu,
    generate_periodic_trajectory,
    initial_nav_state,
    inverse_mechanize,
    read_gt_csv,
    read_imu_csv,
    write_gt_csv,
    write_imu_csv,
)
from .windows import (
    WindowSpec,
    concat_sets,
    normalize,
    normalize_inputs,
    split_tags,
    window_inputs,
    window_series,
)

ARCHES = ("single", "multi", "baseline")


def _profile(cfg: ExperimentConfig) -> TrajectoryProfile:
    return TrajectoryProfile(
        hover_height=cfg.hover_height,
        amplitude=cfg.amplitude,
        p2p_distance=cfg.p2p_distance,
        total_span=cfg.total_span,
        speed=cfg.speed,
        sample_rate=cfg.sample_rate,
        heading=cfg.heading,
    )


def _error_model(cfg: ExperimentConfig, traj_index: int) -> ImuErrorModel:
    return ImuErrorModel(
        accel_bias=np.array(cfg.accel_bias),
        gyro_bias=np.array(cfg.gyro_bias),
        accel_noise_std=cfg.accel_noise_std,
        gyro_noise_std=cfg.gyro_noise_std,
        seed=cfg.seed + traj_index,
    )


def _traj_tags(cfg: ExperimentConfig) -> list[str]:
    return [f"traj_{i:02d}" for i in range(cfg.num_trajectories)]


def cmd_simulate(cfg: ExperimentConfig) -> list[Path]:
    """Write gt.csv, imu_clean.csv and imu_noisy.csv per trajectory."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profile = _profile(cfg)
    gt = generate_periodic_trajectory(profile)
    clean = inverse_mechanize(gt)
    dirs = []
    for i, tag in enumerate(_traj_tags(cfg)):
        tdir = out / tag
        tdir.mkdir(exist_ok=True)
        noisy = corrupt_imu(clean, _error_model(cfg, i))
        write_gt_csv(tdir / "gt.csv", gt)
        write_imu_csv(tdir / "imu_clean.csv", clean)
        write_imu_csv(tdir / "imu_noisy.csv", noisy)
        dirs.append(tdir)
    print(f"simulated {len(dirs)} trajectories in {out}")
    return dirs


def _load_trajectories(cfg: ExperimentConfig) -> dict:
    out = Path(cfg.out_dir)
    series = {}
    for tag in _traj_tags(cfg):
        tdir = out / tag
        if not tdir.is_dir():
            raise ValueError(f"missing trajectory directory {tdir}; run simulate first")
        series[tag] = (read_gt_csv(tdir / "gt.csv"), read_imu_csv(tdir / "imu_noisy.csv"))
    return series


def _net_config(cfg: ExperimentConfig, arch: str) -> NetConfig:
    return NetConfig(
        arch="single" if arch == "baseline" else arch,
        window=cfg.window_size,
        dropout=cfg.dropout,
        out_dim=2 if arch == "baseline" else 3,
        conv_channels=cfg.conv_channels or (),
        dense_widths=cfg.dense_widths or NetConfig("single", 1).dense_widths,
    )


def cmd_train(cfg: ExperimentConfig, arch: str) -> list[Path]:
    """Train ``runs`` independently seeded models and save them."""
    if arch not in ARCHES:
        raise ValueError(f"arch must be one of {ARCHES}")
    series = _load_trajectories(cfg)
    spec = WindowSpec(cfg.window_size, cfg.stride)
    sets = [window_series(imu, gt, spec, tag) for tag, (gt, imu) in series.items()]
    train_tags, _ = split_tags(list(series), cfg.test_fraction, cfg.seed)
    train_set = concat_sets([s for s in sets if s.tags and s.tags[0] in train_tags])
    train_set, norm = normalize(train_set)
    labels = train_set.labels
    if arch == "baseline":
        # the baseline regresses horizontal distance and altitude change
        labels = np.column_stack([np.hypot(labels[:, 0], labels[:, 1]), labels[:, 2]])
    net_cfg = _net_config(cfg, arch)
    out = Path(cfg.out_dir)
    paths = []
    for run in range(cfg.runs):
        run_seed = cfg.seed + 1000 * (run + 1)
        params = init_params(net_cfg, run_seed)
        tcfg = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                           lr=cfg.lr, seed=run_seed)
        params, history = train(params, net_cfg, train_set.inputs, labels, tcfg)
        model_path = out / f"{arch}_run{run}.qpnet"
        save_model(model_path, params, net_cfg, norm=norm)
        with open(out / f"{arch}_run{run}_loss.csv", "w") as fh:
            fh.write("epoch,loss\n")
            for e, loss in enumerate(history):
                fh.write(f"{e},{loss!r}\n")
        final = history[-1] if history else float("nan")
        print(f"{arch} run {run}: final train loss {final:.6g} ({model_path})")
        paths.append(model_path)
    return paths


def _method_label(net_cfg: NetConfig) -> str:
    return "baseline" if net_cfg.out_dim == 2 else net_cfg.arch


def cmd_eval(cfg: ExperimentConfig, model_paths, baseline_paths) -> dict:
    """Score models on held-out trajectories; write report, CSVs and plot."""
    series = _load_trajectories(cfg)
    _, test_tags = split_tags(list(series), cfg.test_fraction, cfg.seed)
    eval_spec = WindowSpec(cfg.window_size, cfg.window_size)
    models = [load_model(p) for p in list(model_paths) + list(baseline_paths)]
    for _, net_cfg, _ in models:
        if net_cfg.window != cfg.window_size:
            raise ValueError(
                f"model window {net_cfg.window} does not match config {cfg.window_size}")

    per_method: dict[str, list[float]] = {}
    first_traj_curves: dict[str, np.ndarray] = {}
    run_counter: dict[str, int] = {}
    report: dict = {"test_trajectories": ",".join(test_tags)}

    for ti, tag in enumerate(test_tags):
        gt, imu = series[tag]
        targets = gt_window_end_positions(gt, eval_spec)
        n = cfg.window_size
        ends = np.arange(len(targets)) * n + n - 1
        end_times = gt.timestamps[ends]
        if ti == 0:
            first_traj_curves["gt"] = targets
            first_times = end_times

        # pure-INS mechanization of the noisy IMU
        ins_points = mechanize_series(initial_nav_state(gt), imu).p[ends]
        per_method.setdefault("ins", []).append(rmse(targets, ins_points).rmse)
        if ti == 0:
            first_traj_curves["ins"] = ins_points

        inputs = window_inputs(imu, eval_spec)
        run_counter.clear()
        for params, net_cfg, norm in models:
            label = _method_label(net_cfg)
            run = run_counter.get(label, 0)
            run_counter[label] = run + 1
            if label == "baseline":
                points = run_baseline(imu, params, net_cfg, initial_nav_state(gt),
                                      eval_spec, norm=norm)
            else:
                x = normalize_inputs(inputs, norm) if norm is not None else inputs
                points = integrate_deltas(gt.positions[0], predict(params, net_cfg, x))
            result = rmse(targets, points)
            per_method.setdefault(label, []).append(result.rmse)
            report[f"{label}.run{run}.{tag}.rmse"] = result.rmse
            if ti == 0 and run == 0:
                first_traj_curves[label] = points

    means = {m: float(np.mean(v)) for m, v in per_method.items()}
    for m, v in means.items():
        report[f"{m}.rmse_mean"] = v
    base = means.get("baseline")
    if base is not None:
        for m in means:
            if m not in ("baseline",):
                report[f"improvement.{m}_vs_baseline_pct"] = improvement_pct(base, means[m])

    out = Path(cfg.out_dir)
    write_report(out / "report.txt", report)
    for name, pts in first_traj_curves.items():
        write_trajectory_csv(out / f"eval_{name}_traj.csv", first_times[:len(pts)], pts)
    write_xz_svg(out / "eval_xz.svg", first_traj_curves,
                 title="ground truth vs reconstructed trajectories")
    for key, value in report.items():
        print(f"{key}={value}")
    return {"per_method": per_method, "means": means, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quadndr",
                                     description="quadrotor neural dead reckoning")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")

    p_sim = sub.add_parser("simulate", help="generate trajectories and IMU streams")
    add_common(p_sim)
    p_train = sub.add_parser("train", help="train position-regression models")
    add_common(p_train)
    p_train.add_argument("--arch", choices=ARCHES, default="single")
    p_eval = sub.add_parser("eval", help="evaluate models on held-out trajectories")
    add_common(p_eval)
    p_eval.add_argument("--models", nargs="+", default=[], help="QuadPosNet model files")
    p_eval.add_argument("--baseline", nargs="+", default=[],
                        help="distance+heading baseline model files")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        cfg = load_config(args.config, args.set)
        if args.command == "simulate":
            cmd_simulate(cfg)
        elif args.command == "train":
            cmd_train(cfg, args.arch)
        elif args.command == "eval":
            cmd_eval(cfg, args.models, args.baseline)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # includes TrainingDiverged
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
