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
from dataclasses import fields, replace
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
    write_csv,
    write_gt_csv,
    write_imu_csv,
)
from .windows import (
    WindowSpec,
    check_synchronized,
    concat_sets,
    normalize,
    normalize_inputs,
    split_tags,
    window_bounds,
    window_inputs,
    window_series,
)

ARCHES = ("single", "multi", "baseline")
# the config keys that ImuErrorModel takes under the same names
ERROR_MODEL_KEYS = ("accel_bias", "gyro_bias", "accel_noise_std", "gyro_noise_std")


def _profile(cfg: ExperimentConfig) -> TrajectoryProfile:
    return TrajectoryProfile(**{f.name: getattr(cfg, f.name) for f in fields(TrajectoryProfile)})


def _error_model(cfg: ExperimentConfig, traj_index: int) -> ImuErrorModel:
    return ImuErrorModel(**{k: getattr(cfg, k) for k in ERROR_MODEL_KEYS},
                         seed=cfg.seed + traj_index)


def _traj_tags(cfg: ExperimentConfig) -> list[str]:
    return [f"traj_{i:02d}" for i in range(cfg.num_trajectories)]


def cmd_simulate(cfg: ExperimentConfig) -> list[Path]:
    """Build every flight, then write gt.csv, imu_clean.csv and imu_noisy.csv per flight."""
    profile = _profile(cfg)
    try:
        gt = generate_periodic_trajectory(profile)
        clean = inverse_mechanize(gt)
    except ValueError as exc:
        keys = ", ".join(f"{f.name}={getattr(profile, f.name)!r}" for f in fields(profile))
        raise ValueError(f"{exc} (trajectory profile: {keys})") from None
    try:
        noisy = [corrupt_imu(clean, _error_model(cfg, i)) for i in range(cfg.num_trajectories)]
    except ValueError as exc:
        keys = ", ".join(f"{k}={getattr(cfg, k)!r}" for k in ERROR_MODEL_KEYS)
        raise ValueError(f"{exc} (IMU error model: {keys})") from None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dirs = [out / tag for tag in _traj_tags(cfg)]
    for tdir, imu in zip(dirs, noisy):
        tdir.mkdir(exist_ok=True)
        write_gt_csv(tdir / "gt.csv", gt)
        write_imu_csv(tdir / "imu_clean.csv", clean)
        write_imu_csv(tdir / "imu_noisy.csv", imu)
    print(f"simulated {len(dirs)} trajectories in {out}")
    return dirs


def _load_trajectories(cfg: ExperimentConfig) -> tuple[dict, list, list]:
    """Split, then read and check every flight once: (flights, train tags, test
    tags). A flight is its (gt, imu, initial navigation state)."""
    if cfg.num_trajectories < 2:  # train and eval split the flights
        raise ValueError(f"num_trajectories must be >= 2 to split train and test flights,"
                         f" got {cfg.num_trajectories!r}")
    train_tags, test_tags = split_tags(_traj_tags(cfg), cfg.test_fraction, cfg.seed)
    out = Path(cfg.out_dir)
    series = {}
    for tag in _traj_tags(cfg):
        tdir = out / tag
        gt_path, imu_path = tdir / "gt.csv", tdir / "imu_noisy.csv"
        if not tdir.is_dir():
            raise ValueError(f"missing trajectory directory {tdir}; run simulate first")
        for path in (gt_path, imu_path):
            if not path.is_file():
                raise ValueError(f"missing trajectory file {path}; run simulate first")
        gt, imu = read_gt_csv(gt_path), read_imu_csv(imu_path)
        check_synchronized(imu, gt, str(tdir))
        if len(gt) < cfg.window_size:
            raise ValueError(f"{tdir}: {len(gt)} samples, fewer than one window of"
                             f" window_size {cfg.window_size!r}")
        try:  # every flight, so train refuses what eval would
            init = initial_nav_state(gt)
        except ValueError as exc:
            raise ValueError(f"{tdir}: {exc}") from None
        series[tag] = (gt, imu, init)
    return series, train_tags, test_tags


def _net_config(cfg: ExperimentConfig, arch: str) -> NetConfig:
    return NetConfig(
        arch="single" if arch == "baseline" else arch,
        window=cfg.window_size,
        dropout=cfg.dropout,
        out_dim=2 if arch == "baseline" else 3,
        conv_channels=cfg.conv_channels,
        dense_widths=cfg.dense_widths,
    )


def cmd_train(cfg: ExperimentConfig, arch: str) -> list[Path]:
    """Train ``runs`` independently seeded models and save them."""
    if cfg.runs < 1:
        raise ValueError(f"runs must be >= 1, got {cfg.runs!r}")
    tcfg = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr)
    spec = WindowSpec(cfg.window_size, cfg.stride)
    net_cfg = _net_config(cfg, arch)
    series, train_tags, _ = _load_trajectories(cfg)  # after every setting is checked
    # every flight is windowed, test flights too: perfbench pins that call count
    sets = {tag: window_series(imu, gt, spec) for tag, (gt, imu, _) in series.items()}
    train_set, norm = normalize(concat_sets(s for tag, s in sets.items() if tag in train_tags))
    labels = train_set.labels
    if arch == "baseline":
        # the baseline regresses horizontal distance and altitude change
        labels = np.column_stack([np.hypot(labels[:, 0], labels[:, 1]), labels[:, 2]])
    out = Path(cfg.out_dir)
    paths = []
    for run in range(cfg.runs):
        run_seed = cfg.seed + 1000 * (run + 1)
        params = init_params(net_cfg, run_seed)
        params, history = train(params, net_cfg, train_set.inputs, labels,
                                replace(tcfg, seed=run_seed))
        model_path = out / f"{arch}_run{run}.qpnet"
        save_model(model_path, params, net_cfg, norm)
        write_csv(out / f"{arch}_run{run}_loss.csv", "epoch,loss", enumerate(history))
        print(f"{arch} run {run}: final train loss {history[-1]:.6g} ({model_path})")
        paths.append(model_path)
    return paths


def cmd_eval(cfg: ExperimentConfig, model_paths, baseline_paths) -> dict:
    """Score models on held-out trajectories; write report, CSVs and plot."""
    eval_spec = WindowSpec(cfg.window_size, cfg.window_size)
    # (path, label, run, params, config, norm); run ranks a model among its label's
    table = []
    for path, flag, out_dim in ([(p, "--models", 3) for p in model_paths]
                                + [(p, "--baseline", 2) for p in baseline_paths]):
        if Path(path).resolve() in {Path(row[0]).resolve() for row in table}:  # one file, one run
            raise ValueError(f"{path}: model file given more than once")
        params, net_cfg, norm = load_model(path)
        if net_cfg.window != cfg.window_size:
            raise ValueError(f"{path}: model window {net_cfg.window} does not match"
                             f" window_size {cfg.window_size}")
        if net_cfg.out_dim != out_dim:
            raise ValueError(f"{path}: model out_dim {net_cfg.out_dim} does not fit {flag}; pass"
                             f" xyz networks (3) with --models, baselines (2) with --baseline")
        label = "baseline" if flag == "--baseline" else net_cfg.arch
        table.append((path, label, sum(row[1] == label for row in table), params, net_cfg, norm))
    series, _, test_tags = _load_trajectories(cfg)  # after every setting and model is checked

    per_method: dict[str, list[float]] = {}
    report: dict = {"test_trajectories": ",".join(test_tags)}
    for tag in test_tags:
        gt, imu, init = series[tag]
        try:
            _, ends = window_bounds(len(gt), eval_spec)
            # run 0 of each method; pure INS mechanizes the noisy IMU
            points = {"gt": gt_window_end_positions(gt, eval_spec),
                      "ins": mechanize_series(init, imu).p[ends]}
            per_method.setdefault("ins", []).append(rmse(points["gt"], points["ins"]).rmse)
            inputs = window_inputs(imu, eval_spec)
            for path, label, run, params, net_cfg, norm in table:
                try:
                    if label == "baseline":
                        pts = run_baseline(imu, params, net_cfg, init, eval_spec, norm)
                    else:
                        deltas = predict(params, net_cfg, normalize_inputs(inputs, norm))
                        pts = integrate_deltas(gt.positions[0], deltas)
                    score = rmse(points["gt"], pts).rmse
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
                per_method.setdefault(label, []).append(score)
                report[f"{label}.run{run}.{tag}.rmse"] = score
                points.setdefault(label, pts)
        except ValueError as exc:
            raise ValueError(f"{Path(cfg.out_dir) / tag}: {exc}") from None
        if tag == test_tags[0]:  # only the first test flight is written out
            times, curves = gt.timestamps[ends], points

    means = {m: float(np.mean(v)) for m, v in per_method.items()}
    for m, v in means.items():
        report[f"{m}.rmse_mean"] = v
    base = means.get("baseline")
    if base is not None:
        # the paper compares each network, not pure INS, with the baseline
        for m in means:
            if m not in ("ins", "baseline"):
                report[f"improvement.{m}_vs_baseline_pct"] = improvement_pct(base, means[m])

    out = Path(cfg.out_dir)
    write_report(out / "report.txt", report)
    for name, pts in curves.items():
        write_trajectory_csv(out / f"eval_{name}_traj.csv", times, pts)
    write_xz_svg(out / "eval_xz.svg", curves,
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
    p_eval.add_argument("--models", action="extend", nargs="+", default=[],
                        help="QuadPosNet model files (repeatable)")
    p_eval.add_argument("--baseline", action="extend", nargs="+", default=[],
                        help="distance+heading baseline model files (repeatable)")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        cfg = load_config(args.config, args.set)
        # overflow and invalid values end in the program's own finiteness
        # errors, so numpy's warnings about them would only add stderr lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "simulate":
                cmd_simulate(cfg)
            elif args.command == "train":
                cmd_train(cfg, args.arch)
            elif args.command == "eval":
                cmd_eval(cfg, args.models, args.baseline)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # includes TrainingDiverged
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
