"""The benchmark's three workloads, driven through quadndr's public API.

Every workload is a closed loop in one process: each stage call starts after
the previous one returns. A workload builds its inputs from the benchmark
seed in ``setup`` and then runs ``iterate`` repeatedly; one iteration is the
timed unit. Each stage call is one operation, counted as failed when it
raises or when its output check fails.
"""
from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from quadndr import cli, config, network, simulate, windows

# The acceptance-criterion-6 configuration (qualitative claim), with one
# training run per architecture instead of three so an iteration fits a run.
CLAIM_OVERRIDES = (
    "sample_rate=25.0", "window_size=25", "stride=12",
    "num_trajectories=6", "test_fraction=0.34",
    "accel_noise_std=0.05", "gyro_noise_std=0.002",
    "accel_bias=0.08,-0.05,0.06", "gyro_bias=0.004,-0.003,0.03",
    "epochs=10", "runs=1", "dropout=0.1",
)

# Long 100 Hz flights (36 m at 0.18 m/s: 200 s, 20001 samples each) with the
# claim's IMU error model, scored by tiny networks.
LONG_FLIGHT_OVERRIDES = (
    "total_span=36.0", "num_trajectories=2", "test_fraction=0.5",
    "accel_noise_std=0.05", "gyro_noise_std=0.002",
    "accel_bias=0.08,-0.05,0.06", "gyro_bias=0.004,-0.003,0.03",
)
TINY_NET = dict(conv_channels=(6, 8, 8), dense_widths=(16, 8))

EVAL_OUTPUTS = ("report.txt", "eval_xz.svg", "eval_gt_traj.csv", "eval_ins_traj.csv")


def config_seed(seed: int) -> int:
    """Map the benchmark seed to the program's config seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------------
# Computed counts (derived from shapes, not measured)


def param_count(cfg: network.NetConfig) -> int:
    chans = cfg.conv_channels
    conv = sum(cout * cin * cfg.kernel + cout for cin, cout in zip(chans[:-1], chans[1:]))
    dims = (cfg.feature_dim,) + cfg.dense_widths + (cfg.out_dim,)
    dense = sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))
    return len(cfg.branches) * conv + dense


def step_gflop(cfg: network.NetConfig, batch: int) -> float:
    """Multiply-add FLOPs of one forward + backward pass on ``batch`` windows.

    Forward: 2*B*L*cout*cin*k per conv layer and 2*B*din*dout per dense
    layer. Backward computes both the weight and the input gradient of every
    layer, twice the forward count.
    """
    chans = cfg.conv_channels
    conv = sum(2 * batch * cfg.window * cout * cin * cfg.kernel
               for cin, cout in zip(chans[:-1], chans[1:]))
    dims = (cfg.feature_dim,) + cfg.dense_widths + (cfg.out_dim,)
    dense = sum(2 * batch * din * dout for din, dout in zip(dims[:-1], dims[1:]))
    return 3 * (len(cfg.branches) * conv + dense) / 1e9


def windows_per_flight(samples: int, window: int, stride: int) -> int:
    return 0 if samples < window else (samples - window) // stride + 1


def flight_samples(cfg: config.ExperimentConfig) -> int:
    return math.floor(cfg.total_span / cfg.speed * cfg.sample_rate) + 1


def net_config(cfg: config.ExperimentConfig, arch: str) -> network.NetConfig:
    """The network ``quadndr train --arch`` builds for ``cfg``."""
    return network.NetConfig(
        "single" if arch == "baseline" else arch, cfg.window_size, dropout=cfg.dropout,
        out_dim=2 if arch == "baseline" else 3, conv_channels=cfg.conv_channels,
        dense_widths=cfg.dense_widths or network.DENSE_WIDTHS)


def read_loss_csv(path) -> list[float]:
    with open(path) as fh:
        return [float(row["loss"]) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# Operations and checks


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_finite(values: dict, what: str) -> None:
    bad = {k: v for k, v in values.items() if not np.isfinite(v)}
    require(not bad, f"non-finite {what}: {bad}")


def require_files(directory: Path, names) -> None:
    missing = [n for n in names if not (directory / n).is_file()]
    require(not missing, f"missing outputs in {directory}: {missing}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, name: str, fn):
        """Run one operation; returns (result or None, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation failure is data, not a crash
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Workloads


UNITS = {
    "train_windows_per_s": "windows/s",  # windows x epochs per second of training
    "eval_realtime_factor": "x",         # test-flight seconds per second of cmd_eval
    "model_mb": "MB",
    "final_train_loss": "m2",
    **{f"rmse_{m}_m": "m" for m in ("single", "multi", "baseline", "ins")},
}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tally = Tally()
        self.samples: dict[str, list[float]] = {}

    def note(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(float(value))

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self) -> None:
        raise NotImplementedError

    def expected_calls(self) -> dict[str, int]:
        """Calls per iteration of traced functions, derived from the config."""
        raise NotImplementedError

    def computed(self) -> dict:
        raise NotImplementedError

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Median over iterations of each workload-level result, with its unit."""
        return {k: (float(np.median(v)), UNITS[k]) for k, v in self.samples.items()}


class ClaimPipeline(Workload):
    name = "claim_pipeline"
    arches = ("single", "multi", "baseline")

    def __init__(self, seed, workdir, overrides=CLAIM_OVERRIDES):
        super().__init__(seed, workdir)
        self.overrides = tuple(overrides) + (f"seed={config_seed(seed)}",
                                             f"out_dir={self.workdir / 'claim'}")

    def setup(self) -> None:
        cfg = config.load_config(overrides=self.overrides)
        self.out = Path(cfg.out_dir)
        tags = [f"traj_{i:02d}" for i in range(cfg.num_trajectories)]
        self.train_tags, self.test_tags = windows.split_tags(tags, cfg.test_fraction, cfg.seed)
        n = flight_samples(cfg)
        self.train_windows = len(self.train_tags) * windows_per_flight(n, cfg.window_size,
                                                                       cfg.stride)
        self.flight_s = (n - 1) / cfg.sample_rate
        self.cfg = cfg
        # warm-up: simulate, train and eval once with small dense layers
        warm = replace(cfg, dense_widths=(16, 8), epochs=1,
                       out_dir=str(self.workdir / "claim_warmup"))
        cli.cmd_simulate(warm)
        cli.cmd_eval(warm, cli.cmd_train(warm, "single"), [])

    def iterate(self) -> None:
        tally = self.tally
        cfg = config.load_config(overrides=self.overrides)

        def simulate_op():
            for d in cli.cmd_simulate(cfg):
                require_files(d, ("gt.csv", "imu_clean.csv", "imu_noisy.csv"))

        tally.run("simulate", simulate_op)
        models, losses, train_s = {}, {}, 0.0
        for arch in self.arches:
            def train_op(arch=arch):
                paths = cli.cmd_train(cfg, arch)
                require(len(paths) == cfg.runs and all(p.is_file() for p in paths),
                        f"{arch}: model files missing")
                history = [read_loss_csv(self.out / f"{arch}_run{r}_loss.csv")
                           for r in range(cfg.runs)]
                require(all(len(h) == cfg.epochs for h in history), f"{arch}: loss rows")
                require_finite({f"run{r}": h[-1] for r, h in enumerate(history)},
                               f"{arch} train loss")
                return paths, _mean([h[-1] for h in history])

            result, seconds = tally.run(f"train {arch}", train_op)
            train_s += seconds
            if result is not None:
                models[arch], losses[arch] = result

        def eval_op():
            result = cli.cmd_eval(cfg, models["single"] + models["multi"],
                                  models["baseline"])
            means = result["means"]
            require_finite(means, "RMSE")
            require_files(self.out, EVAL_OUTPUTS + tuple(
                f"eval_{a}_traj.csv" for a in self.arches))
            for arch in ("single", "multi"):
                for other in ("baseline", "ins"):
                    require(means[arch] < means[other],
                            f"criterion 6: {arch} {means[arch]:.4g} m is not below "
                            f"{other} {means[other]:.4g} m")
            return means

        means, eval_s = tally.run("eval", eval_op)
        self.note("train_windows_per_s",
                  len(self.arches) * cfg.runs * self.train_windows * cfg.epochs / train_s)
        self.note("eval_realtime_factor", len(self.test_tags) * self.flight_s / eval_s)
        model_bytes = sum(p.stat().st_size for ps in models.values() for p in ps)
        self.note("model_mb", model_bytes / 1e6)
        if means is not None:
            for method in ("single", "multi", "baseline", "ins"):
                self.note(f"rmse_{method}_m", means[method])
        if losses:
            self.note("final_train_loss", _mean(list(losses.values())))

    def expected_calls(self) -> dict[str, int]:
        cfg = self.cfg
        flights, tests = cfg.num_trajectories, len(self.test_tags)
        runs, models = cfg.runs, cfg.runs * len(self.arches)
        steps = math.ceil(self.train_windows / cfg.batch_size) * cfg.epochs
        return {
            "config.load_config": 1,
            "cli.cmd_simulate": 1,
            "cli.cmd_train": len(self.arches),
            "cli.cmd_eval": 1,
            "simulate.inverse_mechanize": 1,
            "simulate.write_gt_csv": flights,
            "simulate.write_imu_csv": 2 * flights,
            # cmd_train and cmd_eval each read every flight
            "simulate.read_gt_csv": (len(self.arches) + 1) * flights,
            "simulate.read_imu_csv": (len(self.arches) + 1) * flights,
            "windows.window_series": len(self.arches) * flights,
            "network.init_params": models,
            "network.train": models,
            "network.adam_step": models * steps,
            "network.loss_and_gradients": models * steps,
            "network.save_model": models,
            "network.load_model": models,
            "network.predict": tests * models,
            "ins.mechanize_series": tests * (1 + runs),
            "deadreckon.run_baseline": tests * runs,
            "deadreckon.rmse": tests * (1 + models),
            "plotsvg.write_xz_svg": 1,
        }

    def computed(self) -> dict:
        cfg = self.cfg
        nets = {a: net_config(cfg, a) for a in self.arches}
        return {
            "params": {a: param_count(c) for a, c in nets.items()},
            "gflop_per_step": {a: step_gflop(c, cfg.batch_size) for a, c in nets.items()},
            "train_windows": self.train_windows,
            "test_flights": len(self.test_tags),
            "flight_samples": flight_samples(cfg),
        }


class DefaultTrain(Workload):
    name = "default_train"
    arches = ("single", "multi")
    flights = 3
    epochs = 3

    def __init__(self, seed, workdir, net_kwargs=None):
        super().__init__(seed, workdir)
        self.net_kwargs = net_kwargs or {}   # per architecture, to shrink the nets

    def setup(self) -> None:
        cfg = replace(config.ExperimentConfig(), seed=config_seed(self.seed))
        self.cfg = cfg
        profile = simulate.TrajectoryProfile()
        gt = simulate.generate_periodic_trajectory(profile)
        clean = simulate.inverse_mechanize(gt)
        self.data = []
        for i in range(self.flights):
            model = simulate.ImuErrorModel(accel_noise_std=cfg.accel_noise_std,
                                           gyro_noise_std=cfg.gyro_noise_std,
                                           seed=cfg.seed + i)
            self.data.append((f"traj_{i:02d}", gt, simulate.corrupt_imu(clean, model)))
        self.spec = windows.WindowSpec(cfg.window_size, cfg.stride)
        self.nets = {a: network.NetConfig(a, cfg.window_size, dropout=cfg.dropout,
                                          **self.net_kwargs.get(a, {}))
                     for a in self.arches}
        self.train_windows = self.flights * windows_per_flight(len(gt), cfg.window_size,
                                                               cfg.stride)
        # warm-up: one full-size Adam step per architecture
        sets = [windows.window_series(imu, gt, self.spec, tag) for tag, gt, imu in self.data]
        batch, _ = windows.normalize(windows.concat_sets(sets))
        for net in self.nets.values():
            network.train(network.init_params(net, cfg.seed), net,
                          batch.inputs[:cfg.batch_size], batch.labels[:cfg.batch_size],
                          network.TrainConfig(epochs=1, batch_size=cfg.batch_size))

    def iterate(self) -> None:
        cfg = self.cfg
        last, train_s = [], 0.0
        for r, (arch, net) in enumerate(self.nets.items()):
            run_seed = cfg.seed + 1000 * (r + 1)

            def train_op(arch=arch, net=net, run_seed=run_seed):
                sets = [windows.window_series(imu, gt, self.spec, tag)
                        for tag, gt, imu in self.data]
                train_set, _ = windows.normalize(windows.concat_sets(sets))
                params = network.init_params(net, run_seed)
                tcfg = network.TrainConfig(epochs=self.epochs, batch_size=cfg.batch_size,
                                           lr=cfg.lr, seed=run_seed)
                _, history = network.train(params, net, train_set.inputs,
                                           train_set.labels, tcfg)
                require_finite(dict(enumerate(history)), f"{arch} epoch loss")
                require(history[-1] < history[0],
                        f"{arch}: last-epoch loss {history[-1]:.4g} is not below "
                        f"the first {history[0]:.4g}")
                return history

            history, seconds = self.tally.run(f"train {arch}", train_op)
            train_s += seconds
            if history is not None:
                last.append(history[-1])
        self.note("train_windows_per_s",
                  len(self.nets) * self.train_windows * self.epochs / train_s)
        if last:
            self.note("final_train_loss", _mean(last))

    def expected_calls(self) -> dict[str, int]:
        steps = math.ceil(self.train_windows / self.cfg.batch_size) * self.epochs
        nets = len(self.nets)
        return {
            "windows.window_series": nets * self.flights,
            "windows.window_inputs": nets * self.flights,
            "windows.concat_sets": nets,
            "windows.normalize": nets,
            "network.init_params": nets,
            "network.train": nets,
            "network.loss_and_gradients": nets * steps,
            "network.adam_step": nets * steps,
            "network.save_model": 0,
            "ins.mechanize_series": 0,
        }

    def computed(self) -> dict:
        b = self.cfg.batch_size
        return {
            "params": {a: param_count(c) for a, c in self.nets.items()},
            "gflop_per_step": {a: step_gflop(c, b) for a, c in self.nets.items()},
            "fc1_param_share": {a: (c.feature_dim * c.dense_widths[0] + c.dense_widths[0])
                                / param_count(c) for a, c in self.nets.items()},
            "train_windows": self.train_windows,
            "adam_steps_per_iteration": len(self.nets) * self.epochs
            * math.ceil(self.train_windows / b),
        }


class LongFlightEval(Workload):
    name = "long_flight_eval"
    train_span = 7.2      # metres of the short flights the tiny models learn from
    train_flights = 2

    def __init__(self, seed, workdir, overrides=LONG_FLIGHT_OVERRIDES):
        super().__init__(seed, workdir)
        self.overrides = tuple(overrides) + (f"seed={config_seed(seed)}",
                                             f"out_dir={self.workdir / 'long'}")

    def setup(self) -> None:
        cfg = config.load_config(overrides=self.overrides)
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        tags = [f"traj_{i:02d}" for i in range(cfg.num_trajectories)]
        _, self.test_tags = windows.split_tags(tags, cfg.test_fraction, cfg.seed)
        self.flight_s = (flight_samples(cfg) - 1) / cfg.sample_rate
        # tiny models, trained on short flights of the same profile
        profile = simulate.TrajectoryProfile(
            hover_height=cfg.hover_height, amplitude=cfg.amplitude,
            p2p_distance=cfg.p2p_distance, total_span=self.train_span, speed=cfg.speed,
            sample_rate=cfg.sample_rate, heading=cfg.heading)
        gt = simulate.generate_periodic_trajectory(profile)
        clean = simulate.inverse_mechanize(gt)
        spec = windows.WindowSpec(cfg.window_size, cfg.stride)
        sets = []
        for i in range(self.train_flights):
            model = simulate.ImuErrorModel(
                accel_bias=np.array(cfg.accel_bias), gyro_bias=np.array(cfg.gyro_bias),
                accel_noise_std=cfg.accel_noise_std, gyro_noise_std=cfg.gyro_noise_std,
                seed=cfg.seed + cfg.num_trajectories + i)
            sets.append(windows.window_series(simulate.corrupt_imu(clean, model), gt, spec))
        train_set, norm = windows.normalize(windows.concat_sets(sets))
        labels = train_set.labels
        self.models, self.tiny_nets, self.tiny_loss = {}, {}, {}
        for arch, out_dim, y in (
                ("single", 3, labels),
                ("baseline", 2, np.column_stack([np.hypot(labels[:, 0], labels[:, 1]),
                                                 labels[:, 2]]))):
            net = network.NetConfig("single", cfg.window_size, dropout=0.0,
                                    out_dim=out_dim, **TINY_NET)
            params = network.init_params(net, cfg.seed)
            params, history = network.train(
                params, net, train_set.inputs, y,
                network.TrainConfig(epochs=20, batch_size=32, lr=3e-3, seed=cfg.seed))
            require_finite(dict(enumerate(history)), f"tiny {arch} loss")
            path = self.workdir / f"tiny_{arch}.qpnet"
            network.save_model(path, params, net, norm=norm)
            self.models[arch] = [path]
            self.tiny_nets[arch] = net
            self.tiny_loss[arch] = history[-1]
        # warm-up: one short-flight simulate + eval with the same models
        warm = replace(cfg, total_span=self.train_span,
                       out_dir=str(self.workdir / "long_warmup"))
        cli.cmd_simulate(warm)
        cli.cmd_eval(warm, self.models["single"], self.models["baseline"])

    def iterate(self) -> None:
        cfg = self.cfg

        def simulate_op():
            dirs = cli.cmd_simulate(cfg)
            for d in dirs:
                require_files(d, ("gt.csv", "imu_clean.csv", "imu_noisy.csv"))

        self.tally.run("simulate", simulate_op)

        def eval_op():
            result = cli.cmd_eval(cfg, self.models["single"], self.models["baseline"])
            require_finite(result["means"], "RMSE")
            require_files(self.out, EVAL_OUTPUTS + ("eval_single_traj.csv",
                                                    "eval_baseline_traj.csv"))
            report = result["report"]
            unscored = [f"{m}:{tag}" for tag in self.test_tags for m in ("single", "baseline")
                        if f"{m}.run0.{tag}.rmse" not in report]
            require(not unscored, f"test flights not scored: {unscored}")
            require(len(result["per_method"]["ins"]) == len(self.test_tags),
                    "pure-INS score missing for a test flight")
            return result["means"]

        means, eval_s = self.tally.run("eval", eval_op)
        self.note("eval_realtime_factor", len(self.test_tags) * self.flight_s / eval_s)
        if means is not None:
            for method in ("single", "baseline", "ins"):
                self.note(f"rmse_{method}_m", means[method])

    def expected_calls(self) -> dict[str, int]:
        flights, tests = self.cfg.num_trajectories, len(self.test_tags)
        baselines = len(self.models["baseline"])
        models = baselines + len(self.models["single"])
        return {
            "cli.cmd_simulate": 1,
            "cli.cmd_eval": 1,
            "simulate.write_gt_csv": flights,
            "simulate.write_imu_csv": 2 * flights,
            "simulate.read_gt_csv": flights,
            "simulate.read_imu_csv": flights,
            "network.load_model": models,
            "network.predict": tests * models,
            "ins.mechanize_series": tests * (1 + baselines),
            "deadreckon.run_baseline": tests * baselines,
            "network.train": 0,
            "network.save_model": 0,
        }

    def computed(self) -> dict:
        return {
            "params": {a: param_count(c) for a, c in self.tiny_nets.items()},
            "model_bytes": {a: os.path.getsize(p[0]) for a, p in self.models.items()},
            "flight_samples": flight_samples(self.cfg),
            "test_flights": len(self.test_tags),
            "tiny_final_train_loss": self.tiny_loss,
        }


WORKLOADS = {w.name: w for w in (ClaimPipeline, DefaultTrain, LongFlightEval)}
