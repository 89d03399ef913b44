"""End-to-end acceptance checks.

One test per acceptance criterion; each prints a single PASS line (visible
with ``pytest -s``) and encodes the stated tolerance and runtime budget.
Run with ``pytest -v tests/test_acceptance.py``.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from claim_digests import run_claim, tree_digests
from oracles import finite_difference_grads, guarded_relative_error, scalar_adam_reference
from quadndr.cli import cmd_eval, cmd_simulate, cmd_train
from quadndr.config import load_config
from quadndr.deadreckon import gt_window_end_positions, improvement_pct, integrate_deltas, rmse
from quadndr.ins import ImuSeries, mechanize_series
from quadndr.network import (
    AdamState,
    NetConfig,
    TrainConfig,
    adam_step,
    init_params,
    loss_and_gradients,
    train,
)
from quadndr.simulate import (
    GroundTruthSeries,
    TrajectoryProfile,
    generate_periodic_trajectory,
    initial_nav_state,
    inverse_mechanize,
)
from quadndr.windows import WindowSpec, window_series
from test_config_cli import tiny_overrides
from test_network import _subprocess_env


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_mechanization_roundtrip():
    """Noise-free inverse mechanization + forward mechanization closes the
    loop on the standard profile (hover 0.7, amplitude 0.1, peak-to-peak
    0.7, span 3.6 m at 100 Hz) to < 1e-3 m in < 1 s."""
    warmup = generate_periodic_trajectory(TrajectoryProfile(total_span=0.036))
    mechanize_series(initial_nav_state(warmup), inverse_mechanize(warmup))
    t0 = time.perf_counter()
    gt = generate_periodic_trajectory(TrajectoryProfile())
    imu = inverse_mechanize(gt)
    states = mechanize_series(initial_nav_state(gt), imu)
    final_error = float(np.linalg.norm(states.p[len(gt) - 1] - gt.positions[-1]))
    elapsed = time.perf_counter() - t0
    assert final_error < 1e-3
    assert elapsed < 1.0
    _report(1, f"final error {final_error:.3g} m in {elapsed:.2f} s")


def test_criterion_2_gradient_oracle():
    """Analytic backpropagation matches central finite differences (step
    1e-6) for both architectures at window 20, across 10 random seeds
    (5 per architecture), < 30 s.

    Relative errors use a denominator floor of 1e-4: the finite-difference
    noise floor is ~1e-9 absolute, so gradient entries smaller than the
    floor carry no information either way."""
    t0 = time.perf_counter()
    configs = [
        NetConfig(arch="single", window=20, dropout=0.0,
                  conv_channels=(6, 2, 2, 2, 2, 2, 2), dense_widths=(3, 2)),
        NetConfig(arch="multi", window=20, dropout=0.0,
                  conv_channels=(3, 2, 2, 2, 2, 2, 2), dense_widths=(3, 2)),
    ]
    worst = 0.0
    for cfg in configs:
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_params(cfg, seed)
            x = rng.normal(size=(2, 6, 20))
            targets = rng.normal(size=(2, 3))
            _, grads, _ = loss_and_gradients(params, cfg, x, targets)
            fd = finite_difference_grads(params, cfg, x, targets, h=1e-6)
            worst = max(worst, guarded_relative_error(grads, fd))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 30.0
    _report(2, f"worst relative error {worst:.3g} in {elapsed:.1f} s")


def test_criterion_3_adam_oracle():
    """Adam matches an independent scalar float reference to 1e-12 over 100
    random length-10 gradient sequences; the hand-computed first step with
    g = 1 and defaults moves by exactly 1e-3/(1+1e-8)."""
    params = {"w": np.array([0.0])}
    state = AdamState.for_params(params, lr=1e-3)
    stepped, _ = adam_step(params, {"w": np.array([1.0])}, state)
    hand = -1e-3 / (1.0 + 1e-8)
    assert abs(stepped["w"][0] - hand) < 1e-18

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        theta0 = float(rng.normal())
        gs = rng.normal(size=10)
        params = {"w": np.array([theta0])}
        state = AdamState.for_params(params, lr=1e-3)
        trace = []
        for g in gs:
            params, state = adam_step(params, {"w": np.array([g])}, state)
            trace.append(params["w"][0])
        ref = scalar_adam_reference(theta0, gs)
        worst = max(worst, float(np.max(np.abs(np.array(trace) - np.array(ref)))))
    assert worst < 1e-12
    _report(3, f"worst sequence deviation {worst:.3g}")


def test_criterion_4_overfit_convergence():
    """A single-head network memorizes 32 windows (batch 64, lr 1e-3): the
    final epoch's MSE drops below 1% of the first epoch's within 500
    epochs, in under 2 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=(32, 6, 10))
    labels = rng.normal(size=(32, 3))
    cfg = NetConfig(arch="single", window=10, dropout=0.0)
    params = init_params(cfg, seed=0)
    _, history = train(params, cfg, inputs, labels,
                       TrainConfig(epochs=500, batch_size=64, lr=1e-3, seed=0,
                                   stop_ratio=0.01))
    elapsed = time.perf_counter() - t0
    assert len(history) <= 500
    assert history[-1] < 0.01 * history[0]
    assert elapsed < 120.0
    _report(4, f"loss {history[0]:.3g} -> {history[-1]:.3g} "
               f"in {len(history)} epochs, {elapsed:.1f} s")


def test_criterion_5_telescoping():
    """Chaining ground-truth window labels at stride = window size
    reproduces the ground-truth window-end positions with RMSE exactly 0."""
    gt = generate_periodic_trajectory(TrajectoryProfile())
    imu = inverse_mechanize(gt)
    spec = WindowSpec(100, 100)
    sset = window_series(imu, gt, spec)
    chained = integrate_deltas(gt.positions[0], sset.labels)
    targets = gt_window_end_positions(gt, spec)
    report = rmse(targets, chained)
    assert report.rmse == 0.0
    _report(5, f"RMSE {report.rmse!r} over {report.num_windows} windows")


def test_criterion_7_improvement_percentage():
    """An RMSE drop from 28.9 to 13.8 is a 52.2% +- 0.1 improvement."""
    value = improvement_pct(28.9, 13.8)
    assert value == pytest.approx(52.2, abs=0.1)
    _report(7, f"improvement {value:.4f}%")


def test_criterion_8_windowing_brute_force():
    """Window counts and labels match an independent brute-force enumerator
    over 200 random (length, window, stride) combinations."""
    rng = np.random.default_rng(88)
    for trial in range(200):
        length = int(rng.integers(5, 400))
        n = int(rng.integers(2, 120))
        stride = int(rng.integers(1, n + 1))
        ts = np.arange(length) / 100.0
        gt = GroundTruthSeries(ts, rng.normal(size=(length, 3)),
                               np.zeros((length, 3)))
        imu = ImuSeries(ts, rng.normal(size=(length, 3)),
                        rng.normal(size=(length, 3)))
        spec = WindowSpec(n, stride)

        ref_inputs, ref_labels = [], []
        start = 0
        while start + n <= length:
            ref_inputs.append(np.vstack([imu.f[start:start + n].T,
                                         imu.w[start:start + n].T]))
            ref_labels.append(gt.positions[start + n - 1] - gt.positions[start])
            start += stride

        sset = window_series(imu, gt, spec)
        assert len(sset) == len(ref_inputs), (length, n, stride)
        for k in range(len(sset)):
            assert np.array_equal(sset.inputs[k], ref_inputs[k])
            assert np.array_equal(sset.labels[k], ref_labels[k])
    _report(8, "200 random combinations matched exactly")


def test_criterion_9_determinism(tmp_path):
    """Rerunning every command with an identical config reproduces every
    output file (CSVs, models, report and plot) bit for bit."""
    digests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        cfg = load_config(overrides=tiny_overrides(out))
        cmd_simulate(cfg)
        models = cmd_train(cfg, "single")
        baselines = cmd_train(cfg, "baseline")
        cmd_eval(cfg, models, baselines)
        digests.append(tree_digests(out))
    assert digests[0].keys() == digests[1].keys()
    assert digests[0] == digests[1]
    _report(9, f"{len(digests[0])} output files identical across reruns")


def test_criterion_6_qualitative_claim(tmp_path):
    """On held-out noisy synthetic data (sinusoidal profile, accelerometer /
    gyroscope bias plus white noise, 3 training runs averaged), both direct
    position-regression variants beat pure-INS mechanization and the
    distance + INS-heading baseline. Direction of inequality only; < 15 min.

    The config is configs/criterion6.cfg, scaled to a desktop CPU: 25 Hz
    sampling, 25-sample windows, 6 trajectories, 10 epochs per run."""
    t0 = time.perf_counter()
    means = run_claim(tmp_path / "claim")["means"]
    elapsed = time.perf_counter() - t0
    assert means["single"] < means["baseline"], means
    assert means["single"] < means["ins"], means
    assert means["multi"] < means["baseline"], means
    assert means["multi"] < means["ins"], means
    assert elapsed < 900.0
    _report(6, "mean RMSE [m] single {single:.3g}, multi {multi:.3g}, "
               "baseline {baseline:.3g}, pure INS {ins:.3g}; "
               "{secs:.0f} s".format(secs=elapsed, **means))


def _short_claim_digests(out_dir):
    """Criterion 6's pipeline at 3 epochs and one run, into ``out_dir``; the
    digest of each output. The commands' progress lines go to stderr."""
    run_claim(out_dir, ["epochs=3", "runs=1"])
    return tree_digests(out_dir)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every output of a short criterion-6 run is the same, bit for bit,
    with OPENBLAS_NUM_THREADS unset, at 1 and at 2. OpenBLAS reads the
    variable once, so each run has a process of its own."""
    code = ("import json, sys, test_acceptance\n"
            "print(json.dumps(test_acceptance._short_claim_digests(sys.argv[1])))\n")
    runs = {}
    for threads in (None, "1", "2"):
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / f"threads_{threads}")],
                              timeout=600, capture_output=True, text=True,
                              env=_subprocess_env(OPENBLAS_NUM_THREADS=threads))
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert "report.txt" in runs[None] and "single_run0.qpnet" in runs[None]
    assert runs["1"] == runs[None] == runs["2"]
