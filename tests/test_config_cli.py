import hashlib
from pathlib import Path

import numpy as np
import pytest

from quadndr.cli import cmd_eval, cmd_simulate, cmd_train, main
from quadndr.config import ExperimentConfig, load_config, parse_config_text


def tiny_overrides(out_dir, **extra):
    base = dict(
        sample_rate=20.0, total_span=0.9, window_size=20, stride=10,
        num_trajectories=3, test_fraction=0.34,
        accel_noise_std=0.01, gyro_noise_std=0.001,
        conv_channels="6,8,8", dense_widths="16,8",
        epochs=2, runs=1, batch_size=32, dropout=0.0,
        out_dir=str(out_dir),
    )
    base.update(extra)
    return [f"{k}={v}" for k, v in base.items()]


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestConfigParsing:
    def test_key_value_lines(self):
        values = parse_config_text("speed = 0.25\nepochs=5\n")
        assert values == {"speed": 0.25, "epochs": 5}

    def test_comments_and_blank_lines(self):
        values = parse_config_text("# a comment\n\nseed = 3  # trailing\n")
        assert values == {"seed": 3}

    def test_triple_values(self):
        values = parse_config_text("accel_bias = 0.1,-0.2,0.3\n")
        assert values == {"accel_bias": (0.1, -0.2, 0.3)}

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config_text("warp_speed = 9\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config_text("just some words\n")

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.window_size == 100
        assert cfg.stride == 50
        assert cfg.batch_size == 64
        assert cfg.lr == 1e-3

    def test_override_precedence(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("speed = 0.25\nepochs = 7\n")
        cfg = load_config(path, ["epochs=9"])
        assert cfg.speed == 0.25
        assert cfg.epochs == 9


class TestCliExitCodes:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_config_key(self, tmp_path, capsys):
        code = main(["simulate", "--set", f"out_dir={tmp_path}", "--set", "bogus=1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_without_simulation(self, tmp_path, capsys):
        code = main(["eval"] + sum((["--set", o] for o in tiny_overrides(tmp_path / "none")), []))
        assert code == 1


def _sets(overrides):
    return sum((["--set", o] for o in overrides), [])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A simulated tiny experiment and one trained single-head model."""
    out = tmp_path_factory.mktemp("trained")
    cfg = load_config(overrides=tiny_overrides(out))
    cmd_simulate(cfg)
    return out, cmd_train(cfg, "single")[0]


def _eval_edited_model(edit):
    def case(tmp_path, out, model):
        bad = tmp_path / "bad.qpnet"
        bad.write_text("\n".join(edit(model.read_text().splitlines())) + "\n")
        return ["eval", *_sets(tiny_overrides(out)), "--models", str(bad)], bad
    return case


def _swap_fc1_shape(lines):
    name, shape, values = next(ln for ln in lines if ln.startswith("fc1.w ")).split(" ", 2)
    swapped = f"{name} {'x'.join(reversed(shape.split('x')))} {values}"
    return [swapped if ln.startswith("fc1.w ") else ln for ln in lines]


# each case builds (argv, the path the error message must name)
MALFORMED_INPUTS = {
    "config_is_directory": lambda tmp_path, out, model: (
        ["simulate", "--config", str(tmp_path)], tmp_path),
    "out_dir_is_file": lambda tmp_path, out, model: (
        ["simulate", *_sets(tiny_overrides(model))], model),
    "models_is_directory": lambda tmp_path, out, model: (
        ["eval", *_sets(tiny_overrides(out)), "--models", str(tmp_path)], tmp_path),
    "model_cut_after_magic": _eval_edited_model(lambda lines: lines[:1]),
    "model_missing_head_b": _eval_edited_model(
        lambda lines: [ln for ln in lines if not ln.startswith("head.b ")]),
    "model_norm_mean_without_std": _eval_edited_model(
        lambda lines: [ln for ln in lines if not ln.startswith("norm.std ")]),
    "model_block_shape_swapped": _eval_edited_model(_swap_fc1_shape),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_1_without_traceback(case, trained, tmp_path, capsys):
    out, model = trained
    argv, culprit = MALFORMED_INPUTS[case](tmp_path, out, model)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert str(culprit) in err


class TestSimulate:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["simulate"] + sum((["--set", o] for o in tiny_overrides(out)), [])) == 0
        for tag in ("traj_00", "traj_01", "traj_02"):
            for name in ("gt.csv", "imu_clean.csv", "imu_noisy.csv"):
                assert (out / tag / name).is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = load_config(overrides=tiny_overrides(out))
            cmd_simulate(cfg)
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_zero_noise_clean_equals_noisy(self, tmp_path):
        out = tmp_path / "exp"
        cfg = load_config(overrides=tiny_overrides(
            out, accel_noise_std=0.0, gyro_noise_std=0.0))
        cmd_simulate(cfg)
        clean = (out / "traj_00" / "imu_clean.csv").read_bytes()
        noisy = (out / "traj_00" / "imu_noisy.csv").read_bytes()
        assert clean == noisy


class TestPipeline:
    def run_pipeline(self, out):
        cfg = load_config(overrides=tiny_overrides(out))
        cmd_simulate(cfg)
        model_paths = cmd_train(cfg, "single")
        baseline_paths = cmd_train(cfg, "baseline")
        return cfg, model_paths, baseline_paths

    def test_train_writes_model_and_loss_curve(self, tmp_path):
        out = tmp_path / "exp"
        _, model_paths, _ = self.run_pipeline(out)
        assert len(model_paths) == 1
        assert model_paths[0].is_file()
        loss_lines = (out / "single_run0_loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 3  # header + 2 epochs

    def test_multiple_runs_differ(self, tmp_path):
        out = tmp_path / "exp"
        cfg = load_config(overrides=tiny_overrides(out, runs=2))
        cmd_simulate(cfg)
        paths = cmd_train(cfg, "single")
        assert len(paths) == 2
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def test_multi_head_training(self, tmp_path):
        out = tmp_path / "exp"
        cfg = load_config(overrides=tiny_overrides(out, conv_channels="3,8,8"))
        cmd_simulate(cfg)
        paths = cmd_train(cfg, "multi")
        assert paths[0].is_file()

    def test_eval_writes_report_and_artifacts(self, tmp_path):
        out = tmp_path / "exp"
        cfg, model_paths, baseline_paths = self.run_pipeline(out)
        result = cmd_eval(cfg, model_paths, baseline_paths)
        assert set(result["means"]) == {"ins", "single", "baseline"}
        assert all(v >= 0 for v in result["means"].values())
        report = (out / "report.txt").read_text()
        assert "single.rmse_mean=" in report
        assert "improvement.single_vs_baseline_pct=" in report
        assert (out / "eval_gt_traj.csv").read_text().startswith("t,px,py,pz\n")
        assert (out / "eval_xz.svg").read_text().startswith("<svg")

    def test_eval_rejects_mismatched_window(self, tmp_path):
        out = tmp_path / "exp"
        cfg, model_paths, baseline_paths = self.run_pipeline(out)
        bad = load_config(overrides=tiny_overrides(out, window_size=10, stride=10))
        with pytest.raises(ValueError):
            cmd_eval(bad, model_paths, baseline_paths)

    def test_training_is_seed_deterministic(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = load_config(overrides=tiny_overrides(out))
            cmd_simulate(cfg)
            paths = cmd_train(cfg, "single")
            blobs.append(paths[0].read_bytes())
        assert blobs[0] == blobs[1]
