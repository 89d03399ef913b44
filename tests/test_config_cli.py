import contextlib
import hashlib
import io
import json
import re
import shutil
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadndr.cli import _profile, cmd_eval, cmd_simulate, cmd_train, main
from quadndr.config import _PARSERS, ExperimentConfig, _parse_pair, load_config, parse_config_text
from quadndr.simulate import TrajectoryProfile
from quadndr.windows import split_tags


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

    def test_default_flight_is_the_default_profile(self):
        # the CLI flies ExperimentConfig(), the default_train benchmark TrajectoryProfile()
        assert _profile(ExperimentConfig()) == TrajectoryProfile()

    def test_default_text_parses_back(self):
        # an empty default stands for "the architecture's own"; only
        # conv_channels needs one, since the architectures differ
        empty = set()
        for f in fields(ExperimentConfig):
            if f.default == ():
                empty.add(f.name)
                continue
            text = (",".join(str(v) for v in f.default) if isinstance(f.default, tuple)
                    else str(f.default))
            assert _parse_pair(f"{f.name} = {text}") == (f.name, f.default)
        assert empty == {"conv_channels"}

    def test_parsable_keys_are_the_fields(self):
        assert set(_PARSERS) == {f.name for f in fields(ExperimentConfig)}

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


def _eval_edited_model(edit, flag="--models"):
    def case(tmp_path, out, model):
        bad = tmp_path / "bad.qpnet"
        bad.write_bytes(edit(model.read_bytes()))
        return ["eval", *_sets(tiny_overrides(out)), flag, str(bad)], bad
    return case


def _edit_entries(edit):
    """Rebuild the model archive after ``edit`` changes its entry dict in place."""
    def rewrite(data):
        with np.load(io.BytesIO(data)) as archive:
            entries = {name: archive[name] for name in archive.files}
        edit(entries)
        buf = io.BytesIO()
        np.savez(buf, **entries)
        return buf.getvalue()
    return rewrite


def _set_header(**fields):
    def edit(entries):
        header = json.loads(str(entries["header"]))
        entries["header"] = np.array(json.dumps({**header, **fields}))
    return edit


def _even_kernel(entries):
    # header kernel=4, and every conv weight padded to 4 taps so that the
    # block shapes agree with the header
    _set_header(kernel=4)(entries)
    for name, arr in entries.items():
        if arr.ndim == 3:
            entries[name] = np.concatenate([arr, np.zeros(arr.shape[:2] + (1,))], axis=2)


def _four_outputs(entries):
    # header out_dim=4, and the head blocks grown by one output so that the
    # block shapes agree with the header
    _set_header(out_dim=4)(entries)
    for name in ("head.w", "head.b"):
        arr = entries[name]
        entries[name] = np.concatenate([arr, np.zeros((1,) + arr.shape[1:])])


def _baseline_head(entries):
    # header out_dim=2, and the head blocks cut to two outputs, as a
    # baseline's (distance, dz) are
    _set_header(out_dim=2)(entries)
    for name in ("head.w", "head.b"):
        entries[name] = entries[name][:2]


def _large_head_b(out_dim, value):
    # finite blocks (a baseline's when out_dim is 2) whose every prediction
    # is about ``value``: at 1e308 the chained reconstruction overflows, at
    # 1e200 only the square of its distance from the ground truth does
    def edit(entries):
        if out_dim == 2:
            _baseline_head(entries)
        entries["head.b"] = np.full(out_dim, value)
    return edit


def _drop_norm(entries):
    del entries["norm.mean"], entries["norm.std"]


def _set_entry(name, index, value):
    def edit(entries):
        entries[name][index] = value
    return edit


def _cut_after_header_entry(data):
    # the header entry, which holds the magic, is the archive's first
    return data[:data.index(b"PK\x03\x04", 4)]


def _damage_zip_version(data):
    # offset 6 of a central-directory record is the "version needed" field
    at = data.index(b"PK\x01\x02") + 6
    return data[:at] + b"\xff" + data[at + 1:]


def _edit_flight(command, edit, models=True, **overrides):
    """Copy the experiment, let ``edit`` damage its first test flight (it
    returns the path the error must name) and run ``command`` on the copy,
    with ``overrides`` on the tiny config; eval scores the trained model
    unless ``models`` is false."""
    def case(tmp_path, out, model):
        exp = tmp_path / "exp"
        shutil.copytree(out, exp)
        cfg = load_config(overrides=tiny_overrides(exp, **overrides))
        tags = [f"traj_{i:02d}" for i in range(cfg.num_trajectories)]
        flight = exp / split_tags(tags, cfg.test_fraction, cfg.seed)[1][0]
        culprit = edit(flight)
        argv = [command, *_sets(tiny_overrides(exp, **overrides))]
        if command == "eval" and models:
            argv += ["--models", str(model)]
        return argv, culprit
    return case


def _keep_rows(path, count):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1 + count]))


def _cut_flight(gt_rows, imu_rows):
    # a tiny_overrides flight has 101 samples
    def edit(flight):
        _keep_rows(flight / "gt.csv", gt_rows)
        _keep_rows(flight / "imu_noisy.csv", imu_rows)
        return flight
    return edit


def _overflowing_timestamps(flight):
    # two synchronized samples at finite times whose step, 1e308 - (-1e308),
    # overflows; nothing else about the flight is wrong
    for name in ("gt.csv", "imu_noisy.csv"):
        lines = (flight / name).read_text().splitlines(keepends=True)[:3]
        for row, t in ((1, "-1e308"), (2, "1e308")):
            lines[row] = ",".join([t, *lines[row].split(",")[1:]])
        (flight / name).write_text("".join(lines))
    return flight / "gt.csv"


def _gt_value(sample, column, value):
    # tiny_overrides windows 20 samples with stride 10; gt.csv's columns are
    # t, x, y, z, roll, pitch, yaw
    def edit(flight):
        path = flight / "gt.csv"
        lines = path.read_text().splitlines(keepends=True)
        values = lines[1 + sample].split(",")
        values[column] = value
        lines[1 + sample] = ",".join(values)
        path.write_text("".join(lines))
        return path
    return edit


def _pitched_past_vertical(flight):
    # the first sample's pitch leaves no initial navigation state, a fault
    # of the flight rather than of one row
    _gt_value(0, 5, "2.0")(flight)
    return flight


def _model_given_twice(tmp_path, out, model):
    # the second time as another path to the same file
    again = f"{model.parent}/../{model.parent.name}/{model.name}"
    return ["eval", *_sets(tiny_overrides(out)), "--models", str(model), "--models", again], again


def _undecodable_config(tmp_path, out, model):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"seed = 3\n\xff\n")
    return ["simulate", "--config", str(path)], path


# each case builds (argv, the path the error message must name)
MALFORMED_INPUTS = {
    "config_is_directory": lambda tmp_path, out, model: (
        ["simulate", "--config", str(tmp_path)], tmp_path),
    "config_not_utf8": _undecodable_config,
    "out_dir_is_file": lambda tmp_path, out, model: (
        ["simulate", *_sets(tiny_overrides(model))], model),
    "models_is_directory": lambda tmp_path, out, model: (
        ["eval", *_sets(tiny_overrides(out)), "--models", str(tmp_path)], tmp_path),
    "model_cut_after_magic": _eval_edited_model(_cut_after_header_entry),
    "model_missing_head_b": _eval_edited_model(
        _edit_entries(lambda entries: entries.pop("head.b"))),
    "model_norm_mean_without_std": _eval_edited_model(
        _edit_entries(lambda entries: entries.pop("norm.std"))),
    "model_without_norm": _eval_edited_model(_edit_entries(_drop_norm)),
    "model_nan_in_fc1_w": _eval_edited_model(_edit_entries(_set_entry("fc1.w", (0, 0), np.nan))),
    "model_norm_std_zero": _eval_edited_model(_edit_entries(_set_entry("norm.std", ..., 0.0))),
    "model_block_shape_swapped": _eval_edited_model(
        _edit_entries(lambda entries: entries.update({"fc1.w": entries["fc1.w"].T}))),
    "model_zip_version_damaged": _eval_edited_model(_damage_zip_version),
    "model_even_kernel": _eval_edited_model(_edit_entries(_even_kernel)),
    "model_alpha_above_one": _eval_edited_model(_edit_entries(_set_header(alpha=2))),
    "model_window_not_int": _eval_edited_model(_edit_entries(_set_header(window=20.0))),
    "model_out_dim_not_int": _eval_edited_model(_edit_entries(_set_header(out_dim=3.0))),
    "model_out_dim_four": _eval_edited_model(_edit_entries(_four_outputs)),
    "model_reconstruction_overflows": _eval_edited_model(_edit_entries(_large_head_b(3, 1e308))),
    "baseline_reconstruction_overflows": _eval_edited_model(
        _edit_entries(_large_head_b(2, 1e308)), "--baseline"),
    "model_rmse_overflows": _eval_edited_model(_edit_entries(_large_head_b(3, 1e200))),
    "baseline_rmse_overflows": _eval_edited_model(
        _edit_entries(_large_head_b(2, 1e200)), "--baseline"),
    "xyz_model_under_baseline_flag": lambda tmp_path, out, model: (
        ["eval", *_sets(tiny_overrides(out)), "--baseline", str(model)], model),
    "baseline_model_under_models_flag": _eval_edited_model(_edit_entries(_baseline_head)),
    "model_given_twice": _model_given_twice,
    "eval_model_window_differs": lambda tmp_path, out, model: (
        ["eval", *_sets(tiny_overrides(out, window_size=10, stride=10)),
         "--models", str(model)], model),
    "eval_gt_header_only": _edit_flight("eval", _cut_flight(0, 101)),
    "eval_imu_shorter_than_gt": _edit_flight("eval", _cut_flight(101, 60)),
    "eval_flight_shorter_than_window": _edit_flight("eval", _cut_flight(10, 10)),
    "eval_flight_of_two_samples": _edit_flight("eval", _cut_flight(2, 2), models=False,
                                               window_size=2, stride=2),
    "train_flight_of_two_samples": _edit_flight("train", _cut_flight(2, 2),
                                                window_size=2, stride=2),
    "train_imu_shorter_than_gt": _edit_flight("train", _cut_flight(101, 60)),
    "train_test_flight_shorter_than_window": _edit_flight("train", _cut_flight(10, 10)),
    "train_gt_nan_inside_window": _edit_flight("train", _gt_value(5, 1, "nan")),
    "train_gt_nan_at_window_start": _edit_flight("train", _gt_value(10, 1, "nan")),
    "train_flight_pitched_past_vertical": _edit_flight("train", _pitched_past_vertical),
    "train_gt_timestamp_step_overflows": _edit_flight("train", _overflowing_timestamps),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_1_without_traceback(case, trained, tmp_path, capsys):
    out, model = trained
    argv, culprit = MALFORMED_INPUTS[case](tmp_path, out, model)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert str(culprit) in err


@pytest.mark.parametrize("setting, in_file", [
    ("dense_widths=", False), ("seed=abc", False), ("accel_bias=1,2", False),
    ("lr = fast", True),
])
def test_bad_config_value_names_the_key(setting, in_file, tmp_path, capsys):
    if in_file:
        path = tmp_path / "exp.cfg"
        path.write_text(f"# experiment\n{setting}\n")
        argv = ["train", "--config", str(path)]
    else:
        argv = ["train", "--set", setting]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(setting.partition("=")[0].strip()) in err
    if in_file:
        assert f"{path}: line 2:" in err


@pytest.mark.parametrize("setting", ["conv_channels=6,0", "conv_channels=6,-2", "dense_widths=0"])
def test_bad_layer_width_exits_1_without_traceback(setting, trained, capsys):
    out, _ = trained
    assert main(["train", *_sets(tiny_overrides(out)), "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    key, _, value = setting.partition("=")
    assert key in err and value.split(",")[-1] in err


@pytest.mark.parametrize("setting", ["lr=nan", "lr=inf", "lr=-1", "batch_size=-3",
                                     "batch_size=0", "epochs=0", "epochs=-1", "runs=0"])
def test_bad_training_setting_exits_1_without_traceback(setting, trained, tmp_path, capsys):
    exp = tmp_path / "exp"
    shutil.copytree(trained[0], exp)
    assert main(["train", *_sets(tiny_overrides(exp)), "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    key, _, value = setting.partition("=")
    assert key in err and value in err


# each bad setting and the text its error must contain; speed=1e-15 asks
# np.arange for 2.5 EiB, which is refused before any page is touched
BAD_SIMULATE_SETTINGS = {
    "sample_rate=1e308": "sample_rate", "sample_rate=inf": "sample_rate",
    "total_span=inf": "total_span", "speed=1e-308": "speed",
    "speed=1e-15": "out of memory", "accel_noise_std=nan": "accel_noise_std",
    "gyro_noise_std=inf": "gyro_noise_std", "accel_bias=nan,0,0": "accel_bias",
    "p2p_distance=inf": "p2p_distance",
}


@pytest.mark.parametrize("setting", sorted(BAD_SIMULATE_SETTINGS))
def test_bad_simulate_setting_exits_1_without_traceback(setting, tmp_path, capsys):
    assert main(["simulate", "--set", f"out_dir={tmp_path / 'exp'}", "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert BAD_SIMULATE_SETTINGS[setting] in err


FUZZ_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "out_dir"] + ["warp_speed"]
# on the tiny base below every draw gives a sample count that is tiny, beyond
# numpy's maximum array size or not finite, so no example allocates more
# than the base flight does
FUZZ_VALUES = ["0", "-1", "1", "2.5", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308",
               "", "x", "1,2", "1,2,3", "nan,0,0"]
FUZZ_BASE = [("sample_rate", "20"), ("total_span", "0.9"), ("num_trajectories", "3")]


def _run_main(argv):
    """Exit code and stderr of ``main``, run with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=3))
@example(pairs=[("sample_rate", "1e308")])
@example(pairs=[("total_span", "1"), ("speed", "1e-308"), ("sample_rate", "1")])
def test_simulate_settings_fuzz(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = f"out_dir={Path(tmp) / 'exp'}"
        lines = [f"{k}={v}" for k, v in FUZZ_BASE + pairs]
        cfg_path = Path(tmp) / "exp.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        for argv in (["simulate", *_sets(lines), "--set", out_dir],
                     ["simulate", "--config", str(cfg_path), "--set", out_dir]):
            code, err = _run_main(argv)
            assert code in (0, 1), (argv, err)
            if code == 1:
                assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
                assert any(key in err for key, _ in pairs), (argv, err)
            else:
                assert err == "", (argv, err)


# window 4 and three tiny layers, so every example trains in milliseconds
FUZZ_NET = [("window_size", "4"), ("stride", "2"), ("conv_channels", "6,2"),
            ("dense_widths", "4"), ("epochs", "1"), ("runs", "1")]


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """The flights of the fuzz base and one model trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = load_config(overrides=[f"{k}={v}" for k, v in FUZZ_BASE + FUZZ_NET]
                      + [f"out_dir={root / 'exp'}"])
    cmd_simulate(cfg)
    model = cmd_train(cfg, "single")[0].rename(root / "model.qpnet")
    return root / "exp", model


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=3))
@example(pairs=[("lr", "1e308")])
def test_train_and_eval_settings_fuzz(fuzz_base, pairs):
    flights, model = fuzz_base
    with tempfile.TemporaryDirectory() as tmp:
        exp = Path(tmp) / "exp"
        shutil.copytree(flights, exp)
        lines = [f"{k}={v}" for k, v in FUZZ_BASE + FUZZ_NET + pairs]
        cfg_path = Path(tmp) / "exp.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        for command in (["train"], ["eval", "--models", str(model)]):
            for argv in ([*command, *_sets(lines), "--set", f"out_dir={exp}"],
                         [*command, "--config", str(cfg_path), "--set", f"out_dir={exp}"]):
                code, err = _run_main(argv)
                assert code in (0, 1, 2), (argv, err)
                if code:
                    assert err.startswith(("error:", "aborted:")) and err.count("\n") == 1, \
                        (argv, err)
                else:
                    assert err == "", (argv, err)


def test_overflowing_lr_aborts_with_one_line(trained, tmp_path):
    exp = tmp_path / "exp"
    shutil.copytree(trained[0], exp)
    code, err = _run_main(["train", *_sets(tiny_overrides(exp)), "--set", "lr=1e308"])
    assert code == 2
    assert err.startswith("aborted: non-finite loss") and err.count("\n") == 1, err


# (command, setting) pairs refused with one error line naming the key and value
KEY_NAMING_ERRORS = [
    ("simulate", "seed=-1"), ("train", "seed=-1"), ("eval", "seed=-1"),
    ("simulate", "num_trajectories=0"), ("simulate", "num_trajectories=-1"),
    ("train", "num_trajectories=1"), ("eval", "num_trajectories=1"),
    ("simulate", "accel_noise_std=-1"), ("simulate", "gyro_noise_std=-1"),
    ("simulate", "accel_noise_std=1e308"), ("simulate", "gyro_noise_std=1e308"),
    ("train", "conv_channels=1,2"), ("train", "conv_channels=6"), ("eval", "window_size=10"),
    ("train", "window_size=200"), ("train", "window_size=0"), ("train", "stride=0"),
    ("train", "stride=30"), ("train", "test_fraction=1.5"), ("eval", "test_fraction=0"),
    ("simulate", "speed=-1"), ("simulate", "amplitude=-1"), ("simulate", "sample_rate=0"),
]


@pytest.mark.parametrize("command, setting", KEY_NAMING_ERRORS)
def test_bad_setting_error_names_key_and_value(command, setting, trained, tmp_path):
    exp = tmp_path / "exp"
    shutil.copytree(trained[0], exp)
    argv = [command, *_sets(tiny_overrides(exp)), "--set", setting]
    code, err = _run_main(argv + (["--models", str(trained[1])] if command == "eval" else []))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    key, value = _parse_pair(setting)
    # the value as a whole token: after "got ", after its key, or as key=value
    token = rf"\b(got |{key}[ =]){re.escape(repr(value))}(?![\w.])"
    assert key in err and re.search(token, err), err


# with a flight missing, train and eval still report the setting or the model:
# they check every setting, and eval every model file, before reading a flight
@pytest.mark.parametrize("command, setting", [
    ("train", "dropout=1.5"), ("train", "conv_channels=6"), ("train", "stride=30"),
    ("train", "test_fraction=1.5"), ("eval", "window_size=10"), ("eval", "test_fraction=0"),
])
def test_settings_and_models_are_checked_before_any_flight(command, setting, trained,
                                                           tmp_path):
    exp = tmp_path / "exp"
    shutil.copytree(trained[0], exp)
    shutil.rmtree(exp / "traj_01")
    argv = [command, *_sets(tiny_overrides(exp)), "--set", setting]
    code, err = _run_main(argv + (["--models", str(trained[1])] if command == "eval" else []))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "traj_01" not in err, err
    key, value = _parse_pair(setting)
    assert key in err and repr(value) in err, err
    if key == "window_size":
        assert err.startswith(f"error: {trained[1]}: model window"), err


def test_unknown_architecture_is_refused_before_any_flight(tmp_path):
    cfg = load_config(overrides=tiny_overrides(tmp_path / "none"))
    with pytest.raises(ValueError, match="unknown architecture 'triple'"):
        cmd_train(cfg, "triple")


def test_repeated_model_flags_score_every_file(trained, tmp_path):
    exp = tmp_path / "exp"
    shutil.copytree(trained[0], exp)
    cfg = load_config(overrides=tiny_overrides(exp, runs=2))
    singles, baselines = cmd_train(cfg, "single"), cmd_train(cfg, "baseline")
    reports = []
    for flags in (["--models", *map(str, singles), "--baseline", *map(str, baselines)],
                  ["--models", str(singles[0]), "--baseline", str(baselines[0]),
                   "--models", str(singles[1]), "--baseline", str(baselines[1])]):
        code, err = _run_main(["eval", *_sets(tiny_overrides(exp)), *flags])
        assert code == 0, err
        reports.append((exp / "report.txt").read_text())
    assert reports[0] == reports[1]
    for method in ("single", "baseline"):
        for run in (0, 1):
            assert f"{method}.run{run}." in reports[1]


def test_failed_simulate_leaves_no_flight_directory(tmp_path):
    exp = tmp_path / "exp"
    code, err = _run_main(["simulate", *_sets(tiny_overrides(exp)),
                           "--set", "accel_noise_std=1e308"])
    assert code == 1 and "accel_noise_std" in err, err
    assert not (exp / "traj_00").exists()
    code, err = _run_main(["train", *_sets(tiny_overrides(exp))])
    assert code == 1
    assert err == f"error: missing trajectory directory {exp / 'traj_00'}; run simulate first\n"


def test_failed_resimulate_leaves_the_earlier_flights(tmp_path):
    # seed 4 draws finite noise for the first two flights and overflows on the third
    exp = tmp_path / "exp"
    assert main(["simulate", *_sets(tiny_overrides(exp, seed=4))]) == 0
    before = tree_digest(exp)
    code, err = _run_main(["simulate", *_sets(tiny_overrides(exp, seed=4)),
                           "--set", "accel_noise_std=6e307"])
    assert code == 1 and "accel_noise_std" in err, err
    assert tree_digest(exp) == before


@pytest.mark.parametrize("setting", ["speed=-1", "sample_rate=0", "amplitude=-1",
                                     "accel_noise_std=-1", "accel_noise_std=1e308"])
def test_refused_simulate_makes_no_directory(setting, tmp_path):
    out = tmp_path / "newout" / "deep"
    code, err = _run_main(["simulate", *_sets(tiny_overrides(out)), "--set", setting])
    assert code == 1 and setting.partition("=")[0] in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["gt.csv", "imu_noisy.csv"])
def test_flight_without_its_csv_asks_for_simulate(name, trained, tmp_path):
    exp = tmp_path / "exp"
    shutil.copytree(trained[0], exp)
    missing = exp / "traj_01" / name
    missing.unlink()
    for command in (["train"], ["eval", "--models", str(trained[1])]):
        code, err = _run_main([command[0], *_sets(tiny_overrides(exp)), *command[1:]])
        assert code == 1
        assert err == f"error: missing trajectory file {missing}; run simulate first\n"


@pytest.mark.parametrize("setting", ["hover_height=1e308", "hover_height=-1e308",
                                     "amplitude=1e308", "p2p_distance=1e-308"])
def test_overflowing_profile_names_its_key(setting, tmp_path):
    code, err = _run_main(["simulate", *_sets(tiny_overrides(tmp_path / "exp")),
                           "--set", setting])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    key, _, value = setting.partition("=")
    assert f"{key}={float(value)!r}" in err, err


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
        assert "improvement.ins_vs_baseline_pct" not in report
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
