import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_difference_grads, guarded_relative_error, scalar_adam_reference
from quadndr.network import (
    AdamState,
    NetConfig,
    TrainConfig,
    TrainingDiverged,
    _conv_forward,
    _dropout,
    adam_step,
    init_params,
    leaky_relu,
    load_model,
    loss_and_gradients,
    mse_loss,
    predict,
    save_model,
    train,
)
from quadndr.windows import NormStats

TINY_SINGLE = NetConfig(arch="single", window=8, dropout=0.0,
                        conv_channels=(6, 4, 4), dense_widths=(6, 4))
TINY_MULTI = NetConfig(arch="multi", window=8, dropout=0.0,
                       conv_channels=(3, 4, 4), dense_widths=(6, 4))
DENSE_ONLY = NetConfig(arch="single", window=8, dropout=0.0,
                       conv_channels=(6,), dense_widths=(6, 4))


def conv1d(w, b, x, padding=0):
    """One (in_channels, L) input through the batched conv."""
    y, _ = _conv_forward(np.asarray(x, dtype=float)[None], np.asarray(w, dtype=float),
                         np.asarray(b, dtype=float), padding)
    return y[0]


def dense_only(weights, bias):
    """A network with no conv and no hidden layer: its head is one dense layer
    over the six input channels of a length-1 window."""
    cfg = NetConfig(arch="single", window=1, out_dim=len(bias),
                    conv_channels=(6,), dense_widths=())
    return {"head.w": np.asarray(weights, dtype=float),
            "head.b": np.asarray(bias, dtype=float)}, cfg


def zero_params(cfg, head_bias=None):
    params = init_params(cfg, seed=0)
    zeroed = {k: np.zeros_like(v) for k, v in params.items()}
    if head_bias is not None:
        zeroed["head.b"] = np.array(head_bias, dtype=float)
    return zeroed


class TestLeakyRelu:
    def test_examples(self):
        assert leaky_relu(2.0) == 2.0
        assert leaky_relu(-1.0) == -0.01
        assert leaky_relu(0.0) == 0.0

    def test_custom_alpha(self):
        assert leaky_relu(-2.0, alpha=0.1) == pytest.approx(-0.2)

    def test_rejects_non_positive_alpha(self):
        with pytest.raises(ValueError):
            leaky_relu(1.0, alpha=0.0)


class TestConv1d:
    def test_moving_sum(self):
        y = conv1d(np.ones((1, 1, 2)), np.zeros(1), [[1.0, 2.0, 3.0]])
        assert np.array_equal(y, [[3.0, 5.0]])

    def test_identity_kernel_with_padding(self):
        w = np.zeros((1, 1, 3))
        w[0, 0, 1] = 1.0
        x = np.array([[4.0, -1.0, 2.0, 7.0]])
        assert np.array_equal(conv1d(w, np.zeros(1), x, padding=1), x)

    def test_zero_weights_yield_bias(self):
        y = conv1d(np.zeros((2, 3, 3)), np.array([1.5, -0.5]),
                   np.random.default_rng(0).normal(size=(3, 5)), padding=1)
        assert np.array_equal(y[0], np.full(5, 1.5))
        assert np.array_equal(y[1], np.full(5, -0.5))

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv1d(np.ones((1, 2, 2)), np.zeros(1), [[1.0, 2.0]])

    def test_rejects_input_shorter_than_kernel(self):
        with pytest.raises(ValueError):
            conv1d(np.ones((1, 1, 4)), np.zeros(1), [[1.0, 2.0]])


class TestDense:
    def test_example(self):
        params, cfg = dense_only([[1.0, 2.0, 0, 0, 0, 0], [0.0, -1.0, 0, 0, 0, 0]], [0.5, 0.0])
        x = np.array([3.0, 4.0, 0, 0, 0, 0]).reshape(1, 6, 1)
        assert np.array_equal(predict(params, cfg, x)[0], [11.5, -4.0])

    def test_rejects_length_mismatch(self):
        params, cfg = dense_only(np.ones((2, 6)), np.zeros(2))
        with pytest.raises(ValueError):
            predict(params, cfg, np.ones((1, 6, 2)))


class TestDropout:
    def test_inference_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(_dropout(x, 0.5, False, None)[0], x)

    def test_zero_rate_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(_dropout(x, 0.0, True, np.random.default_rng(0))[0], x)

    def test_seed_deterministic(self):
        x = np.ones((4, 100))
        a, _ = _dropout(x, 0.3, True, np.random.default_rng(5))
        b, _ = _dropout(x, 0.3, True, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_survivors_are_rescaled(self):
        x = np.ones((4, 1000))
        y, _ = _dropout(x, 0.25, True, np.random.default_rng(1))
        kept = y[y != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert 0.6 < kept.size / x.size < 0.9


class TestForward:
    def test_zero_network_outputs_zero(self):
        out = predict(zero_params(TINY_SINGLE), TINY_SINGLE, np.ones((1, 6, 8)))[0]
        assert np.array_equal(out, np.zeros(3))

    def test_head_bias_passes_through_zero_weights(self):
        params = zero_params(TINY_SINGLE, head_bias=(1.0, 2.0, 3.0))
        out = predict(params, TINY_SINGLE, np.ones((1, 6, 8)))[0]
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_single_head_shape_and_determinism(self):
        params = init_params(TINY_SINGLE, seed=3)
        x = np.random.default_rng(7).normal(size=(1, 6, 8))
        a = predict(params, TINY_SINGLE, x)[0]
        b = predict(params, TINY_SINGLE, x)[0]
        assert a.shape == (3,)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_multi_head_uses_both_branches(self):
        params = init_params(TINY_MULTI, seed=3)
        rng = np.random.default_rng(5)
        acc, gyro = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        base = predict(params, TINY_MULTI, np.concatenate([acc, gyro])[None])[0]
        swapped = predict(params, TINY_MULTI, np.concatenate([gyro, acc])[None])[0]
        assert base.shape == (3,)
        assert not np.array_equal(base, swapped)

    def test_multi_rejects_wrong_shapes(self):
        params = init_params(TINY_MULTI, seed=0)
        with pytest.raises(ValueError):
            predict(params, TINY_MULTI, np.ones((1, 6, 7)))

    def test_predict_matches_per_sample_inference(self):
        params = init_params(TINY_SINGLE, seed=9)
        x = np.random.default_rng(2).normal(size=(5, 6, 8))
        batched = predict(params, TINY_SINGLE, x)
        singles = np.stack([predict(params, TINY_SINGLE, xi[None])[0] for xi in x])
        assert np.allclose(batched, singles, atol=1e-12)

    def test_default_channel_progressions(self):
        assert NetConfig(arch="single", window=100).conv_channels == \
            (6, 64, 64, 128, 128, 256, 256)
        assert NetConfig(arch="multi", window=100).conv_channels == \
            (3, 32, 32, 64, 64, 128, 128)
        assert NetConfig(arch="single", window=100).dense_widths == (512, 128)


class TestMseLoss:
    def test_zero_error(self):
        assert mse_loss([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]]) == 0.0

    def test_unit_offset_single_sample(self):
        assert mse_loss([[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]) == 1.0

    def test_mean_over_samples_of_squared_norm(self):
        pred = [[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
        targ = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert mse_loss(pred, targ) == 2.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss([[1.0, 2.0, 3.0]], [[1.0, 2.0]])


class TestGradients:
    def test_perfect_predictions_give_zero_head_gradients(self):
        params = init_params(TINY_SINGLE, seed=4)
        x = np.random.default_rng(1).normal(size=(3, 6, 8))
        targets = predict(params, TINY_SINGLE, x)
        _, grads, _ = loss_and_gradients(params, TINY_SINGLE, x, targets)
        assert np.array_equal(grads["head.w"], np.zeros_like(grads["head.w"]))
        assert np.array_equal(grads["head.b"], np.zeros_like(grads["head.b"]))

    def test_head_gradients_match_hand_formula(self):
        params = init_params(TINY_SINGLE, seed=4)
        x = np.random.default_rng(1).normal(size=(4, 6, 8))
        targets = np.random.default_rng(2).normal(size=(4, 3))
        fd = finite_difference_grads(params, TINY_SINGLE, x, targets,
                                     names={"head.w", "head.b"})
        _, grads, _ = loss_and_gradients(params, TINY_SINGLE, x, targets)
        assert guarded_relative_error({k: grads[k] for k in fd}, fd) < 1e-4

    @pytest.mark.parametrize("cfg", [TINY_SINGLE, TINY_MULTI, DENSE_ONLY],
                             ids=["single", "multi", "dense_only"])
    def test_all_gradients_match_finite_differences(self, cfg):
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 6, 8))
        targets = rng.normal(size=(2, 3))
        loss, grads, _ = loss_and_gradients(params, cfg, x, targets)
        fd = finite_difference_grads(params, cfg, x, targets)
        assert set(grads) == set(fd)
        assert guarded_relative_error(grads, fd) < 1e-4


class TestAdam:
    def test_hand_computed_first_step(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params, lr=1e-3)
        new, state = adam_step(params, {"w": np.array([1.0])}, state)
        assert new["w"][0] == pytest.approx(-1e-3 / (1.0 + 1e-8), abs=1e-18)
        assert state.t == 1

    def test_hand_computed_second_step(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params, lr=1e-3)
        for _ in range(2):
            params, state = adam_step(params, {"w": np.array([1.0])}, state)
        assert params["w"][0] == pytest.approx(-2e-3 / (1.0 + 1e-8), rel=1e-9)

    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.5, -2.0])}
        state = AdamState.for_params(params)
        new, _ = adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(new["w"], params["w"])

    def test_rejects_non_finite_gradients(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        with pytest.raises(TrainingDiverged):
            adam_step(params, {"w": np.array([np.nan])}, state)

    def test_matches_scalar_reference_sequences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            theta0 = float(rng.normal())
            gs = rng.normal(size=10)
            params = {"w": np.array([theta0])}
            state = AdamState.for_params(params, lr=1e-3)
            trace = []
            for g in gs:
                params, state = adam_step(params, {"w": np.array([g])}, state)
                trace.append(params["w"][0])
            ref = scalar_adam_reference(theta0, gs)
            assert np.max(np.abs(np.array(trace) - np.array(ref))) < 1e-12


class TestTrain:
    def make_data(self, m=48):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(m, 6, 8))
        y = rng.normal(scale=0.1, size=(m, 3))
        return x, y

    def test_zero_epochs_is_identity(self):
        x, y = self.make_data()
        params = init_params(TINY_SINGLE, seed=1)
        out, history = train(dict(params), TINY_SINGLE, x, y, TrainConfig(epochs=0))
        assert history == []
        for k in params:
            assert np.array_equal(out[k], params[k])

    def test_seeded_runs_are_identical(self):
        x, y = self.make_data()
        tcfg = TrainConfig(epochs=3, batch_size=16, seed=7)
        _, h1 = train(init_params(TINY_SINGLE, seed=1), TINY_SINGLE, x, y, tcfg)
        _, h2 = train(init_params(TINY_SINGLE, seed=1), TINY_SINGLE, x, y, tcfg)
        assert h1 == h2

    def test_loss_decreases_on_learnable_data(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 6, 8))
        y = np.stack([x[:, 0].mean(axis=1), x[:, 1].mean(axis=1),
                      x[:, 2].mean(axis=1)], axis=1)
        _, history = train(init_params(TINY_SINGLE, seed=2), TINY_SINGLE, x, y,
                           TrainConfig(epochs=80, batch_size=16, seed=5))
        assert history[-1] < 0.5 * history[0]

    def test_stop_ratio_ends_early(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 6, 8))
        y = np.stack([x[:, 0].mean(axis=1)] * 3, axis=1)
        _, history = train(init_params(TINY_SINGLE, seed=2), TINY_SINGLE, x, y,
                           TrainConfig(epochs=200, batch_size=16, seed=5,
                                       stop_ratio=0.5))
        assert len(history) < 200
        assert history[-1] < 0.5 * history[0]

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            train(init_params(TINY_SINGLE, seed=0), TINY_SINGLE,
                  np.empty((0, 6, 8)), np.empty((0, 3)), TrainConfig(epochs=1))

    def test_non_finite_input_raises(self):
        x, y = self.make_data()
        x[0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            train(init_params(TINY_SINGLE, seed=0), TINY_SINGLE, x, y,
                  TrainConfig(epochs=1))


class TestModelFile:
    def test_roundtrip_is_exact(self, tmp_path):
        params = init_params(TINY_MULTI, seed=13)
        norm = NormStats(mean=np.random.default_rng(0).normal(size=6),
                         std=np.abs(np.random.default_rng(1).normal(size=6)) + 0.1)
        path = tmp_path / "model.qpnet"
        save_model(path, params, TINY_MULTI, norm=norm)
        back_params, back_cfg, back_norm = load_model(path)
        assert back_cfg == TINY_MULTI
        assert set(back_params) == set(params)
        for k in params:
            assert np.array_equal(back_params[k], params[k])
        assert np.array_equal(back_norm.mean, norm.mean)
        assert np.array_equal(back_norm.std, norm.std)

    def test_roundtrip_without_norm(self, tmp_path):
        params = init_params(TINY_SINGLE, seed=13)
        path = tmp_path / "model.qpnet"
        save_model(path, params, TINY_SINGLE)
        _, _, norm = load_model(path)
        assert norm is None

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qpnet"
        path.write_text("NOTAMODEL\n")
        with pytest.raises(ValueError):
            load_model(path)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_raises_value_error(self, data):
        norm = NormStats(mean=np.zeros(6), std=np.ones(6))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.qpnet"
            save_model(path, init_params(TINY_SINGLE, seed=13), TINY_SINGLE, norm=norm)
            lines = path.read_text().splitlines()
            kind = data.draw(st.sampled_from(["drop", "cut", "shape"]), label="mutation")
            if kind == "drop":
                del lines[data.draw(st.integers(0, len(lines) - 1), label="line")]
            elif kind == "cut":
                i = data.draw(st.integers(0, len(lines) - 1), label="line")
                lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i])), label="keep")]
            else:
                i = data.draw(st.integers(2, len(lines) - 1), label="line")
                name, shape, values = lines[i].split(" ", 2)
                dims = data.draw(st.one_of(st.permutations(shape.split("x")),
                                           st.lists(st.integers(-2, 300).map(str),
                                                    min_size=1, max_size=3)), label="dims")
                lines[i] = f"{name} {'x'.join(dims)} {values}"
            path.write_text("\n".join(lines) + "\n")
            try:
                params, cfg, _ = load_model(path)
            except ValueError as exc:
                assert str(path) in str(exc)
                return
        assert predict(params, cfg, np.zeros((1, 6, cfg.window))).shape == (1, cfg.out_dim)

    def test_loaded_model_predicts_identically(self, tmp_path):
        params = init_params(TINY_SINGLE, seed=21)
        path = tmp_path / "model.qpnet"
        save_model(path, params, TINY_SINGLE)
        back, cfg, _ = load_model(path)
        x = np.random.default_rng(4).normal(size=(3, 6, 8))
        assert np.array_equal(predict(params, TINY_SINGLE, x), predict(back, cfg, x))


class TestNetConfigValidation:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError):
            NetConfig(arch="triple", window=8)

    def test_rejects_wrong_input_channels(self):
        with pytest.raises(ValueError):
            NetConfig(arch="single", window=8, conv_channels=(3, 4))

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError):
            NetConfig(arch="single", window=8, dropout=1.0)
