import copy
import io
import json
import re
import tempfile
import tracemalloc
import warnings
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _im2col as oracle_im2col,
    finite_difference_grads,
    fresh_loss_and_gradients,
    guarded_relative_error,
    leaky_relu,
    out_of_place_adam,
    scalar_adam_reference,
)
from quadndr import network
from quadndr.network import (
    AdamState,
    NetConfig,
    TrainConfig,
    TrainingDiverged,
    _ADAM_GRAD_MAX,
    KERNEL,
    _conv_forward,
    _dropout,
    _Workspace,
    adam_step,
    init_params,
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
IDENTITY_NORM = NormStats(np.zeros(6), np.ones(6))


def conv1d(w, b, x, padding=0):
    """One (in_channels, L) input through the batched conv, which zero-pads
    its channel-major (in_channels, B, L) input by KERNEL // 2 per side;
    ``padding=0`` keeps only the outputs that read no padding."""
    x = np.asarray(x, dtype=float)[:, None]
    w = np.asarray(w, dtype=float)
    y = _conv_forward(x, w, np.asarray(b, dtype=float),
                      np.empty(x.size * KERNEL), np.empty(w.shape[0] * x.shape[2]))[:, 0]
    return y if padding else y[:, KERNEL // 2:y.shape[1] - KERNEL // 2]


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
        y = conv1d(np.ones((1, 1, 3)), np.zeros(1), [[1.0, 2.0, 3.0, 4.0]])
        assert np.array_equal(y, [[6.0, 9.0]])

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

    def test_im2col_zero_pads_each_window_of_an_unpadded_input(self):
        # every window holds other values, so a column that reads past a
        # window's edge into its neighbour differs; NaN shows a cell left unset
        x = np.random.default_rng(3).normal(size=(4, 3, 5))  # (in, B, L)
        cols = network._im2col(x, np.full(x.size * KERNEL, np.nan))
        want, _ = oracle_im2col(x.transpose(1, 0, 2), KERNEL, KERNEL // 2)
        assert cols.tobytes() == want.tobytes()

    def test_rejects_channel_mismatch(self):
        params = init_params(TINY_SINGLE, seed=0)
        params["conv2.w"] = np.ones((4, 5, KERNEL))
        with pytest.raises(ValueError, match="'conv2.w'"):
            predict(params, TINY_SINGLE, np.ones((1, 6, 8)))


class TestDropout:
    @pytest.mark.parametrize("rate, rng", [(0.5, None), (0.0, np.random.default_rng(0))])
    def test_inactive_returns_none_and_leaves_the_input(self, rate, rng):
        x = np.arange(12.0).reshape(3, 4)
        assert _dropout(x, rate, rng, _Workspace(), "d") is None
        assert np.array_equal(x, np.arange(12.0).reshape(3, 4))

    def test_scales_the_input_by_the_returned_mask(self):
        x = np.random.default_rng(4).normal(size=(4, 100))
        y = x.copy()
        mask = _dropout(y, 0.3, np.random.default_rng(5), _Workspace(), "d")
        assert y.tobytes() == (x * mask).tobytes()

    def test_seed_deterministic(self):
        a = _dropout(np.ones((4, 100)), 0.3, np.random.default_rng(5), _Workspace(), "d")
        b = _dropout(np.ones((4, 100)), 0.3, np.random.default_rng(5), _Workspace(), "d")
        assert np.array_equal(a, b)

    def test_survivors_are_rescaled(self):
        y = np.ones((4, 1000))
        _dropout(y, 0.25, np.random.default_rng(1), _Workspace(), "d")
        kept = y[y != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert 0.6 < kept.size / y.size < 0.9


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

    @pytest.mark.parametrize("cfg", [TINY_SINGLE, TINY_MULTI])
    def test_empty_batch(self, cfg):
        out = predict(init_params(cfg, seed=0), cfg, np.empty((0, 6, 8)))
        assert out.shape == (0, cfg.out_dim)

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

    @pytest.mark.parametrize("cfg", [TINY_SINGLE, TINY_MULTI], ids=["single", "multi"])
    def test_all_gradients_match_finite_differences(self, cfg):
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 6, 8))
        targets = rng.normal(size=(2, 3))
        loss, grads, _ = loss_and_gradients(params, cfg, x, targets)
        fd = finite_difference_grads(params, cfg, x, targets)
        assert set(grads) == set(fd)
        assert guarded_relative_error(grads, fd) < 1e-4

    @pytest.mark.parametrize("cfg", [TINY_SINGLE, TINY_MULTI], ids=["single", "multi"])
    def test_gradients_come_in_parameter_order(self, cfg):
        rng = np.random.default_rng(5)
        x, targets = rng.normal(size=(3, 6, 8)), rng.normal(size=(3, 3))
        params = init_params(cfg, seed=5)
        for order in (params, dict(reversed(params.items()))):
            _, grads, _ = loss_and_gradients(order, cfg, x, targets)
            assert list(grads) == list(order)


def _short_head_b(params):
    params["head.b"] = params["head.b"][:1].copy()
    return "head.b"


def _extra_block(params):
    params["fc9.w"] = np.zeros((2, 2))
    return "fc9.w"


def _missing_block(params):
    del params["fc2.b"]
    return "fc2.b"


def _two_tap_conv(params):
    params["conv1.w"] = params["conv1.w"][:, :, :2].copy()
    return "conv1.w"


def _call_predict(params, x, y):
    predict(params, TINY_SINGLE, x)


def _call_loss_and_gradients(params, x, y):
    loss_and_gradients(params, TINY_SINGLE, x, y)


def _call_train(params, x, y):
    train(params, TINY_SINGLE, x, y, TrainConfig(epochs=1, batch_size=2))


class TestParameterBlocks:
    # each edit returns the block the error must name
    @pytest.mark.parametrize("edit", [_short_head_b, _extra_block, _missing_block,
                                      _two_tap_conv])
    @pytest.mark.parametrize("call", [_call_predict, _call_loss_and_gradients, _call_train])
    def test_refuses_block_unlike_param_shapes(self, call, edit):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(4, 6, 8)), rng.normal(size=(4, 3))
        params = init_params(TINY_SINGLE, seed=3)
        name = edit(params)
        before = copy.deepcopy(params)
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            call(params, x, y)
        assert params.keys() == before.keys()
        for k, a in before.items():
            assert params[k].tobytes() == a.tobytes(), k


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


def _assert_bit_equal(dicts, expected):
    for got, want in zip(dicts, expected):
        assert got.keys() == want.keys()
        for k in want:
            assert np.array_equal(got[k], want[k]), k


class TestInPlaceAdam:
    def test_bit_equal_to_out_of_place_step(self):
        rng = np.random.default_rng(11)
        # one block spans two chunks; the other is column-major, so it is buffered
        shapes = {"a.w": (3, 7001), "b.w": (13, 4)}
        params = {"a.w": rng.normal(size=shapes["a.w"]),
                  "b.w": np.asfortranarray(rng.normal(size=shapes["b.w"]))}
        state = AdamState.for_params(params, lr=1e-3)
        ref_params = {k: p.copy() for k, p in params.items()}
        ref_state = AdamState.for_params(ref_params, lr=1e-3)
        for _ in range(200):
            grads = {k: rng.normal(size=s) * 10.0 ** rng.uniform(-6.0, 3.0)
                     for k, s in shapes.items()}
            stepped, same_state = adam_step(params, grads, state)
            assert stepped is params and same_state is state
            ref_params, ref_state = out_of_place_adam(ref_params, grads, ref_state)
            _assert_bit_equal((params, state.m, state.v),
                              (ref_params, ref_state.m, ref_state.v))
            assert state.t == ref_state.t

    def test_non_finite_last_block_changes_nothing(self):
        rng = np.random.default_rng(12)
        params = {"a.w": rng.normal(size=(4, 3)), "b.b": rng.normal(size=5)}
        state = AdamState.for_params(params)
        adam_step(params, {k: rng.normal(size=p.shape) for k, p in params.items()}, state)
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v)]
        t_before = state.t
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        grads["b.b"][-1] = np.nan
        with pytest.raises(TrainingDiverged):
            adam_step(params, grads, state)
        _assert_bit_equal((params, state.m, state.v), before)
        assert state.t == t_before

    def test_train_updates_callers_arrays_in_place(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(32, 6, 8))
        y = rng.normal(scale=0.1, size=(32, 3))
        tcfg = TrainConfig(epochs=2, batch_size=16, seed=1)
        params = init_params(TINY_SINGLE, seed=3)
        arrays = dict(params)
        copied = copy.deepcopy(params)
        trained, _ = train(params, TINY_SINGLE, x, y, tcfg)
        assert trained is params
        assert all(trained[k] is a for k, a in arrays.items())
        ref, _ = train(copied, TINY_SINGLE, x, y, tcfg)
        assert trained.keys() == ref.keys()
        for k, a in ref.items():
            assert trained[k].tobytes() == a.tobytes(), k
        assert not np.array_equal(trained["head.w"], init_params(TINY_SINGLE, seed=3)["head.w"])

    @pytest.mark.parametrize("kind", ["float32", "int", "list", "read-only"])
    def test_train_rejects_block_it_cannot_update_in_place(self, kind):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(32, 6, 8))
        y = rng.normal(scale=0.1, size=(32, 3))
        params = init_params(TINY_SINGLE, seed=3)
        # the last block, so that a check made while training would come too late
        block = params["head.b"]
        if kind == "read-only":
            block.flags.writeable = False
        else:
            params["head.b"] = {"float32": block.astype(np.float32),
                                "int": block.astype(int), "list": block.tolist()}[kind]
        before = copy.deepcopy(params)
        with pytest.raises(ValueError, match="'head.b'"):
            train(params, TINY_SINGLE, x, y, TrainConfig(epochs=1, batch_size=16))
        assert params.keys() == before.keys()
        for k, a in before.items():
            assert type(params[k]) is type(a), k
            assert np.asarray(params[k]).tobytes() == np.asarray(a).tobytes(), k

    def test_step_allocates_only_two_scratch_chunks(self):
        # neither the finiteness check nor the update makes a block-sized
        # temporary: the two chunks are 0.033 of this block
        rng = np.random.default_rng(14)
        params = {"w": rng.normal(size=(1000, 1000))}
        grads = {"w": rng.normal(size=(1000, 1000))}
        state = AdamState.for_params(params)
        adam_step(params, grads, state)
        tracemalloc.start()
        try:
            adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * params["w"].nbytes

    def test_finite_block_whose_sum_overflows_still_steps(self):
        # every entry at the bound: the sum of squares overflows, the squares do not
        rng = np.random.default_rng(15)
        params = {"a.w": rng.normal(size=(4, 3)), "b.b": rng.normal(size=5)}
        state = AdamState.for_params(params)
        ref_params = {k: p.copy() for k, p in params.items()}
        ref_state = AdamState.for_params(ref_params)
        grads = {"a.w": rng.normal(size=(4, 3)), "b.b": np.full(5, _ADAM_GRAD_MAX)}
        grads["b.b"][1::2] *= -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                adam_step(params, grads, state)
                ref_params, ref_state = out_of_place_adam(ref_params, grads, ref_state)
        _assert_bit_equal((params, state.m, state.v), (ref_params, ref_state.m, ref_state.v))
        assert state.t == ref_state.t == 3
        assert np.all(np.isfinite(state.v["b.b"]))

    @pytest.mark.parametrize("big", [np.nextafter(_ADAM_GRAD_MAX, np.inf), -1e200, 1e308],
                             ids=["above_bound", "-1e200", "1e308"])
    def test_block_past_the_bound_changes_nothing(self, big):
        # past the bound, v could overflow and freeze the block: every later
        # update of it would be 0
        rng = np.random.default_rng(17)
        params = {"a.w": rng.normal(size=(4, 3)), "b.b": rng.normal(size=5)}
        state = AdamState.for_params(params)
        adam_step(params, {k: rng.normal(size=p.shape) for k, p in params.items()}, state)
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v)]
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        grads["b.b"][2] = big
        with pytest.raises(TrainingDiverged, match="'b.b'"):
            adam_step(params, grads, state)
        _assert_bit_equal((params, state.m, state.v), before)
        assert state.t == 1

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "inf", "-inf", "inf_and_-inf"])
    def test_non_finite_entries_change_nothing(self, bad):
        rng = np.random.default_rng(16)
        params = {"a.w": rng.normal(size=(4, 3)), "b.w": rng.normal(size=(6, 5))}
        state = AdamState.for_params(params)
        adam_step(params, {k: rng.normal(size=p.shape) for k, p in params.items()}, state)
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v)]
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        grads["b.w"].flat[[7, 20][:len(bad)]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check itself prints nothing
            with pytest.raises(TrainingDiverged, match="'b.w'"):
                adam_step(params, grads, state)
        _assert_bit_equal((params, state.m, state.v), before)
        assert state.t == 1


def _net(arch, **kw):
    chans = (6, 4, 5, 3) if arch == "single" else (3, 4, 5, 3)
    return NetConfig(arch=arch, window=8, **{"conv_channels": chans, "dense_widths": (6, 4), **kw})


# every layout the workspace must handle: three conv layers of different
# widths share the conv buffers, a later conv wider than the first sizes the
# im2col and z regions, a one-sample window reads padding in every tap but
# one, and a wide fc1's weight gradient outgrows the conv regions and so
# sizes the arena
BITWISE_NETS = {
    **{f"{arch}_k3": (_net(arch), 5) for arch in ("single", "multi")},
    "single_one_conv": (_net("single", conv_channels=(6, 4)), 5),
    "multi_one_conv": (_net("multi", conv_channels=(3, 4)), 5),
    "single_widening": (_net("single", conv_channels=(6, 16, 4)), 5),
    "multi_widening": (_net("multi", conv_channels=(3, 16, 4)), 5),
    "single_window1": (replace(_net("single"), window=1), 5),
    "multi_window1": (replace(_net("multi"), window=1), 5),
    "single_wide_fc1": (_net("single", dense_widths=(200, 4)), 5),
    "multi_wide_fc1": (_net("multi", dense_widths=(200, 4)), 5),
    "single_batch1": (_net("single"), 1),
    "multi_batch1": (_net("multi"), 1),
}


def _bitwise_case(cfg, batch, seed):
    """Params and data whose first sample puts exact zeros into the first
    layer's pre-activations, where the Leaky ReLU slope is LEAKY_SLOPE."""
    params = init_params(cfg, seed=seed)
    for name in ("conv1.b", "acc1.b", "gyro1.b", "fc1.b"):
        if name in params:
            params[name][:] = 0.0
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, 6, cfg.window))
    x[0] = 0.0
    x[-1, 1, 3:5] = -0.0
    return params, x, rng.normal(size=(batch, cfg.out_dim))


def _assert_same_bytes(got, want):
    loss, grads, out = got
    ref_loss, ref_grads, ref_out = want
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert out.shape == ref_out.shape and out.tobytes() == ref_out.tobytes()
    assert list(grads) == list(ref_grads)
    for k, g in ref_grads.items():
        assert grads[k].shape == g.shape and grads[k].tobytes() == g.tobytes(), k


class TestWorkspace:
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("net", sorted(BITWISE_NETS))
    def test_bit_equal_to_fresh_arrays(self, net, dropout):
        cfg, batch = BITWISE_NETS[net]
        cfg = replace(cfg, dropout=dropout)
        params, x, y = _bitwise_case(cfg, batch, seed=6)
        want = fresh_loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(7))
        for ws in (None, _Workspace()):
            got = loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(7),
                                     workspace=ws)
            _assert_same_bytes(got, want)
        ref_out = fresh_loss_and_gradients(params, cfg, x, y)[2]
        assert predict(params, cfg, x).tobytes() == ref_out.tobytes()

    @pytest.mark.parametrize("arch", ["single", "multi"])
    def test_shared_workspace_across_batch_sizes(self, arch):
        cfg = _net(arch, dropout=0.5)
        ws = _Workspace()
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for seed, batch in enumerate((16, 11, 16)):
            params, x, y = _bitwise_case(cfg, batch, seed)
            want = fresh_loss_and_gradients(params, cfg, x, y, rng=ref_rng)
            got = loss_and_gradients(params, cfg, x, y, rng=rng, workspace=ws)
            _assert_same_bytes(got, want)
            # dropout scales each dense activation in place: no second output buffer
            assert [n for n in ws._bufs if n.endswith(".out")] == ["head.out"]

    @pytest.mark.parametrize("arch", ["single", "multi"])
    def test_training_and_inference_passes_share_a_workspace(self, arch):
        # the inference pass leaves the dropout buffers as they were, and the
        # backward pass overwrites cached inputs; neither may leak into the next
        cfg = _net(arch, dropout=0.5)
        ws = _Workspace()
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for seed, training in enumerate((True, False, True, False, True)):
            params, x, y = _bitwise_case(cfg, 6, seed)
            want = fresh_loss_and_gradients(params, cfg, x, y, rng=ref_rng if training else None)
            got = loss_and_gradients(params, cfg, x, y, rng=rng if training else None,
                                     workspace=ws)
            _assert_same_bytes(got, want)

    @pytest.mark.parametrize("arch", ["single", "multi"])
    def test_workspace_holds_no_buffer_beyond_the_live_set(self, arch):
        # fc1 narrower than the batch leaves the conv layers' memory the larger
        # part of the shared buffer; a wide fc1's weight gradient is larger
        for width in (12, 200):
            cfg = _net(arch, dropout=0.5, dense_widths=(width, 4))
            B, L, k, chans = 7, cfg.window, cfg.kernel, cfg.conv_channels
            params, x, y = _bitwise_case(cfg, B, seed=2)
            ws = _Workspace()
            loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(0), workspace=ws)
            convs = list(zip(chans[:-1], chans[1:])) * len(cfg.branches)
            flat = B * cfg.feature_dim
            conv_layers = (sum(cin * B * L for cin, _ in convs)            # inputs
                           + max(cin * k * B * L for cin, _ in convs)      # one conv's im2col
                           + max(cout * B * L for _, cout in convs)        # its z
                           + flat)                                         # flat's grad
            fc1_w = params["fc1.w"].size
            assert ws._bufs["arena"].size == max(conv_layers, fc1_w), width
            floats = (sum(p.size for p in params.values()) - fc1_w     # other gradients
                      + max(conv_layers, fc1_w)                         # then fc1.w's grad
                      + 3 * sum(B * w for w in cfg.dense_widths)        # z, act, mask
                      + B * cfg.out_dim                                 # predictions
                      + flat)                                           # flat
            bools = sum(cout * B * L for _, cout in convs) + sum(B * w for w in cfg.dense_widths)
            bound = 8 * floats + bools
            # each buffer counts once, however many views of it the pass took
            assert sum(buf.nbytes for buf in ws._bufs.values()) <= bound, width

    @pytest.mark.parametrize("arch", ["single", "multi"])
    def test_backward_rebuilds_the_columns_of_every_conv_but_the_last(self, arch, monkeypatch):
        # the forward pass builds every conv's columns; the backward pass finds
        # the last conv's where the forward pass left them
        cfg = _net(arch, dropout=0.5)
        convs = (len(cfg.conv_channels) - 1) * len(cfg.branches)
        im2col, calls = network._im2col, []

        def counted(*args):
            calls.append(1)
            return im2col(*args)

        monkeypatch.setattr(network, "_im2col", counted)
        params, x, y = _bitwise_case(cfg, 5, seed=4)
        for ws in (None, _Workspace()):
            calls.clear()
            loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(0), workspace=ws)
            assert len(calls) == 2 * convs - 1
        calls.clear()
        predict(params, cfg, x)
        assert len(calls) == convs

    def test_calls_without_workspace_do_not_alias(self):
        params, x, y = _bitwise_case(TINY_MULTI, 4, seed=10)
        first = loss_and_gradients(params, TINY_MULTI, x, y)
        second = loss_and_gradients(params, TINY_MULTI, x[::-1], y)
        arrays = [[out, *grads.values()] for _, grads, out in (first, second)]
        for a in arrays[0]:
            for b in arrays[1]:
                assert not np.shares_memory(a, b)

    def test_step_allocates_under_half_of_fc1(self):
        cfg = NetConfig(arch="single", window=64, conv_channels=(6, 16, 16),
                        dense_widths=(256, 16))
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(16, 6, 64)), rng.normal(size=(16, 3))
        ws = _Workspace()

        def step(batch):
            loss_and_gradients(params, cfg, x[:batch], y[:batch], rng=rng, workspace=ws)

        step(16)
        step(11)
        tracemalloc.start()
        try:
            step(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * params["fc1.w"].nbytes

    def test_train_batch_peaks_under_3_point_3_parameter_sets(self):
        # Adam's two moments, the gradients and the activations, 3.28x; fc1's
        # weight gradient shares the conv layers' memory rather than adding to it
        cfg = NetConfig(arch="single", window=64, conv_channels=(6, 16, 16),
                        dense_widths=(256, 16))
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(16, 6, 64)), rng.normal(size=(16, 3))
        tracemalloc.start()
        try:
            train(params, cfg, x, y, TrainConfig(epochs=1, batch_size=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * sum(p.nbytes for p in params.values())

    def test_predict_holds_one_conv_of_im2col_columns_at_a_time(self):
        # six convs at kernel 3: every conv's input is exactly a third of
        # that conv's im2col columns, so all inputs and one conv's columns
        # take less than all the columns together
        cfg = NetConfig(arch="single", window=64, conv_channels=(6,) + (16,) * 6,
                        dense_widths=(8,))
        params = init_params(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(32, 6, 64))
        im2col = sum(cin * cfg.kernel * x.shape[0] * cfg.window * 8
                     for cin in cfg.conv_channels[:-1])
        tracemalloc.start()
        try:
            predict(params, cfg, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < im2col


class TestTrain:
    def make_data(self, m=48):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(m, 6, 8))
        y = rng.normal(scale=0.1, size=(m, 3))
        return x, y

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("epochs", 2.0), ("batch_size", 0),
        ("batch_size", -3), ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0),
        ("lr", -1.0), ("stop_ratio", 0.0), ("stop_ratio", 1.0),
    ])
    def test_rejects_bad_setting(self, field, value):
        with pytest.raises(ValueError, match=field) as exc:
            TrainConfig(**{"epochs": 1, field: value})
        assert repr(value) in str(exc.value)

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

    @pytest.mark.parametrize("rows", [13, 7])
    def test_rejects_label_rows_unlike_input_rows(self, rows):
        x, y = self.make_data(10)
        params = init_params(TINY_SINGLE, seed=0)
        before = copy.deepcopy(params)
        labels = np.resize(y, (rows, 3))
        with pytest.raises(ValueError, match=f"{rows} label rows for 10 input windows"):
            train(params, TINY_SINGLE, x, labels, TrainConfig(epochs=1, batch_size=4))
        _assert_bit_equal((params,), (before,))

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

    def test_rejects_model_without_norm(self, tmp_path):
        path = tmp_path / "model.qpnet"
        save_model(path, init_params(TINY_SINGLE, seed=13), TINY_SINGLE, IDENTITY_NORM)
        with np.load(path) as archive:
            entries = {name: archive[name] for name in archive.files
                       if not name.startswith("norm.")}
        with path.open("wb") as fh:
            np.savez(fh, **entries)
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing block 'norm.mean'")):
            load_model(path)

    @pytest.mark.parametrize("name, index, value, problem", [
        ("fc1.w", (0, 0), np.nan, "non-finite"), ("head.b", (1,), -np.inf, "non-finite"),
        ("norm.mean", (2,), np.inf, "non-finite"), ("norm.std", (3,), 0.0, "<= 0"),
        ("norm.std", (0,), -1.0, "<= 0"),
    ], ids=["nan_fc1_w", "neg_inf_head_b", "inf_norm_mean", "zero_norm_std",
            "negative_norm_std"])
    def test_rejects_non_finite_entry_or_non_positive_std(self, name, index, value,
                                                          problem, tmp_path):
        blocks = {**init_params(TINY_SINGLE, seed=13),
                  "norm.mean": np.zeros(6), "norm.std": np.ones(6)}
        blocks[name][index] = value
        norm = NormStats(blocks.pop("norm.mean"), blocks.pop("norm.std"))
        path = tmp_path / "model.qpnet"
        save_model(path, blocks, TINY_SINGLE, norm)
        with pytest.raises(ValueError, match=re.escape(f"{path}: block {name!r} has")) as exc:
            load_model(path)
        assert problem in str(exc.value)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qpnet"
        path.write_text("NOTAMODEL\n")
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_model_of_the_previous_format(self, tmp_path):
        # a QPNET2 header also held the Leaky ReLU slope and the conv kernel
        path = _model_with_header(tmp_path, magic="QPNET2", alpha=0.01, kernel=3)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a QPNET3 model file")):
            load_model(path)

    def test_roundtrip_keeps_every_config_field(self, tmp_path):
        cfg = NetConfig("single", 8, dropout=0.05, out_dim=2, conv_channels=(6, 4),
                        dense_widths=(5,))
        params = init_params(cfg, seed=13)
        path = tmp_path / "model.qpnet"
        save_model(path, params, cfg, IDENTITY_NORM)
        back_params, back_cfg, _ = load_model(path)
        assert back_cfg == cfg
        for k in params:
            assert np.array_equal(back_params[k], params[k])

    @pytest.mark.parametrize("kind", ["qpnet1_text", "bare_npy", "pickled_header",
                                      "entry_too_large_to_allocate"])
    def test_rejects_foreign_file(self, kind, tmp_path):
        path = tmp_path / "model.qpnet"
        if kind == "qpnet1_text":
            path.write_text("QPNET1\narch=single n=8 alpha=0.01 dropout=0.0 out=3"
                            " conv=6,4 dense=5\nhead.b 3 0 0 0\n")
        elif kind == "bare_npy":
            with path.open("wb") as fh:
                np.save(fh, np.zeros(3))
        elif kind == "pickled_header":
            with path.open("wb") as fh:
                np.savez(fh, header=np.array([{"magic": "QPNET2"}], dtype=object))
        else:
            buf = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                buf, {"descr": "<f8", "fortran_order": False, "shape": (10**13,)})
            with zipfile.ZipFile(path, "w") as archive:
                archive.writestr("header.npy", buf.getvalue())
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_raises_value_error(self, data):
        norm = NormStats(mean=np.zeros(6), std=np.ones(6))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.qpnet"
            save_model(path, init_params(TINY_SINGLE, seed=13), TINY_SINGLE, norm=norm)
            raw = bytearray(path.read_bytes())
            kind = data.draw(st.sampled_from(
                ["truncate", "overwrite", "delete", "drop", "reshape", "int64"]), label="mutation")
            # an entry-level edit that changes an entry can never give a valid model
            must_fail = kind in ("drop", "int64")
            if kind in ("truncate", "overwrite", "delete"):
                at = data.draw(st.integers(0, len(raw) - 3), label="offset")
                if kind == "truncate":
                    del raw[at:]
                elif kind == "overwrite":
                    new = data.draw(st.binary(min_size=1, max_size=3), label="bytes")
                    raw[at:at + len(new)] = new
                else:
                    del raw[at:at + data.draw(st.integers(1, 64), label="span")]
                path.write_bytes(raw)
            else:
                with np.load(path) as archive:
                    entries = {name: archive[name] for name in archive.files}
                name = data.draw(st.sampled_from(sorted(entries)), label="entry")
                if kind == "drop":
                    del entries[name]
                elif kind == "reshape":
                    old = entries[name]
                    shape = data.draw(st.sampled_from([(-1,), (1, -1), old.shape[::-1]]),
                                      label="shape")
                    entries[name] = old.reshape(shape)
                    must_fail = entries[name].shape != old.shape
                else:
                    entries[name] = np.zeros(entries[name].shape, dtype=np.int64)
                with path.open("wb") as fh:
                    np.savez(fh, **entries)
            try:
                params, cfg, _ = load_model(path)
            except ValueError as exc:
                assert str(path) in str(exc)
                return
        assert not must_fail, f"{kind} edit loaded"
        assert predict(params, cfg, np.zeros((1, 6, cfg.window))).shape == (1, cfg.out_dim)

    def test_loaded_model_predicts_identically(self, tmp_path):
        params = init_params(TINY_SINGLE, seed=21)
        path = tmp_path / "model.qpnet"
        save_model(path, params, TINY_SINGLE, IDENTITY_NORM)
        back, cfg, _ = load_model(path)
        x = np.random.default_rng(4).normal(size=(3, 6, 8))
        assert np.array_equal(predict(params, TINY_SINGLE, x), predict(back, cfg, x))


def _model_with_header(tmp_path, **changes):
    """A saved TINY_SINGLE model whose JSON header has ``changes`` applied."""
    path = tmp_path / "model.qpnet"
    save_model(path, init_params(TINY_SINGLE, seed=13), TINY_SINGLE, IDENTITY_NORM)
    with np.load(path) as archive:
        entries = {name: archive[name] for name in archive.files}
    entries["header"] = np.array(json.dumps({**json.loads(str(entries["header"])), **changes}))
    with path.open("wb") as fh:
        np.savez(fh, **entries)
    return path


class TestNetConfigValidation:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError):
            NetConfig(arch="triple", window=8)

    def test_rejects_wrong_input_channels(self):
        with pytest.raises(ValueError):
            NetConfig(arch="single", window=8, conv_channels=(3, 4))

    # the paper's shape: at least one conv layer, then at least one hidden
    # dense layer, then the head
    @pytest.mark.parametrize("arch, field, value", [
        ("single", "conv_channels", (6,)), ("multi", "conv_channels", (3,)),
        ("single", "dense_widths", ()), ("multi", "dense_widths", ()),
    ], ids=["single_no_conv", "multi_no_conv", "single_no_hidden", "multi_no_hidden"])
    def test_rejects_network_without_conv_or_hidden_layer(self, arch, field, value):
        with pytest.raises(ValueError, match=field) as exc:
            NetConfig(arch=arch, window=8, **{field: value})
        assert f"got {value!r}" in str(exc.value)

    @pytest.mark.parametrize("field, value", [("conv_channels", [6]), ("dense_widths", [])],
                             ids=["no_conv", "no_hidden"])
    def test_rejects_model_header_without_conv_or_hidden_layer(self, field, value, tmp_path):
        path = _model_with_header(tmp_path, **{field: value})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {field} must have")):
            load_model(path)

    # the kernel is the constant KERNEL: neither a config nor a model header
    # can set one, whatever its value
    @pytest.mark.parametrize("kernel", [2, 0, -1])
    def test_rejects_kernel_that_is_not_odd_and_positive(self, kernel, tmp_path):
        with pytest.raises(TypeError, match="kernel"):
            NetConfig(arch="single", window=8, kernel=kernel)
        path = _model_with_header(tmp_path, kernel=kernel)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*'kernel'"):
            load_model(path)

    @pytest.mark.parametrize("field, widths, bad", [
        ("conv_channels", (6, 0), "0"), ("conv_channels", (6, -2), "-2"),
        ("conv_channels", (6, 4.0), "4.0"), ("dense_widths", (0,), "0"),
        ("dense_widths", (8, True), "True"),
    ])
    def test_rejects_layer_width_that_is_not_a_positive_int(self, field, widths, bad):
        with pytest.raises(ValueError, match=field) as exc:
            NetConfig(arch="single", window=8, **{field: widths})
        assert bad in str(exc.value)

    # the Leaky ReLU slope is the constant LEAKY_SLOPE: neither a config nor a
    # model header can set one, whatever its value
    @pytest.mark.parametrize("alpha", [0.0, -0.01, 1.0000000000000002, 2.0, np.inf, np.nan])
    def test_rejects_alpha_outside_unit_interval(self, alpha, tmp_path):
        with pytest.raises(TypeError, match="alpha"):
            NetConfig(arch="single", window=8, alpha=alpha)
        path = _model_with_header(tmp_path, alpha=alpha)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*'alpha'"):
            load_model(path)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError):
            NetConfig(arch="single", window=8, dropout=1.0)

    @pytest.mark.parametrize("field, value", [
        ("window", 20.0), ("window", 0), ("window", True),
        ("out_dim", 3.0), ("out_dim", 0), ("out_dim", -1),
    ])
    def test_rejects_window_or_out_dim_that_is_not_a_positive_int(self, field, value):
        with pytest.raises(ValueError, match=field) as exc:
            NetConfig(**{"arch": "single", "window": 8, field: value})
        assert repr(value) in str(exc.value)
