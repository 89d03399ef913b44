import copy
import ctypes
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import weakref
import zipfile
from dataclasses import replace
from functools import partial
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
                      np.empty((x.shape[0] * KERNEL, x.shape[2])),
                      np.empty((w.shape[0], x.shape[2])))[:, 0]
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
        cols = network._im2col(x, np.full((4 * KERNEL, 3 * 5), np.nan))
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
            # adam_step takes the gradients as scratch, so the reference reads them first
            ref_params, ref_state = out_of_place_adam(ref_params, grads, ref_state)
            stepped, same_state = adam_step(params, grads, state)
            assert stepped is params and same_state is state
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

    @pytest.mark.parametrize("edit", ["missing", "extra"])
    def test_gradients_unlike_the_params_change_nothing(self, edit):
        rng = np.random.default_rng(4)
        params = {"a.w": rng.normal(size=(3, 4)), "b.b": rng.normal(size=5)}
        state = AdamState.for_params(params)
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        if edit == "missing":
            block = "b.b"
            del grads[block]
        else:
            block = "c.w"
            grads[block] = rng.normal(size=2)
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v, grads)]
        with pytest.raises(ValueError, match=f"gradient block '{block}'"):
            adam_step(params, grads, state)
        _assert_bit_equal((params, state.m, state.v, grads), before)
        assert state.t == 0

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
        # temporary: the two chunks are 0.031 of this block
        rng = np.random.default_rng(14)
        params = {"w": rng.normal(size=(4096, 1024))}
        grads = {"w": rng.normal(size=(4096, 1024))}
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
                adam_step(params, {k: g.copy() for k, g in grads.items()}, state)
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
            pair = (max(cin * k * B * L for cin, _ in convs)               # one conv's im2col
                    + max(cout * B * L for _, cout in convs))              # its z
            conv_layers = (sum(cin * B * L for cin, _ in convs)            # inputs
                           + len(cfg.branches) * pair                      # a pair per branch
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
    def test_forward_takes_the_arena_at_a_training_steps_size(self, arch):
        # a wide fc1's weight gradient outgrows the conv layers' memory; a
        # forward-only pass still takes the buffer the training step needs
        for width in (12, 200):
            cfg = _net(arch, dropout=0.5, dense_widths=(width, 4))
            params, x, y = _bitwise_case(cfg, 7, seed=2)
            step_ws, ws = _Workspace(), _Workspace()
            loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(0), workspace=step_ws)
            network._forward(params, cfg, x, ws)
            arena = ws._bufs["arena"]
            loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(0), workspace=ws)
            assert ws._bufs["arena"] is arena, width
            assert arena.size == step_ws._bufs["arena"].size, width

    @pytest.mark.parametrize("width", [6, 200], ids=["narrow_fc1", "wide_fc1"])
    @pytest.mark.parametrize("arch", ["single", "multi"])
    def test_backward_rebuilds_the_columns_of_every_conv_but_the_last(self, arch, width,
                                                                      monkeypatch):
        # the forward pass builds every conv's columns; the backward pass finds
        # each branch's last conv's where the forward pass left them, in the
        # branch's own columns region, whatever the width of fc1
        cfg = _net(arch, dropout=0.5, dense_widths=(width, 4))
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
            assert len(calls) == 2 * convs - len(cfg.branches)
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
        # Adam's two moments, the gradients and the activations, 3.25x; fc1's
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

    @pytest.mark.parametrize("arch", ["single", "multi"])
    def test_predict_memory_does_not_grow_with_the_flight(self, arch):
        # passes of at most 64 windows through one workspace
        cfg = NetConfig(arch=arch, window=32, dense_widths=(64, 16))
        params = init_params(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(640, 6, cfg.window))

        def peak(windows):
            tracemalloc.start()
            try:
                predict(params, cfg, windows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(x) <= 1.1 * peak(x[:64])
        for m in (1, 37, 64):
            one_pass = network._forward(params, cfg, x[:m], _Workspace())[0]
            assert predict(params, cfg, x[:m]).tobytes() == one_pass.tobytes()
        assert predict(params, cfg, x[:0]).shape == (0, cfg.out_dim)


_BOTH = network._both  # the real helper, whatever a test swaps in


def _inline(first, second, at_once=True):
    """The real ``_both``, running the pair in turn whatever ``at_once`` asks."""
    return _BOTH(first, second, at_once=False)


def _recording_gemms(monkeypatch):
    """Swaps np.matmul for a recorder; returns the list to which it appends
    the (m, k, n) of each GEMM, on any thread."""
    matmul, gemms = np.matmul, []

    def recording(a, b, out):
        gemms.append((*a.shape, b.shape[1]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording)
    return gemms


def _splits(m, k, n, alone=True):
    """Whether network._matmul's rule splits an (m, k) @ (k, n) GEMM; a
    GEMM that runs inside one of _by_branch's two tasks (not ``alone``)
    stays whole."""
    cut = (n // 16) * 8
    return alone and n % 8 == 0 and m * k * min(cut, n - cut) >= 2 ** 21


def _two_lanes(cfg, batch):
    """Whether network's lane rule runs ``cfg``'s conv stack on ``batch``
    windows as two window halves."""
    chans, cut = cfg.conv_channels, batch // 2 * cfg.window
    return (len(cfg.branches) == 1 and cut % 8 == 0
            and min(a * b for a, b in zip(chans, chans[1:])) * KERNEL * cut >= 2 ** 21)


def _gemms(cfg, batch, backward):
    """(m, k, n, alone) of every GEMM of one forward pass of ``batch``
    windows, and with ``backward`` of its backward pass, before the split
    rule. ``alone`` GEMMs run outside _by_branch's two tasks: those of
    multi's conv stacks are not, nor are the conv GEMMs of a stack that
    runs as two lanes, one GEMM per lane on its own columns."""
    chans, cols = cfg.conv_channels, batch * cfg.window
    at_once = len(cfg.branches) == 2
    cut = batch // 2 * cfg.window
    spans = [cut, cols - cut] if _two_lanes(cfg, batch) else [cols]
    alone = not at_once and len(spans) == 1
    layers = list(enumerate(zip(chans[:-1], chans[1:]))) * len(cfg.branches)
    shapes = [(cout, cin * KERNEL, n, alone) for _, (cin, cout) in layers for n in spans]
    dims = (cfg.feature_dim,) + cfg.dense_widths + (cfg.out_dim,)
    shapes += [(batch, din, dout, True) for din, dout in zip(dims[:-1], dims[1:])]
    if backward:
        # weight gradients, over the whole batch, then input gradients
        shapes += [(cout, cols, cin * KERNEL, not at_once) for _, (cin, cout) in layers]
        shapes += [(cin * KERNEL, cout, n, alone) for i, (cin, cout) in layers if i > 0
                   for n in spans]
        shapes += [g for din, dout in zip(dims[:-1], dims[1:])
                   for g in ((dout, batch, din, True), (batch, dout, din, True))]
    return shapes


def _subprocess_env(**variables):
    """The environment of a Python subprocess that imports quadndr, the test
    modules and the tools, with ``variables`` set, and those given as None
    unset."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(Path(network.__file__).parents[1]), str(root / "tests"), str(root / "tools")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **variables}
    return {name: value for name, value in env.items() if value is not None}


def _nested_both():
    """Each task of a _both calls _both twice, the second time with both
    inner tasks failing. Returns, per outer task, its thread, the inner
    tasks' names and threads in the order they ran, the first inner result,
    the inner error and its thread's pair mark after both; this thread; and
    the threads of a _both after."""
    def outer():
        ran = []

        def task(name, fails=False):
            def run():
                ran.append((name, threading.get_ident()))
                if fails:
                    raise KeyError(name)
                return name
            return run

        result = network._both(task("a"), task("b"))
        try:
            network._both(task("c", fails=True), task("d", fails=True))
        except KeyError as exc:
            error = exc.args[0]
        return threading.get_ident(), ran, result, error, network._pair.inside

    return (network._both(outer, outer), threading.get_ident(),
            network._both(threading.get_ident, threading.get_ident))


class TestWorker:
    # multi's two conv stacks run beside each other; longer windows make
    # GEMMs large enough to be split, the conv GEMMs too; wide
    # convs over long windows make single's stack run as two lanes, at
    # batches 16 and 40 but not 8
    NETS = {"multi": _net("multi", dropout=0.5, dense_widths=(200, 4)),
            "single_long": NetConfig(arch="single", window=128, dropout=0.5,
                                     conv_channels=(6, 32, 32), dense_widths=(200, 4)),
            "multi_long": NetConfig(arch="multi", window=128, dropout=0.5,
                                    conv_channels=(3, 32, 32), dense_widths=(200, 4)),
            "single_lanes": NetConfig(arch="single", window=128, dropout=0.5,
                                      conv_channels=(6, 128, 128), dense_widths=(200, 4))}
    MULTI = NETS["multi"]

    @pytest.fixture(autouse=True)
    def pinned(self, monkeypatch):
        monkeypatch.setattr(network, "_pinnable", lambda: True)

    def _data(self, cfg=MULTI):
        rng = np.random.default_rng(21)
        return rng.normal(size=(40, 6, cfg.window)), rng.normal(size=(40, 3))

    def _train(self, monkeypatch, both, cfg=MULTI):
        """Two epochs of ``cfg`` in batches of 16, 16 and 8 with ``both`` as
        the worker helper, then a predict of all 40 windows; returns the
        params, the Adam state, the loss history, predictions and the helper calls."""
        states, calls = [], []
        adam = network.adam_step

        def recording_adam(params, grads, state):
            states.append(state)
            return adam(params, grads, state)

        def counted(first, second, at_once=True):
            calls.append(threading.get_ident())
            return both(first, second, at_once=at_once)

        monkeypatch.setattr(network, "adam_step", recording_adam)
        monkeypatch.setattr(network, "_both", counted)
        x, y = self._data(cfg)
        params, history = train(init_params(cfg, seed=5), cfg, x, y,
                                TrainConfig(epochs=2, batch_size=16, seed=3))
        return params, states[-1], history, predict(params, cfg, x), calls

    @staticmethod
    def _pass_calls(cfg, batch, backward):
        """The _both calls of one pass: multi's conv stacks; a stack's two
        lanes, once forward and, per conv backward, once for the
        pre-activation gradient and the columns and, but for the first conv,
        once for the input gradient; and one per GEMM the split rule takes
        outside those."""
        at_once = len(cfg.branches) == 2
        lanes = _two_lanes(cfg, batch) * (1 + backward * (2 * (len(cfg.conv_channels) - 1) - 1))
        splits = sum(_splits(*g) for g in _gemms(cfg, batch, backward))
        return at_once * (1 + backward) + lanes + splits

    def _expected_calls(self, cfg):
        """The _both calls of ``_train``: Adam's check and update and those
        of the pass, per step, and those of the predict."""
        return (sum(steps * (2 + self._pass_calls(cfg, batch, True))
                    for batch, steps in ((16, 4), (8, 2)))
                + self._pass_calls(cfg, 40, False))

    @pytest.mark.parametrize("blas_threads", [1, 2, 0])
    @pytest.mark.parametrize("net", sorted(NETS))
    def test_training_with_the_worker_is_byte_equal_to_inline(self, net, blas_threads,
                                                               monkeypatch):
        # numpy's OpenBLAS started at one thread or at two, which the pin
        # brings to one: both take the two-core path; a BLAS that cannot be
        # pinned (0) runs the same pairs in turn, as the inline helper does
        cfg, pin, inside = self.NETS[net], blas_threads and network._openblas(), set()
        monkeypatch.setattr(network, "_pinnable", lambda: blas_threads > 0)
        if pin:
            get, set_ = pin
            matmul = network._matmul

            def seeing(*args, **kwargs):
                inside.add(get())
                return matmul(*args, **kwargs)

            monkeypatch.setattr(network, "_matmul", seeing)
            callers = get()
            set_(blas_threads)
            started = get()  # OpenBLAS may run fewer threads than asked
        try:
            params, state, history, out, calls = self._train(monkeypatch, network._both, cfg)
            ref_params, ref_state, ref_history, ref_out, _ = self._train(
                monkeypatch, _inline, cfg)
            if pin:
                assert inside == {1} and get() == started
        finally:
            if pin:
                set_(callers)
        assert len(calls) == self._expected_calls(cfg)
        for got, want in ((params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v)):
            assert got.keys() == want.keys()
            for k in want:
                assert got[k].tobytes() == want[k].tobytes(), k
        assert state.t == ref_state.t == 6
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()
        assert out.tobytes() == ref_out.tobytes()

    def test_error_in_the_workers_branch_reaches_the_caller(self, monkeypatch):
        x, y = self._data()
        tcfg = TrainConfig(epochs=1, batch_size=16, seed=3)
        ref, ref_history = train(init_params(self.MULTI, seed=5), self.MULTI, x, y, tcfg)
        branch, raised = network._branch_forward, []

        def failing(params, records, *args):
            if records[0][0] == "acc1":  # the first branch, which goes to the worker
                raised.append((threading.get_ident(), ValueError("acc branch failed")))
                raise raised[-1][1]
            return branch(params, records, *args)

        monkeypatch.setattr(network, "_branch_forward", failing)
        with pytest.raises(ValueError) as info:
            train(init_params(self.MULTI, seed=5), self.MULTI, x, y, tcfg)
        assert [err for _, err in raised] == [info.value]
        assert raised[0][0] != threading.get_ident()
        monkeypatch.setattr(network, "_branch_forward", branch)
        params, history = train(init_params(self.MULTI, seed=5), self.MULTI, x, y, tcfg)
        assert history == ref_history
        _assert_bit_equal((params,), (ref,))

    @pytest.mark.parametrize("fails", [["first"], ["second"], ["first", "second"]])
    def test_both_waits_for_both_tasks_and_raises_the_first_error(self, fails):
        ran = []

        def task(name):
            def run():
                if name == "first":
                    time.sleep(0.05)  # the second task ends first
                ran.append((name, threading.get_ident()))
                if name in fails:
                    raise KeyError(name)
                return name
            return run

        with pytest.raises(KeyError, match=fails[0]):
            network._both(task("first"), task("second"))
        assert sorted(name for name, _ in ran) == ["first", "second"]
        assert dict(ran)["second"] == threading.get_ident() != dict(ran)["first"]
        assert network._both(task("third"), lambda: 4) == ("third", 4)

    def test_both_inside_a_task_runs_in_turn_on_the_calling_thread(self):
        # in a fresh process, so that a worker waiting on itself stops only it
        code = "import json, test_network\nprint(json.dumps(test_network._nested_both()))\n"
        done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outer, caller, after = json.loads(done.stdout)
        assert outer[1][0] == caller != outer[0][0]  # the worker's task, then the caller's
        for thread, ran, result, error, inside in outer:
            assert ran == [[name, thread] for name in "abcd"]
            assert result == ["a", "b"] and error == "c"
            assert inside  # an inner pair gives the mark back, still set
        assert after[0] != caller == after[1]  # the next _both runs at once again

    def test_racing_first_calls_start_one_worker(self):
        # in a fresh process, so that these are its first _both calls
        code = ("import threading\n"
                "from quadndr import network\n"
                "start = threading.Barrier(8)\n"
                "def first():\n"
                "    start.wait(60)\n"
                "    network._both(lambda: None, lambda: None)\n"
                "threads = [threading.Thread(target=first) for _ in range(8)]\n"
                "for thread in threads:\n"
                "    thread.start()\n"
                "for thread in threads:\n"
                "    thread.join()\n"
                "print(sum(t.name == 'quadndr worker' for t in threading.enumerate()))\n")
        done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1\n"

    def test_two_threads_that_train_at_once_get_the_bytes_they_get_alone(self):
        # their pairs queue for the one worker, and run as they do alone
        def fit(net):
            cfg = self.NETS[net]
            x, y = self._data(cfg)
            params, history = train(init_params(cfg, seed=5), cfg, x, y,
                                    TrainConfig(epochs=2, batch_size=16, seed=3))
            return [a.tobytes() for a in (*params.values(), np.array(history),
                                          predict(params, cfg, x))]

        nets = ["single_lanes", "multi_long"]
        alone, together, start = {net: fit(net) for net in nets}, {}, threading.Barrier(2)

        def run(net):
            start.wait(60)
            together[net] = fit(net)

        threads = [threading.Thread(target=run, args=(net,)) for net in nets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert together.keys() == alone.keys()
        for net in nets:
            assert together[net] == alone[net], net

    def test_no_gemm_is_split_inside_conv_stacks_that_run_at_once(self, monkeypatch):
        cfg = self.NETS["multi_long"]
        by_branch, calls = network._by_branch, []

        def recording(tasks):
            calls.append((len(tasks), getattr(tasks[0], "func", None) is np.matmul,
                          getattr(network._pair, "inside", False)))
            return by_branch(tasks)

        monkeypatch.setattr(network, "_by_branch", recording)
        params, x, y = _bitwise_case(cfg, 16, seed=1)
        loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(0))
        # some of the stacks' GEMMs are large enough for the rule, but run whole
        dense = sum(_splits(*g) for g in _gemms(cfg, 16, True))
        assert sum(_splits(*g[:3]) for g in _gemms(cfg, 16, True)) > dense
        assert calls.count((2, False, False)) == 2  # the stacks, forward and backward
        assert calls.count((2, True, False)) == dense
        # inside a stack, its one lane's tasks, each of them whole
        assert {call for call in calls if call[2]} == {(1, False, True)}

    @pytest.mark.parametrize("net", ["single_lanes", "multi_long", "single_long"])
    def test_every_platform_runs_the_same_gemms(self, net, monkeypatch):
        # with numpy's BLAS pinned, the pieces of a step run at once, also
        # while another thread's pair keeps the worker busy and the step's
        # pairs queue behind it; with a BLAS that cannot be pinned, in turn:
        # the same GEMMs either way, so the same bits
        cfg = self.NETS[net]
        params, x, y = _bitwise_case(cfg, 16, seed=4)

        def step():
            gemms = _recording_gemms(monkeypatch)
            loss, grads, out = loss_and_gradients(params, cfg, x, y,
                                                   rng=np.random.default_rng(0))
            arrays = [np.float64(loss), out, *grads.values(), predict(params, cfg, x)]
            return sorted(gemms), arrays

        runs = [step()]
        monkeypatch.setattr(network, "_pinnable", lambda: False)
        runs.append(step())
        monkeypatch.setattr(network, "_pinnable", lambda: True)
        busy, workers = threading.Event(), []

        def hold():
            workers.append(threading.current_thread().name)
            busy.set()
            time.sleep(0.3)

        holder = threading.Thread(target=network._both, args=(hold, lambda: None))
        holder.start()
        try:
            assert busy.wait(60)
            runs.append(step())
        finally:
            holder.join(60)
        assert workers == ["quadndr worker"] and not holder.is_alive()
        shapes = _gemms(cfg, 16, True) + _gemms(cfg, 16, False)
        assert len(runs[0][0]) == sum(1 + _splits(*g) for g in shapes) > len(shapes)
        for gemms, arrays in runs[1:]:
            assert gemms == runs[0][0]
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in runs[0][1]]

    @pytest.mark.parametrize("pinned", [True, False], ids=["at_once", "in_turn"])
    def test_each_of_two_tasks_runs_its_gemms_whole_and_clears_the_mark(self, pinned,
                                                                        monkeypatch):
        # the mark is set around each task, on whichever thread runs it, and
        # given back, clear, when the task ends, also by an error: the next
        # GEMM on the caller's thread is split by the rule again
        monkeypatch.setattr(network, "_pinnable", lambda: pinned)
        gemms = _recording_gemms(monkeypatch)
        a, b = np.zeros((64, 18)), np.zeros((18, 3648))  # split when alone
        marks = []

        def task(fails=False):
            def run():
                marks.append(getattr(network._pair, "inside", False))
                network._matmul(a, b, np.empty((64, 3648)))
                if fails:
                    raise KeyError("task")
            return run

        for fails in ((), (0,), (1,)):
            del gemms[:]
            marks.clear()
            tasks = [task(i in fails) for i in range(2)]
            if fails:
                with pytest.raises(KeyError):
                    network._by_branch(tasks)
            else:
                network._by_branch(tasks)
            assert marks and all(marks)
            assert gemms == [(64, 18, 3648)] * len(marks)
            assert not getattr(network._pair, "inside", False)
            del gemms[:]
            network._matmul(a, b, np.empty((64, 3648)))
            assert gemms == [(64, 18, 1824)] * 2

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinnable", "not_pinnable"])
    def test_a_lone_task_keeps_the_split_rule(self, pinned, monkeypatch):
        # one lane of every window is not one of two tasks: its GEMMs split
        # as they would outside _by_branch
        monkeypatch.setattr(network, "_pinnable", lambda: pinned)
        gemms = _recording_gemms(monkeypatch)
        a, b = np.zeros((64, 18)), np.zeros((18, 3648))
        network._by_branch([partial(network._matmul, a, b, np.empty((64, 3648)))])
        assert gemms == [(64, 18, 1824)] * 2
        assert not getattr(network._pair, "inside", False)

    def test_worker_keeps_nothing_of_a_finished_task(self):
        # a task's closure holds the caller's buffers; once _both returns, the
        # worker must not keep them alive until its next task
        buffers = np.empty(1000)
        ref = weakref.ref(buffers)
        network._both(partial(buffers.fill, 0.0), lambda: None)
        del buffers
        deadline = time.monotonic() + 5.0
        while ref() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ref() is None

    def test_worker_never_holds_the_interpreter_at_exit(self):
        # one job ran, one raised and one is still running when the main thread ends
        code = ("import time\n"
                "from quadndr import network\n"
                "network._both(lambda: 1, lambda: 2)\n"
                "try:\n"
                "    network._both(lambda: 1 / 0, lambda: 2)\n"
                "except ZeroDivisionError:\n"
                "    pass\n"
                "network._jobs.put(network._Job(lambda: time.sleep(60)))\n")
        done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), timeout=30)
        assert done.returncode == 0

    def test_diverged_split_adam_changes_nothing(self):
        # the check runs before either half starts: a bad entry in the half
        # the worker updates stops the step before this thread's half changes
        rng = np.random.default_rng(18)
        params = {"a.w": rng.normal(size=(3, 7001)), "b.b": rng.normal(size=5)}
        state = AdamState.for_params(params)
        adam_step(params, {k: rng.normal(size=p.shape) for k, p in params.items()}, state)
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        grads["a.w"][-1, -1] = np.inf
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v, grads)]
        with pytest.raises(TrainingDiverged, match="'a.w'"):
            adam_step(params, grads, state)
        _assert_bit_equal((params, state.m, state.v, grads), before)
        assert state.t == 1

    def test_adam_checks_each_half_on_its_own_thread(self, monkeypatch):
        # bad entries in both halves, and gradients in another order than
        # the params: the error names the first bad block in params order
        check, threads = network._first_bad_block, []

        def recording(*args):
            threads.append(threading.get_ident())
            return check(*args)

        monkeypatch.setattr(network, "_first_bad_block", recording)
        rng = np.random.default_rng(19)
        params = {"a.w": rng.normal(size=(3, 7001)), "b.b": rng.normal(size=5),
                  "c.w": rng.normal(size=(2, 9000))}
        state = AdamState.for_params(params)
        grads = {k: rng.normal(size=params[k].shape) for k in reversed(params)}
        grads["a.w"][0, 0] = -np.inf
        grads["c.w"][-1, -1] = np.inf
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v, grads)]
        with pytest.raises(TrainingDiverged, match="'a.w'"):
            adam_step(params, grads, state)
        _assert_bit_equal((params, state.m, state.v, grads), before)
        assert state.t == 0
        assert len(threads) == len(set(threads)) == 2 and threading.get_ident() in threads

    @pytest.mark.parametrize("net, width, batch", [("multi", 200, 7), ("multi", 6, 7),
                                                    ("single_lanes", 200, 16)],
                             ids=["wide_fc1", "narrow_fc1", "single_lanes"])
    def test_every_buffer_is_taken_on_the_callers_thread(self, net, width, batch, monkeypatch):
        # every branch owns its arena pair, so multi's stacks run on two
        # threads whatever the width of fc1, as do a lone stack's two lanes,
        # each on its own columns of the pair; only the caller's thread
        # takes buffers
        threads = {}

        def recording(owner, name):
            function = getattr(owner, name)

            def run(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return function(*args, **kwargs)
            monkeypatch.setattr(owner, name, run)

        recording(_Workspace, "get")
        for name in ("_conv_forward", "_conv_input_grad"):
            recording(network, name)
        cfg = replace(self.NETS[net], dense_widths=(width, 4))
        params, x, y = _bitwise_case(cfg, batch, seed=8)
        ws = _Workspace()
        for _ in range(2):
            loss_and_gradients(params, cfg, x, y, rng=np.random.default_rng(0), workspace=ws)
        predict(params, cfg, x)
        assert threads["get"] == {threading.get_ident()}
        for name in ("_conv_forward", "_conv_input_grad"):
            assert threading.get_ident() in threads[name] and len(threads[name]) == 2, name


needs_openblas = pytest.mark.skipif(
    not Path("/proc/self/maps").exists()
    or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
    reason="the thread count is asked of OpenBLAS through /proc")


class TestSplitGemm:
    @pytest.mark.parametrize("m, k, n, whole", [
        (64, 18, 925, True),     # split at 456 columns, it changed bits from one call
        (256, 768, 259, True),   # as did this one
        (64, 6400, 18, True),    # the default first conv's weight gradient
        (256, 768, 256, False),
        (64, 18, 3632, True),    # halves of 1816 columns: just under 2 ** 21 multiply-adds
        (64, 18, 3648, False),
        (128, 192, 325, True),   # split at 160 columns, it changed bits from one call
        (768, 256, 300, True),   # split at 144 columns, as did this one
        (64, 25600, 512, False),  # the default fc1's forward
    ])
    def test_rule_keeps_known_bad_shapes_whole(self, m, k, n, whole, monkeypatch):
        # the shapes alone decide, whether or not numpy's BLAS can be pinned
        a, b = np.zeros((m, k)), np.zeros((n, k)).T
        for pinned in (True, False):
            monkeypatch.setattr(network, "_pinnable", lambda: pinned)
            gemms = _recording_gemms(monkeypatch)
            network._matmul(a, b, np.empty((m, n)))
            assert len(gemms) == 1 + (not whole)

    @pytest.mark.parametrize("cfg, batch, two", [
        *((NetConfig(arch="single", window=25, dropout=0.1, out_dim=out_dim), batch, False)
          for out_dim in (3, 2) for batch in (64, 32, 20)),   # criterion 6's passes
        *((NetConfig(arch="single", window=100, out_dim=out_dim), batch, True)
          for out_dim in (3, 2) for batch in (64, 53)),       # the default config's
        (NetConfig(arch="single", window=100), 24, False),    # a short last predict pass
        (NetConfig(arch="multi", window=100), 64, False),     # stacks that run at once
        (TestWorker.NETS["single_lanes"], 16, True),
        (TestWorker.NETS["single_lanes"], 8, False),
        (TestWorker.NETS["single_long"], 16, False),
    ])
    def test_lane_rule(self, cfg, batch, two, monkeypatch):
        # two lanes exactly where the lane cut meets _matmul's split rule,
        # whether or not numpy's BLAS can be pinned
        cut = batch // 2
        for pinned in (True, False):
            monkeypatch.setattr(network, "_pinnable", lambda: pinned)
            assert network._lanes(cfg, batch) == (
                [(0, cut), (cut, batch)] if two else [(0, batch)])
        assert _two_lanes(cfg, batch) == two


def _numpy_openblas_threads():
    """The thread-count getter of the OpenBLAS in numpy's own ``numpy.libs``,
    found as perfbench finds it, apart from network's lookup; None if there
    is none."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter
    return None


@needs_openblas
@pytest.mark.skipif(_numpy_openblas_threads() is None, reason="needs numpy's own OpenBLAS")
def test_openblas_lookup_reads_paths_with_spaces_and_passes_over_unloadable_ones(tmp_path):
    # a path past the maps line's fifth field is read whole; one that no
    # longer loads is passed over, not raised
    numpy_blas = next(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"))
    spaced = tmp_path / "a dir" / numpy_blas.name
    spaced.parent.mkdir()
    spaced.symlink_to(numpy_blas)  # dlopen finds it is the library already loaded
    gone = tmp_path / "gone dir" / "libopenblas-gone.so"

    def lookup(*paths):
        maps = tmp_path / f"maps{len(paths)}"  # a file per lookup: _openblas caches by path
        maps.write_text("".join(f"7f00-7f10 r-xp 00000000 08:01 {i}        {path}\n"
                                for i, path in enumerate(paths)))
        return network._openblas(str(maps))

    assert lookup(gone) is None
    get, _ = lookup(gone, spaced)
    assert get() == _numpy_openblas_threads()()


def _pin_observations():
    """Each public call that pins numpy's OpenBLAS, run at the thread count
    the process started with. Per call: how it ended, the counts numpy's
    OpenBLAS reported in its GEMMs and Adam checks, and the count after it
    returned or raised. Last, two threads whose predicts overlap: the
    first, at its first GEMM, runs the second's predict to its end, then
    reads the count; the count after both have ended follows."""
    threads, hold, inside = _numpy_openblas_threads(), [], set()

    def seeing(function):
        def run(*args):
            inside.add(threads())
            if hold and threading.current_thread().name == "first":
                hold.pop()()
            return function(*args)
        return run

    network._matmul = seeing(network._matmul)
    network._first_bad_block = seeing(network._first_bad_block)
    cfg = TINY_SINGLE
    params, x, y = _bitwise_case(cfg, 5, seed=0)
    calls = {
        "predict": partial(predict, params, cfg, x),
        "loss_and_gradients, a misshapen block": partial(
            loss_and_gradients, {**params, "head.b": np.zeros(2)}, cfg, x, y),
        "adam_step, a non-finite gradient": partial(
            adam_step, {k: p.copy() for k, p in params.items()},
            {k: np.full(p.shape, np.inf) for k, p in params.items()},
            AdamState.for_params(params)),
        "train, which calls loss_and_gradients and adam_step": partial(
            train, {k: p.copy() for k, p in params.items()}, cfg, x, y,
            TrainConfig(epochs=2, batch_size=2)),
    }
    seen = {"started": threads()}
    for name, call in calls.items():
        inside.clear()
        try:
            call()
            ended = "returned"
        except (ValueError, TrainingDiverged) as exc:
            ended = type(exc).__name__
        seen[name] = [ended, sorted(inside), threads()]

    second = threading.Thread(target=partial(predict, params, cfg, x), name="second")

    def run_second():
        second.start()
        second.join(60)
        seen["overlap"] = [second.is_alive(), threads()]

    hold.append(run_second)
    first = threading.Thread(target=partial(predict, params, cfg, x), name="first")
    first.start()
    first.join(60)
    seen["overlap"].append(threads())
    return seen


@needs_openblas
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or _numpy_openblas_threads() is None,
                    reason="needs numpy's own OpenBLAS and two cores to run it on")
@pytest.mark.parametrize("first_import", ["", "scipy.linalg"], ids=["numpy", "scipy_first"])
def test_public_calls_pin_numpys_openblas_and_give_the_count_back(first_import):
    # started at two BLAS threads; scipy's OpenBLAS, when imported first, is
    # mapped before numpy's and has no 64-bit thread calls
    if first_import:
        pytest.importorskip(first_import)
    code = (f"import {first_import or 'os'}, json, test_network\n"
            "print(json.dumps(test_network._pin_observations()))\n")
    done = subprocess.run([sys.executable, "-c", code], timeout=120, capture_output=True,
                          text=True, env=_subprocess_env(OPENBLAS_NUM_THREADS="2"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "started": 2,
        "predict": ["returned", [1], 2],
        "loss_and_gradients, a misshapen block": ["ValueError", [], 2],
        "adam_step, a non-finite gradient": ["TrainingDiverged", [1], 2],
        "train, which calls loss_and_gradients and adam_step": ["returned", [1], 2],
        # the second predict had ended, the first had not: still pinned
        "overlap": [False, 1, 2],
    }


class TestTrain:
    def make_data(self, m=48):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(m, 6, 8))
        y = rng.normal(scale=0.1, size=(m, 3))
        return x, y

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("epochs", 2.0), ("batch_size", 0),
        ("batch_size", -3), ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0),
        ("lr", -1.0),
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

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            train(init_params(TINY_SINGLE, seed=0), TINY_SINGLE,
                  np.empty((0, 6, 8)), np.empty((0, 3)), TrainConfig(epochs=1))

    @pytest.mark.parametrize("shape", [(13, 3), (7, 3), (10, 2), (10, 4), (10,), (10, 3, 1)])
    def test_rejects_labels_not_of_shape_windows_by_outputs(self, shape):
        # refused before the first step, not inside its loss
        x, y = self.make_data(10)
        params = init_params(TINY_SINGLE, seed=0)
        before = copy.deepcopy(params)
        labels = np.resize(y, shape)
        with pytest.raises(ValueError, match=re.escape(
                f"labels of shape {shape} for 10 input windows, expected shape (10, 3)")):
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
