import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadndr.deadreckon import gt_window_end_positions
from quadndr.ins import GRAVITY, ImuSeries
from quadndr.simulate import GroundTruthSeries, TrajectoryProfile, generate_periodic_trajectory, inverse_mechanize
from quadndr.windows import (
    NormStats,
    SampleSet,
    WindowSpec,
    normalize,
    normalize_inputs,
    split_tags,
    window_bounds,
    window_inputs,
    window_labels,
    window_series,
)


def make_pair(n_samples=300, rate=100.0, speed=0.5, tag="traj_00"):
    ts = np.arange(n_samples) / rate
    positions = np.column_stack([speed * ts, np.zeros(n_samples), np.zeros(n_samples)])
    gt = GroundTruthSeries(ts, positions, np.zeros((n_samples, 3)))
    imu = inverse_mechanize(gt)
    return gt, imu, tag


def brute_force_windows(imu, gt, spec):
    """Reference enumerator: every start index where a full window fits."""
    L = len(imu.timestamps)
    inputs, labels, ends = [], [], []
    start = 0
    while start + spec.window_size <= L:
        block = np.vstack([imu.f[start:start + spec.window_size].T,
                           imu.w[start:start + spec.window_size].T])
        inputs.append(block)
        end = start + spec.window_size - 1
        labels.append(gt.positions[end] - gt.positions[start])
        ends.append(end)
        start += spec.stride
    return inputs, labels, ends


class TestWindowCounts:
    def test_standard_example(self):
        assert len(window_bounds(240, WindowSpec(120, 60))[0]) == 3

    def test_too_short_series(self):
        assert len(window_bounds(119, WindowSpec(120, 60))[0]) == 0

    def test_exact_fit(self):
        assert list(window_bounds(120, WindowSpec(120, 120))[0]) == [0]

    def test_rejects_gapped_stride(self):
        with pytest.raises(ValueError):
            WindowSpec(100, 101)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 0)

    @pytest.mark.parametrize("window_size, stride, message", [
        (0, 0, "window_size must be > 0, got 0$"),
        (20, 0, "stride must be > 0, got 0$"),
        (20, 30, "stride must not exceed window_size, got stride 30 and window_size 20$"),
    ])
    def test_errors_name_the_value(self, window_size, stride, message):
        with pytest.raises(ValueError, match=message):
            WindowSpec(window_size, stride)


class TestWindowSeries:
    def test_label_for_straight_flight(self):
        gt, imu, tag = make_pair(speed=0.5)
        sst = window_series(imu, gt, WindowSpec(100, 50), tag=tag)
        # 0.5 m/s over 99 samples at 100 Hz
        assert sst.labels[0] == pytest.approx(np.array([0.495, 0.0, 0.0]), abs=1e-12)

    def test_input_layout_accel_then_gyro(self):
        gt, imu, tag = make_pair()
        sst = window_series(imu, gt, WindowSpec(100, 50))
        assert np.array_equal(sst.inputs[0, :3], imu.f[:100].T)
        assert np.array_equal(sst.inputs[0, 3:], imu.w[:100].T)

    def test_rejects_mismatched_series(self):
        gt, imu, tag = make_pair()
        short = ImuSeries(imu.timestamps[:-1], imu.f[:-1], imu.w[:-1])
        with pytest.raises(ValueError):
            window_series(short, gt, WindowSpec(100, 50))

    def test_rejects_shifted_timestamps(self):
        gt, imu, tag = make_pair()
        shifted = ImuSeries(imu.timestamps + 0.5, imu.f, imu.w)
        with pytest.raises(ValueError):
            window_series(shifted, gt, WindowSpec(100, 50))

    def test_errors_name_the_flight(self):
        gt, imu, tag = make_pair()
        short = ImuSeries(imu.timestamps[:-1], imu.f[:-1], imu.w[:-1])
        shifted = ImuSeries(imu.timestamps + 0.5, imu.f, imu.w)
        for bad in (short, shifted):
            with pytest.raises(ValueError, match=f"^{tag}: IMU and ground-truth"):
                window_series(bad, gt, WindowSpec(100, 50), tag=tag)

    @settings(deadline=None, max_examples=60)
    @given(length=st.integers(1, 240), n=st.integers(2, 60), data=st.data())
    def test_matches_brute_force(self, length, n, data):
        stride = data.draw(st.integers(1, n))
        rng = np.random.default_rng(length * 1000 + n * 10 + stride)
        ts = np.arange(length) / 100.0
        gt = GroundTruthSeries(ts, rng.normal(size=(length, 3)),
                               np.zeros((length, 3)))
        imu = ImuSeries(ts, rng.normal(size=(length, 3)), rng.normal(size=(length, 3)))
        spec = WindowSpec(n, stride)
        ref_inputs, ref_labels, ref_ends = brute_force_windows(imu, gt, spec)
        sst = window_series(imu, gt, spec, tag="t")
        assert len(sst) == len(ref_inputs)
        for k in range(len(sst)):
            assert np.array_equal(sst.inputs[k], ref_inputs[k])
            assert np.array_equal(sst.labels[k], ref_labels[k])
        labels = np.reshape(ref_labels, (-1, 3))
        assert window_bounds(length, spec)[1].tobytes() == np.array(ref_ends, dtype=int).tobytes()
        assert window_labels(gt, spec).tobytes() == labels.tobytes()
        assert gt_window_end_positions(gt, spec).tobytes() == \
            (gt.positions[0] + np.cumsum(labels, axis=0)).tobytes()

    def test_gap_free_labels_telescope(self):
        gt, imu, tag = make_pair(n_samples=400)
        spec = WindowSpec(50, 50)
        sst = window_series(imu, gt, spec, tag=tag)
        total = sst.labels.sum(axis=0)
        direct = sum(gt.positions[k * 50 + 49] - gt.positions[k * 50]
                     for k in range(len(sst)))
        assert np.array_equal(total, direct)


class TestSplitting:
    def test_tag_counts(self):
        tags = [f"traj_{i:02d}" for i in range(10)]
        train, test = split_tags(tags, 0.25, seed=4)
        assert len(test) == 2 and len(train) == 8
        assert set(train) | set(test) == set(tags)
        assert set(train) & set(test) == set()

    def test_deterministic(self):
        tags = [f"traj_{i:02d}" for i in range(8)]
        assert split_tags(tags, 0.25, seed=9) == split_tags(tags, 0.25, seed=9)

    def test_two_tags_half(self):
        train, test = split_tags(["a", "b"], 0.5, seed=0)
        assert len(train) == 1 and len(test) == 1

    def test_rejects_single_tag(self):
        with pytest.raises(ValueError):
            split_tags(["solo"], 0.25, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5])
    def test_bad_fraction_error_names_the_value(self, fraction):
        with pytest.raises(ValueError, match=rf"must be in \(0, 1\), got {fraction}$"):
            split_tags(["a", "b"], fraction, seed=0)


class TestNormalization:
    def test_constant_channel_maps_to_zero(self):
        gt, imu, tag = make_pair()
        sst = window_series(imu, gt, WindowSpec(50, 50))
        normed, stats = normalize(sst)
        # gyro channels are identically zero for a level straight flight
        assert np.max(np.abs(normed.inputs[:, 3:])) < 1e-12
        assert np.all(stats.std >= 1e-8)

    def test_normalized_data_has_unit_stats(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(3.0, 2.0, size=(40, 6, 20))
        sst = SampleSet(inputs, rng.normal(size=(40, 3)))
        normed, _ = normalize(sst)
        per_channel = normed.inputs.transpose(1, 0, 2).reshape(6, -1)
        assert np.allclose(per_channel.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(per_channel.std(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("channel, name, value", [(0, "fx", 1e200), (5, "wz", np.inf)])
    def test_non_finite_statistics_name_the_channel(self, channel, name, value):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(8, 6, 10))
        inputs[::2, channel] = value
        inputs[1::2, channel] = -value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=rf"^cannot normalize input channel {name}:"):
                normalize(SampleSet(inputs, rng.normal(size=(8, 3))))

    def test_apply_stats_reuses_training_statistics(self):
        rng = np.random.default_rng(1)
        stats = NormStats(mean=rng.normal(size=6), std=np.abs(rng.normal(size=6)) + 0.5)
        inputs = rng.normal(size=(10, 6, 20))
        out = normalize_inputs(inputs, stats)
        expected = (inputs - stats.mean[None, :, None]) / stats.std[None, :, None]
        assert np.array_equal(out, expected)
