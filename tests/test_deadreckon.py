import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import loop_baseline, quadnet_update
from quadndr.deadreckon import (
    gt_window_end_positions,
    improvement_pct,
    integrate_deltas,
    rmse,
    run_baseline,
    write_trajectory_csv,
)
from quadndr.ins import GRAVITY, NavState, dcm_to_yaw, mechanize_series
from quadndr.network import NetConfig, init_params
from quadndr.simulate import (
    GroundTruthSeries,
    ImuErrorModel,
    corrupt_imu,
    initial_nav_state,
    inverse_mechanize,
)
from quadndr.windows import NormStats, WindowSpec

IDENTITY_NORM = NormStats(np.zeros(6), np.ones(6))


def straight_gt(n=200, rate=100.0, speed=0.5):
    ts = np.arange(n) / rate
    positions = np.column_stack([speed * ts, np.zeros(n), np.full(n, 0.7)])
    return GroundTruthSeries(ts, positions, np.zeros((n, 3)))


class TestIntegrateDeltas:
    def test_chains_from_anchor(self):
        points = integrate_deltas([1.0, 2.0, 3.0],
                                  [[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
        assert np.array_equal(points, [[2.0, 2.0, 3.0], [2.0, 3.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            integrate_deltas([0.0, 0.0, 0.0], [[np.inf, 0.0, 0.0]])


class TestQuadnetUpdate:
    def test_east_step(self):
        assert quadnet_update(0.0, 0.0, 2.0, 0.0) == (2.0, 0.0)

    def test_north_step(self):
        x, y = quadnet_update(1.0, 1.0, 3.0, np.pi / 2)
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(4.0, abs=1e-12)

    @given(x=st.floats(-10, 10), y=st.floats(-10, 10),
           d=st.floats(0, 5), psi=st.floats(-np.pi, np.pi))
    def test_step_length_is_preserved(self, x, y, d, psi):
        nx, ny = quadnet_update(x, y, d, psi)
        assert np.hypot(nx - x, ny - y) == pytest.approx(d, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quadnet_update(0.0, 0.0, np.nan, 0.0)


class TestRmse:
    def test_exact_match_is_zero(self):
        pts = np.arange(12.0).reshape(4, 3)
        report = rmse(pts, pts)
        assert report.rmse == 0.0
        assert report.horizontal == 0.0
        assert np.array_equal(report.per_axis, np.zeros(3))

    def test_single_offset_point(self):
        report = rmse([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]])
        assert report.rmse == 5.0
        assert report.horizontal == 5.0
        assert np.array_equal(report.per_axis, [3.0, 4.0, 0.0])

    def test_two_points(self):
        report = rmse([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                      [[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        assert report.rmse == pytest.approx(np.sqrt(12.5))
        assert report.num_windows == 2

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        assert rmse(a, b).rmse == rmse(b, a).rmse

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 3)), np.zeros((2, 3)))

    def test_rejects_a_square_that_overflows(self):
        # finite points 1e200 apart: their squared distance is beyond float64
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="RMSE is inf"):
            rmse(np.zeros((2, 3)), np.full((2, 3), 1e200))


class TestImprovement:
    def test_reference_operating_point(self):
        assert improvement_pct(28.9, 13.8) == pytest.approx(52.2, abs=0.1)

    def test_identical_methods_give_zero(self):
        assert improvement_pct(1.7, 1.7) == 0.0

    def test_perfect_method_gives_hundred(self):
        assert improvement_pct(2.5, 0.0) == 100.0

    def test_worse_method_is_negative(self):
        assert improvement_pct(1.0, 2.0) == -100.0

    def test_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            improvement_pct(0.0, 1.0)


class TestGtWindowEndPositions:
    def test_non_overlapping_chain_matches_direct_positions(self):
        gt = straight_gt(n=400)
        spec = WindowSpec(50, 50)
        targets = gt_window_end_positions(gt, spec)
        # for a linear track the chained labels land on exact grid positions
        starts = np.arange(len(targets)) * 50
        labels = [gt.positions[s + 49] - gt.positions[s] for s in starts]
        direct = gt.positions[0] + np.cumsum(labels, axis=0)
        assert np.array_equal(targets, direct)

    def test_matches_cumulative_label_sum(self):
        rng = np.random.default_rng(5)
        n = 130
        gt = GroundTruthSeries(np.arange(n) / 100.0, rng.normal(size=(n, 3)),
                               np.zeros((n, 3)))
        spec = WindowSpec(20, 20)
        targets = gt_window_end_positions(gt, spec)
        starts = np.arange(6) * 20
        labels = gt.positions[starts + 19] - gt.positions[starts]
        chained = integrate_deltas(gt.positions[0], labels)
        assert np.array_equal(targets, chained)


class TestRunBaseline:
    def test_constant_distance_model_tracks_straight_flight(self):
        gt = straight_gt(n=200, speed=0.5)
        imu = inverse_mechanize(gt)
        spec = WindowSpec(50, 50)
        cfg = NetConfig(arch="single", window=50, dropout=0.0, out_dim=2,
                        conv_channels=(6, 4), dense_widths=(4,))
        params = init_params(cfg, seed=0)
        params = {k: np.zeros_like(v) for k, v in params.items()}
        # zero weights: network output is the head bias = (per-window
        # horizontal distance, altitude change)
        params["head.b"] = np.array([0.5 * 49 / 100.0, 0.0])
        init = NavState(p=gt.positions[0].copy(),
                        v=np.array([0.5, 0.0, 0.0]), T=np.eye(3), t=0.0)
        points = run_baseline(imu, params, cfg, init, spec, IDENTITY_NORM)
        targets = gt_window_end_positions(gt, spec)
        assert points.shape == targets.shape
        assert np.max(np.linalg.norm(points - targets, axis=1)) < 1e-3

    def test_rejects_three_output_model(self):
        gt = straight_gt()
        imu = inverse_mechanize(gt)
        cfg = NetConfig(arch="single", window=50, dropout=0.0,
                        conv_channels=(6, 4), dense_widths=(4,))
        init = NavState(p=np.zeros(3), v=np.zeros(3), T=np.eye(3), t=0.0)
        with pytest.raises(ValueError):
            run_baseline(imu, init_params(cfg, seed=0), cfg, init, WindowSpec(50, 50),
                         IDENTITY_NORM)

    def test_flight_shorter_than_one_window(self):
        gt = straight_gt(n=30)
        cfg = NetConfig(arch="single", window=50, dropout=0.0, out_dim=2,
                        conv_channels=(6, 4), dense_widths=(4,))
        points = run_baseline(inverse_mechanize(gt), init_params(cfg, seed=0), cfg,
                              initial_nav_state(gt), WindowSpec(50, 50), IDENTITY_NORM)
        assert points.shape == (0, 3)

    def test_rejects_window_other_than_the_model(self):
        gt = straight_gt()
        cfg = NetConfig(arch="single", window=50, dropout=0.0, out_dim=2,
                        conv_channels=(6, 4), dense_widths=(4,))
        with pytest.raises(ValueError):
            run_baseline(inverse_mechanize(gt), init_params(cfg, seed=0), cfg,
                         initial_nav_state(gt), WindowSpec(40, 40), IDENTITY_NORM)

    @pytest.mark.parametrize("yaw0, rate", [(2.5, 1.5), (-2.5, -1.5), (3.0, 0.4)])
    def test_matches_window_loop_bitwise_across_pi(self, yaw0, rate):
        # a turning flight whose heading wraps past +/-pi, on a noisy IMU
        n = 400
        ts = np.arange(n) / 100.0
        positions = np.column_stack([0.3 * ts, 0.1 * np.sin(ts), 0.7 + 0.05 * ts])
        attitudes = np.column_stack([np.zeros(n), np.zeros(n), yaw0 + rate * ts])
        gt = GroundTruthSeries(ts, positions, attitudes)
        imu = corrupt_imu(inverse_mechanize(gt), ImuErrorModel(
            accel_noise_std=0.05, gyro_noise_std=0.002, seed=3))
        spec = WindowSpec(20, 20)
        cfg = NetConfig(arch="single", window=20, dropout=0.0, out_dim=2,
                        conv_channels=(6, 4), dense_widths=(8,))
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(5)
        norm = NormStats(rng.normal(size=6), rng.uniform(0.5, 2.0, size=6))
        init = initial_nav_state(gt)
        yaws = [dcm_to_yaw(T) for T in mechanize_series(init, imu).T[19::20]]
        assert np.any(np.abs(np.diff(yaws)) > np.pi)  # the heading wraps
        points = run_baseline(imu, params, cfg, init, spec, norm)
        assert np.array_equal(points, loop_baseline(imu, params, cfg, init, spec, norm))


def test_trajectory_csv_header(tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, [0.0, 0.5], [[0.0, 0.0, 0.7], [0.1, 0.0, 0.7]])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,px,py,pz"
    assert len(lines) == 3


def test_trajectory_csv_rejects_unequal_lengths(tmp_path):
    with pytest.raises(ValueError):
        write_trajectory_csv(tmp_path / "traj.csv", [0.0, 0.5, 1.0],
                             [[0.0, 0.0, 0.7], [0.1, 0.0, 0.7]])
