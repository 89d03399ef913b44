import numpy as np
import pytest

from quadndr.ins import GRAVITY, ImuSeries, mechanize_series
from quadndr.simulate import (
    GroundTruthSeries,
    ImuErrorModel,
    TrajectoryProfile,
    corrupt_imu,
    generate_periodic_trajectory,
    initial_nav_state,
    inverse_mechanize,
    read_gt_csv,
    read_imu_csv,
    write_gt_csv,
    write_imu_csv,
)


def stationary_gt(n=50, rate=100.0, p=(0.0, 0.0, 0.7)):
    ts = np.arange(n) / rate
    positions = np.tile(p, (n, 1))
    return GroundTruthSeries(ts, positions, np.zeros((n, 3)))


class TestTrajectoryGeneration:
    def test_starts_at_hover_altitude(self):
        gt = generate_periodic_trajectory(TrajectoryProfile())
        assert np.array_equal(gt.positions[0], [0.0, 0.0, 0.7])

    def test_sample_count(self):
        profile = TrajectoryProfile()
        gt = generate_periodic_trajectory(profile)
        expected = int(np.floor(profile.total_span / profile.speed * profile.sample_rate)) + 1
        assert len(gt.timestamps) == expected

    def test_quarter_period_altitude(self):
        # speed chosen so a sample lands exactly at horizontal progress 0.175 m
        profile = TrajectoryProfile(speed=0.35)
        gt = generate_periodic_trajectory(profile)
        k = 50  # s = 0.35 * 50 / 100 = 0.175 = one quarter of the 0.7 m period
        assert gt.positions[k, 0] == pytest.approx(0.175, abs=1e-12)
        assert gt.positions[k, 2] == pytest.approx(0.8, abs=1e-12)

    def test_vertical_oscillation_bounds(self):
        gt = generate_periodic_trajectory(TrajectoryProfile())
        z = gt.positions[:, 2]
        assert z.max() <= 0.8 + 1e-12
        assert z.min() >= 0.6 - 1e-12

    def test_zero_amplitude_keeps_constant_altitude(self):
        gt = generate_periodic_trajectory(TrajectoryProfile(amplitude=0.0))
        assert np.all(gt.positions[:, 2] == 0.7)

    def test_heading_rotates_horizontal_track(self):
        gt = generate_periodic_trajectory(TrajectoryProfile(heading=np.pi / 2))
        assert np.max(np.abs(gt.positions[:, 0])) < 1e-12
        assert gt.positions[-1, 1] > 3.0

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError):
            generate_periodic_trajectory(TrajectoryProfile(speed=0.0))
        with pytest.raises(ValueError):
            generate_periodic_trajectory(TrajectoryProfile(sample_rate=-1.0))


class TestInverseMechanize:
    def test_stationary_hover_measurements(self):
        imu = inverse_mechanize(stationary_gt())
        assert np.allclose(imu.f, [0.0, 0.0, -GRAVITY], atol=1e-12)
        assert np.max(np.abs(imu.w)) < 1e-12

    def test_level_constant_acceleration(self):
        n, dt, a = 100, 0.01, 1.0
        ts = np.arange(n) * dt
        positions = np.column_stack([0.5 * a * ts**2, np.zeros(n), np.zeros(n)])
        gt = GroundTruthSeries(ts, positions, np.zeros((n, 3)))
        imu = inverse_mechanize(gt)
        # central differences are exact on a quadratic, endpoints included
        assert np.allclose(imu.f[:, 0], a, atol=1e-10)
        assert np.allclose(imu.f[:, 2], -GRAVITY, atol=1e-10)

    def test_roundtrip_through_mechanization(self):
        gt = generate_periodic_trajectory(TrajectoryProfile(total_span=1.8))
        imu = inverse_mechanize(gt)
        states = mechanize_series(initial_nav_state(gt), imu)
        recon = states.p[: len(gt.timestamps)]
        assert np.max(np.linalg.norm(recon - gt.positions, axis=1)) < 1e-3


class TestCorruptImu:
    def make_imu(self, n=200):
        return inverse_mechanize(generate_periodic_trajectory(TrajectoryProfile()))

    def test_zero_model_is_bit_exact(self):
        imu = self.make_imu()
        out = corrupt_imu(imu, ImuErrorModel())
        assert np.array_equal(out.f, imu.f)
        assert np.array_equal(out.w, imu.w)

    def test_bias_only(self):
        imu = self.make_imu()
        model = ImuErrorModel(accel_bias=(0.1, -0.2, 0.3), gyro_bias=(0.01, 0.0, -0.02))
        out = corrupt_imu(imu, model)
        assert np.array_equal(out.f, imu.f + np.array([0.1, -0.2, 0.3]))
        assert np.array_equal(out.w, imu.w + np.array([0.01, 0.0, -0.02]))

    def test_noise_is_seed_deterministic(self):
        imu = self.make_imu()
        model = ImuErrorModel(accel_noise_std=0.05, gyro_noise_std=0.002, seed=11)
        a = corrupt_imu(imu, model)
        b = corrupt_imu(imu, model)
        c = corrupt_imu(imu, ImuErrorModel(accel_noise_std=0.05, gyro_noise_std=0.002, seed=12))
        assert np.array_equal(a.f, b.f) and np.array_equal(a.w, b.w)
        assert not np.array_equal(a.f, c.f)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            ImuErrorModel(accel_noise_std=-0.1)


class TestCsvRoundtrips:
    def test_gt_roundtrip(self, tmp_path):
        gt = generate_periodic_trajectory(TrajectoryProfile(total_span=0.9))
        path = tmp_path / "gt.csv"
        write_gt_csv(path, gt)
        back = read_gt_csv(path)
        assert np.array_equal(back.timestamps, gt.timestamps)
        assert np.array_equal(back.positions, gt.positions)
        assert np.array_equal(back.attitudes, gt.attitudes)

    def test_imu_roundtrip(self, tmp_path):
        imu = inverse_mechanize(generate_periodic_trajectory(TrajectoryProfile(total_span=0.9)))
        path = tmp_path / "imu.csv"
        write_imu_csv(path, imu)
        back = read_imu_csv(path)
        assert np.array_equal(back.timestamps, imu.timestamps)
        assert np.array_equal(back.f, imu.f)
        assert np.array_equal(back.w, imu.w)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y,z,r,p,yaw\n0,0,0,0,0,0,0\n")
        with pytest.raises(ValueError):
            read_gt_csv(path)
        with pytest.raises(ValueError):
            read_imu_csv(path)


def test_ground_truth_requires_uniform_spacing():
    ts = np.array([0.0, 0.01, 0.03])
    with pytest.raises(ValueError):
        GroundTruthSeries(ts, np.zeros((3, 3)), np.zeros((3, 3)))
