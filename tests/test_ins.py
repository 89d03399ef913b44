import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_mechanize, orthonormalize, rotvec_to_dcm, skew
from quadndr.ins import (
    DEFAULT_GRAVITY,
    GRAVITY,
    ImuSeries,
    NavState,
    dcm_to_rotvec,
    dcm_to_yaw,
    euler_to_dcm,
    mechanize_series,
)
from quadndr.simulate import (
    ImuErrorModel,
    TrajectoryProfile,
    corrupt_imu,
    generate_periodic_trajectory,
    initial_nav_state,
    inverse_mechanize,
)

angles = st.floats(-np.pi, np.pi - 1e-6)
pitches = st.floats(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
finite = st.floats(-1e3, 1e3)


def level_state(p=(0, 0, 0), v=(0, 0, 0), t=0.0):
    return NavState(p=np.array(p, float), v=np.array(v, float), T=np.eye(3), t=t)


def mechanize_one(state, f, w, dt):
    """Advance ``state`` by one measurement: a one-sample series at t + dt."""
    imu = ImuSeries(np.array([state.t + dt]), np.array([f], float), np.array([w], float))
    out = mechanize_series(state, imu)
    return NavState(p=out.p[-1], v=out.v[-1], T=out.T[-1], t=out.t[-1])


class TestEulerToDcm:
    def test_zero_rotation_is_identity(self):
        assert np.array_equal(euler_to_dcm(0.0, 0.0, 0.0), np.eye(3))

    def test_quarter_turn_yaw(self):
        T = euler_to_dcm(0.0, 0.0, np.pi / 2)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], float)
        assert np.allclose(T, expected, atol=1e-15)

    def test_large_roll_bottom_row(self):
        T = euler_to_dcm(3.0, 0.0, 0.0)
        assert np.allclose(T[2], [0.0, np.sin(3.0), np.cos(3.0)], atol=1e-15)

    def test_rejects_gimbal_pitch(self):
        with pytest.raises(ValueError):
            euler_to_dcm(0.0, np.pi / 2, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            euler_to_dcm(np.nan, 0.0, 0.0)

    @given(roll=angles, pitch=pitches, yaw=angles)
    def test_orthonormal_and_proper(self, roll, pitch, yaw):
        T = euler_to_dcm(roll, pitch, yaw)
        assert np.max(np.abs(T.T @ T - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(T) - 1.0) < 1e-9


class TestDcmToYaw:
    def test_identity(self):
        assert dcm_to_yaw(np.eye(3)) == 0.0

    def test_quarter_turn(self):
        assert dcm_to_yaw(euler_to_dcm(0.0, 0.0, np.pi / 2)) == pytest.approx(np.pi / 2)

    def test_roundtrip_with_roll_and_pitch(self):
        assert dcm_to_yaw(euler_to_dcm(0.1, 0.2, 0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_rejects_near_vertical_pitch(self):
        T = euler_to_dcm(0.0, np.pi / 2 - 1e-14, 0.0)
        with pytest.raises(ValueError):
            dcm_to_yaw(T)

    @given(roll=st.floats(-1.5, 1.5), pitch=pitches, yaw=angles)
    def test_yaw_roundtrip(self, roll, pitch, yaw):
        psi = dcm_to_yaw(euler_to_dcm(roll, pitch, yaw))
        assert abs(psi - yaw) < 1e-10
        assert -np.pi <= psi < np.pi


class TestSkew:
    def test_zero(self):
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_unit_x(self):
        M = skew([1, 0, 0])
        expected = np.zeros((3, 3))
        expected[1, 2] = -1.0
        expected[2, 1] = 1.0
        assert np.array_equal(M, expected)

    @given(x=finite, y=finite, z=finite)
    def test_antisymmetric_and_annihilates_self(self, x, y, z):
        w = np.array([x, y, z])
        M = skew(w)
        assert np.array_equal(M.T, -M)
        assert np.max(np.abs(M @ w)) <= 1e-12 * max(1.0, float(w @ w))


class TestRotvec:
    def test_zero_is_identity(self):
        assert np.array_equal(rotvec_to_dcm([0, 0, 0]), np.eye(3))

    @given(x=st.floats(-3, 3), y=st.floats(-3, 3), z=st.floats(-3, 3))
    def test_result_is_rotation(self, x, y, z):
        R = rotvec_to_dcm([x, y, z])
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12

    @staticmethod
    def assert_log_map_round_trips(axis, theta):
        R = rotvec_to_dcm(theta * np.asarray(axis) / np.linalg.norm(axis))
        rv = dcm_to_rotvec(R)
        assert np.linalg.norm(rv) <= np.pi + 1e-12
        assert np.max(np.abs(rotvec_to_dcm(rv) - R)) <= 1e-9

    @given(axis=st.tuples(finite, finite, finite).filter(lambda v: np.linalg.norm(v) > 1e-3),
           theta=st.floats(0.0, np.pi))
    def test_log_map_round_trip(self, axis, theta):
        self.assert_log_map_round_trips(axis, theta)

    @pytest.mark.parametrize("axis", [(1, 0, 0), (0, -1, 0), (0, 0, 1), (1, 1, 0),
                                      (-0.8967, -0.4417, 0.0293)])
    @pytest.mark.parametrize("theta", [np.pi, np.pi - 1e-7, np.pi - 1e-3])
    def test_log_map_round_trip_near_half_turn(self, axis, theta):
        self.assert_log_map_round_trips(axis, theta)


class TestMechanizeStep:
    def test_stationary_is_identity(self):
        state = level_state()
        out = mechanize_one(state, [0.0, 0.0, -GRAVITY], np.zeros(3), 0.01)
        assert np.array_equal(out.p, state.p)
        assert np.array_equal(out.v, state.v)

    def test_unit_forward_acceleration(self):
        out = mechanize_one(level_state(), [1.0, 0.0, -GRAVITY], np.zeros(3), 0.1)
        assert np.allclose(out.v, [0.1, 0.0, 0.0], atol=1e-15)
        assert np.allclose(out.p, [0.01, 0.0, 0.0], atol=1e-15)

    def test_pure_yaw_rotation(self):
        out = mechanize_one(level_state(), np.zeros(3), [0.0, 0.0, np.pi / 2], 1.0)
        assert dcm_to_yaw(out.T) == pytest.approx(np.pi / 2, abs=1e-9)

    def test_rejects_bad_dt(self):
        state = level_state()
        for dt in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError):
                mechanize_one(state, np.zeros(3), np.zeros(3), dt)

    def test_gravity_cancellation_any_attitude(self):
        T = euler_to_dcm(0.3, -0.2, 1.1)
        state = NavState(p=np.zeros(3), v=np.zeros(3), T=T, t=0.0)
        out = mechanize_one(state, -T.T @ DEFAULT_GRAVITY, np.zeros(3), 0.05)
        assert np.max(np.abs(out.v)) < 1e-12
        assert np.max(np.abs(out.p)) < 1e-13

    def test_dcm_stays_orthonormal(self):
        state = level_state()
        for k in range(200):
            state = mechanize_one(state, [0.1, -0.2, -GRAVITY], [0.02, 0.3, -0.1], 0.01)
        assert np.max(np.abs(state.T.T @ state.T - np.eye(3))) < 1e-9


class TestMechanizeSeries:
    def test_empty_series(self):
        init = level_state()
        imu = ImuSeries(np.empty(0), np.empty((0, 3)), np.empty((0, 3)))
        states = mechanize_series(init, imu)
        assert states.p.shape == (1, 3) and states.T.shape == (1, 3, 3)
        assert np.array_equal(states.p[0], init.p) and np.array_equal(states.T[0], init.T)

    def test_stationary_hover(self):
        n = 1000  # 10 s at 100 Hz
        ts = np.arange(n) * 0.01
        f = np.tile([0.0, 0.0, -GRAVITY], (n, 1))
        imu = ImuSeries(ts, f, np.zeros((n, 3)))
        states = mechanize_series(level_state(), imu)
        assert states.p.shape == (n + 1, 3) and states.t.shape == (n + 1,)
        assert np.linalg.norm(states.p[-1]) < 1e-6

    def test_rejects_non_monotonic_timestamps(self):
        with pytest.raises(ValueError):
            ImuSeries(np.array([0.0, 0.2, 0.1]), np.zeros((3, 3)), np.zeros((3, 3)))

    def test_first_order_convergence(self):
        # circular horizontal motion: p(t) = (sin t, 1 - cos t, 0), level
        def final_error(dt):
            n = int(round(2.0 / dt))
            ts = np.arange(n) * dt
            f = np.column_stack([-np.sin(ts), np.cos(ts), np.full(n, -GRAVITY)])
            imu = ImuSeries(ts, f, np.zeros((n, 3)))
            init = level_state(v=(1.0, 0.0, 0.0))
            end = mechanize_series(init, imu).p[n - 1]
            t_end = ts[-1]
            truth = np.array([np.sin(t_end), 1.0 - np.cos(t_end), 0.0])
            return np.linalg.norm(end - truth)

        e1, e2 = final_error(0.01), final_error(0.005)
        assert e1 / e2 >= 1.8


def test_orthonormalize_restores_rotation():
    T = euler_to_dcm(0.2, 0.1, -0.7) + 1e-8 * np.ones((3, 3))
    Q = orthonormalize(T)
    assert np.max(np.abs(Q.T @ Q - np.eye(3))) < 1e-12
    assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


# rotation-vector components: exact zeros of both signs, values so small
# that |rv| < 1e-8 takes the series branch, and values up to |rv| ~ pi
_rv_component = st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(-1e-9, 1e-9),
                          st.floats(-1.8, 1.8))
_increments = st.lists(
    st.one_of(st.tuples(_rv_component, _rv_component, _rv_component),
              st.sampled_from([(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0)])),
    min_size=1, max_size=12)


def assert_matches_loop(init, imu):
    got, want = mechanize_series(init, imu), loop_mechanize(init, imu)
    for name in ("p", "v", "T", "t"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestMechanizeMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(increments=_increments, dt=st.sampled_from([1.0, 0.04, 0.01]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_series(self, increments, dt, seed):
        rng = np.random.default_rng(seed)
        n = len(increments)
        init = NavState(p=rng.normal(size=3), v=rng.normal(size=3),
                        T=euler_to_dcm(*rng.uniform(-1.0, 1.0, 3)), t=float(rng.uniform()))
        ts = init.t + dt * np.arange(1, n + 1)
        f = rng.normal(0.0, 5.0, (n, 3)) - DEFAULT_GRAVITY
        assert_matches_loop(init, ImuSeries(ts, f, np.array(increments) / dt))

    def test_one_sample(self):
        init = level_state(t=0.5)
        imu = ImuSeries(np.array([0.52]), np.array([[0.1, -0.2, -GRAVITY]]),
                        np.array([[0.3, -0.0, 2.0]]))
        assert_matches_loop(init, imu)

    def test_criterion_6_noisy_flight(self):
        gt = generate_periodic_trajectory(TrajectoryProfile(sample_rate=25.0))
        model = ImuErrorModel(accel_bias=(0.08, -0.05, 0.06), gyro_bias=(0.004, -0.003, 0.03),
                              accel_noise_std=0.05, gyro_noise_std=0.002, seed=17)
        assert_matches_loop(initial_nav_state(gt), corrupt_imu(inverse_mechanize(gt), model))
