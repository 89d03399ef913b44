import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_write_loss_csv, per_value_write_csv
from quadndr.ins import GRAVITY, ImuSeries, mechanize_series
from quadndr.simulate import (
    GT_CSV_HEADER,
    GroundTruthSeries,
    ImuErrorModel,
    TrajectoryProfile,
    corrupt_imu,
    generate_periodic_trajectory,
    initial_nav_state,
    inverse_mechanize,
    read_gt_csv,
    read_imu_csv,
    write_csv,
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


@pytest.mark.parametrize("column", ["timestamps", "positions", "attitudes"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ground_truth_rejects_non_finite(column, bad):
    values = {"timestamps": np.arange(4) / 10.0, "positions": np.zeros((4, 3)),
              "attitudes": np.zeros((4, 3))}
    values[column][-1] = bad
    with pytest.raises(ValueError, match="finite"):
        GroundTruthSeries(**values)


def _csv_text(reader):
    gt = generate_periodic_trajectory(TrajectoryProfile(total_span=0.9, sample_rate=5.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        if reader is read_gt_csv:
            write_gt_csv(path, gt)
        else:
            write_imu_csv(path, inverse_mechanize(gt))
        return path.read_text()


@pytest.mark.parametrize("reader", [read_gt_csv, read_imu_csv])
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda row: row.rpartition(",")[0], "line 3: expected 7 values, got 6",
                 id="short_row"),
    pytest.param(lambda row: row + ",0.0", "line 3: expected 7 values, got 8", id="long_row"),
    pytest.param(lambda row: "abc" + row[1:], "line 3: could not convert string to float",
                 id="bad_value"),
])
def test_parse_error_names_file_and_line(reader, edit, message, tmp_path):
    rows = _csv_text(reader).splitlines()
    rows[2] = edit(rows[2])
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: {message}")


@settings(deadline=None, max_examples=80)
@given(data=st.data())
@pytest.mark.parametrize("reader", [read_gt_csv, read_imu_csv])
def test_mutated_csv_loads_or_raises_value_error_naming_it(reader, data):
    text = _csv_text(reader)
    header, *rows = text.splitlines()
    kind = data.draw(st.sampled_from(
        ["truncate", "ragged", "non_finite", "header", "empty"]), label="mutation")
    if kind == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1), label="at")]
    else:
        row = data.draw(st.integers(0, len(rows) - 1), label="row")
        values = rows[row].split(",")
        column = data.draw(st.integers(0, len(values) - 1), label="column")
        if kind == "ragged":
            del values[column]
        elif kind == "non_finite":
            values[column] = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]),
                                       label="value")
        elif kind == "header":
            header = data.draw(st.sampled_from(
                ["", "t,x,y,z,r,p,yaw", header + ",extra", header.upper()]), label="header")
        rows[row] = ",".join(values)
        if kind == "empty":
            rows = []
        text = "\n".join([header, *rows]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text)
        try:
            reader(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            assert kind != "empty"
            return
    # only a cut can leave a valid file, and an empty body is a valid file
    assert kind in ("truncate", "empty"), kind


def test_series_errors_name_their_series():
    for series, name in ((GroundTruthSeries, "ground-truth"), (ImuSeries, "IMU")):
        def build(ts, rows=None):
            values = np.zeros((len(ts) if rows is None else rows, 3))
            return series(np.asarray(ts, dtype=float), values, values)

        with pytest.raises(ValueError, match=f"^inconsistent {name} series shapes$"):
            build([0.0, 0.1], rows=3)
        with pytest.raises(ValueError, match=f"^{name} series must be finite$"):
            build([0.0, np.nan])
        with pytest.raises(ValueError, match=f"^{name} timestamps must be strictly increasing$"):
            build([0.0, 0.1, 0.1])
        kept = build([0.0, 0.1, 0.2])
        assert all(getattr(kept, f.name).dtype == np.float64 for f in fields(series))


def test_overflowing_timestamp_steps_are_refused():
    # each timestamp is finite, but the step between them is not
    values = np.zeros((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for series, name in ((GroundTruthSeries, "ground-truth"), (ImuSeries, "IMU")):
            with pytest.raises(ValueError, match=f"^{name} timestamp steps must be finite$"):
                series(np.array([-1e308, 1e308]), values, values)


# the extremes of float64 repr: signed zero, the smallest subnormal, the
# largest finite value and the switches to exponent notation
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-05, 1.0 / 3.0]


def test_write_csv_writes_the_per_value_bytes_and_reads_back_the_bits(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.choice(np.array(EXTREMES + [-v for v in EXTREMES]), size=(40, 7))
    write_csv(tmp_path / "new.csv", GT_CSV_HEADER, rows.tolist())
    per_value_write_csv(tmp_path / "old.csv", GT_CSV_HEADER, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    history = EXTREMES * 2  # epochs 0..13, written as ints
    write_csv(tmp_path / "new_loss.csv", "epoch,loss", enumerate(history))
    loop_write_loss_csv(tmp_path / "old_loss.csv", history)
    new = (tmp_path / "new_loss.csv").read_bytes()
    assert new == (tmp_path / "old_loss.csv").read_bytes()
    assert new.splitlines()[1:3] == [b"0,-0.0", b"1,5e-324"]

    n = 3 * len(EXTREMES)
    values = np.resize(np.array(EXTREMES), (n, 3)) * np.array([1.0, -1.0, 1.0])
    gt = GroundTruthSeries(np.arange(n) * 0.01, values, values[::-1])
    imu = ImuSeries(gt.timestamps, values[::-1], values)
    write_gt_csv(tmp_path / "gt.csv", gt)
    write_imu_csv(tmp_path / "imu.csv", imu)
    for old, new in ((gt, read_gt_csv(tmp_path / "gt.csv")),
                     (imu, read_imu_csv(tmp_path / "imu.csv"))):
        for f in fields(old):
            assert getattr(new, f.name).tobytes() == getattr(old, f.name).tobytes(), f.name
