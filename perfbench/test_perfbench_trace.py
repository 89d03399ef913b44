"""The traced run reaches every call site: span counts per iteration equal the
counts derived from each workload's config, on small versions of the three
workloads. Run with ``python -m pytest perfbench``."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import quadndr.cli  # noqa: E402
import quadndr.deadreckon  # noqa: E402
import quadndr.network  # noqa: E402

SMALL = {
    # two runs per architecture, so save_model must be called runs * 3 = 6 times
    "claim_pipeline": lambda d: workloads.ClaimPipeline(
        3, d, workloads.CLAIM_OVERRIDES + ("dense_widths=16,8", "epochs=1", "runs=2")),
    "default_train": lambda d: workloads.DefaultTrain(3, d, net_kwargs={
        "single": dict(conv_channels=(6, 8), dense_widths=(16, 8)),
        "multi": dict(conv_channels=(3, 4), dense_widths=(16, 8))}),
    "long_flight_eval": lambda d: workloads.LongFlightEval(
        3, d, workloads.LONG_FLIGHT_OVERRIDES + ("total_span=3.6",)),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One set-up and one traced iteration per small workload, shared."""
    done = {}

    def run(name):
        if name not in done:
            workload = SMALL[name](tmp_path_factory.mktemp(name))
            workload.setup()
            with Tracer() as tracer:
                tracer.install(layers.TRACED)
                workload.iterate()
            done[name] = workload, tracer
        return done[name]

    return run


@pytest.mark.parametrize("name", sorted(SMALL))
def test_span_counts_match_config(name, traced):
    workload, tracer = traced(name)
    calls = {fn: s["calls"] for fn, s in tracer.summary().items()}
    expected = workload.expected_calls()
    assert {fn: calls.get(fn, 0) for fn in expected} == expected
    assert tracer.missing == [] and tracer.counter_errors == []
    assert set(calls) <= set(layers.TRACED)


def test_claim_ratios_and_counts(traced):
    workload, tracer = traced("claim_pipeline")
    cfg = workload.cfg
    flights, tests = cfg.num_trajectories, len(workload.test_tags)
    m = layers.layer_metrics(tracer, 1)
    assert m["windows.window_series.used_ratio"] == pytest.approx((flights - tests) / flights)
    assert m["cli.cmd_eval.flights_used_ratio"] == pytest.approx(tests / flights)
    # each test flight is mechanized once for pure INS and once per baseline model
    assert m["ins.mechanize_series.distinct_ratio"] == pytest.approx(1 / (1 + cfg.runs))
    models = sorted(workload.out.glob("*.qpnet"))
    assert m["network.save_model.bytes"] == sum(p.stat().st_size for p in models)
    assert m["network.load_model.bytes"] == m["network.save_model.bytes"]
    steps = m["network.loss_and_gradients.calls"]
    assert m["network.loss_and_gradients.gflop"] > 0 and steps == m["network.adam_step.calls"]
    for fn in layers.TRACED:
        assert m[f"{fn}.self_s"] <= m[f"{fn}.total_s"] + 1e-9


def test_uninstall_restores_every_reference():
    originals = (quadndr.cli.predict, quadndr.deadreckon.predict, quadndr.network.predict,
                 quadndr.cli.mechanize_series, quadndr.deadreckon.mechanize_series)
    with Tracer() as tracer:
        tracer.install(layers.TRACED)
        assert quadndr.deadreckon.predict is not originals[1]
        assert quadndr.cli.predict is quadndr.deadreckon.predict
    assert (quadndr.cli.predict, quadndr.deadreckon.predict, quadndr.network.predict,
            quadndr.cli.mechanize_series, quadndr.deadreckon.mechanize_series) == originals
