import json

import numpy as np
import pytest

from comex.benchmarks import Known, Oracle
from comex.domain import Unconstrained
from comex.results import (
    CSV_HEADER,
    build_trace,
    export_json,
    export_summary_csv,
    simple_regret,
    summarize,
)


def make_trace(values, seed=0, algorithm="rs", anchor=-1.0, times=None):
    rows = [{"queries": np.zeros(3, dtype=np.int64), "raw_values": v, "scaled_values": v,
             "acquisition_times": (times[i] if times else 0.001), "update_times": 0.0}
            for i, v in enumerate(values)]
    oracle = Oracle("toy", Unconstrained(3), lambda x: 0.0, Known(-1.0, 1.0))
    return build_trace(algorithm, seed, rows, oracle)


def test_simple_regret_example():
    regrets = simple_regret([0.5, -0.2, -0.2], -1.0)
    assert np.allclose(regrets, [1.5, 0.8, 0.8])


def test_simple_regret_nonincreasing():
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, size=200)
    regrets = simple_regret(values, -1.0)
    assert np.all(np.diff(regrets) <= 0.0 + 1e-15)
    assert np.all(regrets >= 0.0)


def test_trace_best_so_far_monotone():
    trace = make_trace([0.3, 0.5, -0.1, 0.0, -0.4])
    assert np.all(np.diff(trace.best_scaled) <= 0.0)
    assert np.all(np.diff(trace.regret) <= 0.0)
    assert trace.final_regret == pytest.approx(0.6)


def test_reference_level_must_be_below_observations():
    rows = [{"queries": np.zeros(2, dtype=np.int64), "raw_values": 0.5, "scaled_values": 0.5,
             "acquisition_times": 0.0, "update_times": 0.0}]
    oracle = Oracle("toy", Unconstrained(2), lambda x: 0.5, Known(0.0, 2.0),
                    raw_regret_level=1.0)
    with pytest.raises(ValueError):
        build_trace("rs", 0, rows, oracle)


def test_raw_axis_regret_uses_raw_values():
    rows = [{"queries": np.zeros(2, dtype=np.int64), "raw_values": 5.0, "scaled_values": -0.5,
             "acquisition_times": 0.0, "update_times": 0.0},
            {"queries": np.zeros(2, dtype=np.int64), "raw_values": 3.0, "scaled_values": -0.7,
             "acquisition_times": 0.0, "update_times": 0.0}]
    oracle = Oracle("toy", Unconstrained(2), lambda x: 0.0, Known(0.0, 10.0),
                    raw_regret_level=1.0)
    trace = build_trace("rs", 0, rows, oracle)
    assert trace.regret_axis == "raw"
    assert np.allclose(trace.regret, [4.0, 2.0])


def test_empty_run_rejected():
    oracle = Oracle("toy", Unconstrained(2), lambda x: 0.0, Known(-1.0, 1.0))
    with pytest.raises(ValueError):
        build_trace("rs", 0, [], oracle)


def test_summary_single_trace_has_zero_stderr():
    summary = summarize([make_trace([0.1, 0.0, -0.5])])
    assert np.all(summary.stderr == 0.0)
    assert summary.final_stderr == 0.0
    assert summary.n_runs == 1


def test_summary_two_trace_arithmetic():
    a = make_trace([-0.8])   # regret 0.2
    b = make_trace([-0.6])   # regret 0.4
    summary = summarize([a, b])
    assert summary.mean_regret[0] == pytest.approx(0.3)
    # stderr = sample std / sqrt(2) = 0.1414.../1.414... = 0.1
    assert summary.stderr[0] == pytest.approx(0.1)
    assert summary.final_mean == pytest.approx(0.3)
    assert summary.final_median == pytest.approx(0.3)


def test_summary_constant_traces_flat():
    traces = [make_trace([0.0, 0.0, 0.0]) for _ in range(3)]
    summary = summarize(traces)
    assert np.allclose(summary.mean_regret, 1.0)
    assert np.allclose(summary.stderr, 0.0)


def test_summary_pads_truncated_traces():
    long = make_trace([0.5, 0.0, -0.5, -0.5])
    short = make_trace([0.5, -0.1])
    summary = summarize([long, short])
    assert summary.length == 4
    assert summary.n_padded == 1
    # short trace carries its last regret (0.9) forward
    assert summary.mean_regret[3] == pytest.approx((0.5 + 0.9) / 2)


def test_summary_step_time_averages_the_runs_that_reached_each_step():
    short = make_trace([0.5, -0.1], times=[1.0] * 2)
    long = make_trace([0.5, 0.0, -0.5, -0.5], times=[1.0] * 4)
    summary = summarize([short, long])
    assert summary.mean_step_time_s.tolist() == [1.0] * 4
    assert summary.mean_algorithm_time_per_step == 1.0


def test_summary_rejects_empty_input():
    with pytest.raises(ValueError):
        summarize([])


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    traces = [make_trace(rng.uniform(-1, 1, size=7), seed=s) for s in range(3)]
    summary = summarize(traces)
    path = tmp_path / "summary.csv"
    export_summary_csv(summary, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER == "step,mean_regret,stderr,mean_step_time_s"
    rows = [line.split(",") for line in text[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 8))
    for k, column in enumerate((summary.mean_regret, summary.stderr,
                                summary.mean_step_time_s), start=1):
        assert [float(row[k]) for row in rows] == column.tolist()


def test_json_export_includes_config_echo(tmp_path):
    traces = [make_trace([0.2, -0.2], seed=5)]
    path = tmp_path / "out.json"
    export_json(path, {"problem": "toy", "budget": 2}, traces, summarize(traces))
    doc = json.loads(path.read_text())
    assert doc["config"] == {"problem": "toy", "budget": 2}
    assert doc["traces"][0]["seed"] == 5
    assert doc["traces"][0]["queries"] == ["000", "000"]
    assert doc["traces"][0]["regret"] == [1.2, 0.8]
    assert doc["summary"]["n_runs"] == 1
    # json floats round-trip exactly through repr
    assert doc["traces"][0]["scaled_values"] == [0.2, -0.2]
