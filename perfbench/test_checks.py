"""Self-tests: each output check accepts a genuine run and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

The genuine runs are small real runs of the program from the checkout's
`src`, exported with `export_json` exactly as the benchmark exports them.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from checks import CHECKS, check_noise, check_reruns, check_unit, load_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import comex  # noqa: E402

CASES = {
    "contamination": dict(problem="contamination", algorithm="comex", budget=6,
                          problem_params={"d": 8}, instance_seed=3),
    "nqueens": dict(problem="nqueens", algorithm="rs", budget=20,
                    problem_params={"n": 5, "noise_sigma": 0.02}),
    "ising-rs": dict(problem="ising", algorithm="rs", budget=6,
                     problem_params={"rows": 3, "cols": 4}, instance_seed=1),
    "ising-sa": dict(problem="ising", algorithm="sa", budget=10,
                     problem_params={"rows": 3, "cols": 4}, instance_seed=1),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """case -> (exported run doc, checker built from the exported instance)."""
    out = tmp_path_factory.mktemp("runs")
    made = {}
    for case, kwargs in CASES.items():
        config = comex.ExperimentConfig(seeds=(5,), **kwargs)
        problem, _ = comex.build_problem(config)
        comex.benchmarks.save_instance(problem, out / f"{case}-instance.json")
        traces = comex.run_experiment(config)
        comex.export_json(out / f"{case}.json", config.to_dict(), traces,
                          comex.summarize(traces))
        checker = CHECKS[config.problem](load_instance(out / f"{case}-instance.json"))
        made[case] = (json.loads((out / f"{case}.json").read_text()), checker)
    return made


def failures(runs, case, corrupt=None) -> set[str]:
    doc, checker = runs[case]
    doc = copy.deepcopy(doc)
    if corrupt is not None:
        corrupt(doc["traces"][0])
    return {name for name, _ in check_unit(doc, checker, CASES[case]["budget"])}


@pytest.mark.parametrize("case", sorted(CASES))
def test_genuine_run_passes(runs, case):
    assert failures(runs, case) == set()


@pytest.mark.parametrize("case", ["contamination", "nqueens", "ising-rs"])
def test_altered_raw_value_is_rejected(runs, case):
    def corrupt(trace):
        trace["raw_values"][0] += 1e-6   # query 0 is in every recomputed sample
    assert "raw" in failures(runs, case, corrupt)


def test_board_with_an_extra_queen_is_rejected(runs):
    def corrupt(trace):
        bits = list(trace["queries"][2])
        bits[bits.index("0")] = "1"
        trace["queries"][2] = "".join(bits)
    assert "queen_count" in failures(runs, "nqueens", corrupt)


def test_altered_scaled_value_is_rejected(runs):
    def corrupt(trace):
        trace["scaled_values"][1] += 1e-6
    assert "scaled" in failures(runs, "contamination", corrupt)


def test_noise_beyond_its_level_is_rejected(runs):
    def corrupt(trace):
        trace["scaled_values"][1] += 0.5
    assert "scaled" in failures(runs, "nqueens", corrupt)


def noise_failures(runs, corrupt=None) -> set[str]:
    doc, checker = runs["nqueens"]
    doc = copy.deepcopy(doc)
    if corrupt is not None:
        corrupt(doc["traces"][0], checker)
    return {name for name, _ in check_noise([doc], checker)}


def test_genuine_noise_passes(runs):
    assert noise_failures(runs) == set()


def test_systematic_scaling_error_is_rejected(runs):
    def corrupt(trace, checker):    # every value stays within its per-value noise allowance
        trace["scaled_values"] = [s + 0.05 * (checker.scaled(r) + 1.0)
                                  for r, s in zip(trace["raw_values"], trace["scaled_values"])]
    assert "noise" in noise_failures(runs, corrupt)
    assert "scaled" not in failures(runs, "nqueens",
                                    lambda trace: corrupt(trace, runs["nqueens"][1]))


def test_missing_noise_is_rejected(runs):
    def corrupt(trace, checker):
        trace["scaled_values"] = [checker.scaled(r) for r in trace["raw_values"]]
    assert "noise" in noise_failures(runs, corrupt)


def test_sa_jump_is_rejected(runs):
    def corrupt(trace):
        bits = list(trace["queries"][-1])
        for k in range(3):
            bits[k] = "1" if bits[k] == "0" else "0"
        trace["queries"][-1] = "".join(bits)
    assert "sa_walk" in failures(runs, "ising-sa", corrupt)


def test_regret_that_increases_is_rejected(runs):
    def corrupt(trace):
        trace["regret"][-1] = trace["regret"][-2] + 0.1
    assert "regret" in failures(runs, "ising-rs", corrupt)


def test_regret_below_the_values_is_rejected(runs):
    def corrupt(trace):
        trace["regret"][-1] *= 0.5
    assert "regret" in failures(runs, "contamination", corrupt)


def test_raw_value_below_the_anchor_is_rejected(runs):
    def corrupt(trace):
        trace["raw_values"][3] = -1.0
    assert "regret" in failures(runs, "contamination", corrupt)


def test_truncated_run_is_rejected(runs):
    def corrupt(trace):
        for key in ("queries", "raw_values", "scaled_values", "best_scaled", "regret"):
            del trace[key][-1]
        trace["truncated"] = True
    assert "budget" in failures(runs, "contamination", corrupt)


def test_rerun_with_another_query_is_rejected(runs):
    doc, _ = runs["ising-rs"]
    again = copy.deepcopy(doc)
    assert check_reruns([(("rs", 5), doc), (("rs", 5), again)]) == []
    query = again["traces"][0]["queries"][4]
    again["traces"][0]["queries"][4] = ("1" if query[0] == "0" else "0") + query[1:]
    assert {name for name, _ in check_reruns([(("rs", 5), doc), (("rs", 5), again)])} \
        == {"determinism"}


def test_printed_metrics_match_benchmark_json():
    from run import END_TO_END_UNITS, per_layer
    from tracer import TARGETS
    from workloads import WORKLOADS

    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert END_TO_END_UNITS == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    span = {"calls": 2, "total_s": 0.5, "self_s": 0.25}
    spans = {name: dict(span) for name, _, _ in TARGETS}
    unit = {"traced": True, "evals": 4, "elapsed_s": 1.0, "steps_s": [0.1, 0.2, 0.3]}
    result = {"units": [unit, {**unit, "traced": False}],
              "trace": {"first_pass": spans, "total": spans, "absent": []}}
    doc = {"traces": [{"queries": ["01", "01", "10"]}]}
    layers, _ = per_layer(WORKLOADS["contam-comex"], result, [doc], [0.3])
    assert {name: unit for name, (_, unit) in layers.items()} \
        == {m["name"]: m["unit"] for m in bench["per_layer"]}


def test_missing_span_target_is_reported_absent(monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("harness.run", "comex.harness", "removed_loop"),
        ("gone.span", "comex.removed_module", "f"),
    ))
    spans = tracer.Tracer()
    spans.install()
    try:
        comex.run_experiment(comex.ExperimentConfig(problem="nqueens", algorithm="rs",
                                                    budget=3, problem_params={"n": 4}))
    finally:
        spans.uninstall()
    assert spans.absent == ["comex.harness.removed_loop", "comex.removed_module.f"]
    assert spans.stats["benchmarks.observe"].calls == 3
    assert spans.stats["gone.span"].calls == 0
    assert not hasattr(comex.harness.run_single, "__wrapped__")
    assert not hasattr(comex.benchmarks.Oracle.observe, "__wrapped__")
