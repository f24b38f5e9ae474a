"""The shared run loop: every algorithm aborts, truncates and shares an
instance the same way."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from comex import cli, harness
from comex.benchmarks import Known, Oracle
from comex.domain import Unconstrained
from comex.harness import ExperimentConfig, run_experiment, run_single

ALGORITHMS = ("comex", "rs", "sa")


def failing_oracle(fail_at: int, mode: str) -> Oracle:
    """Linear objective on d=6 whose call number `fail_at` onwards fails,
    either by returning NaN or by raising."""
    calls = {"n": 0}

    def raw(x):
        calls["n"] += 1
        if calls["n"] >= fail_at:
            if mode == "nan":
                return float("nan")
            raise RuntimeError("black box fell over")
        return float(np.sum(x))

    return Oracle("flaky", Unconstrained(6), raw, Known(-6.0, 6.0))


def run_on(algorithm: str, oracle: Oracle, budget: int = 10):
    """One run of `algorithm` on a given oracle."""
    [trace] = run_experiment(ExperimentConfig(algorithm=algorithm, budget=budget), oracle)
    return trace


def tiny_config(**kwargs) -> ExperimentConfig:
    defaults = dict(problem="nqueens", budget=40, problem_params={"n": 4})
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("mode", ["nan", "raises"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_oracle_failure_aborts_with_partial_trace(algorithm, mode):
    trace = run_on(algorithm, failing_oracle(3, mode))
    assert trace.aborted and not trace.truncated
    assert len(trace) == 2
    assert np.all(np.isfinite(trace.regret))
    expected = "not finite" if mode == "nan" else "black box fell over"
    assert expected in trace.error
    if mode == "nan":
        assert "'flaky'" in trace.error


@pytest.mark.parametrize("mode", ["nan", "raises"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_failure_at_first_call_raises_one_clear_error(algorithm, mode):
    with pytest.raises(RuntimeError, match=f"{algorithm}: the first oracle call failed"):
        run_on(algorithm, failing_oracle(1, mode))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_oracle_rejects_a_noise_level_that_is_not_nonnegative_and_finite(sigma):
    with pytest.raises(ValueError, match="oracle 'loud': noise level must be"):
        Oracle("loud", Unconstrained(2), lambda x: 0.0, Known(-1.0, 1.0), noise_sigma=sigma)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_non_finite_observation_aborts_with_partial_trace(algorithm):
    # Finite raw values; the second noise draw overflows the observation.
    oracle = Oracle("loud", Unconstrained(6), lambda x: float(np.sum(x)), Known(-6.0, 6.0),
                    noise_sigma=1e308)
    draws = iter([0.0] + [4.0] * 9)
    noise = SimpleNamespace(standard_normal=lambda: next(draws))
    strategy = harness.ALGORITHMS[algorithm](oracle.constraint, ExperimentConfig(),
                                             np.random.default_rng(0))
    trace = harness.drive(strategy, oracle, 10, noise, name=algorithm, seed=0)
    assert trace.aborted and len(trace) == 1
    assert "oracle 'loud' observed inf, which is not finite" in trace.error


def test_observe_rejects_non_finite_values():
    oracle = Oracle("blank", Unconstrained(2), lambda x: float("inf"), Known(0.0, 1.0))
    with pytest.raises(ValueError, match="oracle 'blank' returned inf"):
        oracle.observe(np.ones(2))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_algorithm_clock_truncates_every_algorithm(algorithm):
    trace = run_single(tiny_config(algorithm=algorithm, wall_clock_budget=1e-6,
                                   wall_clock_mode="algorithm"), seed=0)
    assert trace.truncated and not trace.aborted
    assert 1 <= len(trace) < 40


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_passed_total_deadline_keeps_one_evaluation(algorithm):
    trace = run_single(tiny_config(algorithm=algorithm, wall_clock_budget=0.0), seed=0)
    assert trace.truncated
    assert len(trace) == 1


def count_builds(monkeypatch, *modules) -> list:
    """Record every build_problem call made through the given modules."""
    builds = []
    build = harness.build_problem

    def counting_build(config):
        builds.append(config)
        return build(config)

    for module in modules:
        monkeypatch.setattr(module, "build_problem", counting_build)
    return builds


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_experiment_builds_the_instance_once(monkeypatch, threads):
    builds = count_builds(monkeypatch, harness)
    monkeypatch.setenv("COMEX_THREADS", threads)
    config = ExperimentConfig(problem="ising", algorithm="comex", budget=3,
                              seeds=(0, 1, 2), problem_params={"rows": 3, "cols": 3})
    traces = run_experiment(config)
    assert len(builds) == 1
    for seed, trace in zip(config.seeds, traces):
        alone = run_single(config, seed)
        assert trace.seed == seed
        assert np.array_equal(trace.raw_values, alone.raw_values)
        assert np.array_equal(trace.scaled_values, alone.scaled_values)
        assert all(np.array_equal(a, b) for a, b in zip(trace.queries, alone.queries))


@pytest.mark.parametrize("value", ["abc", "-4", "0", ""])
def test_comex_threads_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("COMEX_THREADS", value)
    with pytest.raises(ValueError, match=f"COMEX_THREADS must be a positive integer, got {value!r}"):
        run_experiment(tiny_config(budget=2, seeds=(0, 1)))


def test_save_instance_builds_the_instance_once(monkeypatch, tmp_path):
    builds = count_builds(monkeypatch, harness, cli)
    path = tmp_path / "instance.json"
    code = cli.main(["run", "--problem", "ising", "--rows", "3", "--cols", "3",
                     "--algo", "rs", "--budget", "2", "--seeds", "0..2",
                     "--save-instance", str(path)])
    assert code == 0
    assert len(builds) == 1
    assert path.exists()
