import numpy as np
import pytest

from comex.benchmarks import (
    Known,
    Oracle,
    nqueens_make,
    nqueens_oracle,
)
from comex.domain import SumConstrained, Unconstrained, contains, from_bits
from comex.harness import ExperimentConfig, run_experiment


def total(x):
    return float(np.sum(x))


def linear_oracle(d=10, calls=None):
    """sum(x) on the d-cube; each query is appended to `calls` when given."""
    raw_fn = total if calls is None else lambda x: calls.append(x) or total(x)
    return Oracle("linear", Unconstrained(d), raw_fn, Known(-float(d), float(d)))


def run(algorithm, oracle, budget, seeds=(0,), omega=1.0):
    """Traces of `algorithm` on `oracle`, one per seed."""
    config = ExperimentConfig(algorithm=algorithm, budget=budget, seeds=seeds, omega=omega)
    return run_experiment(config, oracle)


def test_random_search_budget_one():
    [trace] = run("rs", linear_oracle(), 1)
    assert len(trace) == 1
    assert trace.best_scaled[0] == trace.scaled_values[0]


def test_random_search_consumes_exact_budget():
    calls = []
    [trace] = run("rs", linear_oracle(calls=calls), 57, seeds=(1,))
    assert len(calls) == 57
    assert len(trace) == 57


def test_random_search_best_nonincreasing():
    [trace] = run("rs", linear_oracle(), 100, seeds=(2,))
    assert np.all(np.diff(trace.best_scaled) <= 0.0)
    assert np.all(np.diff(trace.regret) <= 0.0)


def test_random_search_rejects_zero_budget():
    with pytest.raises(ValueError):
        run("rs", linear_oracle(), 0)


def test_random_search_finds_four_queens_solution():
    # |C_n| = C(16, 4) = 1820 with two solutions; budget 20*|C_n| makes a
    # miss astronomically unlikely (seeded, deterministic)
    oracle = nqueens_oracle(nqueens_make(4, noise_sigma=0.0))
    [trace] = run("rs", oracle, 20 * 1820, seeds=(3,))
    assert float(trace.raw_values.min()) == 0.0


def test_direct_annealing_budget_one():
    [trace] = run("sa", linear_oracle(), 1, seeds=(4,))
    assert len(trace) == 1


def test_direct_annealing_consumes_exact_budget():
    calls = []
    [trace] = run("sa", linear_oracle(calls=calls), 120, seeds=(5,))
    assert len(calls) == 120
    assert len(trace) == 120


def test_direct_annealing_stays_in_constraint():
    oracle = nqueens_oracle(nqueens_make(4))
    [trace] = run("sa", oracle, 80, seeds=(6,))
    c = SumConstrained(16, 4)
    for bits in trace.queries:
        assert contains(c, from_bits(bits))


def test_direct_annealing_solves_monotone_landscape():
    # linear objective: the walk should reach the optimum at budget 50*d in
    # nearly all runs
    traces = run("sa", linear_oracle(10), 500, seeds=tuple(range(100)))
    hits = sum(int(trace.raw_values.min() == -10.0) for trace in traces)
    assert hits >= 95


def test_trace_schema_matches_across_algorithms():
    oracle = linear_oracle(6)
    [rs] = run("rs", oracle, 10, seeds=(7,))
    [sa] = run("sa", oracle, 10, seeds=(7,))
    for trace in (rs, sa):
        assert len(trace.raw_values) == len(trace.scaled_values) == 10
        assert len(trace.acquisition_times) == len(trace.update_times) == 10
        assert trace.regret_axis == "scaled"
        assert trace.seed == 7
    assert rs.algorithm == "rs" and sa.algorithm == "sa"
