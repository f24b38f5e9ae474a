import time
from dataclasses import replace

import numpy as np
import pytest

from comex import harness
from comex.benchmarks import Known, Oracle
from comex.domain import Unconstrained
from comex.harness import (
    ComexStrategy,
    ExperimentConfig,
    build_problem,
    read_config_file,
    run_experiment,
    run_single,
)
from comex.results import summarize
from comex.surrogate import MonomialSurrogate


def tiny_config(**kwargs):
    defaults = dict(problem="nqueens", algorithm="comex", budget=5, seeds=(0,),
                    m=2, problem_params={"n": 4})
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(budget=0)
    with pytest.raises(ValueError):
        tiny_config(seeds=())
    with pytest.raises(ValueError):
        tiny_config(m=0)
    nan = float("nan")
    for field, value in [("algorithm", "xyz"), ("seeds", (0, -3)), ("instance_seed", -1),
                         ("wall_clock_mode", "cpu"), ("sparsity", nan), ("sparsity", 0.0),
                         ("omega", nan), ("omega", float("inf")), ("eta", nan), ("eta", -0.1),
                         ("inner_iters", -3), ("inner_iters", 0), ("acq_chains", -3),
                         ("acq_chains", 0), ("wall_clock_budget", nan),
                         ("wall_clock_budget", -1.0), ("problem", "xyz"),
                         ("budget", 2.5), ("budget", True), ("m", 2.5), ("m", True),
                         ("inner_iters", 2.5), ("inner_iters", True),
                         ("acq_chains", 1.5), ("acq_chains", True), ("seeds", (1.7,)),
                         ("seeds", (0, True)), ("instance_seed", 1.5),
                         ("instance_seed", True)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            tiny_config(**{field: value})
    with pytest.raises(TypeError):
        tiny_config(warm_start=True)


def test_inner_iteration_default_scales_with_dimension():
    cfg = tiny_config()
    assert cfg.resolved_inner_iters(16) == 320
    assert tiny_config(inner_iters=7).resolved_inner_iters(16) == 7


def test_budget_one_trace():
    trace = run_single(tiny_config(budget=1), seed=0)
    assert len(trace) == 1
    assert trace.algorithm == "comex"


def test_oracle_call_accounting():
    _, oracle = build_problem(tiny_config())
    calls = []
    counting = Oracle(oracle.name, oracle.constraint, lambda x: calls.append(x) or oracle.raw(x),
                      oracle.bounds, oracle.noise_sigma)
    [trace] = run_experiment(tiny_config(budget=9, seeds=(1,)), counting)
    assert len(calls) == len(trace) == 9


def test_two_point_domain_always_solved():
    # f(x) = x_0 on d=1: every seed must find the minimizing point quickly
    oracle = Oracle("coordinate", Unconstrained(1), lambda x: float(x[0]),
                    Known(-1.0, 1.0))
    for trace in run_experiment(tiny_config(budget=30, m=1, seeds=tuple(range(10))), oracle):
        assert trace.best_scaled[-1] == -1.0
        assert trace.final_regret == 0.0


def test_instance_shared_across_seeds_and_algorithms():
    cfg_a = tiny_config(problem="contamination", algorithm="comex", budget=2,
                        problem_params={"d": 8})
    cfg_b = tiny_config(problem="contamination", algorithm="rs", budget=2,
                        problem_params={"d": 8})
    prob_a, _ = build_problem(cfg_a)
    prob_b, _ = build_problem(cfg_b)
    assert np.array_equal(prob_a.rates_a, prob_b.rates_a)
    prob_c, _ = build_problem(tiny_config(problem="contamination",
                                          instance_seed=9,
                                          problem_params={"d": 8}))
    assert not np.array_equal(prob_a.rates_a, prob_c.rates_a)


def test_determinism_bit_exact_reruns():
    # includes the noisy oracle: noise comes from the seeded stream
    for algo in ("comex", "rs", "sa"):
        cfg = tiny_config(algorithm=algo, budget=12)
        a = run_single(cfg, seed=3)
        b = run_single(cfg, seed=3)
        assert np.array_equal(a.raw_values, b.raw_values)
        assert np.array_equal(a.scaled_values, b.scaled_values)
        assert np.array_equal(a.regret, b.regret)
        assert all(np.array_equal(qa, qb) for qa, qb in zip(a.queries, b.queries))


def test_seeds_produce_different_runs():
    cfg = tiny_config(budget=10)
    a = run_single(cfg, seed=0)
    b = run_single(cfg, seed=1)
    assert not np.array_equal(a.scaled_values, b.scaled_values)


def test_wall_clock_truncation():
    cfg = tiny_config(problem="contamination", budget=5000,
                      problem_params={"d": 10}, wall_clock_budget=0.3)
    start = time.perf_counter()
    trace = run_single(cfg, seed=0)
    assert trace.truncated
    assert len(trace) < 5000
    assert time.perf_counter() - start < 5.0
    summary = summarize([trace, run_single(tiny_config(problem="contamination",
                                                       budget=len(trace) + 5,
                                                       problem_params={"d": 10}),
                                           seed=0)])
    assert summary.n_padded == 1


def test_oracle_failure_preserves_partial_trace():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 3:
            raise RuntimeError("black box fell over")
        return float(np.sum(x))

    oracle = Oracle("flaky", Unconstrained(6), flaky, Known(-6.0, 6.0))
    [trace] = run_experiment(tiny_config(budget=10), oracle)
    assert trace.aborted
    assert len(trace) == 3
    assert "black box fell over" in trace.error


def test_run_experiment_orders_traces_by_seed():
    cfg = tiny_config(budget=3, seeds=(4, 1, 7))
    traces = run_experiment(cfg)
    assert [t.seed for t in traces] == [4, 1, 7]


def test_worker_fanout_matches_sequential(monkeypatch):
    cfg = tiny_config(budget=4, seeds=(0, 1, 2))
    sequential = run_experiment(cfg)
    monkeypatch.setenv("COMEX_THREADS", "3")
    parallel = run_experiment(cfg)
    for a, b in zip(sequential, parallel):
        assert np.array_equal(a.scaled_values, b.scaled_values)


def test_worker_fanout_pickles_the_oracle_once_per_worker(monkeypatch):
    cfg = tiny_config(algorithm="rs", budget=3, seeds=tuple(range(6)))
    sequential = run_experiment(cfg)
    pickled = []

    def counting_reduce_ex(self, protocol):
        pickled.append(self.name)
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(Oracle, "__reduce_ex__", counting_reduce_ex, raising=False)
    monkeypatch.setenv("COMEX_THREADS", "2")
    parallel = run_experiment(cfg)
    assert 1 <= len(pickled) <= 2
    assert [t.seed for t in parallel] == list(cfg.seeds)
    for a, b in zip(sequential, parallel):
        assert [q.tobytes() for q in a.queries] == [q.tobytes() for q in b.queries]
        assert np.array_equal(a.scaled_values, b.scaled_values)


def test_unknown_problem_and_algorithm_rejected():
    with pytest.raises(ValueError):
        build_problem(tiny_config(problem="sudoku"))
    with pytest.raises(ValueError):
        run_single(tiny_config(algorithm="genetic"), seed=0)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "problem = nqueens\n"
        "budget = 42   # trailing comment\n"
        "inner-iters = 11\n"
        "\n"
    )
    values = read_config_file(path)
    assert values == {"problem": "nqueens", "budget": "42", "inner_iters": "11"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("justakey\n")
    with pytest.raises(ValueError):
        read_config_file(bad)
    bad.write_text("budget = 4\nbudget = 5\n")
    with pytest.raises(ValueError, match=r"bad.cfg:2: 'budget' is set twice"):
        read_config_file(bad)


def test_config_to_dict_roundtrips_seeds():
    cfg = tiny_config(seeds=(0, 1, 2))
    doc = cfg.to_dict()
    assert doc["seeds"] == [0, 1, 2]
    assert doc["problem"] == "nqueens"


def test_instance_file_loading(tmp_path):
    from comex.benchmarks import contamination_make, save_instance

    prob = contamination_make(np.random.default_rng(5), d=6)
    path = tmp_path / "inst.json"
    save_instance(prob, path)
    cfg = tiny_config(problem="contamination", algorithm="rs", budget=3,
                      instance_file=str(path), problem_params={})
    loaded, oracle = build_problem(cfg)
    assert np.array_equal(loaded.rates_a, prob.rates_a)
    trace = run_single(cfg, seed=0)
    assert len(trace) == 3


def test_comex_runs_share_one_basis(monkeypatch):
    bases = []

    class Recording(MonomialSurrogate):
        def __init__(self, basis, *args, **kwargs):
            bases.append(basis)
            super().__init__(basis, *args, **kwargs)

    monkeypatch.setattr(harness, "MonomialSurrogate", Recording)
    monkeypatch.delenv("COMEX_THREADS", raising=False)
    run_experiment(tiny_config(seeds=(0, 1), budget=2))
    run_single(tiny_config(budget=2), seed=2)
    assert len(bases) == 3 and bases[0] is bases[1] is bases[2]


def test_dedup_reanneals_a_repeat_once_from_a_fresh_point():
    # on a 3-bit cube the persistent walk revisits old queries often
    strategy = ComexStrategy(Unconstrained(3), tiny_config(dedup=True, m=1, inner_iters=2),
                             np.random.default_rng(0))
    calls, propose = [], strategy.propose

    def recording(**kwargs):
        calls.append((kwargs, propose(**kwargs)))
        return calls[-1][1]

    strategy.propose = recording
    obs_rng = np.random.default_rng(1)
    repeats = 0
    for step in range(40):
        calls.clear()
        chain, seen = strategy.chain, set(strategy.seen)
        x = strategy.ask(step)
        (first_kwargs, first), *again = calls
        assert first_kwargs["x_init"] is chain and first_kwargs["step"] == step
        if first.tobytes() in seen:
            repeats += 1
            # one more walk, with no x_init: it starts from a uniform point
            assert [kwargs for kwargs, _ in again] == [{"step": step}]
            assert x is again[0][1]
        else:
            assert again == [] and x is first
        strategy.tell(x, float(obs_rng.uniform(-1.0, 1.0)))
    assert repeats >= 5


def test_only_dedup_records_the_queries_seen():
    for dedup in (False, True):
        strategy = ComexStrategy(Unconstrained(3), tiny_config(dedup=dedup, m=1, inner_iters=2),
                                 np.random.default_rng(0))
        for step in range(5):
            strategy.tell(strategy.ask(step), 0.0)
        assert bool(strategy.seen) is dedup


def test_dedup_without_a_repeat_is_the_default_run():
    cfg = tiny_config(problem="contamination", budget=30, problem_params={"d": 21})
    for seed in range(3):
        default = run_single(cfg, seed)
        assert len({q.tobytes() for q in default.queries}) == len(default)
        dedup = run_single(replace(cfg, dedup=True), seed)
        assert all(np.array_equal(a, b) for a, b in zip(default.queries, dedup.queries))
        assert np.array_equal(default.raw_values, dedup.raw_values)
        assert np.array_equal(default.regret, dedup.regret)
