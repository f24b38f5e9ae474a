"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; failures carry the measured
numbers. These are the heaviest tests in the suite (several minutes total);
run them with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from comex.audits import exponential_acquisition_audit, kl_drop_audit
from comex.basis import MonomialBasis
from comex.benchmarks import (
    ising_make,
    ising_oracle,
    nqueens_make,
    queens_solutions,
    solution_bits,
)
from comex.domain import SumConstrained, Unconstrained, sample_uniform
from comex.harness import ExperimentConfig, run_experiment, run_single
from comex.results import summarize
from comex.surrogate import MonomialSurrogate


def _report(name, detail=""):
    suffix = f" -- {detail}" if detail else ""
    print(f"\n[acceptance] {name}: PASS{suffix}")


# -- criterion 1: mass conservation ------------------------------------------


def test_criterion_1_mass_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    steps_done = 0
    while steps_done < 10_000:
        d = int(rng.integers(2, 13))
        m = int(rng.integers(1, min(3, d) + 1))
        sparsity = float(rng.choice([0.5, 1.0, 2.0]))
        eta = float(rng.uniform(0.01, 0.5))
        model = MonomialSurrogate(MonomialBasis(d, m), sparsity, learning_rate=eta)
        for _ in range(100):
            x = sample_uniform(Unconstrained(d), rng)
            model.update(x, float(rng.uniform(-1.0, 1.0)))
            assert model.w.sum() == pytest.approx(sparsity, rel=1e-9)
            steps_done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (limit 30s)"
    _report("criterion 1 (mass conservation)",
            f"{steps_done} randomized updates in {elapsed:.1f}s")


# -- criterion 2: per-step KL-drop inequality ---------------------------------


def test_criterion_2_kl_drop_inequality():
    """Faithful audit of the claimed per-step bound
    drop >= 2*eta*sparsity*(prediction error)^2 - eta^2, at eta = 0.01,
    sparsity 1, on exactly representable targets.

    As stated, the bound's -eta^2 slack presumes per-expert losses bounded
    by 1, but the losses here are 2*sparsity*|error| with |error| up to
    1 + sparsity; whenever 2*(error)^2 > 1 (|error| > ~0.707) the true KL
    drop falls short of the claim by up to ~eta^2, which exceeds the 1e-10
    float slack by six orders of magnitude. Points with error that large are
    unavoidable (the target value at the all-plus-ones point is exactly 1
    while a fresh surrogate predicts 0), so this criterion fails for any
    honest audit; the failure is a property of the claimed constant, not of
    the update implementation (see tests/test_surrogate.py for the provable
    regime, which always holds).
    """
    start = time.perf_counter()
    violations = []
    total_steps = 0
    for k in range(50):
        rng = np.random.default_rng(2000 + k)
        d = int(rng.integers(4, 9))
        m = int(rng.integers(1, 3))
        report = kl_drop_audit(d, m, eta=0.01, n_steps=200, rng=rng)
        total_steps += len(report.steps)
        violations.extend((k, s) for s in report.violations)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s (limit 120s)"
    worst = max((s.bound - s.drop for _, s in violations), default=0.0)
    smallest_loss = min((abs(s.loss) for _, s in violations), default=math.inf)
    assert not violations, (
        f"criterion 2: {len(violations)}/{total_steps} steps violate the "
        f"stated bound (worst deficit {worst:.3e}; every violating step has "
        f"|prediction error| >= {smallest_loss:.3f}, consistent with the "
        f"bound being valid only for 2*error^2 <= 1)"
    )
    _report("criterion 2 (KL-drop inequality)",
            f"{total_steps} steps in {elapsed:.1f}s")


# -- criterion 3: acquisition guarantee ---------------------------------------


def test_criterion_3_acquisition_bound():
    start = time.perf_counter()
    checked = 0
    for k in range(20):
        for temperature in (0.5, 1.0, 2.0):
            rng = np.random.default_rng(3000 + k)
            report = exponential_acquisition_audit(
                6, 2, temperature=temperature, eta=0.01, n_steps=5, rng=rng,
            )
            for step in report.steps:
                checked += 1
                assert step.expected_drop >= step.bound - 1e-10, (
                    f"instance {k}, T={temperature}, step {step.step}: "
                    f"E[drop]={step.expected_drop} < bound={step.bound}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s (limit 60s)"
    _report("criterion 3 (acquisition bound)",
            f"{checked} enumerated steps in {elapsed:.1f}s")


# -- criterion 4: brute-force oracle equivalence ------------------------------


def _direct_divergence_values(prob):
    """Definition-level objective for every edge subset (independent route,
    over all 2^n states built from the edge list)."""
    n = prob.n_nodes
    codes = np.arange(2**n)
    states = 2 * ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1) - 1
    spins = np.stack([states[:, u] * states[:, v] for u, v in prob.edges],
                     axis=1).astype(np.float64)
    energy_p = spins @ (2.0 * prob.coupling)
    log_p = energy_p - logsumexp(energy_p)
    p_probs = np.exp(log_p)
    values = np.empty(2**prob.d)
    for code in range(2**prob.d):
        bits = np.array([(code >> (prob.d - 1 - e)) & 1 for e in range(prob.d)],
                        dtype=np.float64)
        energy_q = spins @ (2.0 * prob.coupling * bits)
        log_q = energy_q - logsumexp(energy_q)
        values[code] = float(p_probs @ (log_p - log_q)) + prob.lambda_reg * bits.sum()
    return values


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()

    prob = ising_make(np.random.default_rng(400), rows=3, cols=3)
    fast = prob.exhaustive_values()
    direct = _direct_divergence_values(prob)
    max_err = float(np.abs(fast - direct).max())
    assert max_err <= 1e-9, f"divergence mismatch up to {max_err:.2e} on 4096 subsets"
    # information inequality: the divergence part is nonnegative for every subset
    kept_counts = np.array([bin(code).count("1") for code in range(2**prob.d)])
    divergences = fast - prob.lambda_reg * kept_counts
    assert float(divergences.min()) >= -1e-12

    solutions_checked = 0
    for n in (4, 5, 6):
        board = nqueens_make(n, noise_sigma=0.0)
        for cols in queens_solutions(n):
            assert board.energy_bits(solution_bits(n, cols)) == 0.0
            solutions_checked += 1
    rng = np.random.default_rng(401)
    board = nqueens_make(5, noise_sigma=0.0)
    solutions = {solution_bits(5, s).tobytes() for s in queens_solutions(5)}
    non_solutions_checked = 0
    for _ in range(10_000):
        x = sample_uniform(SumConstrained(25, 5), rng)
        bits = ((x + 1) / 2).astype(np.int64)
        if bits.tobytes() in solutions:
            continue
        assert board.energy_bits(bits) > 0.0
        non_solutions_checked += 1
    assert non_solutions_checked >= 9_990

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s (limit 120s)"
    _report("criterion 4 (oracle equivalence)",
            f"4096 subsets to {max_err:.1e}; {solutions_checked} solutions exact")


# -- criterion 5: desk-scale regret comparison --------------------------------


def test_criterion_5_regret_comparison():
    start = time.perf_counter()
    seeds = tuple(range(10))

    queen_params = dict(problem="nqueens", budget=250, seeds=seeds, m=2,
                        problem_params={"n": 5})
    comex_nq = summarize(run_experiment(ExperimentConfig(algorithm="comex", **queen_params)))
    rs_nq = summarize(run_experiment(ExperimentConfig(algorithm="rs", **queen_params)))
    sa_nq = summarize(run_experiment(ExperimentConfig(algorithm="sa", **queen_params)))
    assert comex_nq.final_median < rs_nq.final_median, (
        f"nqueens: comex median {comex_nq.final_median:.4f} "
        f">= rs median {rs_nq.final_median:.4f}"
    )
    assert comex_nq.final_mean <= sa_nq.final_mean + 0.05, (
        f"nqueens: comex mean {comex_nq.final_mean:.4f} "
        f"> sa mean {sa_nq.final_mean:.4f} + 0.05"
    )

    cont_params = dict(problem="contamination", budget=250, seeds=seeds, m=2)
    comex_ct = summarize(run_experiment(ExperimentConfig(algorithm="comex", **cont_params)))
    rs_ct = summarize(run_experiment(ExperimentConfig(algorithm="rs", **cont_params)))
    assert comex_ct.final_mean <= rs_ct.final_mean - 0.05, (
        f"contamination: comex mean {comex_ct.final_mean:.4f} "
        f"> rs mean {rs_ct.final_mean:.4f} - 0.05"
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0, f"criterion 5 took {elapsed:.1f}s (limit 20min)"
    _report(
        "criterion 5 (regret comparison)",
        f"queens median {comex_nq.final_median:.3f} < rs {rs_nq.final_median:.3f}, "
        f"mean {comex_nq.final_mean:.3f} vs sa {sa_nq.final_mean:.3f}; "
        f"contamination mean {comex_ct.final_mean:.3f} vs rs {rs_ct.final_mean:.3f} "
        f"({elapsed:.0f}s)",
    )


# -- criterion 6: small-instance optimum recovery -----------------------------


def test_criterion_6_small_instance_recovery():
    start = time.perf_counter()
    config = ExperimentConfig(problem="ising", algorithm="comex", budget=150,
                              seeds=tuple(range(10)), m=3, sparsity=1.0,
                              problem_params={"rows": 3, "cols": 3})
    # the oracle's envelope minimum must agree with the independent
    # definition-level route used by criterion 4
    prob = ising_make(np.random.default_rng(config.instance_seed), rows=3, cols=3)
    oracle = ising_oracle(prob)
    direct_min = float(_direct_divergence_values(prob).min())
    assert oracle.bounds.lo == pytest.approx(direct_min, abs=1e-9)

    summary = summarize(run_experiment(config))
    assert summary.final_median <= 0.1, (
        f"median final scaled regret {summary.final_median:.4f} > 0.1"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.1f}s (limit 10min)"
    _report("criterion 6 (optimum recovery)",
            f"median regret {summary.final_median:.4f} in {elapsed:.0f}s")


# -- criterion 7: per-step cost independence ----------------------------------


def test_criterion_7_step_time_independence():
    config = ExperimentConfig(problem="contamination", algorithm="comex",
                              budget=500, seeds=(0,), m=2)
    [trace] = run_experiment(config)
    times = trace.algorithm_times()
    assert len(times) == 500
    early = float(times[:100].mean())
    late = float(times[400:].mean())
    assert late <= 1.5 * early, (
        f"late/early step-time ratio {late / early:.2f} exceeds 1.5 "
        f"({early * 1e3:.2f}ms -> {late * 1e3:.2f}ms)"
    )
    mean_ms = float(times.mean()) * 1e3
    assert mean_ms < 50.0, f"mean step time {mean_ms:.1f}ms exceeds 50ms"
    _report("criterion 7 (step-time independence)",
            f"early {early * 1e3:.2f}ms, late {late * 1e3:.2f}ms, "
            f"mean {mean_ms:.2f}ms")


# -- criterion 8: determinism -------------------------------------------------


def test_criterion_8_bit_exact_determinism():
    configs = [
        ExperimentConfig(problem="nqueens", algorithm="comex", budget=25,
                         seeds=(0,), m=2, problem_params={"n": 5}),
        ExperimentConfig(problem="nqueens", algorithm="rs", budget=25,
                         seeds=(3,), problem_params={"n": 5}),
        ExperimentConfig(problem="nqueens", algorithm="sa", budget=25,
                         seeds=(7,), problem_params={"n": 5}),
        ExperimentConfig(problem="contamination", algorithm="comex", budget=20,
                         seeds=(1,), m=2, problem_params={"d": 12}),
        ExperimentConfig(problem="ising", algorithm="comex", budget=15,
                         seeds=(2,), m=2, problem_params={"rows": 3, "cols": 3}),
    ]
    for config in configs:
        a = run_single(config, config.seeds[0])
        b = run_single(config, config.seeds[0])
        assert np.array_equal(a.raw_values, b.raw_values)
        assert np.array_equal(a.scaled_values, b.scaled_values)
        assert np.array_equal(a.best_scaled, b.best_scaled)
        assert np.array_equal(a.regret, b.regret)
        assert all(np.array_equal(qa, qb) for qa, qb in zip(a.queries, b.queries))
    _report("criterion 8 (determinism)",
            f"{len(configs)} configs reproduced bit-exactly (noise included)")
