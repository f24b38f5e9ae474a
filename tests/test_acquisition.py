import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from comex import walk_kernel
from comex.acquisition import AnnealSchedule, LocalField, propose_query
from comex.audits import exponential_acquisition_audit, exponential_pmf, pmf_kl
from comex.basis import MonomialBasis
from comex.domain import (
    SumConstrained,
    Unconstrained,
    apply_flips,
    contains,
    enumerate_points,
    sample_uniform,
)
from comex.surrogate import MonomialSurrogate


# -- schedule -----------------------------------------------------------------


def test_schedule_values():
    sched = AnnealSchedule(1.0, 10)
    assert sched(0) == 1.0
    assert sched(10) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert all(sched(t + 1) < sched(t) for t in range(50))


def test_schedule_rejects_nonpositive_omega():
    for omega in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            AnnealSchedule(omega, 5)


# -- the local-field acquisition walk -----------------------------------------


def walk_case(d, m, constrained, seed):
    """A surrogate fitted to a few random values, a constraint set and a
    temperature, all from one seed."""
    rng = np.random.default_rng(seed)
    model = MonomialSurrogate(MonomialBasis(d, m), 1.0, learning_rate=0.3)
    for _ in range(int(rng.integers(1, 12))):
        model.update(sample_uniform(Unconstrained(d), rng), rng.uniform(-1.0, 1.0))
    constraint = SumConstrained(d, int(rng.integers(1, d))) if constrained else Unconstrained(d)
    return rng, model, constraint, float(rng.uniform(0.01, 1.0))


def literal_walk(model, constraint, temperature, n_iters, x, rng):
    """Reference walk: the batched draws of LocalField.walk, every candidate
    scored with model.predict and accepted by the textbook Metropolis rule."""
    x = np.array(x, dtype=np.float64)
    if isinstance(constraint, SumConstrained):
        plus = list(np.flatnonzero(x == 1.0))
        minus = list(np.flatnonzero(x == -1.0))
        take_plus = rng.integers(len(plus), size=n_iters)
        take_minus = rng.integers(len(minus), size=n_iters)
    else:
        flips = rng.integers(constraint.d, size=n_iters)
    uniforms = rng.random(n_iters)
    fx = model.predict(x)
    for t in range(n_iters):
        if isinstance(constraint, SumConstrained):
            a, b = take_plus[t], take_minus[t]
            move = (plus[a], minus[b])
        else:
            move = (flips[t],)
        y = apply_flips(x, move)
        cand = model.predict(y)
        if cand <= fx or 1.0 - uniforms[t] <= math.exp(-(cand - fx) / temperature):
            x, fx = y, cand
            if isinstance(constraint, SumConstrained):
                plus[a], minus[b] = minus[b], plus[a]
    return x


walk_cases = (st.integers(3, 9), st.sampled_from([1, 2, 3]), st.booleans(),
              st.integers(0, 2**32 - 1))


@given(*walk_cases)
@settings(max_examples=80, deadline=None)
def test_walked_field_equals_a_fresh_field_at_its_point(d, m, constrained, seed):
    rng, model, constraint, temperature = walk_case(d, m, constrained, seed)
    field = LocalField(model, sample_uniform(constraint, rng))
    for _ in range(3):
        field.walk(constraint, temperature, int(rng.integers(1, 60)), rng)
        assert contains(constraint, field.x)
        fresh = LocalField(model, field.x)
        for name in ("_h", "_g", "_c"):
            assert np.abs(getattr(field, name) - getattr(fresh, name)).max(initial=0.0) <= 1e-12


# The walk-path fixtures patch the loader once per test, not per example.
WITH_FIXTURE = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(*walk_cases, st.integers(1, 3))
@settings(max_examples=80, **WITH_FIXTURE)
def test_walk_matches_literal_reference(native_walk, d, m, constrained, seed, n_chains):
    check_walk_matches_literal_reference(d, m, constrained, seed, n_chains)


@given(*walk_cases, st.integers(1, 3))
@settings(max_examples=80, **WITH_FIXTURE)
def test_walk_matches_literal_reference_on_the_python_walk(python_walk, d, m, constrained,
                                                           seed, n_chains):
    check_walk_matches_literal_reference(d, m, constrained, seed, n_chains)


def check_walk_matches_literal_reference(d, m, constrained, seed, n_chains):
    rng, model, constraint, temperature = walk_case(d, m, constrained, seed)
    x0 = sample_uniform(constraint, rng)
    n_iters = 15 * d
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = LocalField(model, x0).walk(constraint, temperature, n_iters, fast_rng)
    slow = literal_walk(model, constraint, temperature, n_iters, x0, slow_rng)
    assert np.array_equal(fast, slow)
    assert fast_rng.random() == slow_rng.random()   # the same draws consumed

    # propose_query: fresh chains start from uniform points, the lowest wins
    schedule = AnnealSchedule(0.5, d)
    fast = propose_query(model, constraint, schedule, n_iters, np.random.default_rng(seed),
                         step=3, x_init=x0, n_chains=n_chains)
    chains_rng = np.random.default_rng(seed)
    finals = [literal_walk(model, constraint, schedule(3), n_iters,
                           x0 if chain == 0 else sample_uniform(constraint, chains_rng),
                           chains_rng)
              for chain in range(n_chains)]
    assert np.array_equal(fast, min(finals, key=model.predict))


def walk_state(field, rng):
    """Everything a walk leaves behind, as bytes and ints."""
    lists = () if field.plus is None else (field.plus.tobytes(), field.minus.tobytes())
    return (field.x.tobytes(), field._h.tobytes(), field._g.tobytes(), field._c.tobytes(),
            *lists, field.accepted, str(rng.bit_generator.state))


@given(*walk_cases)
@settings(max_examples=120, **WITH_FIXTURE)
def test_native_walk_matches_python_walk(native_walk, monkeypatch, d, m, constrained, seed):
    rng, model, constraint, temperature = walk_case(d, m, constrained, seed)
    x0 = sample_uniform(constraint, rng)
    walks = [(temperature * scale, int(rng.integers(1, 40 * d)))
             for scale in (1.0, 1e-3, 10.0, 1e-6)]
    states = []
    for library in (native_walk, None):
        monkeypatch.setattr(walk_kernel, "load", lambda library=library: library)
        field, walk_rng = LocalField(model, x0), np.random.default_rng(seed)
        for walk_temperature, n_iters in walks:
            field.walk(constraint, walk_temperature, n_iters, walk_rng)
        states.append(walk_state(field, walk_rng))
    assert states[0] == states[1]


def test_walk_counts_accepted_proposals():
    model = MonomialSurrogate(MonomialBasis(6, 2))     # constant: every proposal accepted
    field = LocalField(model, np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0]))
    field.walk(SumConstrained(6, 2), 1.0, 25, np.random.default_rng(0))
    assert field.accepted == 25
    field.walk(SumConstrained(6, 2), 1.0, 0, np.random.default_rng(0))
    assert field.accepted == 0


def test_one_chain_proposal_calls_no_features(monkeypatch):
    rng, model, constraint, _ = walk_case(8, 2, True, 5)
    calls = []
    features = MonomialBasis.features
    monkeypatch.setattr(MonomialBasis, "features",
                        lambda self, x: calls.append(x) or features(self, x))
    schedule = AnnealSchedule(0.5, 8)
    propose_query(model, constraint, schedule, 40, rng, step=2, n_chains=1)
    assert calls == []
    propose_query(model, constraint, schedule, 40, rng, step=2, n_chains=2)
    assert len(calls) == 2      # several chains are compared by prediction


def test_walk_rejects_a_point_outside_the_constraint():
    model = MonomialSurrogate(MonomialBasis(4, 2))
    field = LocalField(model, np.array([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        field.walk(SumConstrained(4, 2), 1.0, 5, np.random.default_rng(0))


def test_propose_query_rejects_fewer_than_one_chain():
    model = MonomialSurrogate(MonomialBasis(4, 2))
    for n_chains in (0, -3):
        with pytest.raises(ValueError, match=f"n_chains must be at least 1, got {n_chains}"):
            propose_query(model, Unconstrained(4), AnnealSchedule(0.5, 4), 10,
                          np.random.default_rng(0), n_chains=n_chains)


def test_propose_query_deterministic_and_feasible():
    rng = np.random.default_rng(6)
    basis = MonomialBasis(6, 2)
    model = MonomialSurrogate(basis)
    c = SumConstrained(6, 2)
    sched = AnnealSchedule(1.0, 6)
    x1 = propose_query(model, c, sched, 40, np.random.default_rng(7), step=3)
    x2 = propose_query(model, c, sched, 40, np.random.default_rng(7), step=3)
    assert np.array_equal(x1, x2)
    assert contains(c, x1)
    # multi-chain result is feasible and deterministic too
    x3 = propose_query(model, c, sched, 40, np.random.default_rng(8), step=3, n_chains=3)
    assert contains(c, x3)


# -- exact Boltzmann pmf ------------------------------------------------------


def test_pmf_uniform_for_constant_objective():
    pmf = exponential_pmf(np.zeros(2**4), 4, temperature=1.0)
    assert np.allclose(pmf.probs, 1.0 / 16.0, atol=1e-15)
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert math.exp(pmf.log_partition) == pytest.approx(16.0, rel=1e-12)


def test_pmf_shift_invariance():
    rng = np.random.default_rng(8)
    values = rng.uniform(-1.0, 1.0, size=32)
    a = exponential_pmf(values, 5, temperature=0.7)
    b = exponential_pmf(values + 7.3, 5, temperature=0.7)
    assert np.allclose(a.probs, b.probs, atol=1e-14)


def test_pmf_two_coordinate_example():
    # enumeration order for d=2: (-1,-1), (-1,1), (1,-1), (1,1)
    values = np.array([-1.0, 0.0, 0.0, 1.0])
    pmf = exponential_pmf(values, 2, temperature=1.0)
    weights = np.array([math.e, 1.0, 1.0, 1.0 / math.e])
    assert np.allclose(pmf.probs, weights / weights.sum(), atol=1e-14)


def test_pmf_refuses_large_dimensions():
    with pytest.raises(ValueError):
        exponential_pmf(np.zeros(2**13), 13, temperature=1.0)


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
def test_pmf_rejects_a_temperature_that_is_not_positive_and_finite(temperature):
    with pytest.raises(ValueError, match="must be positive and finite"):
        exponential_pmf(np.zeros(4), 2, temperature)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), temperature=st.floats(0.05, 10.0),
       bounds=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), seed=st.integers(0, 2**32 - 1))
def test_pmf_matches_scipy_logsumexp(d, temperature, bounds, seed):
    # values uniform on [lo, hi] in [-1, 1], so near-constant objectives are drawn too
    values = np.random.default_rng(seed).uniform(min(bounds), max(bounds), size=2**d)
    pmf = exponential_pmf(values, d, temperature)
    logits = -values / temperature
    log_z = float(logsumexp(logits))
    # the absolute floor covers a log-partition that cancels to near 0
    assert pmf.log_partition == pytest.approx(log_z, rel=1e-14, abs=1e-14)
    np.testing.assert_allclose(pmf.probs, np.exp(logits - log_z), rtol=1e-14, atol=0.0)


def test_pmf_identical_objectives_have_zero_divergence():
    rng = np.random.default_rng(9)
    values = rng.uniform(-1.0, 1.0, size=64)
    p = exponential_pmf(values, 6, temperature=1.0)
    q = exponential_pmf(values.copy(), 6, temperature=1.0)
    assert pmf_kl(p.probs, q.probs) == pytest.approx(0.0, abs=1e-14)
    assert p.log_partition == q.log_partition


# -- acquisition audit --------------------------------------------------------


def test_acquisition_audit_bound_holds():
    rng = np.random.default_rng(10)
    report = exponential_acquisition_audit(6, 2, temperature=1.0, eta=0.01,
                                           n_steps=4, rng=rng)
    assert len(report.steps) == 4
    assert not report.violations
    for step in report.steps:
        assert step.expected_drop >= step.bound - 1e-10


def test_epsilon_shrinks_as_temperature_grows():
    # both pmfs flatten toward uniform, so the divergence gap shrinks
    rng = np.random.default_rng(12)
    basis = MonomialBasis(6, 2)
    alpha = rng.dirichlet(np.ones(basis.p))
    points = enumerate_points(Unconstrained(6))
    feats = np.stack([basis.features(x) for x in points])
    f_true = feats @ alpha
    model = MonomialSurrogate(basis, 1.0, learning_rate=0.05)
    for _ in range(10):
        idx = int(rng.integers(64))
        model.update(points[idx], f_true[idx])
    f_hat = feats @ model.coefficients

    def gap(T):
        p_hat = exponential_pmf(f_hat, 6, T)
        p_true = exponential_pmf(f_true, 6, T)
        return abs(pmf_kl(p_hat.probs, p_true.probs)
                   - (p_true.log_partition - p_hat.log_partition))

    assert gap(2.0) < gap(1.0)


def test_matching_surrogate_gives_zero_epsilon():
    # a model whose coefficients equal the target represents f exactly
    rng = np.random.default_rng(13)
    basis = MonomialBasis(5, 2)
    alpha = rng.dirichlet(np.ones(basis.p)) * 0.8
    model = MonomialSurrogate(basis, 1.0)
    slack = (1.0 - np.abs(alpha).sum()) / (2 * basis.p)
    model.w_plus[:] = np.clip(alpha, 0, None) + slack
    model.w_minus[:] = np.clip(-alpha, 0, None) + slack
    points = enumerate_points(Unconstrained(5))
    feats = np.stack([basis.features(x) for x in points])
    f_true = feats @ alpha
    f_hat = feats @ model.coefficients
    p_hat = exponential_pmf(f_hat, 5, 1.0)
    p_true = exponential_pmf(f_true, 5, 1.0)
    eps = abs(pmf_kl(p_hat.probs, p_true.probs)
              - (p_true.log_partition - p_hat.log_partition))
    assert eps == pytest.approx(0.0, abs=1e-12)
    assert p_hat.log_partition == pytest.approx(p_true.log_partition, abs=1e-12)
