"""Differential tests of the three benchmark oracles against test-local
copies of their straightforward loops.

The contamination and n-queens oracles must agree bit for bit, the
contamination stage loop on the native kernel and on its numpy twin; the
Ising oracle eliminates the nodes of two half graphs with its own
log-sum-exps, so it must agree within 1e-12 relative (to log Z where a KL is
the difference of two log partition values).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from comex.benchmarks import (
    ContaminationProblem,
    IsingProblem,
    NQueensProblem,
    grid_edges,
    ising_make,
)
from comex import walk_kernel
from comex.benchmarks.ising import COUPLING_RANGE, EXHAUSTIVE_EDGE_LIMIT

REL_TOL = 1e-12


def bit_vectors(d: int, drawn: list[int]) -> list[np.ndarray]:
    """The drawn bits plus the all-0 and all-1 vectors."""
    return [np.array(drawn, dtype=np.int64), np.zeros(d, dtype=np.int64),
            np.ones(d, dtype=np.int64)]


# -- contamination ------------------------------------------------------------


def reference_paths(prob: ContaminationProblem, bits) -> list[np.ndarray]:
    """Every path's contamination after each stage."""
    x = np.asarray(bits, dtype=np.float64)
    z, stages = prob.init_z, []
    for i in range(prob.d):
        z = prob.rates_a[i] * (1.0 - x[i]) * (1.0 - z) + (1.0 - prob.rates_b[i] * x[i]) * z
        stages.append(z)
    return stages


def reference_contamination(prob: ContaminationProblem, bits: np.ndarray) -> float:
    x = np.asarray(bits, dtype=np.float64)
    violation = 0.0
    for z in reference_paths(prob, bits):
        violation += float((z > prob.u).mean())
    return float(prob.costs @ x) + prob.rho * violation + prob.lambda_reg * float(x.sum())


unit = st.floats(0.0, 1.0)


@st.composite
def contamination_cases(draw, max_d=12, max_paths=20):
    """An instance and drawn bits; half the time the limit u is one path's
    exact contamination after one stage for those bits, where `z > u` and
    `z >= u` differ."""
    d = draw(st.integers(1, max_d))
    n_paths = draw(st.integers(1, max_paths))
    costs = draw(hnp.arrays(np.float64, d, elements=st.floats(0.0, 10.0)))
    rho, lambda_reg = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 1.0))
    assume(costs.any() or rho or lambda_reg)        # else the objective is identically 0
    prob = ContaminationProblem(
        d=d, u=draw(unit), costs=costs, rho=rho, lambda_reg=lambda_reg,
        init_z=draw(hnp.arrays(np.float64, n_paths, elements=unit)),
        rates_a=draw(hnp.arrays(np.float64, (d, n_paths), elements=unit)),
        rates_b=draw(hnp.arrays(np.float64, (d, n_paths), elements=unit)),
    )
    bits = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    if draw(st.booleans()):
        stage = reference_paths(prob, bits)[draw(st.integers(0, d - 1))]
        prob.u = float(stage[draw(st.integers(0, n_paths - 1))])
    return prob, bits


@given(contamination_cases())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_contamination_matches_reference_loop_bit_for_bit(walk_path, case):
    prob, drawn = case
    for bits in bit_vectors(prob.d, drawn):
        assert prob.evaluate_bits(bits) == reference_contamination(prob, bits)


@given(contamination_cases(max_d=64, max_paths=200))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_native_stage_loop_equals_its_numpy_twin(native_walk, case):
    prob, drawn = case
    bound = walk_kernel.Contamination(prob)
    for bits in bit_vectors(prob.d, drawn):
        bound.x[:] = bits
        assert walk_kernel.contamination_violation(bound) == \
            walk_kernel._contamination_violation(bound)
        native = prob.evaluate_bits(bits)
        with mock.patch.object(walk_kernel, "load", lambda: None):
            assert prob.evaluate_bits(bits) == native


# -- n-queens -----------------------------------------------------------------


def reference_energy(n: int, bits: np.ndarray) -> float:
    board = np.asarray(bits, dtype=np.float64).reshape(n, n)
    e_rows = float(((board.sum(axis=1) - 1.0) ** 2).sum())
    e_cols = float(((board.sum(axis=0) - 1.0) ** 2).sum())
    diagonals = [[r * n + (r - offset) for r in range(n) if 0 <= r - offset < n]
                 for offset in range(-(n - 1), n)]
    diagonals += [[r * n + (total - r) for r in range(n) if 0 <= total - r < n]
                  for total in range(2 * n - 1)]
    flat = board.reshape(-1)
    e_diags = 0.0
    for cells in diagonals:
        if len(cells) >= 2:
            c = float(flat[cells].sum())
            e_diags += c * (c - 1.0) / 2.0
    return e_rows + e_cols + e_diags


@given(st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 1), min_size=n * n,
                                             max_size=n * n))))
@settings(max_examples=150, deadline=None)
def test_nqueens_matches_reference_loop_bit_for_bit(case):
    n, drawn = case
    prob = NQueensProblem(n)
    for bits in bit_vectors(n * n, drawn):
        assert prob.energy_bits(bits) == reference_energy(n, bits)


# -- Ising pruning ------------------------------------------------------------


class ReferenceIsing:
    """Every one of the 2^n states, scipy's log-sum-exp."""

    def __init__(self, prob: IsingProblem):
        n = prob.n_nodes
        codes = np.arange(2**n)
        states = 2 * ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1) - 1
        self.prob = prob
        self.spins = np.stack([states[:, u] * states[:, v] for u, v in prob.edges],
                              axis=1).astype(np.int8)
        energy = self.spins @ (2.0 * prob.coupling)
        self.log_z_p = float(logsumexp(energy))
        self.pair_expect = np.exp(energy - self.log_z_p) @ self.spins

    def evaluate_bits(self, bits) -> float:
        prob, kept = self.prob, np.asarray(bits, dtype=np.float64)
        log_z_q = float(logsumexp(self.spins @ (2.0 * prob.coupling * kept)))
        kl = float((2.0 * prob.coupling * (1.0 - kept)) @ self.pair_expect) \
            + log_z_q - self.log_z_p
        return kl + prob.lambda_reg * float(kept.sum())

    def exhaustive_values(self) -> np.ndarray:
        """Every mask, 256 at a time: at most (2^n, 256) energies at once."""
        prob, d = self.prob, self.prob.d
        codes = np.arange(2**d)
        masks = ((codes[:, None] >> np.arange(d - 1, -1, -1)) & 1).astype(np.float64)
        log_z_q = np.concatenate([
            logsumexp(self.spins @ (2.0 * prob.coupling * block).T, axis=0)
            for block in np.split(masks, range(256, 2**d, 256))])
        kl = (1.0 - masks) @ (2.0 * prob.coupling * self.pair_expect) \
            + log_z_q - self.log_z_p
        return kl + prob.lambda_reg * masks.sum(axis=1)


def assert_close(actual, expected, scale=0.0):
    """Within REL_TOL relative to the larger of |expected| and `scale`; a
    reference value of exactly 0 (the pair expectations of zero couplings)
    allows 1e-15 absolute.

    A KL is the difference of two log partition values, so its rounding
    error is relative to log Z, not to the KL itself: removing one edge of
    a 2x2 grid with couplings 3 gives a KL of 1.8e-5 next to log Z = 25,
    and the two summation orders differ there by 2e-14.
    """
    np.testing.assert_allclose(actual, expected, rtol=REL_TOL,
                               atol=max(1e-15, REL_TOL * scale))


# Grids in both node orders (2x5 and 3x4 are column-major, the rest
# row-major) and non-grid graphs on 6 nodes, whose halves are {0, 1, 2} and
# {3, 4, 5}: a triangle, a chord and a pendant; cross edges at node 0; no
# cross edge; only cross edges.
TOPOLOGIES = [(2, 2, grid_edges(2, 2)), (2, 3, grid_edges(2, 3)), (3, 3, grid_edges(3, 3)),
              (2, 5, grid_edges(2, 5)), (3, 4, grid_edges(3, 4)), (4, 3, grid_edges(4, 3)),
              (1, 6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 4), (4, 5)]),
              (1, 6, [(0, 1), (1, 2), (0, 3), (0, 5), (2, 4), (3, 4), (4, 5)]),
              (1, 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]),
              (1, 6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])]


@st.composite
def ising_cases(draw):
    rows, cols, edges = draw(st.sampled_from(TOPOLOGIES))
    d = len(edges)
    if draw(st.booleans()):
        coupling = np.full(d, 1e-300)     # the zero-coupling limit; zero itself is refused
    else:
        coupling = draw(hnp.arrays(np.float64, d, elements=st.floats(*COUPLING_RANGE)))
    prob = IsingProblem(rows=rows, cols=cols, edges=edges, coupling=coupling,
                        lambda_reg=draw(st.floats(0.0, 0.1)))
    return prob, draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))


@given(ising_cases())
@settings(max_examples=60, deadline=None)
def test_ising_matches_full_enumeration(case):
    prob, drawn = case
    reference = ReferenceIsing(prob)
    assert_close(prob.log_z_p, reference.log_z_p)
    assert_close(prob._pair_expect, reference.pair_expect)
    log_z = reference.log_z_p
    for bits in bit_vectors(prob.d, drawn):
        assert_close(prob.evaluate_bits(bits), reference.evaluate_bits(bits), log_z)
    if prob.d <= EXHAUSTIVE_EDGE_LIMIT:
        assert_close(prob.exhaustive_values(), reference.exhaustive_values(), log_z)


def test_ising_evaluation_does_not_copy_its_table():
    # a quarter of the (2^15, 24) float64 table that 4x4 evaluations once read
    prob = ising_make(np.random.default_rng(0), rows=4, cols=4)
    bits = np.ones(prob.d, dtype=np.int64)
    prob.evaluate_bits(bits)
    tracemalloc.start()
    try:
        prob.evaluate_bits(bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 3), (3, 3), (2, 5)])
def test_blocked_exhaustive_values_equal_the_unblocked_ones(rows, cols):
    prob = ising_make(np.random.default_rng(rows * cols), rows=rows, cols=cols)
    codes = np.arange(2**prob.d)
    masks = ((codes[:, None] >> np.arange(prob.d - 1, -1, -1)) & 1).astype(np.float64)
    values = prob.exhaustive_values()
    assert np.array_equal(values, prob._objective(masks))     # one call over every mask
    assert np.array_equal(values, [prob.evaluate_bits(mask) for mask in masks])


@pytest.mark.parametrize("rows, cols", [(r, c) for r in range(1, 21) for c in range(1, 21)
                                        if 8 <= r * c <= 20])
def test_ising_tables_hold_at_most_three_eighths_of_the_states(rows, cols):
    prob = ising_make(np.random.default_rng(0), rows=rows, cols=cols)
    states = sum(signs.shape[1] for _, signs, _ in prob._tables)
    assert states <= 3 / 8 * 2 ** (rows * cols - 1)


def test_exhaustive_values_memory_is_bounded():
    # unblocked, a 2x5 grid holds two (2^9, 2^13) float64 arrays, ~100 MB at peak
    prob = ising_make(np.random.default_rng(0), rows=2, cols=5)
    tracemalloc.start()
    try:
        prob.exhaustive_values()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
