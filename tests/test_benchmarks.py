import dataclasses
import json
import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from comex.benchmarks import (
    ContaminationProblem,
    IsingProblem,
    Known,
    Oracle,
    contamination_make,
    contamination_oracle,
    grid_edges,
    ising_make,
    ising_oracle,
    load_instance,
    nqueens_make,
    nqueens_oracle,
    queens_solutions,
    save_instance,
    solution_bits,
)
from comex.benchmarks import ising as ising_module
from comex.benchmarks.registry import make_problem
from comex.domain import SumConstrained, Unconstrained, from_bits, sample_uniform


# -- scaling ------------------------------------------------------------------


def test_scale_endpoints_and_midpoint():
    oracle = Oracle("toy", Unconstrained(2), lambda x: 0.0, Known(2.0, 10.0))
    assert oracle.scale(2.0) == -1.0
    assert oracle.scale(10.0) == 1.0
    assert oracle.scale(6.0) == 0.0


def test_scale_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        Known(3.0, 3.0)
    with pytest.raises(ValueError):
        Known(5.0, 1.0)


def test_envelope_violation_aborts():
    oracle = Oracle("toy", Unconstrained(2), lambda x: 7.0, Known(0.0, 5.0))
    with pytest.raises(RuntimeError):
        oracle.observe(np.array([1.0, 1.0]))


# -- interaction pruning ------------------------------------------------------


def test_grid_edge_counts():
    assert len(grid_edges(4, 4)) == 24
    assert len(grid_edges(3, 3)) == 12


def test_refuses_large_node_counts():
    with pytest.raises(ValueError):
        ising_make(np.random.default_rng(0), rows=5, cols=5)


def test_coupling_range():
    prob = ising_make(np.random.default_rng(0))
    assert prob.coupling.min() >= 0.05
    assert prob.coupling.max() <= 5.0
    assert prob.d == 24


def test_all_keep_is_pure_regularization():
    prob = ising_make(np.random.default_rng(1), rows=3, cols=3)
    value = prob.evaluate_bits(np.ones(12))
    assert value == prob.lambda_reg * 12  # divergence term cancels exactly
    assert prob.exhaustive_values()[-1] == value


def test_zero_coupling_limit():
    edges = grid_edges(3, 3)     # couplings must be positive, so the limit is taken at 1e-300
    prob = IsingProblem(rows=3, cols=3, edges=edges,
                        coupling=np.full(len(edges), 1e-300), lambda_reg=0.01)
    assert prob.log_z_p == pytest.approx(9 * math.log(2.0), rel=1e-12)
    assert np.allclose(prob._pair_expect, 0.0, atol=1e-12)
    assert prob.evaluate_bits(np.zeros(12)) == pytest.approx(0.0, abs=1e-9)


def full_pair_spins(prob: IsingProblem) -> np.ndarray:
    """z_u z_v for every edge in each of the 2^n states, built from the edge list."""
    n = prob.n_nodes
    codes = np.arange(2**n)
    spins = 2 * ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1) - 1
    return np.stack([spins[:, u] * spins[:, v] for u, v in prob.edges],
                    axis=1).astype(np.float64)


def direct_kl_oracle(prob: IsingProblem, bits: np.ndarray) -> float:
    """Independent definition-level divergence: sum_z p(z) log(p(z)/q(z))."""
    spins = full_pair_spins(prob)
    energy_p = spins @ (2.0 * prob.coupling)
    energy_q = spins @ (2.0 * prob.coupling * bits)
    log_p = energy_p - logsumexp(energy_p)
    log_q = energy_q - logsumexp(energy_q)
    return float(np.exp(log_p) @ (log_p - log_q))


def test_evaluate_matches_direct_definition_sampled():
    prob = ising_make(np.random.default_rng(2), rows=3, cols=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        bits = rng.integers(0, 2, size=12)
        expected = direct_kl_oracle(prob, bits) + prob.lambda_reg * bits.sum()
        assert prob.evaluate_bits(bits) == pytest.approx(expected, abs=1e-9)


def test_divergence_nonnegative_sampled():
    prob = ising_make(np.random.default_rng(4), rows=3, cols=3)
    rng = np.random.default_rng(5)
    for _ in range(200):
        bits = rng.integers(0, 2, size=12)
        assert prob.evaluate_bits(bits) - prob.lambda_reg * bits.sum() >= -1e-12


def test_exhaustive_values_consistent():
    prob = ising_make(np.random.default_rng(6), rows=2, cols=3)  # 7 edges
    values = prob.exhaustive_values()
    assert values.shape == (2**7,)
    rng = np.random.default_rng(7)
    for _ in range(20):
        bits = rng.integers(0, 2, size=7)
        code = int("".join(str(b) for b in bits), 2)
        assert values[code] == pytest.approx(prob.evaluate_bits(bits), abs=1e-12)


def test_small_instance_oracle_uses_exact_envelope():
    prob = ising_make(np.random.default_rng(8), rows=3, cols=3)
    oracle = ising_oracle(prob)
    values = prob.exhaustive_values()
    assert oracle.bounds.lo == values.min()
    assert oracle.bounds.hi == values.max()
    assert oracle.regret_axis == "scaled"
    assert oracle.regret_anchor == -1.0


def test_large_instance_oracle_envelope_is_provable():
    prob = ising_make(np.random.default_rng(9))  # 4x4, d=24
    oracle = ising_oracle(prob)
    assert oracle.bounds.lo == 0.0
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = sample_uniform(oracle.constraint, rng)
        raw, obs = oracle.observe(x)
        assert -1.0 <= obs <= 1.0


# -- contamination control ----------------------------------------------------


def test_full_intervention_with_perfect_restoration():
    prob = contamination_make(np.random.default_rng(0), d=6)
    prob.rates_b[:] = 1.0  # every intervention fully decontaminates
    value = prob.evaluate_bits(np.ones(6))
    assert value == pytest.approx(prob.costs.sum() + prob.lambda_reg * 6)


def test_no_interventions_no_contamination():
    prob = contamination_make(np.random.default_rng(1), d=5)
    prob.init_z[:] = 0.0
    prob.rates_a[:] = 0.0
    assert prob.evaluate_bits(np.zeros(5)) == 0.0


def straight_line_recursion(prob: ContaminationProblem, bits) -> float:
    """Independent scalar re-implementation of the stage recursion."""
    total = 0.0
    for k in range(prob.n_paths):
        z = prob.init_z[k]
        for i in range(prob.d):
            z = prob.rates_a[i, k] * (1 - bits[i]) * (1 - z) \
                + (1 - prob.rates_b[i, k] * bits[i]) * z
            assert 0.0 <= z <= 1.0  # fractions stay in [0, 1] on every path
            if z > prob.u:
                total += prob.rho / prob.n_paths
    total += float(prob.costs @ bits) + prob.lambda_reg * float(np.sum(bits))
    return total


def test_evaluate_matches_straight_line_reimplementation():
    prob = contamination_make(np.random.default_rng(2))  # d=21 default
    rng = np.random.default_rng(3)
    for _ in range(5):
        bits = rng.integers(0, 2, size=21)
        assert prob.evaluate_bits(bits) == pytest.approx(
            straight_line_recursion(prob, bits), abs=1e-12
        )


def test_oracle_is_deterministic():
    prob = contamination_make(np.random.default_rng(4))
    oracle = contamination_oracle(prob)
    rng = np.random.default_rng(5)
    x = sample_uniform(oracle.constraint, rng)
    assert oracle.observe(x) == oracle.observe(x)


def test_contamination_regret_anchor_is_raw_level():
    oracle = contamination_oracle(contamination_make(np.random.default_rng(6)))
    assert isinstance(oracle.bounds, Known)
    assert oracle.regret_axis == "raw"
    assert oracle.regret_anchor == 0.0


def unbound_copy(prob: ContaminationProblem) -> ContaminationProblem:
    return dataclasses.replace(prob, init_z=prob.init_z.copy(), rates_a=prob.rates_a.copy(),
                               rates_b=prob.rates_b.copy())


def test_contamination_sees_edits_made_after_its_first_evaluation(walk_path):
    """The arrays are bound at the first evaluation: in-place edits are read
    in place, and an assigned field is bound afresh."""
    prob = contamination_make(np.random.default_rng(6), d=6, n_paths=30)
    bits = np.array([0, 0, 1, 0, 1, 0])
    values = [prob.evaluate_bits(bits)]
    prob.init_z[:] = 0.5
    prob.rates_a[1] *= 0.5
    values.append(prob.evaluate_bits(bits))
    assert values[1] == unbound_copy(prob).evaluate_bits(bits)
    prob.u = 0.9
    prob.rates_b = 1.0 - prob.rates_b
    values.append(prob.evaluate_bits(bits))
    assert values[2] == unbound_copy(prob).evaluate_bits(bits)
    assert len(set(values)) == 3


@pytest.mark.parametrize("name, edit", [
    ("init_z", lambda prob: prob.init_z.astype(np.float32)),
    ("rates_a", lambda prob: prob.rates_a[:, ::2]),
    ("rates_b", lambda prob: np.asfortranarray(prob.rates_b)),
])
def test_contamination_does_not_bind_an_assigned_array_the_kernel_cannot_read(name, edit):
    prob = contamination_make(np.random.default_rng(6), d=6, n_paths=30)
    bits = np.ones(6)
    prob.evaluate_bits(bits)
    setattr(prob, name, edit(prob))
    with pytest.raises(ValueError, match=f"^{name} must be a C-contiguous float64 array"):
        prob.evaluate_bits(bits)


@pytest.mark.parametrize("bits", [[1], np.ones(5), np.ones((1, 6))])
def test_contamination_rejects_bits_of_the_wrong_shape(bits):
    prob = contamination_make(np.random.default_rng(6), d=6, n_paths=30)
    with pytest.raises(ValueError, match="^need 6 bits"):
        prob.evaluate_bits(bits)


# -- n-queens -----------------------------------------------------------------


def test_known_four_queens_solution_is_zero():
    prob = nqueens_make(4)
    bits = solution_bits(4, (1, 3, 0, 2))
    assert prob.energy_bits(bits) == 0.0


def test_all_queens_in_one_row():
    prob = nqueens_make(4)
    bits = np.zeros(16, dtype=np.int64)
    bits[:4] = 1
    board = bits.reshape(4, 4)
    assert ((board.sum(axis=1) - 1) ** 2).sum() == 12  # (4-1)^2 + 3
    assert prob.energy_bits(bits) == 12.0  # columns and diagonals contribute 0
    assert prob.max_energy() == 12.0


def test_empty_board_energy():
    prob = nqueens_make(5)
    assert prob.energy_bits(np.zeros(25)) == 10.0  # n ones per direction


def test_energy_nonnegative_and_zero_only_on_solutions():
    prob = nqueens_make(5)
    solutions = {solution_bits(5, s).tobytes() for s in queens_solutions(5)}
    rng = np.random.default_rng(6)
    for _ in range(300):
        x = sample_uniform(SumConstrained(25, 5), rng)
        bits = ((x + 1) / 2).astype(np.int64)
        energy = prob.energy_bits(bits)
        assert energy >= 0.0
        assert (energy == 0.0) == (bits.tobytes() in solutions)


def test_diagonal_pairs_counted_in_both_directions():
    prob = nqueens_make(3)
    bits = np.zeros(9, dtype=np.int64)
    bits[[0, 4, 8]] = 1  # main diagonal: 3 queens -> C(3,2) pairs
    board = bits.reshape(3, 3)
    assert ((board.sum(axis=1) - 1) ** 2).sum() == 0
    assert prob.energy_bits(bits) == 3.0
    bits = np.zeros(9, dtype=np.int64)
    bits[[2, 4, 6]] = 1  # anti-diagonal
    assert prob.energy_bits(bits) == 3.0


def test_solver_counts():
    assert len(queens_solutions(4)) == 2
    assert len(queens_solutions(5)) == 10
    assert len(queens_solutions(6)) == 4


def test_noisy_observations_center_on_minus_one():
    prob = nqueens_make(4)
    oracle = nqueens_oracle(prob)
    x = from_bits(solution_bits(4, (1, 3, 0, 2)))
    rng = np.random.default_rng(7)
    values = np.array([oracle.observe(x, rng)[1] for _ in range(10_000)])
    assert -1.0006 <= values.mean() <= -0.9994  # sigma/sqrt(N) = 2e-4
    raw, _ = oracle.observe(x, rng)
    assert raw == 0.0  # raw value is noiseless


def test_noise_disabled_is_deterministic():
    oracle = nqueens_oracle(nqueens_make(4, noise_sigma=0.0))
    x = from_bits(solution_bits(4, (2, 0, 3, 1)))
    assert oracle.observe(x) == oracle.observe(x) == (0.0, -1.0)


# -- instance files -----------------------------------------------------------


def test_instance_roundtrip_ising(tmp_path):
    prob = ising_make(np.random.default_rng(8), rows=3, cols=3)
    path = tmp_path / "ising.json"
    save_instance(prob, path)
    loaded = load_instance(path)
    assert np.array_equal(loaded.coupling, prob.coupling)
    assert loaded.edges == prob.edges
    bits = np.random.default_rng(9).integers(0, 2, size=12)
    assert loaded.evaluate_bits(bits) == prob.evaluate_bits(bits)


def test_instance_roundtrip_contamination(tmp_path):
    prob = contamination_make(np.random.default_rng(10), d=7)
    path = tmp_path / "contamination.json"
    save_instance(prob, path)
    loaded = load_instance(path)
    for attr in ("init_z", "rates_a", "rates_b", "costs"):
        assert np.array_equal(getattr(loaded, attr), getattr(prob, attr))
    bits = np.random.default_rng(11).integers(0, 2, size=7)
    assert loaded.evaluate_bits(bits) == prob.evaluate_bits(bits)


def test_instance_roundtrip_nqueens(tmp_path):
    prob = nqueens_make(5, noise_sigma=0.05)
    path = tmp_path / "nqueens.json"
    save_instance(prob, path)
    loaded = load_instance(path)
    assert loaded.n == 5
    assert loaded.noise_sigma == 0.05


def test_instance_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    for text in ('{"kind": "mystery"}', '{"kind": ["ising"]}', '["ising"]'):
        path.write_text(text)
        with pytest.raises(ValueError):
            load_instance(path)


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.pop("cols"), "missing key 'cols'"),
    (lambda doc: doc.update(colour="red"), "unknown key 'colour'"),
    (lambda doc: doc.update(rows=4.5), "key 'rows' must be int"),
    (lambda doc: doc.update(rows=True), "key 'rows' must be int"),
    (lambda doc: doc.update(lambda_reg="0.1"), "key 'lambda_reg' must be float"),
    (lambda doc: doc.update(edges=[]), "edges must be nonempty"),
])
def test_instance_file_errors_name_the_file_and_the_key(tmp_path, edit, named):
    path = tmp_path / "ising.json"
    save_instance(ising_make(np.random.default_rng(8), rows=2, cols=2), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{named}"):
        load_instance(path)


def test_a_truncated_instance_file_error_names_the_file(tmp_path):
    path = tmp_path / "ising.json"
    save_instance(ising_make(np.random.default_rng(8), rows=2, cols=2), path)
    path.write_text(path.read_text()[:40])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*line \d+ column \d+"):
        load_instance(path)


def test_instance_float_field_takes_an_integer(tmp_path):
    path = tmp_path / "nqueens.json"
    path.write_text('{"kind": "nqueens", "n": 4, "noise_sigma": 0}')
    assert load_instance(path).noise_sigma == 0.0


@pytest.mark.parametrize("params, named", [
    ({"n_paths": 0}, "n_paths"), ({"d": 0}, "d"),
    ({"u": math.nan}, "u"), ({"u": math.inf}, "u"),
])
def test_contamination_rejects_degenerate_parameters(params, named):
    with pytest.raises(ValueError, match=f"^{named} must be"):
        contamination_make(np.random.default_rng(0), **{"d": 5, **params})


BAD_PENALTY_WEIGHTS = [
    ("contamination", {"lambda_reg": -1.0}, "lambda_reg", "-1.0"),
    ("contamination", {"lambda_reg": math.nan}, "lambda_reg", "nan"),
    ("contamination", {"rho": -0.5}, "rho", "-0.5"),
    ("contamination", {"rho": math.inf}, "rho", "inf"),
    ("contamination", {"cost": math.nan}, "costs[0]", "nan"),
    ("contamination", {"cost": -1.0}, "costs[0]", "-1.0"),
    ("ising", {"lambda_reg": -1.0}, "lambda_reg", "-1.0"),
    ("ising", {"lambda_reg": math.inf}, "lambda_reg", "inf"),
]
SMALL = {"contamination": {"d": 5, "n_paths": 4}, "ising": {"rows": 2, "cols": 2}}


@pytest.mark.parametrize("kind, params, named, value", BAD_PENALTY_WEIGHTS)
def test_make_problem_rejects_a_negative_or_nonfinite_penalty_weight(kind, params, named,
                                                                      value):
    with pytest.raises(ValueError, match=re.escape(
            f"{named} must be nonnegative and finite, got {value}")):
        make_problem(kind, {**SMALL[kind], **params}, np.random.default_rng(0))


@pytest.mark.parametrize("kind, edit, named", [
    ("contamination", lambda doc: doc.update(lambda_reg={"hex": (-1.0).hex()}), "lambda_reg"),
    ("contamination", lambda doc: doc.update(rho={"hex": math.nan.hex()}), "rho"),
    ("contamination", lambda doc: doc["costs"].__setitem__(2, {"hex": (-2.0).hex()}),
     "costs[2]"),
    ("ising", lambda doc: doc.update(lambda_reg={"hex": math.inf.hex()}), "lambda_reg"),
])
def test_instance_file_with_a_bad_penalty_weight_names_the_file_and_the_field(tmp_path, kind,
                                                                              edit, named):
    path = tmp_path / "instance.json"
    save_instance(make_problem(kind, SMALL[kind], np.random.default_rng(8)), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=(f"^{re.escape(str(path))}: {re.escape(named)} "
                                          "must be nonnegative and finite")):
        load_instance(path)


ALL_ZERO = "costs, rho and lambda_reg must not all be 0 (the objective would be identically 0)"


def test_make_problem_rejects_all_zero_weights_naming_the_fields():
    params = {**SMALL["contamination"], "cost": 0.0, "rho": 0.0, "lambda_reg": 0.0}
    with pytest.raises(ValueError, match=f"^{re.escape(ALL_ZERO)}$"):
        make_problem("contamination", params, np.random.default_rng(0))
    for nonzero in ("cost", "rho", "lambda_reg"):   # each one alone is enough
        make_problem("contamination", {**params, nonzero: 0.5}, np.random.default_rng(0))


def test_instance_file_with_all_zero_weights_names_the_file_and_the_fields(tmp_path):
    path = tmp_path / "instance.json"
    save_instance(make_problem("contamination", SMALL["contamination"],
                               np.random.default_rng(8)), path)
    doc = json.loads(path.read_text())
    zero = {"hex": (0.0).hex()}
    doc.update(costs=[zero] * len(doc["costs"]), rho=zero, lambda_reg=zero)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {ALL_ZERO}')}$"):
        load_instance(path)


def repeat_first_edge(doc, reverse):
    doc["edges"].append(doc["edges"][0][::-1] if reverse else doc["edges"][0])
    doc["coupling"].append(doc["coupling"][0])


def set_coupling(doc, value):
    doc["coupling"][1] = {"hex": value.hex()}


BAD_ISING_EDITS = [
    (lambda doc: repeat_first_edge(doc, False), "edges must be distinct"),
    (lambda doc: repeat_first_edge(doc, True), "edges must be distinct"),
    (lambda doc: set_coupling(doc, 0.0), "coupling must be positive and finite, got 0.0"),
    (lambda doc: set_coupling(doc, -1.0), "coupling must be positive and finite, got -1.0"),
    (lambda doc: set_coupling(doc, math.nan), "coupling must be positive and finite, got nan"),
    (lambda doc: set_coupling(doc, math.inf), "coupling must be positive and finite, got inf"),
]


@pytest.mark.parametrize("edit, named", BAD_ISING_EDITS)
def test_ising_instance_file_with_a_repeated_edge_or_bad_coupling_names_it(tmp_path, edit,
                                                                            named):
    path = tmp_path / "ising.json"
    save_instance(ising_make(np.random.default_rng(8), rows=2, cols=2), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(named)}"):
        load_instance(path)


@pytest.mark.parametrize("patch, named", [
    (("grid_edges", lambda rows, cols: [(0, 1), (1, 0)]), "edges must be distinct"),
    (("COUPLING_RANGE", (-1.0, -0.5)), "coupling must be positive and finite"),
])
def test_make_problem_rejects_a_repeated_edge_or_bad_coupling(monkeypatch, patch, named):
    monkeypatch.setattr(ising_module, *patch)
    with pytest.raises(ValueError, match=f"^{named}"):
        make_problem("ising", {"rows": 2, "cols": 2}, np.random.default_rng(0))


@pytest.mark.parametrize("rows, cols", [(1, 1), (0, 3)])
def test_ising_rejects_a_grid_without_edges(rows, cols):
    with pytest.raises(ValueError, match="^edges must be nonempty"):
        ising_make(np.random.default_rng(0), rows=rows, cols=cols)
