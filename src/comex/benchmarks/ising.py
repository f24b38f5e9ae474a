"""Interaction-pruning benchmark on a grid spin model.

A zero-field pairwise model p(z) ∝ exp(z^T J z) lives on a grid graph; a
binary decision vector x keeps or deletes each interaction, giving
q_x(z) ∝ exp(z^T (x∘J) z). The objective is KL(p || q_x) plus an l1 cost
per kept edge. The KL term is computed exactly from cached pair
expectations of p and a fresh exact partition value for q_x, so the oracle
is deterministic; node counts beyond enumeration scale are refused.

Flipping every spin leaves each product z_u z_v unchanged, so both models
give z and -z the same weight. The enumeration therefore keeps only the
2^(n-1) states with node 0 = +1; each partition value is log 2 plus the
log-sum-exp over that half, and the log 2 cancels in the KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..domain import Unconstrained, to_bits
from .base import Known, Oracle

__all__ = ["grid_edges", "IsingProblem", "ising_make", "ising_oracle"]

MAX_NODES = 20
EXHAUSTIVE_EDGE_LIMIT = 16
EXHAUSTIVE_BLOCK = 1024  # kept-edge masks evaluated at once by exhaustive_values
COUPLING_RANGE = (0.05, 5.0)
LOG_2 = math.log(2.0)


def _log_partition(energy: np.ndarray):
    """log Z over all 2^n states from the energies of the node-0 = +1 half
    (along axis 0): log 2 plus a max-shifted log-sum-exp."""
    top = energy.max(axis=0)
    return LOG_2 + top + np.log(np.exp(energy - top).sum(axis=0))


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Edges of the rows x cols grid graph, row-major node ids."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return edges


def _node_pair(edge, n: int) -> tuple[int, int]:
    """`edge` as a tuple of two distinct node ids below n."""
    pair = tuple(np.atleast_1d(edge).tolist())
    if len(pair) != 2 or pair[0] == pair[1] or not all(
            type(u) is int and 0 <= u < n for u in pair):
        raise ValueError(f"edges must be pairs of distinct node ids in 0..{n - 1}, got {edge!r}")
    return pair


@dataclass
class IsingProblem:
    rows: int
    cols: int
    edges: list[tuple[int, int]]
    coupling: np.ndarray  # one positive weight per edge
    lambda_reg: float
    _pair_spins: np.ndarray = field(init=False, repr=False)    # (2^(n-1), d) edge products
    _log_z_p: float = field(init=False, repr=False)
    _pair_expect: np.ndarray = field(init=False, repr=False)   # E_p[z_u z_v] per edge

    def __post_init__(self):
        n = self.n_nodes
        if n > MAX_NODES:
            raise ValueError(f"exact enumeration refused for more than {MAX_NODES} nodes")
        self.edges = [_node_pair(e, n) for e in self.edges]
        if not self.edges:
            raise ValueError(f"edges must be nonempty, got none on a "
                             f"{self.rows}x{self.cols} grid")
        pairs = [frozenset(edge) for edge in self.edges]
        for k, edge in enumerate(self.edges):
            if pairs[k] in pairs[:k]:
                raise ValueError(f"edges must be distinct in either orientation, got {edge} twice")
        self.coupling = np.asarray(self.coupling, dtype=np.float64)
        if self.coupling.shape != (self.d,):
            raise ValueError("one coupling per edge required")
        for weight, edge in zip(self.coupling.tolist(), self.edges):
            if not 0 < weight < math.inf:
                raise ValueError(f"coupling must be positive and finite, got {weight!r} on {edge}")
        # Spins of the states with node 0 = +1, node n-1 the lowest code bit.
        codes = np.arange(2 ** (n - 1))
        spins = [np.ones(codes.size)] + [
            2.0 * ((codes >> (n - 1 - j)) & 1) - 1.0 for j in range(1, n)]
        self._pair_spins = np.empty((codes.size, self.d))
        for k, (u, v) in enumerate(self.edges):
            np.multiply(spins[u], spins[v], out=self._pair_spins[:, k])
        # z^T J z with symmetric J and zero diagonal double-counts each edge.
        energy = self._pair_spins @ (2.0 * self.coupling)
        self._log_z_p = float(_log_partition(energy))
        # Each half state stands for itself and its mirror image.
        probs = 2.0 * np.exp(energy - self._log_z_p)
        self._pair_expect = probs @ self._pair_spins

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def d(self) -> int:
        return len(self.edges)

    @property
    def log_z_p(self) -> float:
        return self._log_z_p

    @property
    def pair_expectations(self) -> np.ndarray:
        return self._pair_expect.copy()

    def evaluate_bits(self, bits: np.ndarray) -> float:
        """KL(p || q_x) + lambda_reg * (#kept edges); bit 1 keeps the edge."""
        kept = np.asarray(bits, dtype=np.float64)
        energy_q = self._pair_spins @ (2.0 * self.coupling * kept)
        log_z_q = float(_log_partition(energy_q))
        kl = float((2.0 * self.coupling * (1.0 - kept)) @ self._pair_expect) \
            + log_z_q - self._log_z_p
        return kl + self.lambda_reg * float(kept.sum())

    def evaluate(self, x) -> float:
        return self.evaluate_bits(to_bits(x))

    def exhaustive_values(self) -> np.ndarray:
        """Objective for every subset of edges, indexed by the kept-edge mask
        read as a binary code (edge 0 most significant), EXHAUSTIVE_BLOCK
        masks at a time, so at most (2^(n-1), EXHAUSTIVE_BLOCK) energies at once."""
        if self.d > EXHAUSTIVE_EDGE_LIMIT:
            raise ValueError(f"exhaustive evaluation refused for d > {EXHAUSTIVE_EDGE_LIMIT}")
        shifts = np.arange(self.d - 1, -1, -1)
        removed = 2.0 * self.coupling * self._pair_expect
        values = np.empty(2**self.d)
        for start in range(0, values.size, EXHAUSTIVE_BLOCK):
            codes = np.arange(start, min(start + EXHAUSTIVE_BLOCK, values.size))
            masks = ((codes[:, None] >> shifts) & 1).astype(np.float64)
            log_z_q = _log_partition(self._pair_spins @ (2.0 * self.coupling * masks).T)
            kl = (1.0 - masks) @ removed + log_z_q - self._log_z_p
            values[codes] = kl + self.lambda_reg * masks.sum(axis=1)
        return values


def ising_make(rng: np.random.Generator, rows: int = 4, cols: int = 4,
               lambda_reg: float = 0.01) -> IsingProblem:
    """Random instance: grid topology, couplings uniform on [0.05, 5]."""
    edges = grid_edges(rows, cols)
    coupling = rng.uniform(*COUPLING_RANGE, size=len(edges))
    return IsingProblem(rows=rows, cols=cols, edges=edges,
                        coupling=coupling, lambda_reg=lambda_reg)


def ising_oracle(problem: IsingProblem) -> Oracle:
    """Wrap an instance as a scaled oracle.

    Small instances get the exact [min, max] envelope from full enumeration;
    larger ones a provable envelope (KL is at most 2*sum(J) + n*log 2, and
    the objective is nonnegative).
    """
    if problem.d <= EXHAUSTIVE_EDGE_LIMIT:
        values = problem.exhaustive_values()
        bounds = Known(float(values.min()), float(values.max()))
    else:
        hi = float(2.0 * problem.coupling.sum() + problem.n_nodes * math.log(2.0)
                   + problem.lambda_reg * problem.d)
        bounds = Known(0.0, hi)
    return Oracle(
        name="ising",
        constraint=Unconstrained(problem.d),
        raw_fn=problem.evaluate,
        bounds=bounds,
    )
