"""Interaction-pruning benchmark on a grid spin model.

A zero-field pairwise model p(z) ∝ exp(z^T J z) lives on a grid graph; a
binary decision vector x keeps or deletes each interaction, giving
q_x(z) ∝ exp(z^T (x∘J) z). The objective is KL(p || q_x) plus an l1 cost
per kept edge. The KL term is computed exactly from cached pair
expectations of p and a fresh exact partition value for q_x, so the oracle
is deterministic; node counts beyond enumeration scale are refused.

Flipping every spin leaves each product z_u z_v unchanged, so both models
give z and -z the same weight. Node 0 is therefore held at +1: each
partition value is log 2 plus a log-sum-exp over the 2^(n-1) states of the
other nodes, and the log 2 cancels in the KL.

That log-sum-exp is taken exactly by bucket elimination (Dechter, AIJ
1999) over two halves of the graph. The nodes are ordered along the longer
side of the grid (row-major when rows >= cols, column-major otherwise, node
0 first); the high half is node 0 and the next (n-1)//2 nodes, the low half
the rest. In each half the separator holds the nodes with an edge to the
other half and the interior the others. With a, b the separator states and
i, j the interior states of the high and low halves,

    log Z = log 2 + LSE_ab( LSE_i E_H[a,i] + LSE_j E_L[b,j] + X[a,b] ),

where E_H, E_L and X are the energies of the edges inside the high half,
inside the low half and across, each a fixed table of edge signs weighted
by the couplings (640 rows in all at 4x4, against 2^15 states). Every sum
is an elementwise numpy op or an add-reduce in a fixed order, with no BLAS
call, so the values do not depend on the CPU's BLAS kernels.
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
EXHAUSTIVE_FLOATS = 2**20  # weighted signs held at once by exhaustive_values
COUPLING_RANGE = (0.05, 5.0)
LOG_2 = math.log(2.0)


def _log_sum_exp(x: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp over the last axis."""
    top = x.max(axis=-1)
    return top + np.log(np.add.reduce(np.exp(x - top[..., None]), axis=-1))


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


def _spins(outer: list[int], inner: list[int]):
    """Spins of every joint state of two node groups, one array per node over
    the states, and the state shape (outer states, inner states). A state's
    index is outer * inner states + inner, and the earlier node is the more
    significant bit; node 0 is held at +1 and takes no bit."""
    free = [u for u in outer + inner if u != 0]
    codes = np.arange(2 ** len(free))
    spins = {0: np.ones(codes.size)}
    for j, u in enumerate(free):
        spins[u] = 2.0 * ((codes >> (len(free) - 1 - j)) & 1) - 1.0
    return spins, (2 ** sum(u != 0 for u in outer), 2 ** sum(u != 0 for u in inner))


@dataclass
class IsingProblem:
    rows: int
    cols: int
    edges: list[tuple[int, int]]
    coupling: np.ndarray  # one positive weight per edge
    lambda_reg: float
    _tables: list = field(init=False, repr=False)  # high, low, cross: (edge ids, signs, shape)
    _log_z_p: float = field(init=False, repr=False)
    _pair_expect: np.ndarray = field(init=False, repr=False)   # E_p[z_u z_v] per edge

    def __post_init__(self):
        n = self.n_nodes
        if n > MAX_NODES:
            raise ValueError(f"exact enumeration refused for more than {MAX_NODES} nodes")
        if not 0 <= self.lambda_reg < math.inf:
            raise ValueError(f"lambda_reg must be nonnegative and finite, got {self.lambda_reg!r}")
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
        grid = np.arange(n).reshape(self.rows, self.cols)
        order = (grid if self.rows >= self.cols else grid.T).ravel().tolist()
        high = set(order[:1 + (n - 1) // 2])
        sides = [(u in high) + (v in high) for u, v in self.edges]  # 2 high, 0 low, 1 across
        crossing = {u for edge, side in zip(self.edges, sides) if side == 1 for u in edge}

        def half(in_high):
            nodes = [u for u in order if (u in high) == in_high]
            return ([u for u in nodes if u in crossing], [u for u in nodes if u not in crossing])

        (sep_high, int_high), (sep_low, int_low) = half(True), half(False)
        # Each table holds the signs of its own edges, in edge order.
        self._tables = []
        for side, outer, inner in [(2, sep_high, int_high), (0, sep_low, int_low),
                                   (1, sep_high, sep_low)]:
            spins, shape = _spins(outer, inner)
            own = np.array([k for k in range(self.d) if sides[k] == side], dtype=np.intp)
            signs = np.empty((own.size, shape[0] * shape[1]))
            for row, k in enumerate(own):
                u, v = self.edges[k]
                np.multiply(spins[u], spins[v], out=signs[row])
            self._tables.append((own, signs, shape))
        # z^T J z with symmetric J and zero diagonal double-counts each edge.
        log_z_p, (high, high_lse, low, low_lse, joint) = self._eliminate(2.0 * self.coupling)
        self._log_z_p = float(log_z_p)
        # The marginals P(a, i), P(b, j) and P(a, b) of the states with node
        # 0 = +1, which sum to 1: each stands for itself and its mirror image.
        p_ab = np.exp(joint - (self._log_z_p - LOG_2))
        probs = (np.exp(high - high_lse[:, None]) * np.add.reduce(p_ab, axis=1)[:, None],
                 np.exp(low - low_lse[:, None]) * np.add.reduce(p_ab, axis=0)[:, None],
                 p_ab)
        self._pair_expect = np.empty(self.d)
        for (own, signs, _), prob in zip(self._tables, probs):
            self._pair_expect[own] = np.add.reduce(signs * prob.ravel(), axis=1)

    def _eliminate(self, w: np.ndarray):
        """log Z for edge weights w of shape (d,) or (B, d), and the energies
        it eliminates: E_H (A, I), LSE_i E_H (A,), E_L (B', J), LSE_j E_L
        (B',) and the separators' joint (A, B'), each after w's leading axes.
        Each energy is a sequential sum over its table's edges in edge order."""
        lead = w.shape[:-1]
        expand = (slice(None),) + (None,) * len(lead)
        high, low, cross = (
            np.add.reduce(signs[expand] * w[..., own].T[..., None], axis=0).reshape(lead + shape)
            for own, signs, shape in self._tables)
        high_lse, low_lse = _log_sum_exp(high), _log_sum_exp(low)
        joint = high_lse[..., :, None] + low_lse[..., None, :] + cross
        log_z = LOG_2 + _log_sum_exp(joint.reshape(lead + (-1,)))
        return log_z, (high, high_lse, low, low_lse, joint)

    def _objective(self, kept: np.ndarray):
        """evaluate_bits for kept-edge indicators of shape (d,) or (B, d)."""
        log_z_q = self._eliminate(2.0 * self.coupling * kept)[0]
        removed = 2.0 * self.coupling * self._pair_expect * (1.0 - kept)
        kl = np.add.reduce(removed, axis=-1) + log_z_q - self._log_z_p
        return kl + self.lambda_reg * np.add.reduce(kept, axis=-1)

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def d(self) -> int:
        return len(self.edges)

    @property
    def log_z_p(self) -> float:
        return self._log_z_p

    def evaluate_bits(self, bits: np.ndarray) -> float:
        """KL(p || q_x) + lambda_reg * (#kept edges); bit 1 keeps the edge."""
        return float(self._objective(np.asarray(bits, dtype=np.float64)))

    def evaluate(self, x) -> float:
        return self.evaluate_bits(to_bits(x))

    def exhaustive_values(self) -> np.ndarray:
        """Objective for every subset of edges, indexed by the kept-edge mask
        read as a binary code (edge 0 most significant). The masks go through
        the elimination in blocks of at most EXHAUSTIVE_FLOATS weighted signs
        per table, and each value has the bits evaluate_bits gives its mask."""
        if self.d > EXHAUSTIVE_EDGE_LIMIT:
            raise ValueError(f"exhaustive evaluation refused for d > {EXHAUSTIVE_EDGE_LIMIT}")
        shifts = np.arange(self.d - 1, -1, -1)
        block = max(1, EXHAUSTIVE_FLOATS // max(signs.size for _, signs, _ in self._tables))
        values = np.empty(2**self.d)
        for start in range(0, values.size, block):
            codes = np.arange(start, min(start + block, values.size))
            values[codes] = self._objective(((codes[:, None] >> shifts) & 1).astype(np.float64))
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
