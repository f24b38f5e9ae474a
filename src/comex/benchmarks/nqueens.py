"""Noisy n-queens benchmark on the sum-constrained board.

A placement of n queens on an n x n board is encoded as d = n^2 bits.
The energy penalizes squared deviations from one queen per row and per
column, plus one unit per pair of queens sharing any diagonal (both
directions); it is zero exactly on valid placements. Observations are
scaled to [-1, 1] and carry additive Gaussian noise on the scaled axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..domain import SumConstrained, to_bits
from .base import Known, Oracle

__all__ = ["NQueensProblem", "nqueens_make", "nqueens_oracle",
           "queens_solutions", "solution_bits"]

DEFAULT_NOISE_SIGMA = 0.02


def _diagonal_cells(n: int) -> list[np.ndarray]:
    """Cell ids of every diagonal (both directions) with at least two cells."""
    diagonals = []
    for offset in range(-(n - 1), n):
        cells = [r * n + (r - offset) for r in range(n) if 0 <= r - offset < n]
        if len(cells) >= 2:
            diagonals.append(np.array(cells))
    for total in range(2 * n - 1):
        cells = [r * n + (total - r) for r in range(n) if 0 <= total - r < n]
        if len(cells) >= 2:
            diagonals.append(np.array(cells))
    return diagonals


@dataclass
class NQueensProblem:
    n: int
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    _lines: np.ndarray = field(init=False, repr=False)      # (2n, d) row/column incidence
    _diagonals: np.ndarray = field(init=False, repr=False)  # (#diagonals, d) incidence

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("board side must be at least 2")
        cells = np.arange(self.d)
        self._lines = np.concatenate([cells // self.n == np.arange(self.n)[:, None],
                                      cells % self.n == np.arange(self.n)[:, None]]
                                     ).astype(np.float64)
        diagonals = _diagonal_cells(self.n)
        self._diagonals = np.zeros((len(diagonals), self.d))
        for k, diagonal in enumerate(diagonals):
            self._diagonals[k, diagonal] = 1.0

    @property
    def d(self) -> int:
        return self.n * self.n

    def energy_bits(self, bits: np.ndarray) -> float:
        """Noiseless core energy; zero iff the bits form a valid placement.

        Every term is a small integer, so the float sum is exact in any order.
        """
        x = np.asarray(bits, dtype=np.float64).reshape(self.d)
        rc = self._lines @ x - 1.0
        c = self._diagonals @ x
        return float(rc @ rc + c @ (c - 1.0) / 2.0)

    def energy(self, x) -> float:
        return self.energy_bits(to_bits(x))

    def max_energy(self) -> float:
        """Energy of the first-n-cells placement (all queens in row 0); used
        as the scaling upper bound. A raw value above it aborts the run."""
        bits = np.zeros(self.d, dtype=np.int64)
        bits[: self.n] = 1
        return self.energy_bits(bits)


def nqueens_make(n: int = 5, noise_sigma: float = DEFAULT_NOISE_SIGMA) -> NQueensProblem:
    return NQueensProblem(n=n, noise_sigma=noise_sigma)


def nqueens_oracle(problem: NQueensProblem) -> Oracle:
    return Oracle(
        name="nqueens",
        constraint=SumConstrained(problem.d, problem.n),
        raw_fn=problem.energy,
        bounds=Known(0.0, problem.max_energy()),
        noise_sigma=problem.noise_sigma,
    )


def queens_solutions(n: int) -> list[tuple[int, ...]]:
    """All valid placements, as the column of the queen in each row."""
    solutions: list[tuple[int, ...]] = []

    def extend(cols: list[int]):
        row = len(cols)
        if row == n:
            solutions.append(tuple(cols))
            return
        for col in range(n):
            if all(col != c and abs(col - c) != row - r for r, c in enumerate(cols)):
                extend(cols + [col])

    extend([])
    return solutions


def solution_bits(n: int, cols: tuple[int, ...]) -> np.ndarray:
    bits = np.zeros(n * n, dtype=np.int64)
    for row, col in enumerate(cols):
        bits[row * n + col] = 1
    return bits
