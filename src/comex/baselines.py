"""Surrogate-free baselines as ask/tell strategies for the shared run loop.

Random search draws i.i.d. uniform members of the constraint set. Direct
annealing applies the annealed neighborhood walk straight to the oracle,
with the temperature schedule driven by the outer evaluation counter, so
every proposal consumes one unit of evaluation budget.
"""

from __future__ import annotations

import numpy as np

from .acquisition import AnnealSchedule, _accept_probability
from .benchmarks.base import Oracle
from .domain import apply_flips, neighbor_move, sample_uniform
from .harness import drive
from .results import RunTrace

__all__ = ["RandomSearch", "DirectAnnealing", "random_search", "simulated_annealing_direct"]


class RandomSearch:
    """Uniform queries; observations change nothing."""

    def __init__(self, constraint, rng: np.random.Generator):
        self.constraint, self.rng = constraint, rng

    def ask(self, step: int) -> np.ndarray:
        return sample_uniform(self.constraint, self.rng)

    def tell(self, x: np.ndarray, obs: float) -> None:
        pass


class DirectAnnealing:
    """Annealed walk on the oracle itself; acceptance compares observations.

    The initial point costs one evaluation; proposal k then uses temperature
    s(k) = exp(-omega * k / d).
    """

    def __init__(self, constraint, omega: float, rng: np.random.Generator):
        self.constraint, self.rng = constraint, rng
        self.schedule = AnnealSchedule(omega, constraint.d)
        self.x, self.current = None, np.inf   # current point and its observation
        self.temperature = None               # of the pending proposal

    def ask(self, step: int) -> np.ndarray:
        if self.x is None:
            return sample_uniform(self.constraint, self.rng)
        self.temperature = self.schedule(step - 1)
        return apply_flips(self.x, neighbor_move(self.constraint, self.x, self.rng))

    def tell(self, z: np.ndarray, value: float) -> None:
        if (self.x is None or value <= self.current or self.rng.random()
                <= _accept_probability(value - self.current, self.temperature)):
            self.x, self.current = z, value


def random_search(oracle: Oracle, budget: int, rng: np.random.Generator,
                  noise_rng: np.random.Generator | None = None,
                  deadline: float | None = None, seed: int = 0) -> RunTrace:
    """Uniform queries until the budget (or an optional wall-clock deadline)."""
    return drive(RandomSearch(oracle.constraint, rng), oracle, budget,
                 rng if noise_rng is None else noise_rng,
                 name="rs", seed=seed, deadline=deadline)


def simulated_annealing_direct(oracle: Oracle, budget: int, omega: float,
                               rng: np.random.Generator,
                               noise_rng: np.random.Generator | None = None,
                               deadline: float | None = None, seed: int = 0) -> RunTrace:
    """Direct annealing until the budget (or an optional wall-clock deadline)."""
    return drive(DirectAnnealing(oracle.constraint, omega, rng), oracle, budget,
                 rng if noise_rng is None else noise_rng,
                 name="sa", seed=seed, deadline=deadline)
