"""Surrogate-free baselines as ask/tell strategies for the shared run loop.

Random search draws i.i.d. uniform members of the constraint set. Direct
annealing applies the annealed neighborhood walk straight to the oracle,
with the temperature schedule driven by the outer evaluation counter, so
every proposal consumes one unit of evaluation budget.
"""

from __future__ import annotations

import math

import numpy as np

from .acquisition import AnnealSchedule
from .domain import apply_flips, neighbor_move, sample_uniform

__all__ = ["RandomSearch", "DirectAnnealing"]


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
        # A worsening move draws one uniform; exp(-delta/T) is 0 once T underflows to 0.
        T = self.temperature
        if (self.x is None or value <= self.current or self.rng.random()
                <= (math.exp(-(value - self.current) / T) if T > 0.0 else 0.0)):
            self.x, self.current = z, value
