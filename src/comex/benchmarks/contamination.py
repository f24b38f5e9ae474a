"""Staged contamination-control benchmark.

A supply chain of d stages propagates a contamination fraction; intervening
at stage i (bit 1) costs c_i and damps the fraction by a random restoration
rate, while skipping it lets a random contamination rate push the fraction
up. The objective is total intervention cost plus a penalty for the
Monte-Carlo fraction of sample paths whose contamination exceeds a limit,
plus an l1 term. All random rates are drawn once at construction (common
random numbers), so the oracle is deterministic per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import walk_kernel
from ..domain import Unconstrained, to_bits
from .base import Known, Oracle

__all__ = ["ContaminationProblem", "contamination_make", "contamination_oracle"]

# Rate distributions and penalty constants follow the conventions this
# benchmark is normally run with; all are overridable per instance.
INIT_BETA = (1.0, 30.0)
CONTAM_BETA = (1.0, 17.0 / 3.0)
RESTORE_BETA = (1.0, 3.0 / 7.0)
DEFAULT_LIMIT = 0.1
DEFAULT_COST = 1.0
DEFAULT_PENALTY = 1.0
DEFAULT_PATHS = 100


def _check_sizes(d: int, n_paths: int) -> None:
    """At least one stage and one sample path."""
    for name, value in (("d", d), ("n_paths", n_paths)):
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")


@dataclass
class ContaminationProblem:
    d: int
    u: float                 # contamination limit per stage
    costs: np.ndarray        # (d,) intervention costs
    rho: float               # violation penalty weight
    lambda_reg: float
    init_z: np.ndarray       # (n_paths,) initial contamination per path
    rates_a: np.ndarray      # (d, n_paths) contamination rates
    rates_b: np.ndarray      # (d, n_paths) restoration rates

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        self.init_z = np.ascontiguousarray(self.init_z, dtype=np.float64)
        self.rates_a = np.ascontiguousarray(self.rates_a, dtype=np.float64)
        self.rates_b = np.ascontiguousarray(self.rates_b, dtype=np.float64)
        n_paths = self.init_z.size
        _check_sizes(self.d, n_paths)
        if not math.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u!r}")
        if self.costs.shape != (self.d,):
            raise ValueError("one cost per stage required")
        weights = [(f"costs[{i}]", c) for i, c in enumerate(self.costs.tolist())]
        for name, value in weights + [("rho", self.rho), ("lambda_reg", self.lambda_reg)]:
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
        if not (self.costs.any() or self.rho or self.lambda_reg):
            raise ValueError("costs, rho and lambda_reg must not all be 0 "
                             "(the objective would be identically 0)")
        if self.rates_a.shape != (self.d, n_paths) or self.rates_b.shape != (self.d, n_paths):
            raise ValueError("rate arrays must be (d, n_paths)")
        for arr in (self.init_z, self.rates_a, self.rates_b):
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError("rates and initial contamination must lie in [0, 1]")

    @property
    def n_paths(self) -> int:
        return self.init_z.size

    def __setattr__(self, name, value):
        # Assigning any field drops the kernel binding, which holds the old
        # arrays and u; the next evaluation binds afresh.
        self.__dict__.pop("_kernel", None)
        super().__setattr__(name, value)

    def __getstate__(self):
        # The binding holds addresses valid only in this process, so a pickle
        # (the COMEX_THREADS pool sends one per worker) leaves it out.
        return {k: v for k, v in self.__dict__.items() if k != "_kernel"}

    def evaluate_bits(self, bits: np.ndarray) -> float:
        """Each stage maps z to (1 - b_i) z when intervening and to
        a_i (1 - z) + z when skipping, bit-exactly the two cases of
        a_i (1 - x_i)(1 - z) + (1 - b_i x_i) z. The stage loop is
        walk_kernel.contamination_violation, on the arrays as bound at the
        first evaluation in each process (in-place edits are seen); the
        cost and l1 terms are added here. One evaluation at a time: the
        bits go into the binding's buffer x."""
        bound = self.__dict__.get("_kernel")
        if bound is None:
            bound = self._kernel = walk_kernel.Contamination(self)
        x = bound.x
        if np.shape(bits) != x.shape:
            raise ValueError(f"need {x.size} bits, got an array of shape {np.shape(bits)}")
        x[:] = bits
        violation = walk_kernel.contamination_violation(bound)
        return float(self.costs @ x) + self.rho * violation + self.lambda_reg * float(x.sum())

    def evaluate(self, x) -> float:
        return self.evaluate_bits(to_bits(x))


def contamination_make(rng: np.random.Generator, d: int = 21,
                       n_paths: int = DEFAULT_PATHS, u: float = DEFAULT_LIMIT,
                       cost: float = DEFAULT_COST, rho: float = DEFAULT_PENALTY,
                       lambda_reg: float = 0.01) -> ContaminationProblem:
    """Draw and freeze a random instance (shared sample paths)."""
    _check_sizes(d, n_paths)
    return ContaminationProblem(
        d=d,
        u=u,
        costs=np.full(d, cost),
        rho=rho,
        lambda_reg=lambda_reg,
        init_z=rng.beta(*INIT_BETA, size=n_paths),
        rates_a=rng.beta(*CONTAM_BETA, size=(d, n_paths)),
        rates_b=rng.beta(*RESTORE_BETA, size=(d, n_paths)),
    )


def contamination_oracle(problem: ContaminationProblem) -> Oracle:
    """Scaled oracle with the provable envelope: per stage at most
    cost + penalty + l1 weight, and the objective is nonnegative.

    The true minimum has no analytic form, so regret is anchored to the
    universal raw level 0 (below every attainable value) rather than to the
    envelope minimum; the envelope itself only scales observations for the
    optimizer.
    """
    hi = float(problem.costs.sum() + problem.rho * problem.d
               + problem.lambda_reg * problem.d)
    return Oracle(
        name="contamination",
        constraint=Unconstrained(problem.d),
        raw_fn=problem.evaluate,
        bounds=Known(0.0, hi),
        raw_regret_level=0.0,
    )
