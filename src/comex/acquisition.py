"""Query selection: the annealed acquisition walk over the surrogate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import walk_kernel
from .domain import ConstraintSet, SumConstrained, contains, sample_uniform
from .surrogate import MonomialSurrogate

__all__ = [
    "AnnealSchedule",
    "propose_query",
    "walk",
]


@dataclass(frozen=True)
class AnnealSchedule:
    """Exponentially decaying temperature s(t) = exp(-omega * t / d)."""

    omega: float
    d: int

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError(f"decay parameter omega must be positive and finite, "
                             f"got {self.omega!r}")
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")

    def __call__(self, t: int) -> float:
        return math.exp(-self.omega * t / self.d)


def walk(model: MonomialSurrogate, x, constraint: ConstraintSet, temperature: float,
         n_iters: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """n_iters Metropolis proposals over the surrogate from x at one
    temperature; returns a copy of the final point and the number accepted.

    The randomness is drawn first, one rng call per array: the moves
    (unconstrained: the coordinate to flip; sum-constrained: a position
    among the n +1 coordinates, then one among the d - n -1 coordinates, as
    walk_kernel.swap_walk reads them), then one uniform u per proposal. A
    proposal is accepted when its delta is at most -temperature *
    log(1 - u): always when it does not raise the surrogate, otherwise with
    probability exp(-delta / temperature). Then one call of
    walk_kernel.flip_walk or swap_walk on the model's workspace builds the
    local field at x and runs the proposals (n_iters = 0 only builds it).

    This is the local-field Metropolis of Ising annealers. Write the
    surrogate with coefficients a as

        f(x) = a_0 + lin . x + x^T A x / 2 + sum_{|I| >= 3} c_I,

    where A is symmetric with a zero diagonal and c_I = a_I psi_I(x). With
    the field h = lin + A x and g_i = sum of c_I over the degree >= 3 terms
    I containing i, flipping coordinate i changes f by

        -2 (x_i h_i + g_i),

    and flipping i and j together changes it by

        -2 (x_i h_i + x_j h_j + g_i + g_j) + 4 A_ij x_i x_j + 4 s_ij,

    where s_ij is the sum of c_I over the degree >= 3 terms containing both.
    Accepting a flip of k is the row update h -= 2 x_k A[k] and, term by
    term for the degree >= 3 terms containing k, negating c_I and taking
    2 * (old c_I) off g at the term's coordinates. For m <= 2 there are none.
    """
    if n_iters < 0:
        raise ValueError(f"n_iters must be nonnegative, got {n_iters!r}")
    ws = model.workspace
    ws.x[:] = model.basis.point(x)
    if not contains(constraint, ws.x):
        raise ValueError("initial point does not satisfy the constraint set")
    swaps = isinstance(constraint, SumConstrained)
    if swaps:
        moves = (rng.integers(constraint.n, size=n_iters),
                 rng.integers(constraint.d - constraint.n, size=n_iters))
    else:
        moves = (rng.integers(constraint.d, size=n_iters),)
    limits = temperature * -np.log1p(-rng.random(n_iters))
    accepted = (walk_kernel.swap_walk if swaps else walk_kernel.flip_walk)(ws, *moves, limits)
    return ws.x.copy(), accepted


def propose_query(model: MonomialSurrogate, constraint: ConstraintSet,
                  schedule: AnnealSchedule, n_iters: int, rng: np.random.Generator,
                  step: int = 0, x_init=None, n_chains: int = 1) -> np.ndarray:
    """Advance the acquisition walk over the surrogate by n_iters proposals.

    The walk runs at the single temperature s(step), where `step` is the
    outer evaluation counter: one cooling step per oracle evaluation, so the
    anneal completes over the whole run rather than inside one acquisition
    (a fully cooled per-step anneal collapses onto the surrogate argmin and
    deadlocks on noiseless objectives). At s(step) the walk is a Metropolis
    sampler of exp(-prediction/s), the acquisition distribution the
    Boltzmann audit analyzes; see `walk`.
    `x_init` continues the persistent chain; when None the chain starts
    fresh from a uniform point. With several chains the first continues
    from x_init, the rest restart uniformly, and the lowest-scoring final
    point wins (a single chain's point is returned unscored); chains run
    sequentially so the result is a pure function of the rng.
    """
    temperature = schedule(step)
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains!r}")
    best_x, best_fx = None, math.inf
    for chain in range(n_chains):
        start = x_init if (chain == 0 and x_init is not None) else sample_uniform(constraint, rng)
        x, _ = walk(model, start, constraint, temperature, n_iters, rng)
        if n_chains == 1:
            return x
        fx = model.predict(x)
        if fx < best_fx:
            best_x, best_fx = x, fx
    return best_x
