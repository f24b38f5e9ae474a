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
    "LocalField",
    "propose_query",
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


class LocalField:
    """The surrogate's one- and two-coordinate move deltas at a walk point,
    kept up to date as the point moves.

    This is the incremental local-field form of Metropolis used by Ising
    annealers. Write the surrogate with coefficients a as

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
    2 * (old c_I) off g at the term's coordinates; g[d] takes the padding
    index of basis.high_coords and is never read. For m <= 2 there are none.
    """

    def __init__(self, model: MonomialSurrogate, x):
        basis = model.basis
        a = model.coefficients
        self.basis = basis
        self.x = np.array(x, dtype=np.float64)
        if self.x.shape != (basis.d,):
            raise ValueError(f"point has shape {self.x.shape}, basis expects ({basis.d},)")
        rows, cols = basis.pair_coords.T
        A = np.zeros((basis.d, basis.d))
        A[rows, cols] = a[basis.pair_ids]
        A += A.T
        self._A = A
        self._h = a[basis.linear_ids] + A @ self.x
        x_aug = np.append(self.x, 1.0)
        self._c = a[basis.high_ids] * np.prod(x_aug[basis.high_coords], axis=1)
        self._g = np.bincount(basis.high_coords.ravel(), minlength=basis.d + 1,
                              weights=np.repeat(self._c, basis.high_coords.shape[1]))
        self.accepted = 0
        self.plus = self.minus = None

    def _pair_sum(self, i: int, j: int) -> float:
        """sum of c_I over the degree >= 3 terms I containing i and j, added
        one by one in term order (the native walk's order)."""
        start, stop = self.basis.high_ptr[i:i + 2]
        pos = self.basis.high_index[start:stop]
        both = (self.basis.high_coords[pos] == j).any(axis=1)
        total = 0.0
        for value in self._c[pos[both]].tolist():
            total += value
        return total

    def _negate_high(self, k: int) -> None:
        """Negate c_I for the degree >= 3 terms containing k, updating g term by term."""
        start, stop = self.basis.high_ptr[k:k + 2]
        pos = self.basis.high_index[start:stop]
        old = self._c[pos]
        self._c[pos] = -old
        coords = self.basis.high_coords[pos]
        np.subtract.at(self._g, coords.ravel(), np.repeat(2.0 * old, coords.shape[1]))

    def walk(self, constraint: ConstraintSet, temperature: float, n_iters: int,
             rng: np.random.Generator) -> np.ndarray:
        """n_iters Metropolis proposals at one temperature; returns the final point.

        The randomness is drawn before the walk, one rng call per array:
        first the moves (unconstrained: the coordinate to flip; sum-
        constrained: a position in the list `plus` of +1 coordinates, then a
        position in the list `minus` of -1 coordinates, whose entries trade
        places when the swap is accepted), then one uniform u per proposal.
        A proposal is accepted when its delta is at most
        -temperature * log(1 - u): always when it does not raise the
        surrogate, otherwise with probability exp(-delta / temperature).

        The proposals run in the native kernel (comex.walk_kernel) or, when
        it cannot be built, in the Python loops `_flip_walk` and `_swap_walk`.
        These are its reference: both do the same floating-point operations
        in the same order, so the path changes speed, never results. The
        number of accepted proposals is left in `accepted`.
        """
        if not contains(constraint, self.x):
            raise ValueError("initial point does not satisfy the constraint set")
        self.accepted = 0
        if n_iters <= 0:
            return self.x.copy()
        if isinstance(constraint, SumConstrained):
            self.plus = np.flatnonzero(self.x == 1.0)
            self.minus = np.flatnonzero(self.x == -1.0)
            moves = (self.plus, self.minus, rng.integers(self.plus.size, size=n_iters),
                     rng.integers(self.minus.size, size=n_iters))
        else:
            moves = (rng.integers(self.basis.d, size=n_iters),)
        limits = temperature * -np.log1p(-rng.random(n_iters))
        library = walk_kernel.load()
        if library is not None:
            self.accepted = self._native_walk(library, moves, limits)
        elif len(moves) == 1:
            self.accepted = self._flip_walk(*moves, limits)
        else:
            self.accepted = self._swap_walk(*moves, limits)
        return self.x.copy()

    def _native_walk(self, library, moves: tuple, limits: np.ndarray) -> int:
        """The walk in `_walk.c`; every array is contiguous and updated in place."""
        basis = self.basis
        run = library.flip_walk if len(moves) == 1 else library.swap_walk
        return run(basis.d, limits.size,
                   *(a.ctypes.data for a in (*moves, limits, self.x, self._h, self._A)),
                   self._c.size, basis.m,
                   *(a.ctypes.data for a in (self._g, self._c, basis.high_ptr,
                                             basis.high_index, basis.high_coords)))

    def _flip_walk(self, flips: np.ndarray, limits: np.ndarray) -> int:
        """Single-coordinate flips in Python: the reference of flip_walk."""
        h, g = self._h, self._g
        h_at = h.item
        rows = list(2.0 * self._A)
        high = self._c.size > 0
        x = self.x.tolist()
        accepted = 0
        for i, limit in zip(flips.tolist(), limits.tolist()):
            xi = x[i]
            delta = -2.0 * xi * h_at(i)
            if high:
                delta -= 2.0 * g[i]
            if delta <= limit:
                if xi > 0.0:
                    h -= rows[i]
                else:
                    h += rows[i]
                x[i] = -xi
                if high:
                    self._negate_high(i)
                accepted += 1
        self.x[:] = x
        return accepted

    def _swap_walk(self, plus: np.ndarray, minus: np.ndarray, take_plus: np.ndarray,
                   take_minus: np.ndarray, limits: np.ndarray) -> int:
        """+1/-1 swaps in Python: the reference of swap_walk."""
        h, g = self._h, self._g
        h_at = h.item
        rows = list(2.0 * self._A)
        quad = (4.0 * self._A).tolist()
        high = self._c.size > 0
        plus_at, minus_at = plus.tolist(), minus.tolist()
        accepted = 0
        for a, b, limit in zip(take_plus.tolist(), take_minus.tolist(), limits.tolist()):
            i, j = plus_at[a], minus_at[b]      # x_i = +1, x_j = -1
            delta = 2.0 * (h_at(j) - h_at(i)) - quad[i][j]
            if high:
                delta += 4.0 * self._pair_sum(i, j) - 2.0 * (g[i] + g[j])
            if delta <= limit:
                plus_at[a], minus_at[b] = j, i
                h -= rows[i]
                h += rows[j]
                if high:
                    self._negate_high(i)
                    self._negate_high(j)
                accepted += 1
        plus[:], minus[:] = plus_at, minus_at
        self.x[:] = -1.0
        self.x[plus] = 1.0
        return accepted


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
    Boltzmann audit analyzes; each proposal is scored from a LocalField.
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
        x = LocalField(model, start).walk(constraint, temperature, n_iters, rng)
        if n_chains == 1:
            return x
        fx = model.predict(x)
        if fx < best_fx:
            best_x, best_fx = x, fx
    return best_x
