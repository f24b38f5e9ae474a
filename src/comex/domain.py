"""Points, constraints, and neighborhood moves on the signed Boolean hypercube.

Points are numpy vectors with entries in {-1.0, +1.0} ("spin" encoding).
Bit vectors in {0, 1} appear only at problem boundaries and are converted
with :func:`from_bits` / :func:`to_bits`; bit 1 ("selected") maps to spin +1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Unconstrained",
    "SumConstrained",
    "ConstraintSet",
    "from_bits",
    "to_bits",
    "hamming_distance",
    "contains",
    "sample_uniform",
    "neighbor_move",
    "apply_flips",
    "enumerate_points",
]

_ENUMERATION_LIMIT = 16


def _check_spins(x: np.ndarray) -> None:
    """Reject x unless it is 1-d with entries in {-1, +1}; x is float64."""
    if x.ndim != 1 or not (np.abs(x) == 1.0).all():
        raise ValueError("spin vectors must be 1-d with entries in {-1, +1}")


def from_bits(bits) -> np.ndarray:
    """Map a {0,1} vector to spins via s = 2*b - 1."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
        raise ValueError("bit vectors must be 1-d with entries in {0, 1}")
    return 2.0 * bits.astype(np.float64) - 1.0


def to_bits(spins) -> np.ndarray:
    """Inverse of :func:`from_bits`; spin +1 maps to bit 1."""
    spins = np.asarray(spins, dtype=np.float64)
    _check_spins(spins)
    return (spins > 0.0).astype(np.int64)


def hamming_distance(x, y) -> int:
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    return int(np.count_nonzero(x != y))


@dataclass(frozen=True)
class Unconstrained:
    """The full hypercube in dimension d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")


@dataclass(frozen=True)
class SumConstrained:
    """Spin vectors with exactly n coordinates equal to +1.

    n = 0 and n = d are rejected: the one-swap neighborhood of such points
    is empty.
    """

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")
        if not 0 < self.n < self.d:
            raise ValueError(f"need 0 < n < d, got n={self.n}, d={self.d}")


ConstraintSet = Union[Unconstrained, SumConstrained]


def contains(c: ConstraintSet, x) -> bool:
    """True iff x is a member of the constraint set."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (c.d,):
        raise ValueError(f"point has shape {x.shape}, constraint expects ({c.d},)")
    _check_spins(x)
    if isinstance(c, SumConstrained):
        return int(np.count_nonzero(x == 1.0)) == c.n
    return True


def sample_uniform(c: ConstraintSet, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly random member of the constraint set."""
    if isinstance(c, SumConstrained):
        x = np.full(c.d, -1.0)
        x[rng.choice(c.d, size=c.n, replace=False)] = 1.0
        return x
    return np.where(rng.random(c.d) < 0.5, -1.0, 1.0)


def neighbor_move(c: ConstraintSet, x: np.ndarray, rng: np.random.Generator) -> tuple[int, ...]:
    """Coordinates to flip for one uniformly drawn neighbor of x.

    Unconstrained: a single uniformly chosen coordinate. Sum-constrained:
    one +1 coordinate and one -1 coordinate (a swap, Hamming distance 2,
    which stays inside the constraint set).
    """
    if isinstance(c, SumConstrained):
        plus = np.flatnonzero(x == 1.0)
        minus = np.flatnonzero(x == -1.0)
        return (
            int(plus[rng.integers(plus.size)]),
            int(minus[rng.integers(minus.size)]),
        )
    return (int(rng.integers(c.d)),)


def apply_flips(x: np.ndarray, move: tuple[int, ...]) -> np.ndarray:
    """Return a copy of x with the given coordinates sign-flipped."""
    y = np.array(x, dtype=np.float64)
    y[list(move)] *= -1.0
    return y


def enumerate_points(c: ConstraintSet) -> np.ndarray:
    """All members of the constraint set as a matrix, in a fixed order.

    Unconstrained order is binary counting with -1 before +1 and coordinate 0
    most significant. Intended for audits and tests; refuses d beyond
    enumeration scale.
    """
    if c.d > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration refused for d > {_ENUMERATION_LIMIT}")
    if isinstance(c, SumConstrained):
        rows = []
        for subset in itertools.combinations(range(c.d), c.n):
            x = np.full(c.d, -1.0)
            x[list(subset)] = 1.0
            rows.append(x)
        return np.array(rows)
    return np.array(list(itertools.product((-1.0, 1.0), repeat=c.d)))
