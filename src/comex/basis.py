"""Bounded-degree monomial (parity) features on spin vectors.

A monomial is a product of a subset of coordinates; on {-1,+1} inputs its
value is again +/-1. The basis of all monomials of degree at most m has
p = sum_{k<=m} C(d, k) terms and spans the degree-<=m multilinear
polynomials, which serve as the surrogate model class.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = ["MonomialBasis", "enumerate_basis", "evaluate_monomial", "basis_size"]


class MonomialBasis:
    """All index sets I with |I| <= m over d coordinates, in a fixed order.

    Terms are sorted by ascending degree, then lexicographically, so term 0
    is the constant monomial (empty set), terms 1..d the coordinates, the
    next C(d, 2) the pairs and the rest, from `high_start` on, the terms of
    degree >= 3. `padded` holds each term's coordinates padded with the
    index d. For the acquisition walk's local field (see
    comex.acquisition.walk) the basis also stores, per coordinate,
    the positions among the degree >= 3 terms of those containing it, as
    one CSR table. Every index array is read-only, so a basis can be shared
    (see enumerate_basis).
    """

    def __init__(self, d: int, m: int):
        if d < 1:
            raise ValueError("dimension must be a positive integer")
        if not 1 <= m <= d:
            raise ValueError(f"order must satisfy 1 <= m <= d, got m={m}, d={d}")
        self.d = d
        self.m = m
        self.terms: tuple[tuple[int, ...], ...] = tuple(
            itertools.chain.from_iterable(
                itertools.combinations(range(d), k) for k in range(m + 1)
            )
        )
        self.p = len(self.terms)
        self.high_start = basis_size(d, min(m, 2))

        # Var matrix padded with the sentinel index d; products are taken
        # against x extended by a trailing 1.0, so padding is a no-op.
        padded = np.full((self.p, m), d, dtype=np.int64)
        for row, term in zip(padded, self.terms):
            row[: len(term)] = term
        self.padded = padded

        # The degree >= 3 terms containing coordinate k, as positions among
        # them in ascending order: high_index[high_ptr[k]:high_ptr[k + 1]].
        containing: list[list[int]] = [[] for _ in range(d)]
        for pos, term in enumerate(self.terms[self.high_start:]):
            for i in term:
                containing[i].append(pos)
        self.high_ptr = np.cumsum([0] + [len(ids) for ids in containing])
        self.high_index = np.array([pos for ids in containing for pos in ids], dtype=np.int64)
        for table in (padded, self.high_ptr, self.high_index):
            table.flags.writeable = False

    def __repr__(self):
        return f"MonomialBasis(d={self.d}, m={self.m}, p={self.p})"

    def point(self, x) -> np.ndarray:
        """x as a float64 array; a ValueError unless it has shape (d,)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"point has shape {x.shape}, basis expects ({self.d},)")
        return x

    def features(self, x) -> np.ndarray:
        """Vector of all p monomial values at x (entries +/-1)."""
        return np.prod(np.append(self.point(x), 1.0)[self.padded], axis=1)


@functools.lru_cache(maxsize=8)
def enumerate_basis(d: int, m: int) -> MonomialBasis:
    """The canonical degree-<=m basis in dimension d, built once per process
    and shared by every caller."""
    return MonomialBasis(d, m)


def evaluate_monomial(term, x) -> float:
    """Product of the selected spins; the empty product is +1."""
    x = np.asarray(x, dtype=np.float64)
    term = tuple(term)
    if term and (min(term) < 0 or max(term) >= x.size):
        raise IndexError(f"term {term} out of range for a length-{x.size} point")
    if not term:
        return 1.0
    return float(np.prod(x[list(term)]))


def basis_size(d: int, m: int) -> int:
    """p = sum_{k=0}^{m} C(d, k) without building the basis."""
    return sum(math.comb(d, k) for k in range(m + 1))
