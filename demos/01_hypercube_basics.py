"""Points, constraints, and neighborhoods on the signed hypercube.

Walks through the two constraint families, the bit/spin conversion, and the
uniform samplers that every optimizer in the package builds on.
"""

import numpy as np

from comex import (
    SumConstrained,
    Unconstrained,
    apply_flips,
    contains,
    from_bits,
    hamming_distance,
    neighbor_move,
    sample_uniform,
    to_bits,
)

rng = np.random.default_rng(0)

print("== bit <-> spin encoding ==")
bits = np.array([1, 0, 1, 1, 0])
spins = from_bits(bits)
print(f"bits  {bits}  ->  spins {spins}")
print(f"round trip: {to_bits(spins)}")

print("\n== unconstrained domain ==")
cube = Unconstrained(8)
x = sample_uniform(cube, rng)
y = apply_flips(x, neighbor_move(cube, x, rng))
print(f"point     {x}")
print(f"neighbor  {y}   (Hamming distance {hamming_distance(x, y)})")

print("\n== sum-constrained domain: exactly n coordinates on ==")
slice_ = SumConstrained(10, 3)
x = sample_uniform(slice_, rng)
print(f"point     {x}   (ones: {int((x == 1).sum())})")
y = apply_flips(x, neighbor_move(slice_, x, rng))
print(f"neighbor  {y}   (ones: {int((y == 1).sum())}, distance {hamming_distance(x, y)})")
print(f"neighbor stays feasible: {contains(slice_, y)}")

print("\nneighbor moves swap one on-coordinate with one off-coordinate, so")
print("local search never leaves the constraint slice.")
