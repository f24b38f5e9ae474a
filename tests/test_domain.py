import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comex.domain import (
    SumConstrained,
    Unconstrained,
    apply_flips,
    contains,
    enumerate_points,
    from_bits,
    hamming_distance,
    neighbor_move,
    sample_uniform,
    to_bits,
)


def test_from_bits_examples():
    assert np.array_equal(from_bits([0, 0, 0]), [-1.0, -1.0, -1.0])
    assert np.array_equal(from_bits([1, 1, 1]), [1.0, 1.0, 1.0])
    assert np.array_equal(from_bits([1, 0, 1]), [1.0, -1.0, 1.0])


def test_from_bits_rejects_non_bits():
    with pytest.raises(ValueError):
        from_bits([0, 2, 1])


NON_SPINS = [0.5, np.nan, np.inf, -np.inf, 0.0, 1.0 + 2.0**-52, -1.0 - 2.0**-52]


def test_to_bits_rejects_non_spins():
    for bad in NON_SPINS:
        with pytest.raises(ValueError, match="spin vectors"):
            to_bits([bad, 1.0])
    with pytest.raises(ValueError, match="spin vectors"):
        to_bits(np.ones((2, 2)))


def test_bits_roundtrip_exhaustive_d10():
    for bits in itertools.product((0, 1), repeat=10):
        bits = np.array(bits)
        assert np.array_equal(to_bits(from_bits(bits)), bits)


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64))
def test_bits_roundtrip_property(bits):
    bits = np.array(bits)
    assert np.array_equal(to_bits(from_bits(bits)), bits)


def test_hamming_examples():
    x = np.array([1.0, -1.0, 1.0])
    assert hamming_distance(x, x) == 0
    assert hamming_distance([1.0, -1.0], [-1.0, 1.0]) == 2
    assert hamming_distance([1.0, 1.0, 1.0], [1.0, -1.0, 1.0]) == 1
    with pytest.raises(ValueError):
        hamming_distance([1.0], [1.0, -1.0])


def test_contains_examples():
    assert contains(Unconstrained(3), [1.0, -1.0, 1.0])
    assert contains(SumConstrained(4, 2), [1.0, 1.0, -1.0, -1.0])
    assert not contains(SumConstrained(4, 2), [1.0, 1.0, 1.0, -1.0])


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(Unconstrained(3), [1.0, -1.0])
    with pytest.raises(ValueError):
        contains(Unconstrained(3), np.ones((3, 3)))


@pytest.mark.parametrize("bad", NON_SPINS)
@pytest.mark.parametrize("constraint", [Unconstrained(3), SumConstrained(3, 1)])
def test_contains_rejects_non_spins(constraint, bad):
    with pytest.raises(ValueError, match="spin vectors"):
        contains(constraint, [1.0, bad, -1.0])


def test_constraint_validation():
    with pytest.raises(ValueError):
        SumConstrained(4, 0)
    with pytest.raises(ValueError):
        SumConstrained(4, 4)
    with pytest.raises(ValueError):
        Unconstrained(0)


def test_sample_uniform_unconstrained_coordinate_means():
    # law-of-large-numbers check; window is ~6 sigma for 1e5 draws
    rng = np.random.default_rng(7)
    c = Unconstrained(20)
    total = np.zeros(20)
    n = 100_000
    for _ in range(n):
        total += sample_uniform(c, rng)
    means = total / n
    assert np.all(np.abs(means) <= 0.02)


def test_sample_uniform_sum_constrained_exact_count():
    rng = np.random.default_rng(3)
    c = SumConstrained(10, 3)
    for _ in range(300):
        x = sample_uniform(c, rng)
        assert int(np.count_nonzero(x == 1.0)) == 3


def test_sample_uniform_sum_constrained_subset_frequencies():
    rng = np.random.default_rng(11)
    c = SumConstrained(4, 2)
    counts = {}
    n = 60_000
    for _ in range(n):
        key = tuple(np.flatnonzero(sample_uniform(c, rng) == 1.0))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for key, count in counts.items():
        assert abs(count / n - 1 / 6) <= 0.01, (key, count / n)


def test_sample_neighbor_unconstrained_distance_one():
    rng = np.random.default_rng(0)
    c = Unconstrained(5)
    for _ in range(100):
        x = sample_uniform(c, rng)
        y = apply_flips(x, neighbor_move(c, x, rng))
        assert hamming_distance(x, y) == 1
        assert contains(c, y)


def test_sample_neighbor_sum_constrained_distance_two():
    rng = np.random.default_rng(1)
    c = SumConstrained(6, 2)
    for _ in range(100):
        x = sample_uniform(c, rng)
        y = apply_flips(x, neighbor_move(c, x, rng))
        assert hamming_distance(x, y) == 2
        assert contains(c, y)


def test_sample_neighbor_unconstrained_frequencies():
    rng = np.random.default_rng(5)
    c = Unconstrained(4)
    x = np.array([1.0, -1.0, 1.0, 1.0])
    counts = np.zeros(4)
    n = 40_000
    for _ in range(n):
        y = apply_flips(x, neighbor_move(c, x, rng))
        counts[int(np.flatnonzero(y != x)[0])] += 1
    assert np.all(np.abs(counts / n - 0.25) <= 0.01)


def _neighbors(c, x):
    out = set()
    if isinstance(c, SumConstrained):
        for i in np.flatnonzero(x == 1.0):
            for j in np.flatnonzero(x == -1.0):
                out.add(apply_flips(x, (int(i), int(j))).tobytes())
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sum_constrained_neighborhood_is_symmetric(n):
    c = SumConstrained(6, n)
    points = enumerate_points(c)
    neighbor_sets = {p.tobytes(): _neighbors(c, p) for p in points}
    for p in points:
        for q_bytes in neighbor_sets[p.tobytes()]:
            assert p.tobytes() in neighbor_sets[q_bytes]


@given(st.integers(2, 10), st.integers(0, 2**10 - 1), st.integers(0, 10**6))
@settings(max_examples=80)
def test_neighbor_stays_in_constraint(d, code, seed):
    rng = np.random.default_rng(seed)
    bits = np.array([(code >> k) & 1 for k in range(d)])
    n = int(bits.sum())
    if 0 < n < d:
        c = SumConstrained(d, n)
        x = from_bits(bits)
        assert contains(c, apply_flips(x, neighbor_move(c, x, rng)))
    c = Unconstrained(d)
    x = from_bits(bits)
    assert contains(c, apply_flips(x, neighbor_move(c, x, rng)))


def test_neighbor_move_indices_valid():
    rng = np.random.default_rng(2)
    c = SumConstrained(8, 3)
    x = sample_uniform(c, rng)
    i, j = neighbor_move(c, x, rng)
    assert x[i] == 1.0 and x[j] == -1.0


def test_enumerate_points_counts():
    assert enumerate_points(Unconstrained(4)).shape == (16, 4)
    assert enumerate_points(SumConstrained(5, 2)).shape == (10, 5)
    with pytest.raises(ValueError):
        enumerate_points(Unconstrained(17))
