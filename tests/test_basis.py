import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comex.basis import (
    MonomialBasis,
    basis_size,
    enumerate_basis,
    evaluate_monomial,
)
from comex.domain import Unconstrained, enumerate_points, sample_uniform


def test_enumeration_d3_m1():
    basis = enumerate_basis(3, 1)
    assert basis.terms == ((), (0,), (1,), (2,))
    assert basis.p == 4


def test_enumeration_d24_m3_size():
    expected = sum(math.comb(24, k) for k in range(4))
    assert expected == 2325  # binomial-sum oracle
    assert enumerate_basis(24, 3).p == expected


def test_enumeration_d4_m2_order():
    basis = enumerate_basis(4, 2)
    assert basis.p == sum(math.comb(4, k) for k in range(3)) == 11
    assert basis.terms[:6] == ((), (0,), (1,), (2,), (3,), (0, 1))


@given(st.integers(1, 12), st.data())
def test_size_matches_binomial_sum(d, data):
    m = data.draw(st.integers(1, d))
    assert enumerate_basis(d, m).p == basis_size(d, m)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        enumerate_basis(3, 0)
    with pytest.raises(ValueError):
        enumerate_basis(3, 4)


def test_evaluate_monomial_examples():
    x = np.array([1.0, -1.0, -1.0])
    assert evaluate_monomial((), x) == 1.0
    assert evaluate_monomial((0, 2), x) == -1.0
    assert evaluate_monomial((0, 1, 2), [-1.0, -1.0, -1.0]) == -1.0
    with pytest.raises(IndexError):
        evaluate_monomial((5,), x)


def test_features_d2_examples():
    basis = enumerate_basis(2, 2)
    assert np.array_equal(basis.features([1.0, 1.0]), [1.0, 1.0, 1.0, 1.0])
    # order {}, {0}, {1}, {0,1}
    assert np.array_equal(basis.features([-1.0, 1.0]), [1.0, -1.0, 1.0, -1.0])


def test_features_entries_are_signs():
    rng = np.random.default_rng(0)
    basis = enumerate_basis(7, 3)
    for _ in range(20):
        feats = basis.features(sample_uniform(Unconstrained(7), rng))
        assert feats.shape == (basis.p,)
        assert np.all(np.abs(feats) == 1.0)


def test_features_match_per_term_evaluation():
    rng = np.random.default_rng(1)
    basis = enumerate_basis(6, 3)
    x = sample_uniform(Unconstrained(6), rng)
    feats = basis.features(x)
    for tid, term in enumerate(basis.terms):
        assert feats[tid] == evaluate_monomial(term, x)


def test_parity_property_exhaustive_d8():
    basis = enumerate_basis(8, 3)
    degrees = np.array([len(t) for t in basis.terms])
    for x in enumerate_points(Unconstrained(8)):
        lhs = basis.features(-x)
        rhs = ((-1.0) ** degrees) * basis.features(x)
        assert np.array_equal(lhs, rhs)


def test_orthogonality_full_basis_d6():
    # over all 2^d points, sum_x psi_I(x) psi_J(x) = 2^d * 1{I == J}
    basis = enumerate_basis(6, 6)
    features = np.stack([basis.features(x) for x in enumerate_points(Unconstrained(6))])
    gram = features.T @ features
    assert np.array_equal(gram, 64.0 * np.eye(basis.p))


def test_enumeration_is_deterministic():
    assert enumerate_basis(9, 2).terms == enumerate_basis(9, 2).terms


def test_dimension_mismatch_rejected():
    basis = enumerate_basis(4, 2)
    with pytest.raises(ValueError):
        basis.features([1.0, -1.0])


def test_high_degree_csr_rows_match_brute_force():
    for d, m in [(6, 4), (7, 3), (5, 2)]:
        basis = MonomialBasis(d, m)
        high_terms = [term for term in basis.terms if len(term) >= 3]
        assert basis.terms[basis.high_start:] == tuple(high_terms)
        low_degrees = [0] + [1] * d + [2] * math.comb(d, 2)
        assert [len(term) for term in basis.terms[:basis.high_start]] == low_degrees
        assert basis.high_ptr.shape == (d + 1,)
        for k in range(d):
            row = basis.high_index[basis.high_ptr[k]:basis.high_ptr[k + 1]]
            assert row.tolist() == [pos for pos, term in enumerate(high_terms) if k in term]


def test_basis_index_arrays_are_read_only():
    basis = MonomialBasis(5, 3)
    tables = {name for name, value in vars(basis).items() if isinstance(value, np.ndarray)}
    assert tables == {"padded", "high_ptr", "high_index"}
    for table in (basis.padded, basis.high_ptr, basis.high_index):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 7


def test_enumerate_basis_is_built_once_per_dimension_and_order():
    assert enumerate_basis(7, 2) is enumerate_basis(7, 2)
    assert enumerate_basis(7, 2) is not enumerate_basis(7, 3)
