import itertools

import numpy as np
import pytest

from lutc.basis import (
    count_monomials,
    enumerate_basis,
    expand,
    expand_vjp,
    weighted_expand,
    weighted_sum,
)


def expand_grad(x, basis):
    """Jacobian oracle of expand at a length-F vector: entry (i, j) is
    d m_i / d x_j = e_ij * m[lowered[i, j]], an (M, F) matrix."""
    x = np.asarray(x, dtype=np.float64)
    assert x.shape == (basis.fan_in,)
    return basis.exponents * expand(x, basis)[basis.lowered]


def brute_force_exponents(fan_in, degree):
    """Independent enumeration: every exponent tuple with sum <= degree."""
    return {
        e
        for e in itertools.product(range(degree + 1), repeat=fan_in)
        if sum(e) <= degree
    }


def test_count_matches_brute_force():
    for fan_in in range(1, 9):
        for degree in range(0, 7):
            assert count_monomials(fan_in, degree) == len(
                brute_force_exponents(fan_in, degree)
            )


def test_count_examples():
    assert count_monomials(2, 3) == 10
    assert count_monomials(5, 0) == 1
    assert count_monomials(4, 2) == 15


def test_count_overflow_guard():
    with pytest.raises(OverflowError):
        count_monomials(1, 2**63)


def test_basis_2_3_term_by_term():
    # the canonical 10-term degree-3 expansion of [x0, x1]
    basis = enumerate_basis(2, 3)
    expected = [
        (0, 0),  # 1
        (1, 0), (0, 1),  # x0, x1
        (2, 0), (1, 1), (0, 2),  # x0^2, x0*x1, x1^2
        (3, 0), (2, 1), (1, 2), (0, 3),  # x0^3, x0^2*x1, x0*x1^2, x1^3
    ]
    assert [tuple(row) for row in basis.exponents] == expected


def test_basis_degree_one_is_affine():
    basis = enumerate_basis(3, 1)
    assert [tuple(r) for r in basis.exponents] == [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ]


def test_basis_single_variable():
    basis = enumerate_basis(1, 2)
    assert [tuple(r) for r in basis.exponents] == [(0,), (1,), (2,)]


def test_basis_invariants():
    for fan_in in range(1, 7):
        for degree in range(1, 5):
            b = enumerate_basis(fan_in, degree)
            assert len(b) == count_monomials(fan_in, degree)
            rows = [tuple(r) for r in b.exponents]
            assert len(set(rows)) == len(rows)
            assert rows[0] == (0,) * fan_in
            degs = [sum(r) for r in rows]
            assert degs == sorted(degs)


def test_basis_cap():
    with pytest.raises(ValueError):
        enumerate_basis(8, 6, max_terms=100)


def test_basis_order_is_pure():
    a = enumerate_basis(4, 3)
    b = enumerate_basis(4, 3)
    assert a == b


def test_expand_example():
    out = expand([2.0, 3.0], enumerate_basis(2, 2))
    assert np.array_equal(out, [1, 2, 3, 4, 6, 9])


def test_expand_zero_input():
    basis = enumerate_basis(3, 3)
    out = expand([0.0, 0.0, 0.0], basis)
    assert out[0] == 1.0
    assert np.all(out[1:] == 0.0)


def test_expand_degree_one_is_identity_plus_constant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=5)
    out = expand(x, enumerate_basis(5, 1))
    assert out[0] == 1.0
    assert np.array_equal(out[1:], x)


def test_expand_batched():
    basis = enumerate_basis(2, 2)
    xs = np.array([[2.0, 3.0], [0.0, 1.0]])
    out = expand(xs, basis)
    assert out.shape == (2, 6)
    assert np.array_equal(out[0], [1, 2, 3, 4, 6, 9])


def test_expand_grad_product_rule():
    basis = enumerate_basis(2, 2)
    grad = expand_grad(np.array([2.0, 3.0]), basis)
    # row for x0*x1 -> [x1, x0]
    i = [tuple(r) for r in basis.exponents].index((1, 1))
    assert np.array_equal(grad[i], [3.0, 2.0])
    # constant row -> zeros
    assert np.all(grad[0] == 0.0)
    # x0^2 row -> [2*x0, 0]
    j = [tuple(r) for r in basis.exponents].index((2, 0))
    assert np.array_equal(grad[j], [4.0, 0.0])


def test_expand_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for fan_in, degree in [(2, 3), (3, 2), (4, 4)]:
        basis = enumerate_basis(fan_in, degree)
        # bounded away from 0 so relative errors are well defined
        x = rng.uniform(0.5, 2.0, fan_in) * rng.choice([-1.0, 1.0], fan_in)
        grad = expand_grad(x, basis)
        for j in range(fan_in):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (expand(xp, basis) - expand(xm, basis)) / (2 * h)
            rel = np.abs(fd - grad[:, j]) / np.maximum(
                1e-6, np.maximum(np.abs(fd), np.abs(grad[:, j]))
            )
            assert rel.max() < 1e-6


def test_lowered_table():
    for fan_in, degree in [(1, 3), (2, 3), (4, 2)]:
        basis = enumerate_basis(fan_in, degree)
        rows = [tuple(r) for r in basis.exponents]
        for i, row in enumerate(rows):
            for j in range(fan_in):
                if row[j] == 0:
                    assert basis.lowered[i, j] == 0
                else:
                    down = row[:j] + (row[j] - 1,) + row[j + 1 :]
                    assert rows[basis.lowered[i, j]] == down


def test_expand_multiplies_left_to_right():
    # x0^2*x1 must be (x0*x0)*x1 in floating point, not x0*(x0*x1)
    basis = enumerate_basis(2, 3)
    x = np.array([0.1, 0.7])
    i = [tuple(r) for r in basis.exponents].index((2, 1))
    assert expand(x, basis)[i] == (x[0] * x[0]) * x[1]


def test_expand_vjp_matches_jacobian():
    rng = np.random.default_rng(2)
    basis = enumerate_basis(3, 3)
    x = rng.normal(size=(4, 3))
    dm = rng.normal(size=(4, len(basis)))
    got = expand_vjp(expand(x, basis), dm, basis)
    want = np.stack([dm[r] @ expand_grad(x[r], basis) for r in range(4)])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_weighted_sum_is_sequential_in_basis_order():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 2, 7))
    w = rng.normal(size=(2, 7))
    want = np.zeros((5, 2))
    for i in range(7):
        want = want + w[:, i] * m[..., i]
    assert np.array_equal(weighted_sum(m, w), want)
    # monomials shared by every neuron broadcast over the neurons
    assert np.array_equal(weighted_sum(m[:, :1], w), weighted_sum(np.repeat(m[:, :1], 2, 1), w))


@pytest.mark.parametrize("fan_in, degree, parents", [(3, 4, 20), (6, 4, 84), (2, 3, 6),
                                                      (5, 1, 1)])
def test_parents_are_the_terms_below_the_top_degree(fan_in, degree, parents):
    basis = enumerate_basis(fan_in, degree)
    assert basis.parents == parents
    assert (basis.exponents[:parents].sum(axis=1) < degree).all()
    assert max(parent for parent, _ in basis.steps) < parents


def test_weighted_expand_rejects_mismatched_shapes():
    basis = enumerate_basis(2, 2)
    with pytest.raises(ValueError, match="last axis 2"):
        weighted_expand(np.zeros((3, 1, 3)), basis, np.zeros((2, 6)))
    with pytest.raises(ValueError, match="6 weights"):
        weighted_expand(np.zeros((3, 1, 2)), basis, np.zeros((2, 5)))
