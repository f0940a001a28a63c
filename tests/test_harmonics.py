import numpy as np
import pytest

import naive
from ellipsym import UsageError, build_basis, harmonic_dim


def unit_rows(rng, n, d):
    Z = rng.standard_normal((n, d))
    return Z / np.linalg.norm(Z, axis=1)[:, None]


def test_harmonic_dim_table():
    # dim H(d, k) = C(d+k-1, k) - C(d+k-3, k-2)
    assert [harmonic_dim(2, k) for k in range(5)] == [1, 2, 2, 2, 2]
    assert [harmonic_dim(3, k) for k in range(5)] == [1, 3, 5, 7, 9]
    assert [harmonic_dim(4, k) for k in range(5)] == [1, 4, 9, 16, 25]
    assert [harmonic_dim(5, k) for k in range(5)] == [1, 5, 14, 30, 55]
    assert harmonic_dim(np.int64(3), np.uint8(2)) == 5


def test_basis_sizes_and_degrees():
    for d in (2, 3, 4, 5):
        basis = build_basis(d)
        for k in range(5):
            sl = basis.degree_slice(k)
            assert sl.stop - sl.start == harmonic_dim(d, k)
        assert basis.size == sum(harmonic_dim(d, k) for k in range(5))


def test_basis_is_cached():
    assert build_basis(3) is build_basis(3)


def test_basis_argument_guards():
    with pytest.raises(UsageError):
        build_basis(1)


@pytest.mark.parametrize("d", [3.0, True, "3"], ids=repr)
def test_basis_refuses_non_integer_arguments(d):
    build_basis(3)  # a cached 3 must not answer for 3.0
    with pytest.raises(UsageError, match="must be an integer"):
        build_basis(d)


def test_orthonormality_monte_carlo(rng):
    for d in (2, 3, 4):
        basis = build_basis(d)
        U = unit_rows(rng, 40_000, d)
        psi = basis.evaluate(U)
        G = psi.T @ psi / len(U)
        assert np.max(np.abs(G - np.eye(basis.size))) < 0.08


def test_constant_harmonic_is_one(rng):
    for d in (2, 4):
        basis = build_basis(d)
        psi = basis.evaluate(unit_rows(rng, 10, d))
        assert np.allclose(psi[:, 0], 1.0)


def test_pointwise_degree_sum_equals_dimension(rng):
    # sum over the degree-k functions of psi(u)^2 is the constant dim H(d, k)
    # for every u: the reproducing kernel at (u, u) is rotation invariant.
    for d in (2, 3, 5):
        basis = build_basis(d)
        psi = basis.evaluate(unit_rows(rng, 200, d))
        for k in range(5):
            sl = basis.degree_slice(k)
            sums = np.sum(psi[:, sl] ** 2, axis=1)
            assert np.allclose(sums, harmonic_dim(d, k), atol=1e-9)


def test_evaluate_matches_dense_reference(rng):
    # monomials and the dense coefficient matrix, over more than one chunk
    for d in (2, 3, 4, 5):
        basis = build_basis(d)
        U = unit_rows(rng, 2100, d)
        mono = np.prod(U[:, None, :] ** basis.exponents, axis=2)
        dense = mono @ basis.coefficients.T
        assert np.max(np.abs(basis.evaluate(U) - dense)) < 1e-12
        # each of the n terms is within 1e-12 of the reference
        assert np.max(np.abs(basis.sums(U) - dense.sum(axis=0))) < 1e-12 * len(U)


def test_parity_is_exact(rng):
    for d in (2, 3, 4, 6, 10):
        basis = build_basis(d)
        U = unit_rows(rng, 2100 if d == 6 else 500, d)
        plus = basis.evaluate(U)
        minus = basis.evaluate(-U)
        signs = np.where(basis.degrees % 2 == 0, 1.0, -1.0)
        assert np.array_equal(minus, plus * signs)  # bit for bit


def test_rotation_preserves_degree_norms(rng):
    for d in (2, 3):
        basis = build_basis(d)
        U = unit_rows(rng, 300, d)
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        a = basis.evaluate(U)
        b = basis.evaluate(U @ Q.T)
        for k in range(5):
            sl = basis.degree_slice(k)
            na = np.sum(a[:, sl] ** 2, axis=1)
            nb = np.sum(b[:, sl] ** 2, axis=1)
            assert np.allclose(na, nb, atol=1e-10)


def test_circle_degree_norms_match_closed_form(rng):
    # in d = 2 the degree-k pair spans sqrt(2) cos/sin(k phi), so the squared
    # norms per degree must match the closed-form circle harmonics exactly
    basis = build_basis(2)
    U = unit_rows(rng, 50, 2)
    psi = basis.evaluate(U)
    for i, u in enumerate(U):
        circle = naive.circle_harmonics(u, [0, 1, 2, 3, 4])
        for k in range(5):
            sl = basis.degree_slice(k)
            mine = np.sum(psi[i, sl] ** 2)
            theirs = sum(
                v**2 for v in naive.circle_harmonics(u, [k])
            )
            assert abs(mine - theirs) < 1e-10
    assert len(circle) == basis.size


def test_evaluate_guards(rng):
    basis = build_basis(2)
    with pytest.raises(UsageError):
        basis.evaluate(np.array([[1.0, 1.0]]))  # not a unit vector
    with pytest.raises(UsageError):
        basis.evaluate(np.ones((3, 3)))  # wrong dimension
    with pytest.raises(UsageError):
        basis.evaluate(np.array([0.6, 0.8]))  # one point is a (1, d) array
