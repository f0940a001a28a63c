import numpy as np
import pytest

import naive
from ellipsym import DomainError, UsageError
from ellipsym.linalg import gram_schmidt_root, row_norms, sym_inv_sqrt, sym_sqrt


def random_spd(rng, d, cond=10.0):
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    vals = np.linspace(1.0, cond, d)
    return (Q * vals) @ Q.T


def test_sym_sqrt_squares_back(rng):
    for d in (2, 3, 5):
        S = random_spd(rng, d)
        R = sym_sqrt(S)
        assert np.allclose(R @ R, S, atol=1e-12)
        assert np.allclose(R, R.T)


def test_sym_sqrt_matches_oracle(rng):
    S = random_spd(rng, 4)
    assert np.allclose(sym_sqrt(S), naive.sqrt_oracle(S), atol=1e-12)
    assert np.allclose(sym_inv_sqrt(S), naive.inv_sqrt_oracle(S), atol=1e-12)


def test_sym_inv_sqrt_inverts(rng):
    S = random_spd(rng, 3)
    R = sym_inv_sqrt(S)
    assert np.allclose(R @ S @ R, np.eye(3), atol=1e-12)


def test_sqrt_rejects_asymmetric():
    with pytest.raises(DomainError, match="not symmetric"):
        sym_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(UsageError, match="square"):
        sym_sqrt(np.ones((2, 3)))


def test_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        sym_sqrt(np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(DomainError):
        sym_inv_sqrt(np.diag([1.0, 0.0]))


def test_gram_schmidt_root_whitens(rng):
    for d in (2, 4):
        S = random_spd(rng, d)
        R = gram_schmidt_root(S)
        assert np.allclose(np.triu(R, 1), 0.0)  # lower triangular
        assert np.all(np.diag(R) > 0)
        assert np.allclose(R @ S @ R.T, np.eye(d), atol=1e-10)


def test_gram_schmidt_root_matches_oracle(rng):
    S = random_spd(rng, 3)
    expected = naive._tri_inv_oracle(naive._chol_oracle(S))
    assert np.allclose(gram_schmidt_root(S), expected, atol=1e-12)


def test_roots_accept_stacks(rng):
    # a stack mixing magnitudes 1e-30 .. 1e30 passes: symmetry is judged
    # per matrix, against that matrix's own scale; entries near the top of
    # the float range must not overflow on the way
    near_max = 1e308 * np.array([[1.5, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.2]])
    S = np.stack([s * random_spd(rng, 3) for s in (1e-30, 1.0, 1e30, 3.0)] + [near_max])
    for root in (sym_sqrt, sym_inv_sqrt, gram_schmidt_root):
        stacked = root(S)
        assert stacked.shape == S.shape
        assert np.all(np.isfinite(stacked))
        for i in range(len(S)):
            assert np.array_equal(stacked[i], root(S[i]))
    bad = S.copy()
    bad[2] = np.diag([1e30, 1e30, 0.0])
    for root in (sym_sqrt, sym_inv_sqrt, gram_schmidt_root):
        with pytest.raises(DomainError, match="not positive definite"):
            root(bad)


@pytest.mark.parametrize("d", range(2, 10))
def test_row_norms_match_numpy_bit_for_bit(rng, monkeypatch, d):
    # columns summed in order up to d = 7, numpy's own pairwise sum from 8 on
    norm, calls = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    for shape in ((1000, d), (3, 400, d)):
        Y = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        for A in (Y, np.asfortranarray(Y)):
            assert np.array_equal(row_norms(A), norm(A, axis=-1))
    assert bool(calls) == (d >= 8)
