import numpy as np
import pytest

from bcmac import linalg
from bcmac.errors import InvalidInput, NotPositiveDefinite, SingularConstraintMatrix

from conftest import rand_complex, rand_psd


def rand_hermitian(rng, n, scale=1.0):
    X = rand_complex(rng, (n, n), scale)
    return 0.5 * (X + X.conj().T)


def test_eig_identity():
    r, V = linalg.pd_roots(np.eye(2))
    assert np.allclose(r, [1.0, 1.0])
    assert np.allclose(V @ V.conj().T, np.eye(2), atol=1e-12)


def test_eig_diagonal_sorted():
    r, _ = linalg.pd_roots(np.diag([3.0, 1.0]))
    assert np.allclose(r ** 2, [1.0, 3.0])


def test_eig_reconstruction(rng):
    M = rand_psd(rng, 4) + 0.1 * np.eye(4)
    r, V = linalg.pd_roots(M)
    assert np.linalg.norm(V @ np.diag(r ** 2) @ V.conj().T - M) < 1e-10 * np.linalg.norm(M)


def test_eig_roundtrip_property(rng):
    # many dims, scaled tolerance; pd_roots decomposes the Hermitian part
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        scale = float(rng.uniform(0.1, 10))
        M = rand_hermitian(rng, n, scale)
        M = M + (1.0 - np.linalg.eigvalsh(M)[0]) * np.eye(n)
        r, V = linalg.pd_roots(M + 1e-13 * scale * rand_complex(rng, (n, n)))
        resid = np.linalg.norm(V @ np.diag(r ** 2) @ V.conj().T - M)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(M))
        assert np.linalg.norm(V @ V.conj().T - np.eye(n)) <= 1e-10 * n


def test_eig_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        linalg.check_hermitian(np.array([[np.nan, 0], [0, 1.0]]))


def test_eig_rejects_nonhermitian():
    with pytest.raises(InvalidInput):
        linalg.check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inv_sqrt_identity():
    assert np.allclose(linalg.inv_sqrt(np.eye(3)), np.eye(3))


def test_inv_sqrt_diagonal():
    N = linalg.inv_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(N, np.diag([0.5, 1.0 / 3.0]))


def test_inv_sqrt_whitens(rng):
    for _ in range(50):
        M = rand_psd(rng, 3) + 0.1 * np.eye(3)
        N = linalg.inv_sqrt(M)
        assert np.linalg.norm(N @ M @ N.conj().T - np.eye(3)) < 1e-8


def test_inv_sqrt_floor():
    with pytest.raises(SingularConstraintMatrix):
        linalg.inv_sqrt(np.diag([1.0, 1e-9]))
    # the floor is PD_FLOOR times the largest eigenvalue once that passes 1
    with pytest.raises(SingularConstraintMatrix):
        linalg.inv_sqrt(np.diag([1e3, 1e-6]))
    N = linalg.inv_sqrt(np.diag([1e-3, 2e-8]))
    assert np.allclose(N, np.diag(np.array([1e-3, 2e-8]) ** -0.5))


def test_pd_roots_fails_nan():
    with pytest.raises(SingularConstraintMatrix):
        linalg.pd_roots(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_check_pd_checks_symmetry_then_the_rule():
    A = np.array([[2.0, 1j], [-1j, 2.0]])
    np.testing.assert_array_equal(linalg.check_pd(A), A)
    with pytest.raises(InvalidInput):
        linalg.check_pd([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(SingularConstraintMatrix, match="noise is not positive definite"):
        linalg.check_pd(np.diag([1e3, 1e-6]), name="noise")


def _lu_logdet(M):
    """Product-of-pivots log determinant; unpivoted elimination is stable for
    Hermitian positive definite inputs and keeps every pivot real positive."""
    A = np.array(M, dtype=complex)
    n = A.shape[0]
    logdet = 0.0
    for k in range(n):
        piv = A[k, k].real
        assert piv > 0
        logdet += np.log(piv)
        A[k + 1:, k:] -= np.outer(A[k + 1:, k] / piv, A[k, k:])
    return logdet


def test_logdet_identity():
    assert linalg.logdet_psd(np.eye(3)) == pytest.approx(0.0, abs=1e-14)


def test_logdet_diagonal():
    val = linalg.logdet_psd(np.diag([np.e, np.e ** 2]))
    assert val == pytest.approx(3.0, abs=1e-12)


def test_logdet_vs_lu_oracle(rng):
    for _ in range(30):
        M = rand_psd(rng, 4) + 0.2 * np.eye(4)
        assert linalg.logdet_psd(M) == pytest.approx(_lu_logdet(M), abs=1e-9)


def test_logdet_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        linalg.logdet_psd(np.diag([1.0, 0.0]))


def test_logdet_of_a_stack_matches_each_block(rng):
    M = np.array([rand_psd(rng, 3) + 0.2 * np.eye(3) for _ in range(5)])
    want = [linalg.logdet_psd(Mi) for Mi in M]
    np.testing.assert_array_equal(linalg.logdet_psd(M), want)
    M[3] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(NotPositiveDefinite):
        linalg.logdet_psd(M)
