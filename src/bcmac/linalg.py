"""Dense complex Hermitian primitives used by every solver module.

Matrices are plain ``numpy`` arrays in ``complex128``.  Validation happens
where input enters the library: :func:`check_hermitian` checks conjugate
symmetry (``max|M - M^H| <= 1e-12 max|M|``) of caller-supplied matrices
(constraint matrices, covariances, the noise passed to the public solvers
and rate functions).  The decomposition helpers (:func:`pd_roots`,
:func:`inv_sqrt`, :func:`logdet_psd`, :func:`assert_pd`) do not check: they
take the Hermitian part of their argument, which the library's own sums and
products only meet up to roundoff, and call ``eigh`` on it.
All functions are pure and safe to call concurrently.
"""

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite, SingularConstraintMatrix

# Eigenvalues of matrices that get inverted must clear this floor.
PD_FLOOR = 1e-8
# Roundoff-sized negative eigenvalues clamp to zero; anything below errors.
CLAMP_TOL = 1e-9
HERMITIAN_TOL = 1e-12


def as_matrix(M, name="matrix"):
    """Coerce to a finite complex128 2-D array."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInput(f"{name} must be a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} has non-finite entries")
    return A


def hermitian_part(M):
    """Nearest Hermitian matrix, (M + M^H) / 2, of a matrix or of every block
    of a stack (..., n, n)."""
    A = np.asarray(M, dtype=np.complex128)
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def check_hermitian(M, tol=HERMITIAN_TOL, name="matrix"):
    """Validate conjugate symmetry and return the symmetrized matrix."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    scale = np.max(np.abs(A))
    if scale > 0 and np.max(np.abs(A - A.conj().T)) > tol * scale:
        raise InvalidInput(f"{name} is not Hermitian within {tol:g} relative")
    return hermitian_part(A)


def pd_roots(M, floor):
    """Square roots r of the eigenvalues (ascending) and the eigenvectors V of
    a positive definite matrix: M^{1/2} = V diag(r) V^H and
    M^{-1/2} = V diag(1/r) V^H from one eigendecomposition.

    Raises SingularConstraintMatrix when any eigenvalue is <= floor, which is
    how a non-positive-definite constraint matrix surfaces to callers.
    """
    w, V = np.linalg.eigh(hermitian_part(M))
    if w[0] <= floor:
        raise SingularConstraintMatrix(
            f"eigenvalue {w[0]:g} <= floor {floor:g}; matrix not invertible"
        )
    return np.sqrt(w), V


def inv_sqrt(M, floor=PD_FLOOR):
    """Hermitian inverse square root N with N M N^H = I (see pd_roots)."""
    r, V = pd_roots(M, floor)
    return (V / r) @ V.conj().T


def logdet_psd(M):
    """log-determinant (nats) of a positive definite Hermitian matrix, or of
    every block of a stack (..., n, n) from one batched ``eigh``."""
    w = np.linalg.eigh(hermitian_part(M))[0]
    if np.any(w[..., 0] <= 0):
        raise NotPositiveDefinite(f"matrix has eigenvalue {np.min(w[..., 0]):g} <= 0")
    return np.sum(np.log(w), axis=-1)


def assert_pd(M, floor=0.0, name="matrix"):
    """Validate positive definiteness (eigenvalues strictly above floor)."""
    w, V = np.linalg.eigh(hermitian_part(M))
    scale = max(1.0, abs(float(w[-1])))
    if w[0] <= floor * scale:
        raise SingularConstraintMatrix(
            f"{name} is not positive definite (min eigenvalue {w[0]:g})"
        )
    return w, V
