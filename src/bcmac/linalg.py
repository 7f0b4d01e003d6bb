"""Dense complex Hermitian primitives used by every solver module.

Matrices are plain ``numpy`` arrays in ``complex128``.  Validation happens
where input enters the library: :func:`check_hermitian` checks conjugate
symmetry (``max|M - M^H| <= 1e-12 max|M|``) of caller-supplied matrices
(constraint matrices, covariances, the noise passed to the public solvers
and rate functions), and :func:`check_pd` adds the package's one
positive-definiteness rule, :func:`pd_roots`'s.  The decomposition helpers
(:func:`pd_roots`, :func:`inv_sqrt`, :func:`logdet_psd`) do not check
symmetry: they take the Hermitian part of their argument, which the
library's own sums and products only meet up to roundoff.
All functions are pure and safe to call concurrently.
"""

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite, SingularConstraintMatrix

# Matrices that get inverted: every eigenvalue > PD_FLOOR * max(1, largest).
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


def ctrans(X):
    """Conjugate transpose of a matrix or of every block of a stack."""
    return X.conj().swapaxes(-1, -2)


def hermitian_part(M):
    """Nearest Hermitian matrix, (M + M^H) / 2, of a matrix or of every block
    of a stack (..., n, n)."""
    A = np.asarray(M, dtype=np.complex128)
    return 0.5 * (A + ctrans(A))


def check_hermitian(M, name="matrix"):
    """Validate conjugate symmetry and return the symmetrized matrix."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    scale = np.max(np.abs(A))
    if scale > 0 and np.max(np.abs(A - A.conj().T)) > HERMITIAN_TOL * scale:
        raise InvalidInput(f"{name} is not Hermitian within {HERMITIAN_TOL:g} relative")
    return hermitian_part(A)


def _pd_rule(w, name):
    """:func:`pd_roots`'s rule on the ascending eigenvalues ``w``."""
    low = w.min()  # NaN if any eigenvalue is, and then the test fails
    if not low > PD_FLOOR * max(1.0, w[-1]):
        raise SingularConstraintMatrix(
            f"{name} is not positive definite: eigenvalue {low:g} <= "
            f"{PD_FLOOR:g} * max(1, {w[-1]:g})")


def pd_roots(M, name="matrix"):
    """Square roots r of the eigenvalues (ascending) and the eigenvectors V of
    a positive definite matrix: M^{1/2} = V diag(r) V^H and
    M^{-1/2} = V diag(1/r) V^H from one eigendecomposition.

    Raises SingularConstraintMatrix unless every eigenvalue exceeds
    PD_FLOOR * max(1, largest eigenvalue); a NaN fails too.
    """
    w, V = np.linalg.eigh(hermitian_part(M))
    _pd_rule(w, name)
    return np.sqrt(w), V


def inv_sqrt(M, name="matrix"):
    """Hermitian inverse square root N with N M N^H = I (see pd_roots)."""
    r, V = pd_roots(M, name)
    return (V / r) @ V.conj().T


def check_pd(M, name="matrix"):
    """Validate a caller-supplied matrix that must be positive definite
    (:func:`check_hermitian`, then :func:`pd_roots`'s rule on its
    eigenvalues alone) and return the symmetrized matrix."""
    A = check_hermitian(M, name)
    _pd_rule(np.linalg.eigvalsh(A), name)
    return A


def logdet_psd(M):
    """log-determinant (nats) of a positive definite Hermitian matrix, or of
    every block of a stack (..., n, n) from one batched ``eigh``."""
    w = np.linalg.eigh(hermitian_part(M))[0]
    if np.any(w[..., 0] <= 0):
        raise NotPositiveDefinite(f"matrix has eigenvalue {np.min(w[..., 0]):g} <= 0")
    return np.sum(np.log(w), axis=-1)
