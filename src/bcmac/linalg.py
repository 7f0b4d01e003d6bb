"""Dense complex Hermitian primitives used by every solver module, and the
one 1-D bracketing search (:func:`bisect_edge`).

Matrices are plain ``numpy`` arrays in ``complex128``.  A "Hermitian" argument
means conjugate symmetry up to roundoff (``norm(M - M^H) <= 1e-12 * norm(M)``);
helpers re-symmetrize internally so downstream eigendecompositions are stable.
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
    """Nearest Hermitian matrix, (M + M^H) / 2."""
    A = as_matrix(M)
    return 0.5 * (A + A.conj().T)


def check_hermitian(M, tol=HERMITIAN_TOL, name="matrix"):
    """Validate conjugate symmetry and return the symmetrized matrix."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    scale = np.max(np.abs(A))
    if scale > 0 and np.max(np.abs(A - A.conj().T)) > tol * scale:
        raise InvalidInput(f"{name} is not Hermitian within {tol:g} relative")
    return 0.5 * (A + A.conj().T)


def eig_hermitian(M):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    M = V diag(w) V^H.
    """
    A = check_hermitian(M)
    w, V = np.linalg.eigh(A)
    return w, V


def sqrt_psd(M, clamp_tol=CLAMP_TOL):
    """Hermitian principal square root of a PSD matrix.

    Eigenvalues in [-clamp_tol * scale, 0) are treated as roundoff and
    clamped to zero; anything more negative raises NotPositiveDefinite.
    """
    w, V = eig_hermitian(M)
    scale = max(1.0, float(w[-1]))
    if w[0] < -clamp_tol * scale:
        raise NotPositiveDefinite(f"matrix has eigenvalue {w[0]:g} < 0")
    w = np.maximum(w, 0.0)
    return (V * np.sqrt(w)) @ V.conj().T


def pd_roots(M, floor):
    """Square roots r of the eigenvalues (ascending) and the eigenvectors V of
    a positive definite matrix: M^{1/2} = V diag(r) V^H and
    M^{-1/2} = V diag(1/r) V^H from one eigendecomposition.

    Raises SingularConstraintMatrix when any eigenvalue is <= floor, which is
    how a non-positive-definite constraint matrix surfaces to callers.
    """
    w, V = eig_hermitian(M)
    if w[0] <= floor:
        raise SingularConstraintMatrix(
            f"eigenvalue {w[0]:g} <= floor {floor:g}; matrix not invertible"
        )
    return np.sqrt(w), V


def inv_sqrt(M, floor=PD_FLOOR):
    """Hermitian inverse square root N with N M N^H = I (see pd_roots)."""
    r, V = pd_roots(M, floor)
    return (V / r) @ V.conj().T


def project_psd(M):
    """Nearest (Frobenius) PSD matrix: eigenvalues clipped at zero."""
    w, V = eig_hermitian(M)
    if w[0] >= 0:
        return 0.5 * (M + M.conj().T)
    w = np.maximum(w, 0.0)
    return (V * w) @ V.conj().T


def logdet_psd(M):
    """log-determinant (nats) of a positive definite Hermitian matrix."""
    w, _ = eig_hermitian(M)
    if w[0] <= 0:
        raise NotPositiveDefinite(f"matrix has eigenvalue {w[0]:g} <= 0")
    return float(np.sum(np.log(w)))


def assert_pd(M, floor=0.0, name="matrix"):
    """Validate positive definiteness (eigenvalues strictly above floor)."""
    w, V = eig_hermitian(M)
    scale = max(1.0, abs(float(w[-1])))
    if w[0] <= floor * scale:
        raise SingularConstraintMatrix(
            f"{name} is not positive definite (min eigenvalue {w[0]:g})"
        )
    return w, V


def bisect_edge(f, level, hi, tol, unbounded, strict=False):
    """Largest x >= 0 found with f(x) <= level, for f that stays at or below
    ``level`` from 0 up to one crossing.

    Doubles ``hi`` while f(hi) <= level (f(hi) < level if ``strict``), then
    bisects [0, hi], keeping f <= level at the low end, for at most 200
    halvings or until hi - lo <= tol * max(hi, 1).  Raises the exception
    ``unbounded`` once the bracket passes 1e30.
    """
    while f(hi) < level if strict else f(hi) <= level:
        hi *= 2.0
        if hi > 1e30:
            raise unbounded
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(hi, 1.0):
            break
    return lo
