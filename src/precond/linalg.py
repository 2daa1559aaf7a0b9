"""Dense symmetric linear algebra kernels.

Eigendecompositions, matrix square roots, spectral condition numbers,
Loewner-order checks and Givens rotations. All functions are pure and operate
on plain numpy arrays; symmetric inputs are validated, never silently
symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefinitenessError,
    DimensionMismatchError,
    NonFiniteInputError,
    SingularMatrixError,
)

# Relative eigenvalue floor below which a symmetric matrix is treated as
# singular / not positive definite. Inputs below the floor are rejected,
# never regularized.
SINGULARITY_RTOL = 1e-14
DEFINITENESS_RTOL = 1e-12


def check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a finite, square, exactly-symmetric 2-d array.

    A (..., d, d) stack is validated matrix by matrix, with the same
    finiteness check and the same asymmetry tolerance as a single matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteInputError(f"{name} contains non-finite entries")
    a_t = np.swapaxes(a, -1, -2)
    if not np.array_equal(a, a_t):
        # tolerate roundoff-level asymmetry from accumulated arithmetic
        asym = np.abs(a - a_t).max(axis=(-2, -1))
        scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
        if np.any(asym > 1e-12 * scale):
            raise DimensionMismatchError(f"{name} is not symmetric")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with matching orthonormal column vectors."""

    values: np.ndarray   # shape (d,), values[0] >= ... >= values[d-1]
    vectors: np.ndarray  # shape (d, d), column i pairs with values[i]

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


def sym_eigen(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, values sorted descending.

    Uses a dedicated symmetric solver. The sign of each eigenvector is fixed
    so that its first nonzero component is positive, which makes downstream
    traces reproducible bit-for-bit per seed.
    """
    a = check_symmetric(a)
    if a.ndim != 2:
        raise DimensionMismatchError(f"matrix must be square, got shape {a.shape}")
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-14)[0]
        if nz.size and col[nz[0]] < 0:
            vectors[:, j] = -col
    return EigenDecomposition(values=values, vectors=vectors)


def spectral_condition_number(a: np.ndarray) -> float:
    """Spectral condition number max|lambda_i| / min|lambda_i|."""
    abs_vals = np.abs(sym_eigen(a).values)
    top, bottom = abs_vals.max(), abs_vals.min()
    if bottom < SINGULARITY_RTOL * top:
        raise SingularMatrixError(
            f"matrix is singular to working precision (|lambda| range "
            f"[{bottom:.3e}, {top:.3e}])"
        )
    return float(top / bottom)


def _require_spd(eig: EigenDecomposition, name: str) -> None:
    lam_min, lam_max = eig.values[-1], eig.values[0]
    if lam_min <= DEFINITENESS_RTOL * max(lam_max, 0.0):
        raise DefinitenessError(
            f"{name} is not positive definite: smallest eigenvalue "
            f"{lam_min:.6e} (largest {lam_max:.6e})",
            offending_eigenvalue=float(lam_min),
        )


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite square root R with RR = A."""
    eig = sym_eigen(a)
    _require_spd(eig, "sym_sqrt input")
    return (eig.vectors * np.sqrt(eig.values)) @ eig.vectors.T


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite R with RR = A^{-1}."""
    eig = sym_eigen(a)
    _require_spd(eig, "sym_inv_sqrt input")
    return (eig.vectors / np.sqrt(eig.values)) @ eig.vectors.T


def spectral_inverse(eig: EigenDecomposition) -> np.ndarray:
    """Inverse V diag(1/lambda) V^T of a positive-definite matrix from its spectrum."""
    _require_spd(eig, "sym_inv input")
    return (eig.vectors / eig.values) @ eig.vectors.T


def sym_inv(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via its spectrum."""
    return spectral_inverse(sym_eigen(a))


def symmetrize_preconditioner(l: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite representative of an invertible matrix.

    Returns V diag(s) V^T from the singular value decomposition L = U diag(s) V^T.
    The result has eigenvalues equal to the singular values of L and induces
    the same post-preconditioning condition number.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise DimensionMismatchError(f"preconditioner must be square, got {l.shape}")
    if not np.isfinite(l).all():
        raise NonFiniteInputError("preconditioner contains non-finite entries")
    _, s, vt = np.linalg.svd(l)
    if s[-1] <= SINGULARITY_RTOL * s[0]:  # <= so that the zero matrix fails too
        raise SingularMatrixError(
            f"preconditioner is rank deficient (singular values in "
            f"[{s[-1]:.3e}, {s[0]:.3e}])"
        )
    v = vt.T
    out = (v * s) @ v.T
    return 0.5 * (out + out.T)


def givens_rotation(theta: float) -> np.ndarray:
    """2x2 counterclockwise rotation [[cos, -sin], [sin, cos]]."""
    if not np.isfinite(theta):
        raise NonFiniteInputError("rotation angle must be finite")
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = 0.0) -> bool:
    """True iff A <= B in the Loewner order, i.e. lambda_min(B - A) >= -tol."""
    a = check_symmetric(a, "A")
    b = check_symmetric(b, "B")
    if a.ndim != 2:
        raise DimensionMismatchError(f"A must be square, got shape {a.shape}")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    gap = np.linalg.eigvalsh(b - a)[0]
    return bool(gap >= -tol)


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Operator 2-norm of a symmetric matrix, as a float.

    For a (..., d, d) stack, the array of the norms of its matrices.
    """
    a = check_symmetric(a)
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    return float(norms) if a.ndim == 2 else norms
