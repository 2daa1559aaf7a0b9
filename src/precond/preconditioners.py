"""Preconditioner construction and CSV serialization.

Every constructor returns the symmetric positive-definite representative of
its preconditioner: replacing L by its symmetrization V diag(s) V^T leaves the
post-preconditioning condition number unchanged, so nothing is lost by
normalizing on ingestion.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import DefinitenessError, ModelFileError, PrecondError
from .targets import DifferentiableTarget


@dataclass(frozen=True)
class Preconditioner:
    """A symmetric positive-definite matrix L, read through its own spectrum.

    One eigendecomposition L = V diag(s) V^T, made on first use, gives the
    eigenvalues s^2 of LL^T, L^{-1} = V diag(1/s) V^T and the metric
    (LL^T)^{-1} = L^{-1} L^{-1}, each computed once and shared read-only.
    """

    l: np.ndarray
    label: str

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    @cached_property
    def _spectrum(self) -> linalg.EigenDecomposition:  # of L: s_1 >= ... >= s_d
        return linalg.sym_eigen(self.l)

    @cached_property
    def eigs(self) -> linalg.EigenDecomposition:
        """LL^T's eigenvalues sigma_1^2 >= ... with the eigenvectors of L."""
        spec = self._spectrum
        return linalg.EigenDecomposition(values=spec.values ** 2, vectors=spec.vectors)

    @property
    def sigma_sq(self) -> np.ndarray:
        """Eigenvalues of LL^T, descending."""
        return self.eigs.values

    @property
    def eigengap(self) -> float:
        """Smallest gap between adjacent eigenvalues of LL^T."""
        return float(np.abs(np.diff(self.sigma_sq)).min()) if self.dim > 1 else 0.0

    @cached_property
    def _inv(self) -> np.ndarray:
        inv = linalg.spectral_inverse(self._spectrum)
        inv.flags.writeable = False
        return inv

    @property
    def inv(self) -> np.ndarray:
        """L^{-1}; DefinitenessError when L is not positive definite."""
        return self._inv

    @cached_property
    def metric(self) -> np.ndarray:
        """(LL^T)^{-1} = L^{-1} L^{-1}."""
        metric = self._inv @ self._inv
        metric.flags.writeable = False
        return metric

    def llt(self) -> np.ndarray:
        return self.l @ self.l


def from_matrix(l: np.ndarray, label: str = "custom") -> Preconditioner:
    """Wrap an invertible matrix, symmetrizing it first."""
    sym = linalg.symmetrize_preconditioner(l)
    return Preconditioner(l=sym, label=label)


def identity_preconditioner(d: int, label: str = "identity") -> Preconditioner:
    return Preconditioner(l=np.eye(d), label=label)


def dense_covariance_preconditioner(
    sigma_hat: np.ndarray, label: str = "covariance"
) -> Preconditioner:
    """L = sigma_hat^{-1/2}; fails loudly on a non-SPD estimate."""
    sigma_hat = linalg.check_symmetric(sigma_hat, "sigma_hat")
    return Preconditioner(l=linalg.sym_inv_sqrt(sigma_hat), label=label)


def diag_covariance_preconditioner(
    sigma_hat: np.ndarray, label: str = "diag-covariance"
) -> Preconditioner:
    """L = diag(sigma_hat)^{-1/2}."""
    sigma_hat = linalg.check_symmetric(sigma_hat, "sigma_hat")
    diag = np.diag(sigma_hat)
    bad = np.nonzero(diag <= 0)[0]
    if bad.size:
        raise DefinitenessError(
            f"diagonal entry {bad[0]} of the covariance estimate is "
            f"{diag[bad[0]]:.3e}, not positive",
            offending_eigenvalue=float(diag[bad[0]]),
        )
    return Preconditioner(l=np.diag(1.0 / np.sqrt(diag)), label=label)


def fisher_preconditioner(
    gradient_samples: np.ndarray, label: str = "fisher"
) -> Preconditioner:
    """L = (mean of g g^T)^{1/2} from gradient samples at stationary draws."""
    g = np.atleast_2d(np.asarray(gradient_samples, dtype=float))
    n, d = g.shape
    if n < d:
        raise PrecondError(f"need at least d={d} gradient samples, got {n}")
    fisher = g.T @ g / n
    try:
        l = linalg.sym_sqrt(fisher)
    except DefinitenessError as exc:
        raise DefinitenessError(
            f"gradient second moment is rank deficient: {exc}",
            offending_eigenvalue=exc.offending_eigenvalue,
        ) from exc
    return Preconditioner(l=l, label=label)


def hessian_at_mode_preconditioner(
    target: DifferentiableTarget, x_star: np.ndarray, label: str = "mode-hessian"
) -> Preconditioner:
    """L = hessian(x_star)^{1/2}."""
    h = linalg.check_symmetric(target.hessian(np.asarray(x_star, dtype=float)))
    return Preconditioner(l=linalg.sym_sqrt(h), label=label)


def design_preconditioner(x_mat: np.ndarray, label: str = "design") -> Preconditioner:
    """L = (n^{-1} X^T X)^{1/2}."""
    x_mat = np.asarray(x_mat, dtype=float)
    return Preconditioner(l=linalg.sym_sqrt(x_mat.T @ x_mat / x_mat.shape[0]), label=label)


def additive_base_preconditioner(
    a: np.ndarray, label: str = "additive-base"
) -> Preconditioner:
    """L = A^{1/2} for a Hessian of the form A + B(x)."""
    return Preconditioner(l=linalg.sym_sqrt(linalg.check_symmetric(a, "A")), label=label)


def sample_covariance(samples: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance with mean subtraction."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if x.shape[0] < 2:
        raise PrecondError("need at least 2 samples for a covariance estimate")
    c = np.cov(x, rowvar=False, ddof=1)
    c = np.atleast_2d(c)
    return 0.5 * (c + c.T)


def to_csv(precond: Preconditioner) -> str:
    """Serialize as a one-line header (label, dim) plus row-major CSV rows."""
    buf = io.StringIO()
    buf.write(f"{precond.label},{precond.dim}\n")
    for row in precond.l:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def read_rows(numbered, width: Optional[int] = None) -> np.ndarray:
    """The comma-separated float rows of ``(line number, text)`` pairs, as a 2-d array.

    A bad or non-finite entry, or a row whose length is not ``width`` (the
    first row's when None), raises ModelFileError naming that row's line number.
    """
    rows = []
    for line, text in numbered:
        try:
            row = [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise ModelFileError(f"bad entry: {exc}", line=line) from exc
        bad = [v for v in row if not math.isfinite(v)]
        if bad:
            raise ModelFileError(f"bad entry: {bad[0]} is not finite", line=line)
        width = len(row) if width is None else width
        if len(row) != width:
            raise ModelFileError(f"expected {width} entries, found {len(row)}", line=line)
        rows.append(row)
    return np.array(rows)


def from_csv(text: str) -> Preconditioner:
    """Inverse of :func:`to_csv`; blank lines are skipped, errors name the text's own line."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ModelFileError("empty preconditioner CSV", line=1)
    head_line, head = lines[0][0], lines[0][1].split(",")
    if len(head) != 2:
        raise ModelFileError("header must be 'label,dim'", line=head_line)
    label = head[0].strip()
    try:
        dim = int(head[1])
    except ValueError as exc:
        raise ModelFileError(f"bad dimension {head[1]!r}", line=head_line) from exc
    if dim < 1:
        raise ModelFileError(f"dimension must be positive, got {head[1]!r}", line=head_line)
    if len(lines) != dim + 1:
        raise ModelFileError(
            f"expected {dim} matrix rows, found {len(lines) - 1}", line=lines[-1][0]
        )
    arr = read_rows(lines[1:], dim)
    # Already-symmetric positive-definite matrices pass through untouched so
    # that serialization round-trips byte for byte; the rest, singular ones
    # among them, meet from_matrix's rank check.
    if np.array_equal(arr, arr.T) and np.isfinite(arr).all():
        precond = Preconditioner(l=arr, label=label)
        values = precond._spectrum.values
        if values[-1] > linalg.SINGULARITY_RTOL * values[0]:
            return precond
    return from_matrix(arr, label=label)
