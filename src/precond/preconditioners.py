"""Preconditioner construction and the pushforward transform.

Every constructor returns the symmetric positive-definite representative of
its preconditioner: replacing L by its symmetrization V diag(s) V^T leaves the
post-preconditioning condition number unchanged, so nothing is lost by
normalizing on ingestion.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DefinitenessError,
    DimensionMismatchError,
    ModelFileError,
    PrecondError,
)
from .targets import DifferentiableTarget, SmoothnessEnvelope


@dataclass(frozen=True)
class Preconditioner:
    """A symmetric positive-definite matrix L with its LL^T eigen-summary."""

    l: np.ndarray
    label: str
    eigs: linalg.EigenDecomposition  # of LL^T, so values are sigma_1^2 >= ...

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    @property
    def sigma_sq(self) -> np.ndarray:
        """Eigenvalues of LL^T, descending."""
        return self.eigs.values

    @property
    def eigengap(self) -> float:
        """Smallest gap between adjacent eigenvalues of LL^T."""
        v = self.eigs.values
        if v.shape[0] < 2:
            return 0.0
        return float(np.abs(np.diff(v)).min())

    @property
    def inv(self) -> np.ndarray:
        """L^{-1}, computed on first use and shared read-only from then on."""
        inv = self.__dict__.get("_inv")
        if inv is None:
            inv = linalg.sym_inv(self.l)
            inv.flags.writeable = False
            object.__setattr__(self, "_inv", inv)
        return inv

    def llt(self) -> np.ndarray:
        return self.l @ self.l


def from_matrix(l: np.ndarray, label: str = "custom") -> Preconditioner:
    """Wrap an invertible matrix, symmetrizing it first."""
    sym = linalg.symmetrize_preconditioner(l)
    return Preconditioner(l=sym, label=label, eigs=linalg.sym_eigen(sym @ sym))


def identity_preconditioner(d: int, label: str = "identity") -> Preconditioner:
    eye = np.eye(d)
    return Preconditioner(
        l=eye,
        label=label,
        eigs=linalg.EigenDecomposition(values=np.ones(d), vectors=np.eye(d)),
    )


def dense_covariance_preconditioner(
    sigma_hat: np.ndarray, label: str = "covariance"
) -> Preconditioner:
    """L = sigma_hat^{-1/2}; fails loudly on a non-SPD estimate."""
    sigma_hat = linalg.check_symmetric(sigma_hat, "sigma_hat")
    l = linalg.sym_inv_sqrt(sigma_hat)
    return Preconditioner(l=l, label=label, eigs=linalg.sym_eigen(l @ l))


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
    l = np.diag(1.0 / np.sqrt(diag))
    return Preconditioner(l=l, label=label, eigs=linalg.sym_eigen(l @ l))


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
    return Preconditioner(l=l, label=label, eigs=linalg.sym_eigen(l @ l))


def hessian_at_mode_preconditioner(
    target: DifferentiableTarget, x_star: np.ndarray, label: str = "mode-hessian"
) -> Preconditioner:
    """L = hessian(x_star)^{1/2}."""
    h = linalg.check_symmetric(target.hessian(np.asarray(x_star, dtype=float)))
    l = linalg.sym_sqrt(h)
    return Preconditioner(l=l, label=label, eigs=linalg.sym_eigen(l @ l))


def design_preconditioner(
    x_mat: np.ndarray, scaled: bool = True, label: str = "design"
) -> Preconditioner:
    """L = (n^{-1} X^T X)^{1/2}, or the unscaled (X^T X)^{1/2} variant.

    The overall scale of L does not change the post-preconditioning condition
    number, so the two variants are interchangeable for conditioning purposes.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    n = x_mat.shape[0]
    xtx = x_mat.T @ x_mat
    if scaled:
        xtx = xtx / n
    l = linalg.sym_sqrt(xtx)
    return Preconditioner(l=l, label=label, eigs=linalg.sym_eigen(l @ l))


def additive_base_preconditioner(
    a: np.ndarray, label: str = "additive-base"
) -> Preconditioner:
    """L = A^{1/2} for a Hessian of the form A + B(x)."""
    l = linalg.sym_sqrt(linalg.check_symmetric(a, "A"))
    return Preconditioner(l=l, label=label, eigs=linalg.sym_eigen(l @ l))


def sample_covariance(samples: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance with mean subtraction."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if x.shape[0] < 2:
        raise PrecondError("need at least 2 samples for a covariance estimate")
    c = np.cov(x, rowvar=False, ddof=1)
    c = np.atleast_2d(c)
    return 0.5 * (c + c.T)


@dataclass(frozen=True)
class PreconditionedTarget(DifferentiableTarget):
    """The pushforward of a target under y = Lx.

    Potential, gradient and Hessian evaluate the transformed quantities
    U(L^{-1} y), L^{-1} grad U(L^{-1} y), L^{-1} hess U(L^{-1} y) L^{-1}
    (L is symmetric). ``base`` and ``precond`` retain the originals.
    """

    base: DifferentiableTarget = None
    precond: Preconditioner = None


def pushforward(
    target: DifferentiableTarget, precond: Preconditioner
) -> PreconditionedTarget:
    """Transform a target by y = Lx."""
    if precond.dim != target.dim:
        raise DimensionMismatchError(
            f"preconditioner dim {precond.dim} != target dim {target.dim}"
        )
    linv = precond.inv

    def potential(y):
        return target.potential(linv @ np.asarray(y, dtype=float))

    def gradient(y):
        return linv @ target.gradient(linv @ np.asarray(y, dtype=float))

    def hessian(y):
        return linv @ target.hessian(linv @ np.asarray(y, dtype=float)) @ linv

    def transform_h(h):
        if h is None:
            return None
        out = linv @ h @ linv
        return 0.5 * (out + out.T)

    h_lo = transform_h(target.hessian_lower)
    h_up = transform_h(target.hessian_upper)
    envelope = None
    if h_lo is not None and h_up is not None:
        lo_eigs = np.linalg.eigvalsh(h_lo)
        up_eigs = np.linalg.eigvalsh(h_up)
        if lo_eigs[0] > 0:
            base_env = target.envelope
            envelope = SmoothnessEnvelope(
                m=float(lo_eigs[0]),
                big_m=float(up_eigs[-1]),
                m_attained=base_env.m_attained if base_env else True,
                big_m_attained=base_env.big_m_attained if base_env else True,
            )
    cov = None
    if target.exact_covariance is not None:
        cov = precond.l @ target.exact_covariance @ precond.l
        cov = 0.5 * (cov + cov.T)
    mode = None
    if target.exact_mode is not None:
        mode = precond.l @ target.exact_mode
    return PreconditionedTarget(
        dim=target.dim,
        potential=potential,
        gradient=gradient,
        hessian=hessian,
        envelope=envelope,
        structure=None,
        exact_covariance=cov,
        exact_mode=mode,
        hessian_constant=target.hessian_constant,
        hessian_lower=h_lo,
        hessian_upper=h_up,
        kind=target.kind,
        params=dict(target.params),
        base=target,
        precond=precond,
    )


def to_csv(precond: Preconditioner) -> str:
    """Serialize as a one-line header (label, dim) plus row-major CSV rows."""
    buf = io.StringIO()
    buf.write(f"{precond.label},{precond.dim}\n")
    for row in precond.l:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def from_csv(text: str) -> Preconditioner:
    """Inverse of :func:`to_csv`."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ModelFileError("empty preconditioner CSV", line=1)
    head = lines[0].split(",")
    if len(head) != 2:
        raise ModelFileError("header must be 'label,dim'", line=1)
    label = head[0].strip()
    try:
        dim = int(head[1])
    except ValueError as exc:
        raise ModelFileError(f"bad dimension {head[1]!r}", line=1) from exc
    if len(lines) != dim + 1:
        raise ModelFileError(
            f"expected {dim} matrix rows, found {len(lines) - 1}", line=len(lines)
        )
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        vals = [v.strip() for v in ln.split(",")]
        if len(vals) != dim:
            raise ModelFileError(f"expected {dim} entries, found {len(vals)}", line=k)
        try:
            rows.append([float(v) for v in vals])
        except ValueError as exc:
            raise ModelFileError(f"bad entry in row: {exc}", line=k) from exc
    arr = np.array(rows)
    # Already-symmetric positive-definite matrices pass through untouched so
    # that serialization round-trips byte for byte.
    if np.array_equal(arr, arr.T) and np.isfinite(arr).all():
        vals = np.linalg.eigvalsh(arr)
        if vals[0] > 0:
            return Preconditioner(l=arr, label=label, eigs=linalg.sym_eigen(arr @ arr))
    return from_matrix(arr, label=label)
