"""Concrete target distributions with potentials, gradients and Hessians.

Each constructor returns a :class:`DifferentiableTarget` carrying analytic
derivatives and the Loewner pair H_lo <= hessian(x) <= H_up of its Hessian
family. The curvature constants m, M and kappa = M/m that the bounds are
stated in are read from that pair (:attr:`DifferentiableTarget.envelope`), so
each family states its curvature once. The binomial family also exposes its
multiplicative X^T Lambda(x) X Hessian structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from . import linalg
from .errors import (
    AssumptionViolationError,
    DefinitenessError,
    PrecondError,
    SingularMatrixError,
)


@dataclass(frozen=True)
class SmoothnessEnvelope:
    """Strong-convexity / smoothness constants m I <= hessian <= M I."""

    m: float
    big_m: float

    @property
    def kappa(self) -> float:
        return self.big_m / self.m


def loewner_envelope(h_lo: np.ndarray, h_up: np.ndarray) -> SmoothnessEnvelope:
    """(m, M) = (lambda_min(sym H_lo), lambda_max(sym H_up)) of a Loewner pair.

    Raises AssumptionViolationError when H_lo is not positive definite.
    """
    big_m = np.linalg.eigvalsh(0.5 * (h_up + h_up.T))[-1]
    m = np.linalg.eigvalsh(0.5 * (h_lo + h_lo.T))[0]
    if m <= 0:
        raise AssumptionViolationError(
            f"Hessian lower extreme is not positive definite ({m:.3e})"
        )
    return SmoothnessEnvelope(m=float(m), big_m=float(big_m))


@dataclass(frozen=True)
class MultiplicativeStructure:
    """Hessian of the form X^T Lambda(x) X with Lambda diagonal.

    ``entry_inf`` / ``entry_sup`` are per-row infima and suprema of the
    diagonal of Lambda over the whole state space.
    """

    design: np.ndarray                            # X, n x d
    diag: Callable[[np.ndarray], np.ndarray]      # x -> diagonal of Lambda(x)
    entry_inf: np.ndarray
    entry_sup: np.ndarray


@dataclass(frozen=True)
class DifferentiableTarget:
    """A potential U with analytic derivatives and optional structure.

    The four target families below also evaluate ``potential`` and
    ``gradient`` on a (K, d) array of states, returning (K,) potentials and
    (K, d) gradients, which is how chains run in lock-step.

    ``hessian_lower`` / ``hessian_upper`` are Loewner-order extremes of the
    Hessian family (attained or limiting); when present they give the
    envelope (m, M) and the condition numbers before and after
    preconditioning in closed form.
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    structure: Optional[MultiplicativeStructure] = None
    exact_covariance: Optional[np.ndarray] = None
    exact_mode: Optional[np.ndarray] = None
    hessian_lower: Optional[np.ndarray] = None
    hessian_upper: Optional[np.ndarray] = None
    kind: str = "generic"

    @cached_property
    def envelope(self) -> Optional[SmoothnessEnvelope]:
        """(m, M) of the Loewner pair; None for a target without one."""
        if self.hessian_lower is None or self.hessian_upper is None:
            return None
        return loewner_envelope(self.hessian_lower, self.hessian_upper)


def _rowdot(a: np.ndarray, b: np.ndarray):
    """a @ b for vectors; the row-wise dot products for (K, d) arrays."""
    return a @ b if a.ndim == 1 else np.einsum("ki,ki->k", a, b)


def _apply(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x for a state (d,), and for each row of a batch (K, d)."""
    return mat @ x if x.ndim == 1 else x @ mat.T


def _logistic(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)); where exp(-t) overflows to inf this is 0, silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def gaussian_target(mu: np.ndarray, sigma: np.ndarray) -> DifferentiableTarget:
    """Gaussian N(mu, sigma) as a target; U(x) = (x-mu)^T Sigma^{-1} (x-mu)/2."""
    mu = np.asarray(mu, dtype=float)
    sigma = linalg.check_symmetric(sigma, "sigma")
    eig = linalg.sym_eigen(sigma)
    if eig.values[-1] <= linalg.DEFINITENESS_RTOL * eig.values[0]:
        raise DefinitenessError(
            f"covariance is not positive definite (smallest eigenvalue "
            f"{eig.values[-1]:.3e})",
            offending_eigenvalue=float(eig.values[-1]),
        )
    precision = (eig.vectors / eig.values) @ eig.vectors.T

    def potential(x):
        r = np.asarray(x, dtype=float) - mu
        u = 0.5 * _rowdot(r @ precision, r)
        return float(u) if r.ndim == 1 else u

    def gradient(x):
        return _apply(precision, np.asarray(x, dtype=float) - mu)

    def hessian(x):
        return precision

    return DifferentiableTarget(
        dim=mu.shape[0],
        potential=potential,
        gradient=gradient,
        hessian=hessian,
        exact_covariance=sigma,
        exact_mode=mu,
        hessian_lower=precision,
        hessian_upper=precision,
        kind="gaussian",
    )


def cosine_hard_target(m: float, big_m: float) -> DifferentiableTarget:
    """The 2-d 'hard' target whose Hessian eigenvalues each sweep all of [m, M].

    U(x, y) = (m-M)/2 (cos x + cos y) + (M+m)/2 (x^2/2 + y^2/2), so the
    Hessian is diag{f(x), f(y)} with f(t) = (M-m)/2 cos t + (M+m)/2.
    """
    if not (0 < m <= big_m):
        raise PrecondError(f"need 0 < m <= M, got m={m}, M={big_m}")
    a = 0.5 * (m - big_m)
    b = 0.5 * (big_m + m)

    def f(t):
        return -a * np.cos(t) + b  # = (M-m)/2 cos t + (M+m)/2

    def potential(x):
        x = np.asarray(x, dtype=float)
        u = a * np.cos(x).sum(axis=-1) + 0.5 * b * _rowdot(x, x)
        return float(u) if x.ndim == 1 else u

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return -a * np.sin(x) + b * x

    def hessian(x):
        x = np.asarray(x, dtype=float)
        return np.diag(f(x))

    return DifferentiableTarget(
        dim=2,
        potential=potential,
        gradient=gradient,
        hessian=hessian,
        exact_mode=np.zeros(2),
        hessian_lower=m * np.eye(2),
        hessian_upper=big_m * np.eye(2),
        kind="cosine",
    )


def hyperbolic_regression_target(
    x_mat: np.ndarray, y: np.ndarray, sigma2: float, lam: float
) -> DifferentiableTarget:
    """Bayesian linear regression with a hyperbolic (smooth-Laplace) prior.

    U(beta) = ||Y - X beta||^2 / (2 sigma^2) + lam * sum_i sqrt(1 + beta_i^2)
    with Hessian A + lam * diag{(1 + beta_i^2)^{-3/2}}, A = X^T X / sigma^2.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x_mat.shape
    if n < d:
        raise PrecondError(f"need n >= d, got n={n}, d={d}")
    if sigma2 <= 0 or lam <= 0:
        raise PrecondError("sigma2 and lambda must be positive")
    xtx = x_mat.T @ x_mat
    xtx_eig = linalg.sym_eigen(xtx)
    if xtx_eig.values[-1] <= linalg.DEFINITENESS_RTOL * xtx_eig.values[0]:
        raise SingularMatrixError("X^T X is singular")
    a_mat = xtx / sigma2
    xty = x_mat.T @ y
    yty = float(y @ y)

    def potential(beta):
        beta = np.asarray(beta, dtype=float)
        quad = yty - 2.0 * (beta @ xty) + _rowdot(beta @ xtx, beta)
        return 0.5 * quad / sigma2 + lam * np.sqrt(1.0 + beta * beta).sum(axis=-1)

    def gradient(beta):
        beta = np.asarray(beta, dtype=float)
        return ((_apply(xtx, beta) - xty) / sigma2
                + lam * beta / np.sqrt(1.0 + beta * beta))

    def hessian(beta):
        beta = np.asarray(beta, dtype=float)
        return a_mat + lam * np.diag((1.0 + beta * beta) ** -1.5)

    return DifferentiableTarget(
        dim=d,
        potential=potential,
        gradient=gradient,
        hessian=hessian,
        hessian_lower=a_mat,
        hessian_upper=a_mat + lam * np.eye(d),
        kind="hyperbolic",
    )


def binomial_gprior_target(
    x_mat: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    lambda_over_n: float,
) -> DifferentiableTarget:
    """Bayesian binomial regression with a generalised g-prior.

    The prior precision is scaled so the Hessian is exactly
    X^T Lambda(beta) X with
    Lambda(beta) = W diag{p_i(beta)(1 - p_i(beta)) + lambda_over_n},
    where p_i = logistic(X_i^T beta) and lambda_over_n plays the role of
    (g phi c)^{-1}.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise PrecondError("all weights must be positive")
    r = float(lambda_over_n)
    if not r > 0:
        raise PrecondError(f"lambda_over_n must be positive, got {r}")
    xtx = x_mat.T @ x_mat
    xtx_eig = linalg.sym_eigen(xtx)
    if xtx_eig.values[-1] <= linalg.DEFINITENESS_RTOL * xtx_eig.values[0]:
        raise SingularMatrixError("X^T X is singular")
    prior_prec = r * (x_mat.T @ (w[:, None] * x_mat))  # r X^T W X

    def potential(beta):
        beta = np.asarray(beta, dtype=float)
        t = _apply(x_mat, beta)
        ll = ((1.0 - y) * t + np.logaddexp(0.0, -t)) @ w
        u = ll + 0.5 * _rowdot(beta @ prior_prec, beta)
        return float(u) if beta.ndim == 1 else u

    def gradient(beta):
        beta = np.asarray(beta, dtype=float)
        t = _apply(x_mat, beta)
        return _apply(x_mat.T, w * (_logistic(t) - y)) + _apply(prior_prec, beta)

    def lam_diag(beta):
        beta = np.asarray(beta, dtype=float)
        p = _logistic(x_mat @ beta)
        return w * (p * (1.0 - p) + r)

    def hessian(beta):
        return x_mat.T @ (lam_diag(beta)[:, None] * x_mat)

    entry_inf = w * r
    entry_sup = w * (0.25 + r)
    return DifferentiableTarget(
        dim=x_mat.shape[1],
        potential=potential,
        gradient=gradient,
        hessian=hessian,
        structure=MultiplicativeStructure(
            design=x_mat,
            diag=lam_diag,
            entry_inf=entry_inf,
            entry_sup=entry_sup,
        ),
        hessian_lower=x_mat.T @ (entry_inf[:, None] * x_mat),
        hessian_upper=x_mat.T @ (entry_sup[:, None] * x_mat),
        kind="binomial",
    )


def sample_hyperbolic_prior(
    d: int, lam: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw from the density proportional to exp(-lam sqrt(1 + b^2)) per coordinate.

    Sampling is by numerical inversion of the CDF on a fine grid. The density
    has sub-exponential tails exp(-lam |b|), so the grid is truncated where
    the tail mass is below 1e-15 of the total; near the mode the density is
    approximately Gaussian with standard deviation 1/sqrt(lam), and the grid
    is fine relative to both scales.
    """
    if lam <= 0:
        raise PrecondError(f"prior rate must be positive, got {lam}")
    half_width = 1.0 / np.sqrt(lam) + 40.0 / lam
    n_grid = 20001
    grid = np.linspace(-half_width, half_width, n_grid)
    log_density = -lam * np.sqrt(1.0 + grid * grid)
    density = np.exp(log_density - log_density.max())
    cdf = cumulative_trapezoid(density, grid, initial=0.0)
    cdf /= cdf[-1]
    u = rng.random(d)
    return np.interp(u, cdf, grid)


def synth_regression_data(d: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Synthetic data for the hyperbolic-prior regression experiment.

    X has iid standard-normal entries, left unscaled, beta_0 is drawn from
    the hyperbolic prior, Y = X beta_0 + N(0, I), and lambda = sqrt(n)/d.
    """
    if not (1 <= d <= n):
        raise PrecondError(f"need n >= d >= 1, got d={d}, n={n}")
    rng = np.random.default_rng(seed)
    x_mat = rng.standard_normal((n, d))
    lam = np.sqrt(n) / d
    beta0 = sample_hyperbolic_prior(d, lam, rng)
    y = x_mat @ beta0 + rng.standard_normal(n)
    return x_mat, y, float(lam)


def synth_binomial_data(
    d: int, n: int, mu: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic data for the binomial g-prior experiment.

    X = G + mu with iid standard-normal G, weights w_i = i^2, and responses
    Y_i = S_i / w_i with S_i ~ Binomial(w_i, logistic(X_i^T beta_0)),
    beta_0 ~ N(0, I).
    """
    if not (1 <= d <= n) or mu < 0:
        raise PrecondError(f"need n >= d >= 1 and mu >= 0, got d={d}, n={n}, mu={mu}")
    rng = np.random.default_rng(seed)
    x_mat = rng.standard_normal((n, d)) + mu
    beta0 = rng.standard_normal(d)
    p = _logistic(x_mat @ beta0)
    w = np.arange(1, n + 1, dtype=float) ** 2
    s = rng.binomial(w.astype(np.int64), p)
    y = s / w
    return x_mat, y, w

