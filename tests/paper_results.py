"""Results of the paper that no command of the package reaches.

The exact kappa_L of the two-dimensional Givens misalignment, the spectral
gap of the preconditioned Ornstein-Uhlenbeck drift, the Loewner localisation
of the inverse covariance, and the lag-1 Dirichlet-form surrogate of the RWM
spectral gap. The acceptance criteria and unit tests check the paper's
statements about them.
"""

import math
from dataclasses import dataclass

import numpy as np

from precond import linalg
from precond.conditioning import BoundReport
from precond.errors import BoundInapplicableError, PrecondError
from precond.samplers import Trace


@dataclass(frozen=True)
class GivensKappa:
    kappa_l: float
    trace: float
    delta4_coefficient: float


def givens_delta_kappa(lambda1: float, lambda2: float, delta: float) -> GivensKappa:
    """Exact kappa_L of the worst-case two-dimensional misalignment construction.

    With D = diag(lambda1, lambda2), G the rotation by arccos(1-delta), and
    M = D^{1/2} G^T D^{-1} G D^{1/2}, det M = 1 and
    tr M = 2(1-delta)^2 + delta(2-delta) l with l = lambda1/lambda2 +
    lambda2/lambda1, so kappa_L = lambda_1(M)^2 follows from the quadratic
    characteristic polynomial. The quartic trend of the bound in delta has
    leading coefficient (l-2)^2/4, reported alongside.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise PrecondError("lambda1, lambda2 must be positive")
    if lambda1 == lambda2:
        raise PrecondError("lambda1 and lambda2 must differ")
    if not 0 <= delta <= 1:
        raise PrecondError(f"delta must lie in [0, 1], got {delta}")
    l = lambda1 / lambda2 + lambda2 / lambda1
    trace = 2.0 * (1.0 - delta) ** 2 + delta * (2.0 - delta) * l
    lam_max = 0.5 * (trace + math.sqrt(max(trace**2 - 4.0, 0.0)))
    return GivensKappa(
        kappa_l=lam_max**2,
        trace=trace,
        delta4_coefficient=0.25 * (l - 2.0) ** 2,
    )


def ou_spectral_gap(l_mat: np.ndarray, sigma: np.ndarray) -> tuple[float, bool]:
    """Spectral gap of the preconditioned Ornstein-Uhlenbeck drift.

    Returns (min_i |lambda_i(-L^{-1} L^{-T} Sigma^{-1})|, determinant
    constraint |det| = 1 satisfied within 1e-9).
    """
    l_mat = np.asarray(l_mat, dtype=float)
    sigma_inv = linalg.sym_inv(linalg.check_symmetric(sigma, "sigma"))
    linv = np.linalg.inv(l_mat)
    drift = -linv @ linv.T @ sigma_inv
    eigs = np.linalg.eigvals(drift)
    gap = float(np.abs(eigs).min())
    det = abs(float(np.linalg.det(drift)))
    return gap, bool(abs(det - 1.0) <= 1e-9)


def covariance_localisation(
    delta_minus: np.ndarray,
    delta_plus: np.ndarray,
    x_star: np.ndarray,
    mu: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Loewner localisation of the inverse covariance from Hessian envelopes.

    Given Delta_- <= hessian(x) <= Delta_+ everywhere, returns (P_-, P_+,
    norm_bound) with P_- <= Sigma_pi^{-1} <= P_+ and
    ||hessian(x) - Sigma_pi^{-1}|| <= norm_bound.
    """
    dm = linalg.check_symmetric(delta_minus, "delta_minus")
    dp = linalg.check_symmetric(delta_plus, "delta_plus")
    if not linalg.loewner_leq(dm, dp, tol=1e-10):
        raise PrecondError("delta_minus must precede delta_plus in Loewner order")
    for name, mat in (("delta_minus", dm), ("delta_plus", dp)):
        vals = np.linalg.eigvalsh(mat)
        if vals[0] <= 0:
            raise PrecondError(f"{name} must be positive definite")
    v = np.asarray(x_star, dtype=float) - np.asarray(mu, dtype=float)
    tr_p = float(v @ dp @ v)  # = Tr(D_+)
    tr_m = float(v @ dm @ v)
    if tr_p >= 1.0 or tr_m >= 1.0:
        raise BoundInapplicableError(
            f"mode-mean displacement too large: 1 - v^T Delta v = "
            f"{1 - tr_p:.4g} (+), {1 - tr_m:.4g} (-) must stay positive"
        )
    sign_m, logdet_m = np.linalg.slogdet(dm)
    sign_p, logdet_p = np.linalg.slogdet(dp)
    c = math.exp(0.5 * (logdet_m - logdet_p))
    dp_v = dp @ v
    dm_v = dm @ v
    p_plus = (dp + np.outer(dp_v, dp_v) / (1.0 - tr_p)) / c
    p_minus = c * (dm + np.outer(dm_v, dm_v) / (1.0 - tr_m))
    norm_bound = max(
        linalg.spectral_norm(dp - p_minus), linalg.spectral_norm(p_plus - dm)
    )
    return p_minus, p_plus, float(norm_bound)


def covariance_localisation_additive(
    a: np.ndarray, eps: float, x_star: np.ndarray, mu: np.ndarray
) -> BoundReport:
    """Localisation bound for additive Hessians A + B(x) with ||B(x)|| <= eps."""
    a = linalg.check_symmetric(a, "A")
    vals = np.linalg.eigvalsh(a)
    if eps <= 0 or vals[0] <= eps:
        raise BoundInapplicableError(
            f"need eps I strictly below A: lambda_min(A) = {vals[0]:.4g}, "
            f"eps = {eps:.4g}"
        )
    d = a.shape[0]
    a_plus = a + eps * np.eye(d)
    a_minus = a - eps * np.eye(d)
    v = np.asarray(x_star, dtype=float) - np.asarray(mu, dtype=float)
    tr_p = float(v @ a_plus @ v)
    tr_m = float(v @ a_minus @ v)
    if tr_p >= 1.0 or tr_m >= 1.0:
        raise BoundInapplicableError(
            "mode-mean displacement too large for the localisation corollary"
        )
    _, logdet_m = np.linalg.slogdet(a_minus)
    _, logdet_p = np.linalg.slogdet(a_plus)
    c = math.exp(0.5 * (logdet_m - logdet_p))
    ap_v = a_plus @ v
    am_v = a_minus @ v
    p_tilde_plus = np.outer(ap_v, ap_v) / (c * (1.0 - tr_p))
    p_tilde_minus = c * np.outer(am_v, am_v) / (1.0 - tr_m)
    value = (
        (1.0 / c + 1.0) * eps
        + (1.0 / c - 1.0) * linalg.spectral_norm(a)
        + max(
            linalg.spectral_norm(p_tilde_minus), linalg.spectral_norm(p_tilde_plus)
        )
    )
    return BoundReport(
        kind="CovLocaliseAdditive",
        value=float(value),
        inputs={"eps": eps, "c": c, "norm_a": linalg.spectral_norm(a)},
    )


def _demean(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise PrecondError("series must be one-dimensional")
    if not np.isfinite(series).all():
        raise PrecondError("series contains non-finite values")
    return series - series.mean()


def empirical_gap_upper(
    trace: Trace, v: np.ndarray, batches: int = 32
) -> tuple[float, float]:
    """Dirichlet-form surrogate 1 - rho_1 of <v, X_t>, with a batch-means SE.

    Converges to E(P, g)/Var(g) for g(x) = <v, x - mean>, a quantity at least
    as large as the spectral gap.
    """
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0:
        raise PrecondError("direction v must be nonzero")
    proj = trace.states @ v
    x = _demean(proj)
    n = x.shape[0]
    var = float(x @ x)
    if var == 0.0:
        raise PrecondError("projected series is degenerate")
    estimate = 1.0 - float(x[:-1] @ x[1:] / var)
    # batch-means standard error of the lag-1 estimate
    if batches < 2 or n < 2 * batches:
        raise PrecondError("too few points for batch-means standard error")
    size = n // batches
    vals = []
    for b in range(batches):
        seg = x[b * size : (b + 1) * size]
        seg = seg - seg.mean()
        svar = float(seg @ seg)
        if svar > 0:
            vals.append(1.0 - float(seg[:-1] @ seg[1:] / svar))
    vals = np.asarray(vals)
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else math.inf
    return estimate, se
