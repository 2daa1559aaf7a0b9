"""Condition numbers before and after preconditioning, and every bound on them.

Every constant here is read in closed form from the Loewner pair
H_lo <= hessian(x) <= H_up that each target family carries, whose ends are
attained or limiting members of the Hessian family, so each one bounds its
supremum over all states and every bound built from them is a certificate:

- kappa = M/m with m = lambda_min(H_lo) and M = lambda_max(H_up), and kappa_L,
  the same ratio for L^{-1} H_lo L^{-1} and L^{-1} H_up L^{-1};
- eps (Thm2, Thm3): envelope_eps, ||hessian(x) - LL^T|| <= sigma_d^2 eps;
- eps_eig (Thm1): envelope_eps_eigenvalue, by Weyl monotonicity
  lambda_i(H_lo) <= lambda_i(hessian(x)) <= lambda_i(H_up);
- delta (Thm1, Thm2): davis_kahan_delta from eps and the eigengap of LL^T;
- eps' (gap threshold and sandwich): envelope_hessian_variation,
  ||hessian(x) - hessian(y)|| <= lambda_max(H_up - H_lo) = m eps'.

A target without the pair raises BoundInapplicableError, since a search over
states could only under-state these suprema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .errors import BoundInapplicableError, PrecondError
from .preconditioners import Preconditioner
from .targets import (
    DifferentiableTarget,
    MultiplicativeStructure,
    SmoothnessEnvelope,
    loewner_envelope,
)

# Explicit constant of the RWM spectral-gap lower bound.
RWM_GAP_CONSTANT = 1.972e-4


@dataclass
class BoundReport:
    """A certified bound together with the constants that produced it."""

    kind: str
    value: float
    lower: Optional[float] = None
    inputs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "value": self.value,
            "inputs": {k: _jsonable(v) for k, v in self.inputs.items()},
        }
        if self.lower is not None:
            out["lower"] = self.lower
        if self.extras:
            out["extras"] = {k: _jsonable(v) for k, v in self.extras.items()}
        return out


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _symmetrised(h: np.ndarray) -> np.ndarray:
    """0.5 (H + H^T) of a matrix."""
    return 0.5 * (h + h.T)


def _envelope(target: DifferentiableTarget) -> SmoothnessEnvelope:
    if target.envelope is None:
        raise BoundInapplicableError(
            f"target {target.kind!r} carries no Hessian envelopes, so its "
            "condition number has no certified value"
        )
    return target.envelope


def condition_number(target: DifferentiableTarget) -> float:
    """kappa = sup ||hessian|| * sup ||hessian^{-1}|| = M/m of the target's envelope."""
    return _envelope(target).kappa


def kappa_after(target: DifferentiableTarget, precond: Preconditioner) -> float:
    """kappa_L = sup ||L^{-1} hess L^{-1}|| * sup ||L hess^{-1} L||."""
    _envelope(target)
    linv = precond.inv
    return loewner_envelope(linv @ target.hessian_lower @ linv,
                            linv @ target.hessian_upper @ linv).kappa


def envelope_eps(target: DifferentiableTarget, precond: Preconditioner) -> float:
    """An eps with ||hessian(x) - LL^T|| <= sigma_d^2 eps at every state x.

    H_lo <= hessian(x) <= H_up bounds lambda_max(hessian(x) - LL^T) by
    lambda_max(H_up - LL^T) and lambda_max(LL^T - hessian(x)) by
    lambda_max(LL^T - H_lo), so this is Thm3's epsilon as a certificate. It is
    exact when an end of the pair is attained, as H_up is at beta = 0 for the
    hyperbolic family, where L = A^{1/2} gives lambda / sigma_d^2.
    """
    _envelope(target)
    llt = precond.llt()
    above = np.linalg.eigvalsh(_symmetrised(target.hessian_upper - llt))[-1]
    below = np.linalg.eigvalsh(_symmetrised(llt - target.hessian_lower))[-1]
    return max(float(above), float(below), 0.0) / float(precond.sigma_sq[-1])


def envelope_eps_eigenvalue(
    target: DifferentiableTarget, precond: Preconditioner
) -> float:
    """An eps with (1+eps)^{-1} <= lambda_i(x)/sigma_i^2 <= 1+eps at every state x.

    Eigenvalues in descending order. Weyl monotonicity puts lambda_i(x)
    between lambda_i(H_lo) and lambda_i(H_up), so the ratio's extremes over
    all states are read at the two ends of the pair.
    """
    _envelope(target)
    sig = precond.sigma_sq
    up = np.linalg.eigvalsh(_symmetrised(target.hessian_upper))[::-1]
    lo = np.linalg.eigvalsh(_symmetrised(target.hessian_lower))[::-1]
    return max(float((up / sig).max()) - 1.0, float((sig / lo).max()) - 1.0, 0.0)


def envelope_hessian_variation(target: DifferentiableTarget) -> float:
    """An eps' with ||hessian(x) - hessian(y)|| <= m eps' for all states x, y.

    Both Hessians lie in [H_lo, H_up], so their difference lies between
    -(H_up - H_lo) and H_up - H_lo, and its norm is at most
    lambda_max(H_up - H_lo).
    """
    env = _envelope(target)
    spread = np.linalg.eigvalsh(
        _symmetrised(target.hessian_upper - target.hessian_lower))[-1]
    return max(float(spread), 0.0) / env.m


def davis_kahan_delta(eps: float, gamma: float, sigma_d: float) -> float:
    """Thm1's delta from ||hessian(x) - LL^T|| <= sigma_d^2 eps.

    With gamma the smallest gap between eigenvalues of LL^T, Davis-Kahan (in
    the form of Yu, Wang and Samworth 2015) bounds the sine of the angle
    between the i-th eigenvectors of hessian(x) and LL^T by
    t = 2 sigma_d^2 eps / gamma, so v_i(x)^T v_i >= sqrt(1 - t^2) >= 1 - t^2,
    which is Thm1's alignment 1 - (1 - sqrt(1 - delta))^2 at
    delta = 1 - (1 - t)^2. Where t > 1 or gamma = 0 this is delta = 1, which
    claims no alignment and is always sound.
    """
    if gamma <= 0:
        return 1.0
    t = 2.0 * sigma_d**2 * eps / gamma
    return 1.0 if t > 1.0 else 1.0 - (1.0 - t) ** 2


def hard_target_lower(precond: Preconditioner, m: float, big_m: float) -> BoundReport:
    """Lower bound kappa(LL^T) * M/m on kappa_L for the cosine hard target."""
    sig = precond.sigma_sq
    kappa_llt = float(sig[0] / sig[-1])
    return BoundReport(
        kind="HardLower",
        value=kappa_llt * big_m / m,
        inputs={"kappa_llt": kappa_llt, "m": m, "M": big_m},
    )


# -- theorem bounds ----------------------------------------------------------

def bound_thm1(eps: float, delta: float, sigmas: np.ndarray) -> BoundReport:
    """kappa_L <= (1+eps)^2 (1 + delta sqrt(sum sigma_i^2 sum sigma_i^{-2}))^4."""
    if eps < 0:
        raise PrecondError(f"eps must be nonnegative, got {eps}")
    if not 0 <= delta <= 1:
        raise PrecondError(f"delta must lie in [0, 1], got {delta}")
    sigmas = np.asarray(sigmas, dtype=float)
    if np.any(sigmas <= 0):
        raise PrecondError("singular values must be positive")
    trace_factor = math.sqrt(float((sigmas**2).sum() * (sigmas**-2).sum()))
    value = (1.0 + eps) ** 2 * (1.0 + delta * trace_factor) ** 4
    kappa_llt = float((sigmas.max() / sigmas.min()) ** 2)
    return BoundReport(
        kind="Thm1",
        value=value,
        inputs={"eps": eps, "delta": delta, "sigmas": sigmas},
        extras={
            "trace_factor": trace_factor,
            "trace_factor_cap": sigmas.shape[0] * math.sqrt(kappa_llt),
        },
    )


def bound_thm2(
    eps: float, gamma: float, sigma_d: float, sigmas: np.ndarray
) -> BoundReport:
    """Theorem 1 from the norm slack ||hessian(x) - LL^T|| <= sigma_d^2 eps.

    Reported where the theorem's hypothesis 2 eps / (gamma sigma_d^2) <= 1
    holds and eps < 1. The slack puts every lambda_i(x)/sigma_i^2 within
    [1 - eps, 1 + eps], so Thm1 applies at eps / (1 - eps): at eps itself the
    lower end 1 - eps lies below (1 + eps)^{-1}. Its delta is
    davis_kahan_delta(eps, gamma, sigma_d).
    """
    if gamma <= 0:
        raise BoundInapplicableError(
            "LL^T has zero eigengap; the Davis-Kahan route needs gamma > 0"
        )
    t = 2.0 * eps / (gamma * sigma_d**2)
    if t > 1.0:
        raise BoundInapplicableError(
            f"2 eps / (gamma sigma_d^2) = {t:.4g} exceeds 1; the derived delta "
            "leaves its valid range and the bound is undefined"
        )
    if eps >= 1.0:
        raise BoundInapplicableError(
            f"eps = {eps:.4g} is at least 1, so the norm slack leaves the "
            "eigenvalue ratios unbounded below"
        )
    delta = davis_kahan_delta(eps, gamma, sigma_d)
    rep = bound_thm1(eps / (1.0 - eps), delta, sigmas)
    return BoundReport(
        kind="Thm2",
        value=rep.value,
        inputs={"eps": eps, "gamma": gamma, "sigma_d": sigma_d, "sigmas": sigmas},
        extras={"delta": delta, **rep.extras},
    )


def bound_thm3(eps: float, sigma1: float, m: float) -> BoundReport:
    """kappa_L <= (1 + eps)(1 + sigma_1^2 eps / m)."""
    if eps < 0 or m <= 0 or sigma1 <= 0:
        raise PrecondError("need eps >= 0, sigma1 > 0, m > 0")
    value = (1.0 + eps) * (1.0 + sigma1**2 * eps / m)
    return BoundReport(
        kind="Thm3", value=value, inputs={"eps": eps, "sigma1": sigma1, "m": m}
    )


# -- multiplicative Hessian bounds -------------------------------------------

def _mult_structure(target: DifferentiableTarget) -> MultiplicativeStructure:
    if not isinstance(target.structure, MultiplicativeStructure):
        raise PrecondError("target does not expose a multiplicative Hessian")
    s = target.structure
    if s.entry_inf is None or s.entry_sup is None:
        raise PrecondError("multiplicative structure is missing entry extremes")
    return s


def _entry_order_stats(s: MultiplicativeStructure) -> tuple[float, float, float, float]:
    """sup of the largest entry, inf of the smallest, the (n-d+1)-th largest
    entry supremum and the d-th largest entry infimum."""
    n, d = s.design.shape
    return (float(s.entry_sup.max()), float(s.entry_inf.min()),
            float(np.sort(s.entry_sup)[::-1][n - d]),
            float(np.sort(s.entry_inf)[::-1][d - 1]))


def mult_kappa_bounds(target: DifferentiableTarget) -> BoundReport:
    """Sandwich on kappa from rectangular Ostrowski.

    lambda_1(hess) >= lambda_d(X^T X) lambda_{n-d+1}(Lambda) and
    lambda_d(hess) <= lambda_1(X^T X) lambda_d(Lambda), so the lower bound
    reads the (n-d+1)-th largest entry supremum over the d-th largest entry
    infimum. Entry extremes are assumed jointly attainable (true for
    logistic-type families, where all entries peak at the same point).
    """
    s = _mult_structure(target)
    kappa_xtx = linalg.spectral_condition_number(s.design.T @ s.design)
    sup_l1, inf_ld, sup_lk, inf_lambda_d = _entry_order_stats(s)
    return BoundReport(
        kind="Prop3",
        value=kappa_xtx * sup_l1 / inf_ld,
        lower=sup_lk / (inf_lambda_d * kappa_xtx),
        inputs={
            "kappa_xtx": kappa_xtx,
            "sup_lambda1": sup_l1,
            "inf_lambdad": inf_ld,
            "sup_lambda_ndp1": sup_lk,
        },
    )


def mult_dalalyan(target: DifferentiableTarget) -> BoundReport:
    """Sandwich on kappa_L for L = (X^T X)^{1/2}, with the C/c corollary value.

    L^{-1} hess L^{-1} = Q^T Lambda Q with Q = X (X^T X)^{-1/2}, whose columns
    are orthonormal, so Cauchy interlacing puts lambda_1 above
    lambda_{n-d+1}(Lambda) and lambda_d below lambda_d(Lambda). The lower
    bound reads both from the entry extremes, assumed jointly attainable as
    in mult_kappa_bounds.
    """
    s = _mult_structure(target)
    sup_l1, inf_ld, sup_lk, inf_lambda_d = _entry_order_stats(s)
    value = sup_l1 / inf_ld  # C/c: the corollary's ratio is the bound itself
    return BoundReport(
        kind="Prop5",
        value=value,
        lower=sup_lk / inf_lambda_d,
        inputs={"sup_lambda1": sup_l1, "inf_lambdad": inf_ld, "c": inf_ld, "C": sup_l1},
        extras={"corollary_value": value},
    )


def mult_mode_bound(target: DifferentiableTarget, x_star: np.ndarray) -> BoundReport:
    """Upper bounds on kappa_L for L = (X^T Lambda(x*) X)^{1/2}."""
    s = _mult_structure(target)
    lam_star = np.asarray(s.diag(np.asarray(x_star, dtype=float)), dtype=float)
    if np.any(lam_star <= 0):
        raise PrecondError("Lambda(x*) must be positive")
    first = float((s.entry_sup / lam_star).max() / (s.entry_inf / lam_star).min())
    cap = float((s.entry_sup.max() / s.entry_inf.min()) ** 2)
    return BoundReport(
        kind="Prop6",
        value=first,
        inputs={"lambda_star_min": lam_star.min(), "lambda_star_max": lam_star.max()},
        extras={"squared_ratio_cap": cap},
    )


# -- spectral gap ------------------------------------------------------------

def rwm_gap_bounds(
    kappa: float, d: int, xi: float, eps: float, big_m: Optional[float] = None
) -> BoundReport:
    """Sandwich on the RWM spectral gap at proposal variance xi/(M d)."""
    if kappa < 1 or d < 1 or xi <= 0 or eps < 0:
        raise PrecondError("need kappa >= 1, d >= 1, xi > 0, eps >= 0")
    lower = RWM_GAP_CONSTANT * xi * math.exp(-2.0 * xi) / (kappa * d)
    upper = (1.0 + 2.0 * eps) * 0.5 * xi / (kappa * d)
    extras = {}
    if big_m is not None:
        extras["sigma2"] = xi / (big_m * d)
    return BoundReport(
        kind="GapSandwich",
        value=upper,
        lower=lower,
        inputs={"kappa": kappa, "d": d, "xi": xi, "eps": eps},
        extras=extras,
    )


def improved_gap_threshold(
    eps_prime: float, eps: float, sigma1: float, m: float, xi: float
) -> BoundReport:
    """kappa threshold above which preconditioning provably raises the gap."""
    if min(eps_prime, eps, sigma1, m, xi) < 0 or m <= 0:
        raise PrecondError("all arguments must be nonnegative with m > 0")
    value = (
        0.5
        / RWM_GAP_CONSTANT
        * math.exp(2.0 * xi)
        * (1.0 + 2.0 * eps_prime)
        * (1.0 + eps)
        * (1.0 + sigma1**2 * eps / m)
    )
    return BoundReport(
        kind="ImprovedGapThreshold",
        value=value,
        inputs={
            "eps_prime": eps_prime, "eps": eps, "sigma1": sigma1, "m": m, "xi": xi
        },
    )


def diag_dominance_bound(sigma: np.ndarray) -> BoundReport:
    """Bound on the correlation-matrix condition number via diagonal dominance.

    With alpha the largest value such that alpha * sum_{j != i} |C_ij| <= 1
    for every row, returns
    d ((1+alpha)/(1-alpha))^2 (max Sigma_ii / min Sigma_ii) kappa(Sigma)
    for alpha < 1, falling back to d (max/min) kappa(Sigma) otherwise. Both
    variants dominate the plain rescaling bound
    kappa(C) <= (max Sigma_ii / min Sigma_ii) kappa(Sigma) and are sound.
    """
    sigma = linalg.check_symmetric(sigma, "sigma")
    d = sigma.shape[0]
    diag = np.diag(sigma)
    if np.any(diag <= 0):
        raise PrecondError("sigma must have a positive diagonal")
    corr = sigma / np.sqrt(np.outer(diag, diag))
    off = np.abs(corr).sum(axis=1) - np.abs(np.diag(corr))
    max_off = float(off.max())
    alpha = math.inf if max_off == 0.0 else 1.0 / max_off
    kappa_sigma = linalg.spectral_condition_number(sigma)
    ratio = float(diag.max() / diag.min())
    if alpha < 1.0:
        value = d * ((1.0 + alpha) / (1.0 - alpha)) ** 2 * ratio * kappa_sigma
    else:
        value = d * ratio * kappa_sigma
    return BoundReport(
        kind="DiagDominance",
        value=value,
        inputs={"alpha": alpha if math.isfinite(alpha) else "inf",
                "kappa_sigma": kappa_sigma, "diag_ratio": ratio, "d": d},
        extras={"kappa_corr": linalg.spectral_condition_number(corr)},
    )
