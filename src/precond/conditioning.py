"""Condition numbers before and after preconditioning, and every bound on them.

Both condition numbers take one route, the Loewner pair H_lo <= hessian(x) <=
H_up that every target family carries, whose ends are attained or limiting
members of the Hessian family: kappa = M/m with m = lambda_min(H_lo) and
M = lambda_max(H_up), the target's envelope that Thm3, the gap threshold and
the gap sandwich read too, and kappa_L is the same ratio for L^{-1} H_lo L^{-1}
and L^{-1} H_up L^{-1}.
A target without the pair raises BoundInapplicableError, since a search over
states could only under-state kappa.

Closed form, hence certified: m, M, kappa, kappa_L and envelope_eps, Thm3's
norm slack epsilon, which the pair bounds at every state.
Probe estimates: the measure_* constants (epsilon, delta, epsilon') taken over
a probe set. A probe set can miss the state that attains a supremum, and an
under-estimated epsilon makes an upper bound on kappa too small, so a bound
built from them is an estimate, not a certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import linalg
from .errors import (
    AssumptionViolationError,
    BoundInapplicableError,
    DegeneratePairingError,
    PrecondError,
)
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
    certified: bool = True
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "value": self.value,
            "inputs": {k: _jsonable(v) for k, v in self.inputs.items()},
            "certified": self.certified,
        }
        if self.lower is not None:
            out["lower"] = self.lower
        if self.extras:
            out["extras"] = {k: _jsonable(v) for k, v in self.extras.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _symmetrised(h: np.ndarray) -> np.ndarray:
    """0.5 (H + H^T) of a matrix, or of each matrix in a (..., d, d) stack."""
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def _convex_eigvalsh(h_sym: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (..., d, d) stack of symmetric Hessians.

    Raises at the first matrix with a nonpositive eigenvalue.
    """
    vals = np.linalg.eigvalsh(h_sym)
    lowest = vals[..., 0].reshape(-1)
    bad = np.flatnonzero(lowest <= 0)
    if bad.size:
        raise AssumptionViolationError(
            f"Hessian has nonpositive eigenvalue {lowest[bad[0]]:.3e} at a probe; "
            "target is not strongly log-concave there"
        )
    return vals


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


def hard_target_lower(precond: Preconditioner, m: float, big_m: float) -> BoundReport:
    """Lower bound kappa(LL^T) * M/m on kappa_L for the cosine hard target."""
    sig = precond.sigma_sq
    kappa_llt = float(sig[0] / sig[-1])
    return BoundReport(
        kind="HardLower",
        value=kappa_llt * big_m / m,
        inputs={"kappa_llt": kappa_llt, "m": m, "M": big_m},
    )


# -- assumption constant measurement ----------------------------------------
#
# Each measurement takes the (P, d, d) stack of probe Hessians from
# hessian_stack and runs one eigen-solve over it; the per-matrix results equal
# those of solving each probe Hessian on its own, bit for bit. analyze builds
# one stack and passes it to every measurement.

# Floats per stack of pair differences in measure_eps_hessian_variation
# (8 MiB); larger probe sets are processed in chunks of pairs.
PAIR_CHUNK_FLOATS = 1 << 20


def hessian_stack(
    target: DifferentiableTarget, probes: Sequence[np.ndarray]
) -> np.ndarray:
    """(P, d, d) stack of the target's Hessians at the probes."""
    if len(probes) == 0:
        raise PrecondError("probe set is empty")
    return np.stack([target.hessian(np.asarray(x, dtype=float)) for x in probes])


def measure_eps_eigenvalue(hs: np.ndarray, precond: Preconditioner) -> float:
    """Smallest eps with (1+eps)^{-1} <= lambda_i(x)/sigma_i^2 <= 1+eps on probes."""
    h = linalg.check_symmetric(_symmetrised(hs))
    ratio = _convex_eigvalsh(h)[:, ::-1] / precond.sigma_sq  # descending
    return max(
        0.0,
        float((ratio.max(axis=1) - 1.0).max()),
        float((1.0 / ratio.min(axis=1) - 1.0).max()),
    )


def measure_delta_eigenvector(hs: np.ndarray, precond: Preconditioner) -> float:
    """Smallest delta with v_i(x)^T v_i >= 1 - (1 - sqrt(1-delta))^2 on probes.

    Eigenvectors of each probe Hessian are paired with those of LL^T by
    maximal absolute inner product (Hungarian assignment, one probe at a
    time). Near-degenerate probe spectra make the pairing ambiguous and raise
    instead of guessing.
    """
    h = linalg.check_symmetric(_symmetrised(hs))
    values, vectors = np.linalg.eigh(h)  # ascending
    # columns in descending order of eigenvalue, as linalg.sym_eigen gives them
    vectors = np.ascontiguousarray(vectors[:, :, ::-1])
    if values.shape[1] > 1:
        gaps = np.diff(values, axis=1).min(axis=1)
        bad = np.flatnonzero(gaps < 1e-10 * np.maximum(np.abs(values[:, -1]), 1.0))
        if bad.size:
            raise DegeneratePairingError(
                f"probe Hessian eigengap {gaps[bad[0]]:.3e} is too small to pair "
                "eigenvectors unambiguously"
            )
    v_l = precond.eigs.vectors
    worst = 1.0
    for vecs in vectors:
        overlap = np.abs(vecs.T @ v_l)
        rows, cols = linear_sum_assignment(-overlap)
        worst = min(worst, float(overlap[rows, cols].min()))
    worst = min(max(worst, 0.0), 1.0)
    # invert alignment a = 1 - (1 - sqrt(1-delta))^2 for delta
    delta = 1.0 - (1.0 - math.sqrt(1.0 - worst)) ** 2
    return float(min(max(delta, 0.0), 1.0))


def measure_eps_norm(hs: np.ndarray, precond: Preconditioner) -> float:
    """Smallest eps with ||hessian(x) - LL^T|| <= sigma_d^2 eps on probes."""
    norms = linalg.spectral_norm(_symmetrised(hs) - precond.llt())
    return max(0.0, float((norms / precond.sigma_sq[-1]).max()))


def measure_eps_hessian_variation(hs: np.ndarray, m: float) -> float:
    """Smallest eps with ||hessian(x) - hessian(y)|| <= m eps over probe pairs."""
    i, j = np.triu_indices(hs.shape[0], 1)
    chunk = max(1, PAIR_CHUNK_FLOATS // hs[0].size)
    eps = 0.0
    for start in range(0, i.size, chunk):
        diff = hs[i[start:start + chunk]] - hs[j[start:start + chunk]]
        norms = linalg.spectral_norm(_symmetrised(diff))
        eps = max(eps, float((norms / m).max()))
    return eps


def default_probes(
    target: DifferentiableTarget,
    precond: Preconditioner,
    seed: int = 0,
    n_chain: int = 128,
    n_local: int = 128,
) -> np.ndarray:
    """Probe points: equilibrated chain states plus local Gaussian draws.

    The Gaussian half is N(x*, 4 (LL^T)^{-1}), covering moderate tails where
    Hessian variation lives; the chain half covers the bulk.
    """
    from . import samplers  # local import: samplers sits above this module

    d = target.dim
    if target.exact_mode is not None:
        x_star = np.asarray(target.exact_mode, dtype=float)
    else:
        x_star = samplers.find_mode(target, precond, tol=1e-8)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E3779B9]))
    linv = precond.inv
    local = x_star + 2.0 * (rng.standard_normal((n_local, d)) @ linv.T)
    cfg = samplers.ChainConfig(
        kind="RWM",
        step_size=2.38 / math.sqrt(d),
        preconditioner=precond,
        n_steps=max(8 * n_chain, 512),
        seed=seed,
    )
    trace = samplers.rwm_chain(target, cfg, x0=x_star)
    states = trace.states
    idx = np.linspace(states.shape[0] // 2, states.shape[0] - 1, n_chain).astype(int)
    return np.vstack([states[idx], local])


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
    """Theorem 1 with delta derived from the eigengap via Davis-Kahan."""
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
    delta = 1.0 - (1.0 - t) ** 2
    rep = bound_thm1(eps, delta, sigmas)
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
    kappa_xtx = linalg.spectral_condition_number(s.design.T @ s.design).cond
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


# -- Fisher, spectral gap, O-U, localisation ---------------------------------

def fisher_bound(eps: float, sigma1: float, sigma_d: float, m: float) -> BoundReport:
    """Fisher-preconditioner guarantees from a verified norm slack eps.

    ||hessian(x) - Fisher|| <= 2 sigma_d^2 eps, and the square-root-Fisher
    preconditioner satisfies kappa_L <= (1+2 eps)(1 + 2 sigma_1^2 eps / m).
    """
    if eps < 0 or m <= 0:
        raise PrecondError("need eps >= 0 and m > 0")
    return BoundReport(
        kind="FisherCor",
        value=(1.0 + 2.0 * eps) * (1.0 + 2.0 * sigma1**2 * eps / m),
        inputs={"eps": eps, "sigma1": sigma1, "sigma_d": sigma_d, "m": m},
        extras={"norm_bound": 2.0 * sigma_d**2 * eps},
    )


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
    kappa_sigma = linalg.spectral_condition_number(sigma).cond
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
        extras={"kappa_corr": linalg.spectral_condition_number(corr).cond},
    )
