"""Reference implementations that the tests check the program against.

Each one is the textbook form of something the package computes another way:
the pushforward target y = Lx, plain RWM on it, the scalar Metropolis-Hastings
filter, central finite differences, and the assumption constants of the
theorem bounds measured over a probe set, which the package reads in closed
form from the Loewner pair. None of them is used by the package.
"""

import math
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from precond import linalg, samplers
from precond.errors import (
    AssumptionViolationError,
    DimensionMismatchError,
    NonFiniteInputError,
    PrecondError,
)
from precond.preconditioners import Preconditioner
from precond.samplers import ADAPT_RATE, ChainConfig, Trace, _init_state, adapt_step_size
from precond.targets import DifferentiableTarget


class DegeneratePairingError(PrecondError):
    """Eigenvector pairing is ambiguous because of a near-degenerate spectrum."""


def pushforward(
    target: DifferentiableTarget, precond: Preconditioner
) -> DifferentiableTarget:
    """The target of y = Lx.

    Potential, gradient and Hessian evaluate U(L^{-1} y), L^{-1} grad U(L^{-1} y)
    and L^{-1} hess U(L^{-1} y) L^{-1} (L is symmetric).
    """
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
    cov = None
    if target.exact_covariance is not None:
        cov = precond.l @ target.exact_covariance @ precond.l
        cov = 0.5 * (cov + cov.T)
    mode = None
    if target.exact_mode is not None:
        mode = precond.l @ target.exact_mode
    return DifferentiableTarget(
        dim=target.dim,
        potential=potential,
        gradient=gradient,
        hessian=hessian,
        exact_covariance=cov,
        exact_mode=mode,
        hessian_lower=h_lo,
        hessian_upper=h_up,
        kind=target.kind,
    )


def mh_accept(log_pi_ratio: float, log_q_ratio: float, u: float) -> bool:
    """Metropolis-Hastings filter: accept iff log u <= min(0, total log ratio).

    Non-finite ratios reject.
    """
    if not 0.0 <= u < 1.0:
        raise PrecondError(f"u must lie in [0, 1), got {u}")
    total = log_pi_ratio + log_q_ratio
    if not math.isfinite(total):
        return False
    return math.log(u) <= min(0.0, total) if u > 0.0 else True


def rwm_chain_pushforward_view(
    target: DifferentiableTarget,
    config: ChainConfig,
    x0: Optional[np.ndarray] = None,
) -> Trace:
    """Plain RWM on the pushforward target, states mapped back through L^{-1}.

    Consumes the RNG stream in the same order as ``samplers.run_chains``, so
    the two must agree step for step, with or without adaptation.
    """
    if config.kind != "RWM":
        raise PrecondError("config.kind must be RWM")
    precond = config.preconditioner
    pushed = pushforward(target, precond)
    x = _init_state(target, x0)
    y = precond.l @ x
    u0 = pushed.potential(y)
    if not math.isfinite(u0):
        raise NonFiniteInputError("potential is not finite at the initial state")
    n, d = config.n_steps, target.dim
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    raw = rng.standard_normal((n, d))
    unif = rng.random(n)
    linv = precond.inv
    states = np.empty((n, d))
    accepted = np.empty(n, dtype=bool)
    sigma = config.step_size
    warnings = 0
    for t in range(n):
        prop = y + sigma * raw[t]
        u_prop = pushed.potential(prop)
        log_ratio = u0 - u_prop
        if not math.isfinite(log_ratio):
            warnings += 1
            ok = False
            alpha = 0.0
        else:
            alpha = min(1.0, math.exp(min(log_ratio, 0.0)))
            ok = mh_accept(log_ratio, 0.0, unif[t])
        if ok:
            y, u0 = prop, u_prop
        states[t] = linv @ y
        accepted[t] = ok
        if config.adapt:
            sigma = adapt_step_size(sigma, t, alpha, ADAPT_RATE[config.kind])
    return Trace(
        states=states,
        accepted=accepted,
        config=config,
        x0=x,
        final_step_size=sigma,
        n_warnings=warnings,
    )


def finite_diff_check(
    target: DifferentiableTarget, x: np.ndarray, step: Optional[float] = None
) -> tuple[float, float]:
    """Relative error of the analytic gradient and Hessian vs central differences."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-5 * (1.0 + np.linalg.norm(x))
    d = x.shape[0]
    grad_fd = np.empty(d)
    hess_fd = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        grad_fd[i] = (target.potential(x + e) - target.potential(x - e)) / (2 * step)
        hess_fd[:, i] = (target.gradient(x + e) - target.gradient(x - e)) / (2 * step)
    hess_fd = 0.5 * (hess_fd + hess_fd.T)
    g = target.gradient(x)
    h = target.hessian(x)
    grad_err = np.linalg.norm(grad_fd - g) / max(1.0, np.linalg.norm(g))
    hess_err = np.linalg.norm(hess_fd - h) / max(1.0, np.linalg.norm(h))
    return float(grad_err), float(hess_err)


# -- assumption constants measured over probes ---------------------------------
#
# Each measurement takes the (P, d, d) stack of probe Hessians from
# hessian_stack and runs one eigen-solve over it; the per-matrix results equal
# those of solving each probe Hessian on its own, bit for bit. Over any probe
# set each is at most the closed form in precond.conditioning that bounds the
# same supremum over all states.

def _symmetrised(h: np.ndarray) -> np.ndarray:
    """0.5 (H + H^T) of each matrix in a (..., d, d) stack."""
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
    (trace,) = samplers.run_chains(target, [cfg], x_star[None])
    states = trace.states
    idx = np.linspace(states.shape[0] // 2, states.shape[0] - 1, n_chain).astype(int)
    return np.vstack([states[idx], local])
