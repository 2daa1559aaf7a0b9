"""Reference implementations that the tests check the program against.

Each one is the textbook form of something the package computes another way:
the pushforward target y = Lx, plain RWM on it, the scalar Metropolis-Hastings
filter and central finite differences. None of them is used by the package.
"""

import math
from typing import Optional

import numpy as np

from precond.errors import DimensionMismatchError, NonFiniteInputError, PrecondError
from precond.preconditioners import Preconditioner
from precond.samplers import ChainConfig, Trace, _init_state, adapt_step_size
from precond.targets import DifferentiableTarget


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

    Consumes the RNG stream in the same order as ``samplers.rwm_chain``, so
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
    log_pots = np.empty(n)
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
        log_pots[t] = u0
        if config.adapt is not None:
            sigma = adapt_step_size(sigma, t, alpha, config.adapt)
    return Trace(
        states=states,
        accepted=accepted,
        log_potentials=log_pots,
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
