"""Metropolized chains: preconditioned RWM and MALA, adaptation, mode finding.

Both chains run one Metropolis-Hastings kernel in the target's coordinates,
with preconditioning applied through the proposal
x' = x - sigma^2/2 (LL^T)^{-1} grad U(x) + sigma L^{-1} xi; RWM is the
zero-drift case. This is step-for-step identical to running the plain
algorithm on the pushforward target y = Lx and mapping states back through
L^{-1}, provided both consume the same RNG stream.
``run_chains`` is the one way to run chains: one chain runs the scalar
kernel, and K > 1 chains advance in lock-step by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModeSearchError, NonFiniteInputError, PrecondError
from .preconditioners import Preconditioner
from .targets import DifferentiableTarget


# Robbins-Monro gains (t + 1)^-ADAPT_DECAY of the step-size adaptation.
ADAPT_DECAY = 0.6

# The optimal acceptance of each kind, which an adaptive chain's step tunes
# toward (Roberts, Gelman and Gilks 1997; Roberts and Rosenthal 1998).
ADAPT_RATE = {"RWM": 0.234, "MALA": 0.574}


@dataclass(frozen=True)
class ChainConfig:
    kind: str                      # "RWM" or "MALA"
    step_size: float               # sigma
    preconditioner: Preconditioner
    n_steps: int
    seed: int
    adapt: bool = False            # adapt the step toward ADAPT_RATE[kind]

    def __post_init__(self):
        if self.kind not in ADAPT_RATE:
            raise PrecondError(f"unknown chain kind {self.kind!r}")
        if self.step_size <= 0:
            raise PrecondError(f"step size must be positive, got {self.step_size}")
        if self.n_steps < 1:
            raise PrecondError("n_steps must be at least 1")


@dataclass(frozen=True)
class Trace:
    """States after each step with acceptance indicators."""

    states: np.ndarray    # (n_steps, d)
    accepted: np.ndarray  # (n_steps,) bool
    config: ChainConfig
    x0: np.ndarray
    final_step_size: float
    n_warnings: int = 0

    def __post_init__(self):
        if self.accepted.shape[0] != self.states.shape[0]:
            raise PrecondError("trace arrays must have equal length")


def _mh_filter(log_ratio: np.ndarray, log_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Metropolis-Hastings filter, element-wise on total log ratios, given log u.

    A step is accepted iff log u <= min(0, ratio), and a non-finite ratio
    rejects. Returns the accept mask and the mask of finite ratios. As u < 1,
    log u <= min(0, ratio) is log u <= ratio.
    """
    finite = np.isfinite(log_ratio)
    return finite & (log_u <= log_ratio), finite


def _accept_prob(log_ratio: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """min(1, exp(ratio)), the alpha adaptation sees; 0 where the ratio is not finite."""
    return np.where(finite, np.exp(np.minimum(log_ratio, 0.0)), 0.0)


def adapt_step_size(step: float, t: int, alpha: float, rate: float) -> float:
    """Stochastic-approximation update log sigma += (t + 1)^{-ADAPT_DECAY}(alpha - rate)."""
    gain = (t + 1) ** (-ADAPT_DECAY)
    return float(step * math.exp(gain * (alpha - rate)))


def _init_state(target: DifferentiableTarget, x0: Optional[np.ndarray]) -> np.ndarray:
    if x0 is None:
        if target.exact_mode is not None:
            x0 = np.asarray(target.exact_mode, dtype=float)
        else:
            x0 = np.zeros(target.dim)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (target.dim,):
        raise PrecondError(f"initial state has shape {x0.shape}, expected ({target.dim},)")
    return x0


def _draws(config: ChainConfig, linv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A chain's (n, d) normals premultiplied by L^{-1}, then its n uniforms.

    The raw uniforms follow the normals in stream order.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    noise = rng.standard_normal((config.n_steps, linv.shape[0])) @ linv.T
    return noise, rng.random(config.n_steps)


def _mh_chain(target: DifferentiableTarget, config: ChainConfig, x0: np.ndarray) -> Trace:
    """The scalar Metropolis-Hastings kernel, in the target's coordinates x.

    Proposal x' = x - sigma^2/2 (LL^T)^{-1} grad U(x) + sigma L^{-1} xi; RWM
    is the zero-drift case. For MALA the log proposal ratio of the
    pushforward chain, written through L^{-1} xi, the gradients g and their
    images (LL^T)^{-1} g, costs one mat-vec per step.
    """
    x = x0
    mala = config.kind == "MALA"
    linv = config.preconditioner.inv
    potential, gradient = target.potential, target.gradient
    u0 = potential(x)
    if mala:
        metric = config.preconditioner.metric
        g0 = gradient(x)
        if not (math.isfinite(u0) and np.isfinite(g0).all()):
            raise NonFiniteInputError("potential or gradient not finite at initial state")
        drift0 = metric @ g0
    elif not math.isfinite(u0):
        raise NonFiniteInputError("potential is not finite at the initial state")
    n, d = config.n_steps, target.dim
    noise, unif = _draws(config, linv)
    states = np.empty((n, d))
    accepted = np.empty(n, dtype=bool)
    sigma = config.step_size
    rate = ADAPT_RATE[config.kind] if config.adapt else None
    if rate is None:
        noise *= sigma  # the same products as sigma * noise[t] step by step
    warnings = 0
    for t in range(n):
        step = noise[t] if rate is None else sigma * noise[t]
        if mala:
            s2 = sigma * sigma
            prop = x + step - 0.5 * s2 * drift0
            u_prop = potential(prop)
            g_prop = gradient(prop)
            drift_prop = metric @ g_prop
            g_sum = g0 + g_prop
            log_ratio = (u0 - u_prop + 0.5 * (step @ g_sum)
                         - 0.125 * s2 * (g_sum @ (drift0 + drift_prop)))
        else:
            prop = x + step
            u_prop = potential(prop)
            log_ratio = u0 - u_prop
        if math.isfinite(log_ratio):
            log_alpha = min(log_ratio, 0.0)
            u = unif[t]
            ok = u == 0.0 or math.log(u) <= log_alpha
            alpha = math.exp(log_alpha)
        else:
            warnings += 1
            ok = False
            alpha = 0.0
        if ok:
            x, u0 = prop, u_prop
            if mala:
                g0, drift0 = g_prop, drift_prop
        states[t] = x
        accepted[t] = ok
        if rate is not None:
            sigma = adapt_step_size(sigma, t, alpha, rate)
    return Trace(states=states, accepted=accepted, config=config, x0=x0.copy(),
                 final_step_size=sigma, n_warnings=warnings)


def _mh_lockstep(
    target: DifferentiableTarget, configs: list, x0s: np.ndarray
) -> list:
    """K chains of one kind, length and ``adapt`` advanced together by the
    scalar kernel's rule.

    Each chain keeps its own stream, preconditioner and step size;
    potential and gradient see all K proposals as one (K, d) array. Each
    step's states are written over the noise that step consumed.
    """
    k_chains, d = x0s.shape
    mala = configs[0].kind == "MALA"
    n = configs[0].n_steps
    linvs = np.stack([c.preconditioner.inv for c in configs])
    states = np.empty((k_chains, n, d))
    log_u = np.empty((n, k_chains))
    for k, cfg in enumerate(configs):
        states[k], log_u[:, k] = _draws(cfg, linvs[k])
    with np.errstate(divide="ignore"):
        np.log(log_u, out=log_u)
    potential, gradient = target.potential, target.gradient
    x = x0s.copy()
    u0 = np.array(potential(x), dtype=float)
    finite = np.isfinite(u0)
    if mala:
        metrics = np.stack([c.preconditioner.metric for c in configs])
        g0 = gradient(x)
        finite &= np.isfinite(g0).all(axis=1)
        drift0 = (metrics @ g0[:, :, None])[:, :, 0]
    if not finite.all():
        raise NonFiniteInputError(
            f"potential or gradient not finite at the initial state of chain "
            f"{int(np.argmin(finite))}"
        )
    accepted = np.empty((k_chains, n), dtype=bool)
    finite_steps = np.empty((n, k_chains), dtype=bool)
    sigma = np.array([c.step_size for c in configs])[:, None]
    adapt = configs[0].adapt
    if adapt:
        rate = ADAPT_RATE[configs[0].kind]
        gains = np.arange(1.0, n + 1.0) ** -ADAPT_DECAY  # (t + 1)^-ADAPT_DECAY
    else:
        states *= sigma[:, :, None]
    for t in range(n):
        step = sigma * states[:, t] if adapt else states[:, t]
        if mala:
            s2 = sigma * sigma
            prop = x + step - 0.5 * s2 * drift0
            u_prop = potential(prop)
            g_prop = gradient(prop)
            drift_prop = (metrics @ g_prop[:, :, None])[:, :, 0]
            g_sum = g0 + g_prop
            log_ratio = (u0 - u_prop + 0.5 * np.einsum("ki,ki->k", step, g_sum)
                         - 0.125 * s2[:, 0] * np.einsum("ki,ki->k", g_sum, drift0 + drift_prop))
        else:
            prop = x + step
            u_prop = potential(prop)
            log_ratio = u0 - u_prop
        ok, finite_steps[t] = _mh_filter(log_ratio, log_u[t])
        moved = ok[:, None]
        np.copyto(x, prop, where=moved)
        np.copyto(u0, u_prop, where=ok)
        if mala:
            np.copyto(g0, g_prop, where=moved)
            np.copyto(drift0, drift_prop, where=moved)
        states[:, t] = x
        accepted[:, t] = ok
        if adapt:
            alpha = _accept_prob(log_ratio, finite_steps[t])
            sigma = sigma * np.exp(gains[t] * (alpha - rate))[:, None]
    return [
        Trace(
            states=states[k],
            accepted=accepted[k],
            config=cfg,
            x0=x0s[k].copy(),
            final_step_size=float(sigma[k, 0]),
            n_warnings=int(n - finite_steps[:, k].sum()),
        )
        for k, cfg in enumerate(configs)
    ]


def run_chains(
    target: DifferentiableTarget, configs: list, x0s: np.ndarray
) -> list:
    """Run K chains of one kind, length and ``adapt`` from the K initial states
    ``x0s``; returns their traces in order.

    Each chain draws its normals, then its uniforms, from its own
    ``SeedSequence(seed)`` stream, and has its own preconditioner and step
    size. One chain runs the scalar kernel, which is faster than
    lock-step at K = 1; K > 1 chains run in lock-step, which needs the
    target's potential and gradient to accept a (K, d) array of states.
    """
    configs = list(configs)
    if not configs:
        raise PrecondError("run_chains needs at least one chain config")
    if len({(c.kind, c.n_steps, c.adapt) for c in configs}) > 1:
        raise PrecondError("run_chains needs chains of one kind, one length and one adapt")
    k_chains, d = len(configs), target.dim
    x0s = np.asarray(x0s, dtype=float)
    if x0s.shape != (k_chains, d):
        raise PrecondError(
            f"initial states have shape {x0s.shape}, expected ({k_chains}, {d})"
        )
    if k_chains == 1:
        return [_mh_chain(target, configs[0], x0s[0])]
    return _mh_lockstep(target, configs, x0s)


def find_mode(
    target: DifferentiableTarget,
    precond: Optional[Preconditioner] = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Descent to the minimizer of U until ||grad U|| <= tol.

    Runs gradient descent preconditioned by (LL^T)^{-1} with backtracking,
    then switches to Armijo-damped Newton once the analytic Hessian makes
    progress; the fixed metric alone cannot reach tight tolerances when the
    local curvature differs from LL^T by orders of magnitude.

    Large potentials put a float64 floor under the achievable gradient norm:
    line searches cannot certify decreases smaller than eps * |U|. When
    progress stalls at a norm below sqrt(eps) times the initial gradient
    scale the current point is returned as the numerical optimum.
    """
    x = _init_state(target, x0)
    metric = precond.metric if precond is not None else np.eye(target.dim)
    u = target.potential(x)
    step = 1.0
    gnorm = math.inf
    g0norm = None
    best_gnorm = math.inf
    stall = 0
    for it in range(max_iter):
        g = target.gradient(x)
        gnorm = float(np.linalg.norm(g))
        if g0norm is None:
            g0norm = gnorm
        if gnorm <= tol:
            return x
        if gnorm < 0.999 * best_gnorm:
            best_gnorm = gnorm
            stall = 0
        else:
            stall += 1
            if stall >= 25:
                if gnorm <= math.sqrt(np.finfo(float).eps) * (1.0 + g0norm):
                    return x
                break
        direction = None
        if it >= 3:  # a few fixed-metric steps first, then Newton
            try:
                direction = -np.linalg.solve(target.hessian(x), g)
                if float(g @ direction) >= 0 or not np.isfinite(direction).all():
                    direction = None
            except np.linalg.LinAlgError:
                direction = None
        if direction is None:
            direction = -(metric @ g)
        else:
            step = 1.0
        slope = float(g @ direction)
        s = step
        for _ in range(80):
            cand = x + s * direction
            u_cand = target.potential(cand)
            if math.isfinite(u_cand) and u_cand <= u + 1e-4 * s * slope:
                break
            s *= 0.5
        else:
            raise ModeSearchError("line search failed to find a decrease")
        x, u = x + s * direction, u_cand
        step = min(s * 2.0, 1e8)
    raise ModeSearchError(
        f"gradient norm {gnorm:.3e} still above tol {tol} after {it + 1} iterations"
    )

