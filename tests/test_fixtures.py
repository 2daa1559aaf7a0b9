"""Shared helpers for the test suite."""

import numpy as np

from precond import samplers
from precond.experiments import SIGMA_PI as SIGMA_PI_FIXTURE

__all__ = ["SIGMA_PI_FIXTURE", "one_chain", "random_spd"]


def random_spd(rng: np.random.Generator, d: int, spread: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a @ a.T + (0.1 + spread) * np.eye(d)


def one_chain(target, config, x0=None):
    """One chain through samplers.run_chains, from x0, or else from the
    target's exact mode, or else from the origin."""
    return samplers.run_chains(target, [config], samplers._init_state(target, x0)[None])[0]
