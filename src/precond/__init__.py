"""Linear preconditioning for MCMC on strongly log-concave targets.

Condition numbers before and after preconditioning, certified bounds on them,
preconditioned RWM/MALA samplers, ESS diagnostics, and an experiment harness.
"""

from .conditioning import (
    BoundReport,
    bound_thm1,
    bound_thm2,
    bound_thm3,
    condition_number,
    diag_dominance_bound,
    hard_target_lower,
    improved_gap_threshold,
    kappa_after,
    mult_dalalyan,
    mult_kappa_bounds,
    mult_mode_bound,
    rwm_gap_bounds,
)
from .diagnostics import EssReport, acceptance_rate, ess, ess_report
from .errors import PrecondError
from .preconditioners import (
    Preconditioner,
    additive_base_preconditioner,
    dense_covariance_preconditioner,
    design_preconditioner,
    diag_covariance_preconditioner,
    fisher_preconditioner,
    hessian_at_mode_preconditioner,
    identity_preconditioner,
)
from .samplers import ChainConfig, Trace, find_mode, run_chains
from .targets import (
    DifferentiableTarget,
    SmoothnessEnvelope,
    binomial_gprior_target,
    cosine_hard_target,
    gaussian_target,
    hyperbolic_regression_target,
    synth_binomial_data,
    synth_regression_data,
)

__version__ = "0.1.0"
