import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precond import preconditioners, samplers, targets
from precond.errors import ModeSearchError, NonFiniteInputError, PrecondError
from precond.samplers import ChainConfig

import oracles
from test_fixtures import SIGMA_PI_FIXTURE, one_chain, random_spd


def _rwm_config(d, sigma, n, seed=0, adapt=False, precond=None):
    if precond is None:
        precond = preconditioners.identity_preconditioner(d)
    return ChainConfig(
        kind="RWM", step_size=sigma, preconditioner=precond, n_steps=n, seed=seed,
        adapt=adapt,
    )


def test_mh_accept_trivial():
    assert oracles.mh_accept(0.0, 0.0, 0.999)
    assert not oracles.mh_accept(-math.inf, 0.0, 0.001)
    assert oracles.mh_accept(5.0, 0.0, 0.0)
    assert not oracles.mh_accept(math.nan, 0.0, 0.5)
    with pytest.raises(PrecondError):
        oracles.mh_accept(0.0, 0.0, 1.0)


def test_mh_acceptance_matches_quadrature_1d():
    # alpha = E[min(1, pi(X')/pi(X))] under X ~ N(0,1), X' = X + sigma Z
    from scipy.integrate import dblquad

    sigma = 1.5
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    expect, _ = dblquad(
        lambda z, x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        * min(1.0, math.exp(0.5 * x * x - 0.5 * (x + sigma * z) ** 2)),
        -8, 8, -8, 8,
    )
    trace = one_chain(t, _rwm_config(1, sigma, 60000, seed=3))
    emp = trace.accepted.mean()
    assert emp == pytest.approx(expect, abs=0.02)


def test_chain_determinism_bit_identical():
    t = targets.gaussian_target(np.zeros(3), random_spd(np.random.default_rng(0), 3))
    cfg = _rwm_config(3, 1.0, 500, seed=42)
    a = one_chain(t, cfg)
    b = one_chain(t, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.accepted, b.accepted)


def test_pushforward_view_is_step_identical():
    rng = np.random.default_rng(1)
    sigma = random_spd(rng, 3)
    t = targets.gaussian_target(np.zeros(3), sigma)
    p = preconditioners.from_matrix(random_spd(rng, 3))
    cfg = _rwm_config(3, 0.8, 400, seed=7, precond=p)
    a = one_chain(t, cfg)
    b = oracles.rwm_chain_pushforward_view(t, cfg)
    assert np.array_equal(a.accepted, b.accepted)
    assert np.abs(a.states - b.states).max() <= 1e-10


def test_adaptive_pushforward_view_is_step_identical():
    # the adaptive RWM of the experiments' burn-ins and estimate chains
    x_mat, y, lam = targets.synth_regression_data(4, 20, 5)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    design = preconditioners.design_preconditioner(x_mat)
    x0 = samplers.find_mode(t, design)
    cfg = _rwm_config(4, 2.38 / math.sqrt(4), 2000, seed=11,
                      adapt=True, precond=design)
    a = one_chain(t, cfg, x0=x0)
    b = oracles.rwm_chain_pushforward_view(t, cfg, x0=x0)
    assert 0.1 < a.accepted.mean() < 0.5
    assert np.array_equal(a.accepted, b.accepted)
    assert np.abs(a.states - b.states).max() <= 1e-10
    assert a.final_step_size == pytest.approx(b.final_step_size, rel=1e-10)


def test_sigma_scaling_equivalence():
    # (L, sigma) and (cL, c sigma) consume the same stream and take the same steps
    rng = np.random.default_rng(2)
    sigma_mat = random_spd(rng, 2)
    t = targets.gaussian_target(np.zeros(2), sigma_mat)
    l = random_spd(rng, 2)
    c = 3.7
    a = one_chain(
        t, _rwm_config(2, 0.5, 300, seed=9, precond=preconditioners.from_matrix(l))
    )
    b = one_chain(
        t, _rwm_config(2, 0.5 * c, 300, seed=9, precond=preconditioners.from_matrix(c * l))
    )
    assert np.array_equal(a.accepted, b.accepted)
    assert np.abs(a.states - b.states).max() <= 1e-9


def test_rwm_small_sigma_accepts_everything():
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    trace = one_chain(t, _rwm_config(1, 1e-8, 200, seed=4))
    assert trace.accepted.mean() > 0.999


def test_rwm_invariance_mean_within_4_se():
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    n = 10**6
    trace = one_chain(t, _rwm_config(1, 2.38, n, seed=5))
    x = trace.states[:, 0]
    # effective-sample-size-aware standard error
    from precond.diagnostics import ess

    se = 1.0 / math.sqrt(ess(x))
    assert abs(x.mean()) <= 4 * se


def test_two_bin_detailed_balance():
    # occupation of {x <= 0.3} matches Phi(0.3) within 4 binomial SEs
    from scipy.stats import norm

    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    trace = one_chain(t, _rwm_config(1, 2.38, 200000, seed=6))
    x = trace.states[:, 0]
    frac = (x <= 0.3).mean()
    from precond.diagnostics import ess

    p = norm.cdf(0.3)
    se = math.sqrt(p * (1 - p) / ess((x <= 0.3).astype(float)))
    assert abs(frac - p) <= 4 * se


def test_rwm_rejects_nonfinite_start():
    t = targets.gaussian_target(np.zeros(2), np.eye(2))
    bad = targets.DifferentiableTarget(
        dim=2,
        potential=lambda x: math.inf,
        gradient=t.gradient,
        hessian=t.hessian,
    )
    with pytest.raises(NonFiniteInputError):
        one_chain(bad, _rwm_config(2, 1.0, 10))
    with pytest.raises(NonFiniteInputError):
        one_chain(
            bad,
            ChainConfig(
                kind="MALA",
                step_size=1.0,
                preconditioner=preconditioners.identity_preconditioner(2),
                n_steps=10,
                seed=0,
            ),
        )


def test_adapt_step_size_fixed_point():
    assert samplers.adapt_step_size(0.7, 10, 0.3, 0.3) == pytest.approx(0.7)
    assert samplers.adapt_step_size(0.7, 10, 0.8, 0.3) > 0.7
    assert samplers.adapt_step_size(0.7, 10, 0.1, 0.3) < 0.7


def test_rwm_adaptation_reaches_target():
    t = targets.gaussian_target(np.zeros(5), np.eye(5))
    cfg = _rwm_config(5, 0.1, 10000, seed=8, adapt=True)
    trace = one_chain(t, cfg)
    assert trace.accepted[5000:].mean() == pytest.approx(0.234, abs=0.05)


def test_mala_adaptation_reaches_target():
    x_mat, y, lam = targets.synth_regression_data(3, 15, 21)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    p = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
    cfg = ChainConfig(
        kind="MALA", step_size=0.5, preconditioner=p, n_steps=10000, seed=8, adapt=True,
    )
    trace = one_chain(t, cfg, x0=samplers.find_mode(t, p))
    assert trace.accepted[5000:].mean() == pytest.approx(0.574, abs=0.05)


def test_mala_proposal_mean_standard_gaussian():
    # on N(0,1) the first proposal from x0 has mean x0 (1 - sigma^2/2)
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    sigma = 0.3
    x0 = np.array([2.0])
    seed = 11
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal((1, 1))[0, 0]
    expect = x0[0] * (1 - sigma**2 / 2) + sigma * z
    cfg = ChainConfig(
        kind="MALA", step_size=sigma,
        preconditioner=preconditioners.identity_preconditioner(1),
        n_steps=1, seed=seed,
    )
    trace = one_chain(t, cfg, x0=x0)
    if trace.accepted[0]:
        assert trace.states[0, 0] == pytest.approx(expect, abs=1e-12)
    else:
        assert trace.states[0, 0] == pytest.approx(x0[0])


def test_mala_small_sigma_accepts():
    t = targets.gaussian_target(np.zeros(2), np.eye(2))
    cfg = ChainConfig(
        kind="MALA", step_size=1e-4,
        preconditioner=preconditioners.identity_preconditioner(2),
        n_steps=200, seed=12,
    )
    assert one_chain(t, cfg).accepted.mean() > 0.999


def test_mala_matches_rwm_geometry_fixture():
    # dense preconditioning beats diagonal on the correlated fixture
    from precond.diagnostics import ess_report

    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    sigma = 2.38 / math.sqrt(5)
    dense = preconditioners.dense_covariance_preconditioner(SIGMA_PI_FIXTURE)
    diag = preconditioners.diag_covariance_preconditioner(SIGMA_PI_FIXTURE)
    results = {}
    for label, p in (("dense", dense), ("diag", diag)):
        cfg = ChainConfig(
            kind="RWM", step_size=sigma, preconditioner=p, n_steps=20000, seed=13
        )
        trace = one_chain(t, cfg)
        results[label] = ess_report(trace.states[2000:]).median
    assert results["dense"] > results["diag"]


def test_find_mode_gaussian():
    rng = np.random.default_rng(14)
    sigma = random_spd(rng, 3)
    mu = rng.standard_normal(3)
    t = targets.DifferentiableTarget(
        dim=3,
        potential=lambda x: 0.5 * float((x - mu) @ np.linalg.solve(sigma, x - mu)),
        gradient=lambda x: np.linalg.solve(sigma, x - mu),
        hessian=lambda x: np.linalg.inv(sigma),
    )
    x_star = samplers.find_mode(t, tol=1e-10)
    assert np.abs(x_star - mu).max() <= 1e-8


def test_find_mode_hyperbolic_small_lambda_is_least_squares():
    x_mat, y, _ = targets.synth_regression_data(3, 20, 15)
    lam = 1e-8
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    p = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
    x_star = samplers.find_mode(t, p, tol=1e-10)
    beta_ls = np.linalg.solve(x_mat.T @ x_mat, x_mat.T @ y)
    assert np.abs(x_star - beta_ls).max() <= 1e-6


def test_find_mode_binomial_gradient_certificate():
    x_mat, y, w = targets.synth_binomial_data(4, 20, 5.0, 16)
    t = targets.binomial_gprior_target(x_mat, y, w, 0.01 / 20)
    p = preconditioners.design_preconditioner(x_mat)
    x_star = samplers.find_mode(t, p, tol=1e-8)
    gnorm = float(np.linalg.norm(t.gradient(x_star)))
    g0 = float(np.linalg.norm(t.gradient(np.zeros(4))))
    assert gnorm <= max(1e-8, math.sqrt(np.finfo(float).eps) * (1.0 + g0))


def test_find_mode_iteration_cap():
    # an exactly-zero gradient is unreachable for this non-quadratic target,
    # so an impossible tolerance with a tiny budget must raise
    x_mat, y, lam = targets.synth_regression_data(3, 20, 20)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    with pytest.raises(ModeSearchError):
        samplers.find_mode(t, tol=0.0, max_iter=2, x0=np.ones(3))


def test_run_chain_dispatch(monkeypatch):
    # one chain of either kind runs the scalar kernel, not lock-step
    def refuse(*args):
        raise AssertionError("one chain runs the scalar kernel")

    monkeypatch.setattr(samplers, "_mh_lockstep", refuse)
    t = targets.gaussian_target(np.zeros(1), np.eye(1))
    r = one_chain(t, _rwm_config(1, 1.0, 10, seed=18))
    assert r.states.shape == (10, 1)
    cfg = ChainConfig(
        kind="MALA", step_size=0.5,
        preconditioner=preconditioners.identity_preconditioner(1),
        n_steps=10, seed=18,
    )
    m = one_chain(t, cfg)
    assert m.states.shape == (10, 1)


def test_chain_config_validation():
    p = preconditioners.identity_preconditioner(2)
    with pytest.raises(PrecondError):
        ChainConfig(kind="HMC", step_size=1.0, preconditioner=p, n_steps=10, seed=0)
    with pytest.raises(PrecondError):
        ChainConfig(kind="RWM", step_size=0.0, preconditioner=p, n_steps=10, seed=0)
    with pytest.raises(PrecondError):
        ChainConfig(kind="RWM", step_size=1.0, preconditioner=p, n_steps=0, seed=0)


def test_rejected_steps_keep_state():
    t = targets.cosine_hard_target(1.0, 4.0)
    trace = one_chain(
        t, _rwm_config(2, 5.0, 500, seed=19)
    )
    same = np.all(trace.states[1:] == trace.states[:-1], axis=1)
    assert np.array_equal(same, ~trace.accepted[1:])


# -- one kernel, run in lock-step ----------------------------------------------

def _mala_pushforward_reference(target, config, x0):
    """Plain MALA on the pushforward y = Lx, states mapped back through L^{-1}.

    The textbook form of the preconditioned chain, with the forward and
    backward proposal terms written out; it consumes the stream as the
    kernel does.
    """
    precond = config.preconditioner
    pushed = oracles.pushforward(target, precond)
    y = precond.l @ x0
    u0, g0 = pushed.potential(y), pushed.gradient(y)
    n, d = config.n_steps, target.dim
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    raw = rng.standard_normal((n, d))
    unif = rng.random(n)
    states = np.empty((n, d))
    accepted = np.empty(n, dtype=bool)
    s2 = config.step_size ** 2
    for t in range(n):
        prop = y - 0.5 * s2 * g0 + config.step_size * raw[t]
        u_prop, g_prop = pushed.potential(prop), pushed.gradient(prop)
        fwd = prop - y + 0.5 * s2 * g0
        bwd = y - prop + 0.5 * s2 * g_prop
        log_q = (fwd @ fwd - bwd @ bwd) / (2.0 * s2)
        accepted[t] = oracles.mh_accept(u0 - u_prop, log_q, unif[t])
        if accepted[t]:
            y, u0, g0 = prop, u_prop, g_prop
        states[t] = precond.inv @ y
    return states, accepted


def _hyperbolic_fixture(d=4, n=20, seed=21):
    x_mat, y, lam = targets.synth_regression_data(d, n, seed)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    design = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
    return t, design


def test_mala_matches_pushforward_reference():
    t, design = _hyperbolic_fixture()
    x0 = samplers.find_mode(t, design)
    cfg = ChainConfig(kind="MALA", step_size=0.8, preconditioner=design,
                      n_steps=600, seed=31)
    trace = one_chain(t, cfg, x0=x0)
    states, accepted = _mala_pushforward_reference(t, cfg, x0)
    assert 0.2 < accepted.mean() < 0.98
    assert np.array_equal(trace.accepted, accepted)
    assert np.abs(trace.states - states).max() <= 1e-10


def _mixed_batch(t, design, kind, adapt, n=500):
    """Five chains with their own preconditioner, step size and seed, and one ``adapt``.

    MALA step sizes stay inside each preconditioner's stable range: beyond it
    the drift map amplifies one-ulp differences between the batched and the
    row-by-row potential, and the two runs part ways.
    """
    d = t.dim
    rng = np.random.default_rng(5)
    precs = [
        preconditioners.identity_preconditioner(d),
        design,
        preconditioners.from_matrix(random_spd(rng, d) + 5.0 * design.l),
    ]
    steps = [0.15, 0.9, 2.5] if kind == "MALA" else [0.3, 1.2, 3.0]
    configs = [
        ChainConfig(
            kind=kind, step_size=steps[k % 3] * (1.0 + 0.1 * k), preconditioner=precs[k % 3],
            n_steps=n, seed=40 + k, adapt=adapt,
        )
        for k in range(5)
    ]
    x0s = samplers.find_mode(t, design) + 0.05 * rng.standard_normal((5, d))
    return configs, x0s


@pytest.mark.parametrize("kind", ["RWM", "MALA"])
@pytest.mark.parametrize("adapt", [False, True])
def test_run_chains_matches_scalar_kernel(kind, adapt):
    t, design = _hyperbolic_fixture()
    configs, x0s = _mixed_batch(t, design, kind, adapt)
    batch = samplers.run_chains(t, configs, x0s)
    assert len(batch) == len(configs)
    for cfg, x0, got in zip(configs, x0s, batch):
        (ref,) = samplers.run_chains(t, [cfg], x0[None])
        assert got.config is cfg
        assert np.array_equal(got.x0, x0)
        assert np.array_equal(got.accepted, ref.accepted)
        assert np.abs(got.states - ref.states).max() <= 1e-10
        assert got.final_step_size == pytest.approx(ref.final_step_size, rel=1e-12, abs=0)
        assert got.n_warnings == ref.n_warnings
        if not cfg.adapt:
            assert got.final_step_size == cfg.step_size
    assert 0.05 < np.mean([tr.accepted.mean() for tr in batch]) < 0.95


def test_run_chains_nonfinite_start():
    t = targets.gaussian_target(np.ones(2), np.eye(2))
    cfgs = [_rwm_config(2, 1.0, 50, seed=s) for s in (1, 2)]
    with pytest.raises(NonFiniteInputError):
        samplers.run_chains(t, cfgs, np.array([[0.0, 0.0], [np.nan, 0.0]]))


def test_run_chains_rejects_mixed_batches():
    t = targets.gaussian_target(np.zeros(2), np.eye(2))
    p = preconditioners.identity_preconditioner(2)
    rwm = _rwm_config(2, 1.0, 20, seed=1)
    mala = ChainConfig(kind="MALA", step_size=0.5, preconditioner=p, n_steps=20, seed=2)
    shorter = _rwm_config(2, 1.0, 10, seed=3)
    adaptive = _rwm_config(2, 1.0, 20, seed=4, adapt=True)
    with pytest.raises(PrecondError):
        samplers.run_chains(t, [rwm, mala], np.zeros((2, 2)))
    with pytest.raises(PrecondError):
        samplers.run_chains(t, [rwm, shorter], np.zeros((2, 2)))
    with pytest.raises(PrecondError):
        samplers.run_chains(t, [rwm, adaptive], np.zeros((2, 2)))
    with pytest.raises(PrecondError):
        samplers.run_chains(t, [rwm, rwm], np.zeros((3, 2)))
    with pytest.raises(PrecondError):
        samplers.run_chains(t, [rwm, rwm], np.zeros(2))
    with pytest.raises(PrecondError):
        samplers.run_chains(t, [rwm], np.zeros((1, 3)))
    with pytest.raises(PrecondError):
        samplers.run_chains(t, [], np.zeros((0, 2)))


_LOG_RATIOS = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -1e308, 1e308]),
)
_UNIFORMS = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LOG_RATIOS, _LOG_RATIOS, _UNIFORMS), min_size=1, max_size=12))
def test_vectorised_accept_rule_matches_mh_accept(cases):
    log_pi = np.array([c[0] for c in cases])
    log_q = np.array([c[1] for c in cases])
    u = [c[2] for c in cases]
    log_u = np.array([math.log(v) if v > 0.0 else -math.inf for v in u])
    with np.errstate(invalid="ignore", over="ignore"):
        total = log_pi + log_q
        accept, finite = samplers._mh_filter(total, log_u)
        alpha = samplers._accept_prob(total, finite)
    expect = [oracles.mh_accept(a, b, v) for a, b, v in cases]
    assert accept.tolist() == expect
    for tot, ok, fin, a in zip(total, accept, finite, alpha):
        if math.isfinite(tot):
            assert fin
            assert a == pytest.approx(math.exp(min(tot, 0.0)), rel=1e-15, abs=0)
        else:
            assert not fin and not ok and a == 0.0
