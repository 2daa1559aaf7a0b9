import warnings
from dataclasses import replace

import numpy as np
import pytest

from precond import conditioning, targets
from precond.errors import DefinitenessError, PrecondError

import oracles
from test_fixtures import SIGMA_PI_FIXTURE, random_spd


def test_gaussian_identity_kappa():
    t = targets.gaussian_target(np.zeros(3), np.eye(3))
    assert t.envelope.kappa == pytest.approx(1.0)


def test_gaussian_fixture_kappa():
    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    assert round(t.envelope.kappa, -2) == 4400.0


def test_gaussian_diagonal_hessian():
    t = targets.gaussian_target(np.zeros(2), np.diag([2.0, 1.0]))
    assert np.allclose(t.hessian(np.zeros(2)), np.diag([0.5, 1.0]))


def test_gaussian_rejects_indefinite():
    with pytest.raises(DefinitenessError):
        targets.gaussian_target(np.zeros(2), np.diag([1.0, -1.0]))


def test_gaussian_finite_diff():
    t = targets.gaussian_target(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    g_err, h_err = oracles.finite_diff_check(t, np.array([0.4, 1.3]))
    assert g_err <= 1e-7 and h_err <= 1e-7


def test_cosine_hessian_extremes():
    t = targets.cosine_hard_target(1.0, 4.0)
    assert np.allclose(t.hessian(np.zeros(2)), np.diag([4.0, 4.0]))
    assert np.allclose(t.hessian(np.array([np.pi, np.pi])), np.diag([1.0, 1.0]))
    assert t.envelope.kappa == pytest.approx(4.0)


def test_cosine_finite_diff():
    t = targets.cosine_hard_target(1.0, 4.0)
    g_err, h_err = oracles.finite_diff_check(t, np.array([1.0, -2.0]))
    assert g_err <= 1e-5 and h_err <= 1e-5


def test_cosine_rejects_bad_envelope():
    with pytest.raises(PrecondError):
        targets.cosine_hard_target(4.0, 1.0)
    with pytest.raises(PrecondError):
        targets.cosine_hard_target(0.0, 1.0)


def _hyperbolic_instance(seed=0, d=3, n=12):
    x_mat, y, lam = targets.synth_regression_data(d, n, seed)
    return targets.hyperbolic_regression_target(x_mat, y, 1.0, lam), x_mat, lam


def test_hyperbolic_structure_at_zero():
    t, x_mat, lam = _hyperbolic_instance()
    b0 = t.hessian(np.zeros(3)) - t.hessian_lower
    assert np.allclose(b0, lam * np.eye(3))


def test_hyperbolic_envelope_gap_is_lambda():
    t, x_mat, lam = _hyperbolic_instance()
    xtx_norm = np.linalg.eigvalsh(x_mat.T @ x_mat)[-1]
    assert t.envelope.big_m - xtx_norm == pytest.approx(lam)


def test_hyperbolic_finite_diff():
    t, _, _ = _hyperbolic_instance(d=2, n=9)
    rng = np.random.default_rng(2)
    for _ in range(3):
        beta = rng.standard_normal(2)
        g_err, h_err = oracles.finite_diff_check(t, beta)
        assert g_err <= 1e-5 and h_err <= 1e-5


def test_hyperbolic_additive_identity_and_bounds():
    t, _, lam = _hyperbolic_instance()
    rng = np.random.default_rng(3)
    for _ in range(10):
        beta = 2 * rng.standard_normal(3)
        varying = t.hessian(beta) - t.hessian_lower
        assert np.abs(varying - np.diag(np.diag(varying))).max() <= 1e-10
        ratios = np.diag(varying) / lam
        assert np.all((ratios > 0) & (ratios <= 1))


def _binomial_instance(seed=0, d=3, n=15, mu=0.0):
    x_mat, y, w = targets.synth_binomial_data(d, n, mu, seed)
    return targets.binomial_gprior_target(x_mat, y, w, 0.01 / n), x_mat, w


def test_binomial_quarter_at_zero():
    t, x_mat, w = _binomial_instance()
    n = x_mat.shape[0]
    lam = t.structure.diag(np.zeros(3))
    assert np.allclose(lam, w * (0.25 + 0.01 / n))


def test_binomial_kappa_formula():
    # H_lo = r X^T W X and H_up = (1/4 + r) X^T W X, with r = lam / n
    t, x_mat, w = _binomial_instance()
    n = x_mat.shape[0]
    lam = 0.01
    xwx = np.linalg.eigvalsh(x_mat.T @ (w[:, None] * x_mat))
    expect = (n / 4 + lam) / lam * (xwx[-1] / xwx[0])
    assert t.envelope.kappa == pytest.approx(expect, rel=1e-12)


def test_binomial_finite_diff():
    t, _, _ = _binomial_instance(d=2, n=8)
    rng = np.random.default_rng(4)
    for _ in range(3):
        beta = 0.5 * rng.standard_normal(2)
        g_err, h_err = oracles.finite_diff_check(t, beta)
        assert g_err <= 1e-5 and h_err <= 1e-5


def test_binomial_multiplicative_identity_and_entry_bounds():
    t, x_mat, w = _binomial_instance()
    n = x_mat.shape[0]
    r = 0.01 / n
    rng = np.random.default_rng(5)
    for _ in range(10):
        beta = rng.standard_normal(3)
        lam = t.structure.diag(beta)
        h = t.hessian(beta)
        rebuilt = x_mat.T @ (lam[:, None] * x_mat)
        assert np.abs(h - rebuilt).max() <= 1e-10 * np.abs(h).max()
        assert np.all(lam >= w * r - 1e-15)
        assert np.all(lam <= w * (0.25 + r) + 1e-12)


def test_binomial_rejects_bad_weights():
    x_mat, y, w = targets.synth_binomial_data(2, 6, 0.0, 0)
    for r in (0.0, -0.01):  # H_lo = r X^T W X must be positive definite
        with pytest.raises(PrecondError, match="lambda_over_n must be positive"):
            targets.binomial_gprior_target(x_mat, y, w, r)
    w[0] = 0.0
    with pytest.raises(PrecondError):
        targets.binomial_gprior_target(x_mat, y, w, 0.01)


def test_synth_regression_determinism_and_lambda():
    a = targets.synth_regression_data(2, 10, 99)
    b = targets.synth_regression_data(2, 10, 99)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[2] == pytest.approx(np.sqrt(10) / 2)


def test_synth_regression_column_moments():
    x_mat, _, _ = targets.synth_regression_data(3, 20000, 7)
    assert np.abs(x_mat.mean(axis=0)).max() < 0.05
    assert np.abs(x_mat.var(axis=0) - 1.0).max() < 0.05


def test_synth_binomial_weights_and_mu():
    x_mat, y, w = targets.synth_binomial_data(2, 3, 0.0, 1)
    assert np.array_equal(w, [1.0, 4.0, 9.0])
    x0, _, _ = targets.synth_binomial_data(2, 500, 0.0, 1)
    x5, _, _ = targets.synth_binomial_data(2, 500, 5.0, 1)
    assert np.allclose(x5 - x0, 5.0)


def test_synth_binomial_design_conditioning_inequality():
    x_mat, _, _ = targets.synth_binomial_data(3, 30, 10.0, 2)
    g = x_mat - 10.0
    num = ((g[:, 0] + 10.0) ** 2).sum()
    den = 0.5 * ((g[:, 0] - g[:, 1]) ** 2).sum()
    vals = np.linalg.eigvalsh(x_mat.T @ x_mat)
    assert vals[-1] / vals[0] >= num / den - 1e-8


def test_envelope_respected_at_probes():
    rng = np.random.default_rng(8)
    cases = [
        targets.gaussian_target(np.zeros(4), random_spd(rng, 4)),
        targets.cosine_hard_target(0.5, 3.0),
        _hyperbolic_instance(seed=1)[0],
        _binomial_instance(seed=1)[0],
    ]
    for t in cases:
        tol = 1e-8 * t.envelope.big_m
        for _ in range(100):
            x = 2 * rng.standard_normal(t.dim)
            vals = np.linalg.eigvalsh(t.hessian(x))
            assert vals[0] >= t.envelope.m - tol
            assert vals[-1] <= t.envelope.big_m + tol
    # far out along v the binomial Hessian tends to H_lo, where m is attained
    t, x_mat, _ = _binomial_instance(seed=1)
    tol = 1e-8 * t.envelope.big_m
    for _ in range(20):
        v = rng.standard_normal(t.dim)
        v *= 60.0 / np.abs(x_mat @ v).min()  # every |X_i^T v| >= 60
        for radius in (0.1, 1.0, 100.0):
            vals = np.linalg.eigvalsh(t.hessian(radius * v))
            assert vals[0] >= t.envelope.m * (1 - 1e-10)
            assert vals[-1] <= t.envelope.big_m + tol
        assert vals[0] <= t.envelope.m * (1 + 1e-10)


def test_hessian_envelope_matrices_are_loewner_bounds():
    rng = np.random.default_rng(9)
    for t in [_hyperbolic_instance(seed=2)[0], _binomial_instance(seed=2)[0]]:
        for _ in range(20):
            x = rng.standard_normal(t.dim)
            h = t.hessian(x)
            assert np.linalg.eigvalsh(h - t.hessian_lower)[0] >= -1e-9
            assert np.linalg.eigvalsh(t.hessian_upper - h)[0] >= -1e-9


def test_hyperbolic_prior_sampler_matches_density():
    rng = np.random.default_rng(10)
    lam = 2.0
    draws = targets.sample_hyperbolic_prior(20000, lam, rng)
    # density is symmetric; compare sample mean of sqrt(1+b^2) to quadrature
    from scipy.integrate import quad

    z, _ = quad(lambda b: np.exp(-lam * np.sqrt(1 + b * b)), -30, 30)
    m1, _ = quad(lambda b: np.sqrt(1 + b * b) * np.exp(-lam * np.sqrt(1 + b * b)), -30, 30)
    assert abs(draws.mean()) < 0.02
    assert np.sqrt(1 + draws**2).mean() == pytest.approx(m1 / z, abs=0.02)


def test_binomial_far_states_raise_no_overflow_warning():
    t, x_mat, _ = _binomial_instance(seed=3)
    beta = -1000.0 * x_mat[0] / (x_mat[0] @ x_mat[0])  # X_0^T beta = -1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(1000) overflows to inf
        arrays = [t.gradient(beta), t.hessian(beta), t.gradient(np.stack([beta, -beta]))]
    assert all(np.all(np.isfinite(a)) for a in arrays)


def _family_targets():
    x_mat, y, lam = targets.synth_regression_data(4, 16, 3)
    bx, by, bw = targets.synth_binomial_data(4, 20, 5.0, 4)
    return [
        targets.gaussian_target(np.arange(5.0), SIGMA_PI_FIXTURE),
        targets.cosine_hard_target(1.0, 4.0),
        targets.hyperbolic_regression_target(x_mat, y, 1.0, lam),
        targets.binomial_gprior_target(bx, by, bw, 0.01 / 20),
    ]


@pytest.mark.parametrize("index", range(4))
def test_batched_potential_and_gradient_match_rows(index):
    t = _family_targets()[index]
    rng = np.random.default_rng(index)
    batch = rng.standard_normal((7, t.dim)) * np.array([[0.01], [0.3], [1.0], [2.0],
                                                        [5.0], [1.0], [0.0]])
    pots = t.potential(batch)
    grads = t.gradient(batch)
    assert pots.shape == (7,) and grads.shape == (7, t.dim)
    for k, x in enumerate(batch):
        assert pots[k] == pytest.approx(t.potential(x), rel=1e-12, abs=0)
        np.testing.assert_allclose(grads[k], t.gradient(x), rtol=1e-12,
                                   atol=1e-12 * np.abs(t.gradient(x)).max())


@pytest.mark.parametrize("index", range(4))
def test_envelope_is_read_from_the_loewner_pair(index):
    t = _family_targets()[index]
    sym = lambda h: 0.5 * (h + h.T)  # noqa: E731
    assert t.envelope.m == np.linalg.eigvalsh(sym(t.hessian_lower))[0]
    assert t.envelope.big_m == np.linalg.eigvalsh(sym(t.hessian_upper))[-1]
    assert t.envelope.kappa == conditioning.condition_number(t)
    # a target rebuilt with dataclasses.replace derives the same record
    assert replace(t, potential=t.potential).envelope == t.envelope
