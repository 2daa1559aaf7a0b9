import numpy as np
import pytest

from precond import linalg, preconditioners, targets
from precond.conditioning import kappa_after
from precond.errors import (
    DefinitenessError,
    DimensionMismatchError,
    ModelFileError,
    PrecondError,
)

from test_fixtures import SIGMA_PI_FIXTURE, random_spd


def test_identity_preconditioner():
    p = preconditioners.identity_preconditioner(3)
    assert np.array_equal(p.l, np.eye(3))
    assert np.allclose(p.sigma_sq, 1.0)
    assert p.dim == 3


def test_from_matrix_symmetrizes():
    rng = np.random.default_rng(0)
    l = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    p = preconditioners.from_matrix(l)
    assert np.abs(p.l - p.l.T).max() <= 1e-12
    assert np.linalg.eigvalsh(p.l)[0] > 0
    # symmetrization preserves LL^T up to orthogonal factors: singular values match
    assert np.allclose(np.sort(np.linalg.svd(l, compute_uv=False)),
                       np.sort(np.linalg.svd(p.l, compute_uv=False)))


def test_dense_covariance_whitens_gaussian():
    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    p = preconditioners.dense_covariance_preconditioner(SIGMA_PI_FIXTURE)
    assert kappa_after(t, p).value == pytest.approx(1.0, abs=1e-9)


def test_diag_covariance_matches_correlation_condition_number():
    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    p = preconditioners.diag_covariance_preconditioner(SIGMA_PI_FIXTURE)
    d = np.sqrt(np.diag(SIGMA_PI_FIXTURE))
    corr = SIGMA_PI_FIXTURE / np.outer(d, d)
    expect = linalg.spectral_condition_number(corr).cond
    assert kappa_after(t, p).value == pytest.approx(expect, rel=1e-10)
    assert round(kappa_after(t, p).value, -2) == 8100.0


def test_diag_covariance_rejects_nonpositive_diagonal():
    bad = np.diag([1.0, -0.5])
    with pytest.raises(DefinitenessError):
        preconditioners.diag_covariance_preconditioner(bad)


def test_fisher_needs_enough_samples():
    with pytest.raises(PrecondError):
        preconditioners.fisher_preconditioner(np.ones((2, 3)))


def test_fisher_rank_deficient_gradients():
    g = np.zeros((10, 3))
    g[:, 0] = 1.0
    with pytest.raises(DefinitenessError):
        preconditioners.fisher_preconditioner(g)


def test_fisher_exact_for_gaussian():
    # For N(0, Sigma) the gradient is Sigma^{-1} x, so E[g g^T] = Sigma^{-1}
    # and L = Sigma^{-1/2} exactly in the infinite-sample limit.
    rng = np.random.default_rng(1)
    sigma = np.diag([4.0, 1.0])
    t = targets.gaussian_target(np.zeros(2), sigma)
    draws = rng.standard_normal((200000, 2)) * np.sqrt(np.diag(sigma))
    grads = np.array([t.gradient(x) for x in draws[:5000]])
    p = preconditioners.fisher_preconditioner(grads)
    expect = linalg.sym_inv_sqrt(sigma)
    assert np.abs(p.l - expect).max() < 0.05


def test_mode_hessian_whitens_gaussian():
    rng = np.random.default_rng(2)
    sigma = random_spd(rng, 4)
    t = targets.gaussian_target(np.zeros(4), sigma)
    p = preconditioners.hessian_at_mode_preconditioner(t, np.zeros(4))
    assert kappa_after(t, p).value == pytest.approx(1.0, abs=1e-8)


def test_design_preconditioner_scaling_irrelevant():
    x_mat, y, w = targets.synth_binomial_data(3, 12, 1.0, 3)
    t = targets.binomial_gprior_target(x_mat, y, w, 0.01 / 12)
    a = preconditioners.design_preconditioner(x_mat, scaled=True)
    b = preconditioners.design_preconditioner(x_mat, scaled=False)
    assert np.allclose(a.l * np.sqrt(12), b.l)
    assert kappa_after(t, a).value == pytest.approx(kappa_after(t, b).value, rel=1e-9)


def test_additive_base_preconditioner_formula():
    x_mat, y, lam = targets.synth_regression_data(3, 15, 4)
    a = x_mat.T @ x_mat
    p = preconditioners.additive_base_preconditioner(a)
    assert np.allclose(p.l @ p.l, a)


def test_sample_covariance_unbiased_shape_and_symmetry():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 3))
    c = preconditioners.sample_covariance(x)
    assert np.array_equal(c, c.T)
    assert np.allclose(c, np.cov(x, rowvar=False, ddof=1), atol=1e-12)
    with pytest.raises(PrecondError):
        preconditioners.sample_covariance(x[:1])


def test_pushforward_dim_mismatch():
    t = targets.gaussian_target(np.zeros(3), np.eye(3))
    p = preconditioners.identity_preconditioner(2)
    with pytest.raises(DimensionMismatchError):
        preconditioners.pushforward(t, p)


def test_pushforward_hessian_matches_finite_difference():
    rng = np.random.default_rng(6)
    x_mat, y, lam = targets.synth_regression_data(2, 10, 7)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    p = preconditioners.from_matrix(random_spd(rng, 2))
    pt = preconditioners.pushforward(t, p)
    for _ in range(3):
        yv = rng.standard_normal(2)
        g_err, h_err = targets.finite_diff_check(pt, yv)
        assert g_err <= 1e-5 and h_err <= 1e-4


def test_pushforward_transforms_moments():
    rng = np.random.default_rng(7)
    sigma = random_spd(rng, 3)
    mu = rng.standard_normal(3)
    t = targets.gaussian_target(mu, sigma)
    p = preconditioners.from_matrix(random_spd(rng, 3))
    pt = preconditioners.pushforward(t, p)
    assert np.allclose(pt.exact_mode, p.l @ mu)
    assert np.allclose(pt.exact_covariance, p.l @ sigma @ p.l)
    assert np.allclose(pt.hessian(p.l @ mu), p.inv @ np.linalg.inv(sigma) @ p.inv)


def test_pushforward_roundtrip_is_identity():
    rng = np.random.default_rng(8)
    sigma = random_spd(rng, 3)
    t = targets.gaussian_target(np.zeros(3), sigma)
    p = preconditioners.from_matrix(random_spd(rng, 3))
    pt = preconditioners.pushforward(t, p)
    back = preconditioners.pushforward(pt, preconditioners.from_matrix(p.inv))
    for _ in range(5):
        x = rng.standard_normal(3)
        assert back.potential(x) == pytest.approx(t.potential(x), rel=1e-10)
        assert np.allclose(back.gradient(x), t.gradient(x), atol=1e-9)


def test_kappa_after_scale_invariant_in_l():
    rng = np.random.default_rng(9)
    t = targets.gaussian_target(np.zeros(4), random_spd(rng, 4))
    l = random_spd(rng, 4)
    base = kappa_after(t, preconditioners.from_matrix(l)).value
    for c in (0.01, 7.3):
        scaled = kappa_after(t, preconditioners.from_matrix(c * l)).value
        assert scaled == pytest.approx(base, rel=1e-9)


def test_csv_roundtrip_bytes():
    rng = np.random.default_rng(10)
    p = preconditioners.from_matrix(random_spd(rng, 4), label="roundtrip")
    text = preconditioners.to_csv(p)
    q = preconditioners.from_csv(text)
    assert q.label == "roundtrip"
    assert np.array_equal(p.l, q.l)
    assert preconditioners.to_csv(q) == text


def test_csv_errors_carry_line_numbers():
    with pytest.raises(ModelFileError) as err:
        preconditioners.from_csv("lbl,2\n1.0,0.0\n0.0\n")
    assert err.value.line == 3
    with pytest.raises(ModelFileError) as err:
        preconditioners.from_csv("lbl,notanint\n")
    assert err.value.line == 1


def test_symmetrize_noop_on_spd():
    rng = np.random.default_rng(11)
    a = random_spd(rng, 3)
    p = preconditioners.from_matrix(a)
    assert np.abs(p.l - a).max() <= 1e-10 * np.abs(a).max()


def test_sigma_sq_descending_and_eigengap():
    p = preconditioners.from_matrix(np.diag([3.0, 1.0, 0.5]))
    assert np.allclose(p.sigma_sq, [9.0, 1.0, 0.25])
    assert p.eigengap == pytest.approx(0.75)


def test_inverse_is_computed_once_and_read_only():
    p = preconditioners.from_matrix(random_spd(np.random.default_rng(3), 4))
    first = p.inv
    assert p.inv is first
    assert not first.flags.writeable
    assert np.array_equal(first, linalg.sym_inv(p.l))
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
