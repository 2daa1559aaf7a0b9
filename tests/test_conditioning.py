import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from precond import conditioning, experiments, linalg, preconditioners, targets
from precond.conditioning import RWM_GAP_CONSTANT
from precond.errors import (
    AssumptionViolationError,
    BoundInapplicableError,
    NonFiniteInputError,
    PrecondError,
)
from precond.experiments import BINOMIAL_LAMBDA
from precond.targets import DifferentiableTarget, MultiplicativeStructure

import oracles
import paper_results
from oracles import DegeneratePairingError, hessian_stack
from test_fixtures import SIGMA_PI_FIXTURE, random_spd


# -- condition_number / kappa_after -------------------------------------------

def test_condition_number_fixture():
    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    assert round(conditioning.condition_number(t), -2) == 4400.0


def test_condition_number_cosine():
    t = targets.cosine_hard_target(1.0, 4.0)
    assert conditioning.condition_number(t) == pytest.approx(4.0)
    # its pushforward under L is a target of another kind, with kappa = kappa_L
    push = oracles.pushforward(t, preconditioners.from_matrix(np.array([[3.0, 1.0],
                                                                       [1.0, 1.0]])))
    identity = preconditioners.identity_preconditioner(2)
    assert conditioning.kappa_after(push, identity) == pytest.approx(135.88, abs=0.01)


def test_kappa_without_hessian_extremes_is_inapplicable():
    # a search over states would only bound kappa from below: no certificate
    t = DifferentiableTarget(dim=2, potential=lambda x: 0.5 * x @ x,
                             gradient=lambda x: x, hessian=lambda x: np.eye(2))
    with pytest.raises(BoundInapplicableError, match="no Hessian envelopes"):
        conditioning.condition_number(t)
    with pytest.raises(BoundInapplicableError, match="no Hessian envelopes"):
        conditioning.kappa_after(t, preconditioners.identity_preconditioner(2))
    with pytest.raises(BoundInapplicableError, match="no Hessian envelopes"):
        conditioning.envelope_eps(t, preconditioners.identity_preconditioner(2))


def test_kappa_after_whitening_and_diag():
    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    white = preconditioners.dense_covariance_preconditioner(SIGMA_PI_FIXTURE)
    assert conditioning.kappa_after(t, white) == pytest.approx(1.0, abs=1e-9)
    diag = preconditioners.diag_covariance_preconditioner(SIGMA_PI_FIXTURE)
    assert round(conditioning.kappa_after(t, diag), -2) == 8100.0


def test_kappa_after_cosine_matches_grid():
    t = targets.cosine_hard_target(1.0, 4.0)
    rng = np.random.default_rng(0)
    l = preconditioners.from_matrix(random_spd(rng, 2))
    est = conditioning.kappa_after(t, l)
    # brute-force oracle over the state space
    linv = l.inv
    best_hi, best_lo = -np.inf, np.inf
    for x in np.linspace(0, 2 * np.pi, 200):
        for y in np.linspace(0, 2 * np.pi, 200):
            h = linv @ t.hessian(np.array([x, y])) @ linv
            vals = np.linalg.eigvalsh(h)
            best_hi = max(best_hi, vals[-1])
            best_lo = min(best_lo, vals[0])
    assert est == pytest.approx(best_hi / best_lo, rel=1e-3)
    assert est >= best_hi / best_lo - 1e-9


def _family_instance(family, rng):
    if family == "gaussian":
        return targets.gaussian_target(rng.standard_normal(3), random_spd(rng, 3))
    if family == "cosine":
        m = float(rng.uniform(0.2, 2.0))
        return targets.cosine_hard_target(m, m * float(rng.uniform(1.0, 10.0)))
    d, seed = int(rng.integers(2, 6)), int(rng.integers(10**6))
    if family == "hyperbolic":
        x_mat, y, lam = targets.synth_regression_data(d, 4 * d, seed)
        return targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    x_mat, y, w = targets.synth_binomial_data(d, 5 * d, float(rng.uniform(0, 3)), seed)
    return targets.binomial_gprior_target(x_mat, y, w, BINOMIAL_LAMBDA / (5 * d))


@pytest.mark.parametrize("family", ["gaussian", "cosine", "hyperbolic", "binomial"])
def test_kappa_after_is_the_kappa_of_the_pushforward(family):
    # kappa_L of a target is kappa of the target of y = Lx, read three ways
    rng = np.random.default_rng(np.random.SeedSequence([12, len(family)]))
    for _ in range(10):
        t = _family_instance(family, rng)
        p = preconditioners.from_matrix(
            random_spd(rng, t.dim, spread=float(rng.uniform(0, 3))))
        push = oracles.pushforward(t, p)
        want = conditioning.kappa_after(t, p)
        assert conditioning.condition_number(push) == pytest.approx(want, rel=1e-10)
        assert conditioning.kappa_after(
            push, preconditioners.identity_preconditioner(t.dim)
        ) == pytest.approx(want, rel=1e-10)


def test_binomial_kappa_is_attained():
    # H(0) = H_up exactly, and H(R v) -> H_lo as R grows wherever Xv has no
    # zero entry, so kappa = lambda_max(H_up) / lambda_min(H_lo) = M/m of the
    # envelope is a sup/inf over states
    rng = np.random.default_rng(15)
    for d in (2, 4, 7):
        x_mat, y, w = targets.synth_binomial_data(d, 5 * d, 1.5, int(rng.integers(10**6)))
        t = targets.binomial_gprior_target(x_mat, y, w, BINOMIAL_LAMBDA / (5 * d))
        top = np.linalg.eigvalsh(t.hessian(np.zeros(d)))[-1]
        assert top == np.linalg.eigvalsh(t.hessian_upper)[-1]
        v = rng.standard_normal(d)
        v *= 60.0 / np.abs(x_mat @ v).min()  # every |X_i^T v| >= 60
        lam_lo = np.linalg.eigvalsh(t.hessian_lower)[0]
        gaps = [np.linalg.eigvalsh(t.hessian(r * v))[0] - lam_lo
                for r in (0.01, 0.1, 1.0)]
        assert gaps[0] > gaps[1] > gaps[2] >= -1e-12 * lam_lo
        assert gaps[2] <= 1e-12 * lam_lo
        assert conditioning.condition_number(t) == pytest.approx(
            top / (lam_lo + gaps[2]), rel=1e-10)
        assert conditioning.condition_number(t) == t.envelope.kappa


def _verify_bounds_binomial(master_seed, k):
    """The k-th binomial instance of the verify-bounds sweep at a master seed."""
    seed = experiments.derive_seed(master_seed, 4, k)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    d = int(rng.integers(2, 8))
    x_mat, y, w = targets.synth_binomial_data(d, 5 * d, float(rng.uniform(0, 3)), seed)
    return targets.binomial_gprior_target(x_mat, y, w, BINOMIAL_LAMBDA / (5 * d))


def test_prop3_lower_is_below_exact_kappa_on_sweep_instances():
    # lambda_d(hess) is bounded through the d-th largest entry infimum; the
    # smallest one in its place overstates kappa by up to 3.9x on these instances
    for master_seed in range(5):
        for k in range(20):
            t = _verify_bounds_binomial(master_seed, k)
            exact = (np.linalg.eigvalsh(t.hessian_upper)[-1]
                     / np.linalg.eigvalsh(t.hessian_lower)[0])
            rep = conditioning.mult_kappa_bounds(t)
            assert rep.lower <= exact * (1 + 1e-10), (master_seed, k)
            assert exact <= rep.value * (1 + 1e-10)


# -- hard target lower bound ---------------------------------------------------

def test_hard_lower_orthogonal_is_kappa():
    q = linalg.givens_rotation(0.3)
    p = preconditioners.from_matrix(q)
    rep = conditioning.hard_target_lower(p, 1.0, 4.0)
    assert rep.value == pytest.approx(4.0)


def test_hard_lower_identity():
    p = preconditioners.identity_preconditioner(2)
    assert conditioning.hard_target_lower(p, 1.0, 4.0).value == pytest.approx(4.0)


def test_hard_lower_diag_16_and_attained():
    p = preconditioners.from_matrix(np.diag([2.0, 1.0]))
    rep = conditioning.hard_target_lower(p, 1.0, 4.0)
    assert rep.value == pytest.approx(16.0)
    t = targets.cosine_hard_target(1.0, 4.0)
    assert conditioning.kappa_after(t, p) >= 16.0 - 1e-9


def test_hard_lower_below_kappa_after_random_l():
    t = targets.cosine_hard_target(0.5, 3.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = preconditioners.from_matrix(random_spd(rng, 2))
        rep = conditioning.hard_target_lower(p, 0.5, 3.0)
        assert rep.value <= conditioning.kappa_after(t, p) * (1 + 1e-9)


# -- assumption constant measurement -------------------------------------------

def test_measured_constants_vanish_at_whitening():
    rng = np.random.default_rng(2)
    sigma = np.diag([5.0, 2.0, 1.0])  # distinct eigenvalues, unambiguous pairing
    t = targets.gaussian_target(np.zeros(3), sigma)
    p = preconditioners.dense_covariance_preconditioner(sigma)
    probes = rng.standard_normal((20, 3))
    hs = hessian_stack(t, probes)
    assert oracles.measure_eps_eigenvalue(hs, p) <= 1e-10
    assert oracles.measure_delta_eigenvector(hs, p) <= 1e-10
    assert oracles.measure_eps_norm(hs, p) <= 1e-10


def test_measure_delta_degenerate_spectrum_raises():
    t = targets.gaussian_target(np.zeros(3), np.eye(3))
    p = preconditioners.identity_preconditioner(3)
    with pytest.raises(DegeneratePairingError):
        oracles.measure_delta_eigenvector(hessian_stack(t, np.zeros((1, 3))), p)


def test_empty_probes_raise():
    t = targets.gaussian_target(np.zeros(2), np.eye(2))
    p = preconditioners.identity_preconditioner(2)
    with pytest.raises(PrecondError):
        oracles.measure_eps_eigenvalue(hessian_stack(t, []), p)


def test_hyperbolic_norm_slack_at_most_lambda():
    x_mat, y, lam = targets.synth_regression_data(3, 15, 5)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    p = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
    rng = np.random.default_rng(6)
    probes = rng.standard_normal((30, 3))
    eps = oracles.measure_eps_norm(hessian_stack(t, probes), p)
    assert eps <= lam / p.sigma_sq[-1] + 1e-12


def test_envelope_eps_exact_cases():
    # hyperbolic with L = A^{1/2}: H_up - LL^T = lambda I, attained at beta = 0
    for d, seed in [(2, 1), (3, 5), (6, 9)]:
        x_mat, y, lam = targets.synth_regression_data(d, 4 * d, seed)
        t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
        p = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
        assert conditioning.envelope_eps(t, p) == pytest.approx(
            lam / p.sigma_sq[-1], rel=1e-12)
    # a Gaussian's Hessian is constant, so every probe set measures the same eps
    rng = np.random.default_rng(16)
    for _ in range(5):
        t = targets.gaussian_target(np.zeros(3), random_spd(rng, 3))
        p = preconditioners.from_matrix(random_spd(rng, 3))
        probes = rng.standard_normal((4, 3))
        assert conditioning.envelope_eps(t, p) == pytest.approx(
            oracles.measure_eps_norm(hessian_stack(t, probes), p), rel=1e-12)


def test_envelope_eps_eigenvalue_and_hessian_variation_exact_cases():
    # hyperbolic with L = A^{1/2}: lambda_i(H_up) = sigma_i^2 + lambda and
    # H_lo = LL^T, so eps_eig = lambda / sigma_d^2; H_up - H_lo = lambda I
    for d, seed in [(2, 1), (3, 5), (6, 9)]:
        x_mat, y, lam = targets.synth_regression_data(d, 4 * d, seed)
        t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
        p = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
        assert conditioning.envelope_eps_eigenvalue(t, p) == pytest.approx(
            lam / p.sigma_sq[-1], rel=1e-10)
        assert conditioning.envelope_hessian_variation(t) == pytest.approx(
            lam / t.envelope.m, rel=1e-12)
    # a Gaussian's Hessian is constant: one probe measures eps_eig, and it
    # never varies
    rng = np.random.default_rng(17)
    for _ in range(5):
        t = targets.gaussian_target(np.zeros(3), random_spd(rng, 3))
        p = preconditioners.from_matrix(random_spd(rng, 3))
        assert conditioning.envelope_eps_eigenvalue(t, p) == pytest.approx(
            oracles.measure_eps_eigenvalue(hessian_stack(t, np.zeros((1, 3))), p),
            rel=1e-12)
        assert conditioning.envelope_hessian_variation(t) == 0.0


def test_davis_kahan_delta_cases():
    assert conditioning.davis_kahan_delta(0.25, 1.0, 1.0) == pytest.approx(0.75)
    assert conditioning.davis_kahan_delta(0.0, 1.0, 1.0) == 0.0
    assert conditioning.davis_kahan_delta(0.1, 0.0, 1.0) == 1.0  # no eigengap
    assert conditioning.davis_kahan_delta(0.6, 1.0, 1.0) == 1.0  # t = 1.2
    # scaling L by c scales gamma by c^2 and leaves eps alone: delta must not move
    for c in (0.01, 0.1, 10.0, 100.0):
        assert conditioning.davis_kahan_delta(0.1, 2.0 * c**2, c) == pytest.approx(
            conditioning.davis_kahan_delta(0.1, 2.0, 1.0), rel=1e-12)


def test_theorem_bounds_hold_at_every_scale_of_l():
    # Two Gaussians against a diagonal L: a precision with the spectrum of LL^T
    # but rotated eigenvectors (eps_eig = 0, so only delta sees the
    # misalignment), and one spreading by 1/2 both ways around a near-isotropic
    # LL^T. Scaling L and the precision by c^2 leaves kappa_L where it is.
    rot = linalg.givens_rotation(math.pi / 4)
    cases = ((np.diag([2.0, 1.0]), np.diag([2.0, 1.0])),
             (np.diag([1.5, 0.5]), np.diag([1.0 + 1e-6, 1.0])))
    for c in (0.1, 1.0, 10.0, 100.0):
        for spectrum, llt in cases:
            prec = c**2 * rot @ spectrum @ rot.T
            t = targets.gaussian_target(np.zeros(2), linalg.sym_inv(0.5 * (prec + prec.T)))
            reports = experiments.analyze(t, preconditioners.from_matrix(c * np.sqrt(llt)))
            kappa_l = reports[0].value
            for rep in reports:
                if rep.kind in ("Thm1", "Thm2", "Thm3"):
                    assert rep.value >= kappa_l * (1 - 1e-10), (c, rep.kind)


def test_thm2_refuses_a_norm_slack_of_one_or_more():
    # ||hessian - LL^T|| <= sigma_d^2 eps with eps >= 1 lets lambda_d(x) reach 0
    assert conditioning.bound_thm2(0.999, 1e9, 1.0, np.array([2.0, 1.0])).value > 0
    with pytest.raises(BoundInapplicableError, match="at least 1"):
        conditioning.bound_thm2(1.0, 1e9, 1.0, np.array([2.0, 1.0]))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["hyperbolic", "binomial"]),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_envelope_eps_bounds_the_norm_slack_at_every_state(family, d, seed):
    rng = np.random.default_rng(seed)
    if family == "hyperbolic":
        x_mat, y, lam = targets.synth_regression_data(d, 3 * d, seed)
        t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    else:
        x_mat, y, w = targets.synth_binomial_data(d, 4 * d, 1.0, seed)
        t = targets.binomial_gprior_target(x_mat, y, w, 0.01 / (4 * d))
    p = preconditioners.from_matrix(random_spd(rng, d, spread=float(rng.uniform(0, 3))))
    eps = conditioning.envelope_eps(t, p)
    # beta = 0 attains H_up for both families; far out every |X_i^T x| >= 60,
    # where the binomial Hessian approaches H_lo
    v = rng.standard_normal(d)
    far = v * (60.0 / np.abs(x_mat @ v).min())
    states = [np.zeros(d), far, 10.0 * far,
              *(scale * rng.standard_normal(d) for scale in (0.1, 1.0, 5.0))]
    for x in states:
        h = t.hessian(x)
        slack = np.linalg.eigvalsh(0.5 * (h + h.T) - p.llt())
        assert np.abs(slack).max() / p.sigma_sq[-1] <= eps * (1 + 1e-12)


def test_norm_slack_controls_eigenvalue_deviation():
    # Weyl's inequality: |lambda_i(H) - sigma_i^2| <= ||H - LL^T||
    rng = np.random.default_rng(7)
    sigma = random_spd(rng, 3)
    t = targets.gaussian_target(np.zeros(3), sigma)
    l = linalg.sym_inv_sqrt(sigma) + 0.05 * np.eye(3)
    p = preconditioners.from_matrix(l)
    probes = rng.standard_normal((10, 3))
    eps_norm = oracles.measure_eps_norm(hessian_stack(t, probes), p)
    sig = p.sigma_sq
    for x in probes:
        vals = np.sort(np.linalg.eigvalsh(t.hessian(x)))[::-1]
        assert np.abs(vals - sig).max() <= sig[-1] * eps_norm + 1e-12


# -- stacked measurements against per-probe loops --------------------------------
#
# The references below solve one probe (or one probe pair) at a time; the
# stacked measurements must reproduce them exactly.

def _ref_eps_eigenvalue(target, precond, probes):
    sig = precond.sigma_sq
    eps = 0.0
    for x in probes:
        h = target.hessian(np.asarray(x, dtype=float))
        vals = np.linalg.eigvalsh(0.5 * (h + h.T))
        if vals[0] <= 0:
            raise AssumptionViolationError("nonpositive probe Hessian")
        ratio = vals[::-1] / sig
        eps = max(eps, float(ratio.max() - 1.0), float(1.0 / ratio.min() - 1.0))
    return eps


def _ref_delta_eigenvector(target, precond, probes):
    v_l = precond.eigs.vectors
    worst = 1.0
    for x in probes:
        h = target.hessian(np.asarray(x, dtype=float))
        eig = linalg.sym_eigen(0.5 * (h + h.T))
        gaps = -np.diff(eig.values)
        if eig.dim > 1 and gaps.min() < 1e-10 * max(abs(eig.values[0]), 1.0):
            raise DegeneratePairingError("degenerate probe Hessian")
        overlap = np.abs(eig.vectors.T @ v_l)
        rows, cols = linear_sum_assignment(-overlap)
        worst = min(worst, float(overlap[rows, cols].min()))
    worst = min(max(worst, 0.0), 1.0)
    delta = 1.0 - (1.0 - math.sqrt(1.0 - worst)) ** 2
    return float(min(max(delta, 0.0), 1.0))


def _ref_eps_norm(target, precond, probes):
    llt = precond.llt()
    sig_d2 = precond.sigma_sq[-1]
    eps = 0.0
    for x in probes:
        h = target.hessian(np.asarray(x, dtype=float))
        eps = max(eps, linalg.spectral_norm(0.5 * (h + h.T) - llt) / sig_d2)
    return float(eps)


def _ref_eps_hessian_variation(target, probes, m):
    hs = [np.asarray(target.hessian(np.asarray(x, dtype=float))) for x in probes]
    eps = 0.0
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            diff = hs[i] - hs[j]
            eps = max(eps, linalg.spectral_norm(0.5 * (diff + diff.T)) / m)
    return float(eps)


def _ref_cosine_extremes(m, big_m, linv):
    """Corner and grid extremes of the cosine target, one 2x2 solve at a time."""
    corner = [np.linalg.eigvalsh(linv @ np.diag([a, b]) @ linv)
              for a in (m, big_m) for b in (m, big_m)]
    ts = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    f = -0.5 * (m - big_m) * np.cos(ts) + 0.5 * (big_m + m)
    grid = [np.linalg.eigvalsh(linv @ np.diag([fa, fb]) @ linv) for fa in f for fb in f]
    return (max(v[-1] for v in corner), min(v[0] for v in corner),
            max(v[-1] for v in grid), min(v[0] for v in grid))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecondError as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["hyperbolic", "binomial"]),
    d=st.integers(min_value=1, max_value=6),
    n_probes=st.integers(min_value=1, max_value=24),
    scale=st.sampled_from([0.1, 1.0, 5.0]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_stacked_measurements_equal_per_probe_loops(family, d, n_probes, scale, seed):
    rng = np.random.default_rng(seed)
    if family == "hyperbolic":
        x_mat, y, lam = targets.synth_regression_data(d, 3 * d, seed)
        t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    else:
        x_mat, y, w = targets.synth_binomial_data(d, 4 * d, 1.0, seed)
        t = targets.binomial_gprior_target(x_mat, y, w, 0.01 / (4 * d))
    p = preconditioners.from_matrix(random_spd(rng, d, spread=float(rng.uniform(0, 3))))
    probes = scale * rng.standard_normal((n_probes, d))
    m = float(rng.uniform(0.1, 2.0))
    hs = hessian_stack(t, probes)
    for got, want in (
        (_outcome(oracles.measure_eps_eigenvalue, hs, p),
         _outcome(_ref_eps_eigenvalue, t, p, probes)),
        (_outcome(oracles.measure_delta_eigenvector, hs, p),
         _outcome(_ref_delta_eigenvector, t, p, probes)),
        (oracles.measure_eps_norm(hs, p), _ref_eps_norm(t, p, probes)),
        (oracles.measure_eps_hessian_variation(hs, m),
         _ref_eps_hessian_variation(t, probes, m)),
    ):
        assert got == want


def test_hessian_variation_chunks_give_the_same_eps(monkeypatch):
    x_mat, y, lam = targets.synth_regression_data(3, 12, 4)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    probes = np.random.default_rng(4).standard_normal((30, 3))
    want = _ref_eps_hessian_variation(t, probes, 0.7)
    for floats in (9, 9 * 7, 1 << 20):  # 1 pair, 7 pairs, all 435 pairs per chunk
        monkeypatch.setattr(oracles, "PAIR_CHUNK_FLOATS", floats)
        assert oracles.measure_eps_hessian_variation(hessian_stack(t, probes), 0.7) == want


def test_cosine_kappa_after_equals_per_point_loop():
    # The grid never leaves the corners' range, and kappa_after reads the
    # corners (m, m) and (M, M). It symmetrises L^{-1} H L^{-1} before its
    # eigen-solve and the corners here do not, so the two agree to rounding.
    t = targets.cosine_hard_target(1.0, 4.0)
    rng = np.random.default_rng(np.random.SeedSequence([47, 6]))
    for _ in range(50):
        raw = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
        p = preconditioners.from_matrix(raw)
        corner_max, corner_min, grid_max, grid_min = _ref_cosine_extremes(1.0, 4.0, p.inv)
        tol = 1e-6 * max(abs(corner_max), 1.0)
        assert grid_max <= corner_max + tol and grid_min >= corner_min - tol
        assert conditioning.kappa_after(t, p) == pytest.approx(
            corner_max / corner_min, rel=1e-10)


def _diag_hessian_target(diag_at, dim=2):
    """A target whose Hessian at x is diag(diag_at(x)); only Hessians are read."""
    return DifferentiableTarget(
        dim=dim,
        potential=lambda x: 0.0,
        gradient=lambda x: np.zeros(dim),
        hessian=lambda x: np.diag(diag_at(x)),
    )


def test_measurements_raise_at_the_first_offending_probe():
    p = preconditioners.from_matrix(np.diag([2.0, 1.0]))
    t = _diag_hessian_target(lambda x: [3.0, x[0]])
    probes = np.array([[1.0, 0.0], [-2.0, 0.0], [-3.0, 0.0]])
    with pytest.raises(AssumptionViolationError, match="-2.000e[+]00"):
        oracles.measure_eps_eigenvalue(hessian_stack(t, probes), p)
    # eigengaps 1, 1e-12 and 0 at the three probes
    t = _diag_hessian_target(lambda x: [1.0, 1.0 + x[0]])
    probes = np.array([[1.0, 0.0], [1e-12, 0.0], [0.0, 0.0]])
    with pytest.raises(DegeneratePairingError, match="1.000e-12"):
        oracles.measure_delta_eigenvector(hessian_stack(t, probes), p)
    # the gap tolerance scales with the largest eigenvalue: 5e-9 < 1e-10 * 100
    t = _diag_hessian_target(lambda x: [100.0, 1.0 + 5e-9, 1.0], dim=3)
    with pytest.raises(DegeneratePairingError, match="5.000e-09"):
        oracles.measure_delta_eigenvector(
            hessian_stack(t, np.zeros((1, 3))), preconditioners.identity_preconditioner(3))


def test_measurements_reject_nonfinite_and_empty_probe_sets():
    p = preconditioners.identity_preconditioner(2)
    t = _diag_hessian_target(lambda x: [2.0, 1.0 / x[0] if x[0] else np.inf])
    probes = np.array([[1.0, 0.0], [0.0, 0.0]])
    measures = (
        lambda probes: oracles.measure_eps_eigenvalue(hessian_stack(t, probes), p),
        lambda probes: oracles.measure_delta_eigenvector(hessian_stack(t, probes), p),
        lambda probes: oracles.measure_eps_norm(hessian_stack(t, probes), p),
        lambda probes: oracles.measure_eps_hessian_variation(
            hessian_stack(t, probes), 1.0),
    )
    for measure in measures:
        with pytest.raises(NonFiniteInputError):
            measure(probes)
        with pytest.raises(PrecondError, match="probe set is empty"):
            measure(np.zeros((0, 2)))
    assert oracles.measure_eps_hessian_variation(hessian_stack(t, probes[:1]), 1.0) == 0.0


# -- theorem bounds ------------------------------------------------------------

def test_thm1_trivial_and_display_example():
    assert conditioning.bound_thm1(0.0, 0.0, np.ones(3)).value == pytest.approx(1.0)
    rep = conditioning.bound_thm1(0.0, 0.1, np.array([1.0, 1.0]))
    assert rep.value == pytest.approx((1 + 0.1 * 2) ** 4)
    assert rep.value == pytest.approx(2.0736)


def test_thm1_trace_factor_and_cap():
    sigmas = np.array([3.0, 1.0, 0.5])
    rep = conditioning.bound_thm1(0.1, 0.2, sigmas)
    tf = math.sqrt((sigmas**2).sum() * (sigmas**-2).sum())
    assert rep.extras["trace_factor"] == pytest.approx(tf)
    cap = 3 * (sigmas.max() / sigmas.min())
    assert rep.extras["trace_factor_cap"] == pytest.approx(cap)
    assert tf <= cap


def test_thm1_rejects_bad_inputs():
    with pytest.raises(PrecondError):
        conditioning.bound_thm1(-0.1, 0.0, np.ones(2))
    with pytest.raises(PrecondError):
        conditioning.bound_thm1(0.0, 1.5, np.ones(2))


def test_thm2_trivial_and_display_example():
    rep0 = conditioning.bound_thm2(0.0, 1.0, 1.0, np.array([2.0, 1.0]))
    assert rep0.value == pytest.approx(1.0)
    rep = conditioning.bound_thm2(0.25, 1.0, 1.0, np.array([2.0, 1.0]))
    assert rep.extras["delta"] == pytest.approx(0.75)


def test_thm2_refusals():
    with pytest.raises(BoundInapplicableError):
        conditioning.bound_thm2(0.6, 1.0, 1.0, np.array([2.0, 1.0]))
    with pytest.raises(BoundInapplicableError):
        conditioning.bound_thm2(0.1, 0.0, 1.0, np.array([2.0, 1.0]))


def test_thm3_trivial():
    assert conditioning.bound_thm3(0.0, 2.0, 1.0).value == pytest.approx(1.0)


def test_thm3_dominates_exact_hyperbolic():
    x_mat, y, lam = targets.synth_regression_data(3, 15, 8)
    t = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    a = x_mat.T @ x_mat
    p = preconditioners.additive_base_preconditioner(a)
    eps = lam / p.sigma_sq[-1]
    vals = np.linalg.eigvalsh(a)
    exact = conditioning.kappa_after(t, p)
    bound = conditioning.bound_thm3(eps, math.sqrt(p.sigma_sq[0]), vals[0]).value
    assert exact <= bound * (1 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bound_soundness_constant_hessian(seed):
    # For a Gaussian the Hessian is constant, so probe-measured constants are
    # exact and every theorem bound must dominate the exact kappa_L.
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, 3)
    t = targets.gaussian_target(np.zeros(3), sigma)
    l = linalg.sym_inv_sqrt(sigma) + 0.02 * random_spd(rng, 3)
    p = preconditioners.from_matrix(l)
    probes = rng.standard_normal((5, 3))
    exact = conditioning.kappa_after(t, p)
    hs = hessian_stack(t, probes)
    eps = oracles.measure_eps_eigenvalue(hs, p)
    try:
        delta = oracles.measure_delta_eigenvector(hs, p)
    except DegeneratePairingError:
        delta = 1.0
    sigmas = np.sqrt(p.sigma_sq)
    assert exact <= conditioning.bound_thm1(eps, delta, sigmas).value * (1 + 1e-8)
    eps_n = oracles.measure_eps_norm(hs, p)
    m = float(np.linalg.eigvalsh(sigma)[-1] ** -1)
    assert exact <= conditioning.bound_thm3(eps_n, sigmas[0], m).value * (1 + 1e-8)
    if p.eigengap > 0:
        try:
            rep2 = conditioning.bound_thm2(eps_n, p.eigengap, sigmas[-1], sigmas)
            assert exact <= rep2.value * (1 + 1e-8)
            # the Davis-Kahan route only loosens delta
            assert rep2.value >= conditioning.bound_thm1(eps_n, delta, sigmas).value * (1 - 1e-8)
        except BoundInapplicableError:
            pass


# -- Givens misalignment construction -------------------------------------------

def test_givens_delta_zero():
    assert paper_results.givens_delta_kappa(2.0, 1.0, 0.0).kappa_l == pytest.approx(1.0)


def test_givens_quartic_coefficient():
    g = paper_results.givens_delta_kappa(2.0, 1.0, 0.1)
    assert g.delta4_coefficient == pytest.approx(0.0625)


def test_givens_matches_estimator_on_constructed_gaussian():
    lam1, lam2, delta = 50.0, 1.0, 0.3
    g = paper_results.givens_delta_kappa(lam1, lam2, delta)
    rot = linalg.givens_rotation(math.acos(1.0 - delta))
    # covariance G^T D^{-1} G makes L = D^{1/2} realize the closed form
    sigma = rot.T @ np.diag([1.0 / lam1, 1.0 / lam2]) @ rot
    t = targets.gaussian_target(np.zeros(2), 0.5 * (sigma + sigma.T))
    p = preconditioners.from_matrix(np.diag([math.sqrt(lam1), math.sqrt(lam2)]))
    est = conditioning.kappa_after(t, p)
    assert est == pytest.approx(g.kappa_l, rel=1e-6)


def test_givens_rejects_equal_eigenvalues():
    with pytest.raises(PrecondError):
        paper_results.givens_delta_kappa(1.0, 1.0, 0.1)


# -- multiplicative Hessian bounds ----------------------------------------------

def _constant_mult_target(x_mat, lam_vec):
    n, d = x_mat.shape
    h = x_mat.T @ (lam_vec[:, None] * x_mat)
    return DifferentiableTarget(
        dim=d,
        potential=lambda x: 0.5 * float(x @ h @ x),
        gradient=lambda x: h @ x,
        hessian=lambda x: h,
        structure=MultiplicativeStructure(
            design=x_mat,
            diag=lambda x: lam_vec,
            entry_inf=lam_vec.copy(),
            entry_sup=lam_vec.copy(),
        ),
        kind="mult-test",
    )


def test_mult_bounds_identity_weights():
    rng = np.random.default_rng(9)
    x_mat = rng.standard_normal((8, 3))
    t = _constant_mult_target(x_mat, np.ones(8))
    rep = conditioning.mult_kappa_bounds(t)
    kap = linalg.spectral_condition_number(x_mat.T @ x_mat)
    assert rep.lower <= kap <= rep.value
    assert rep.value == pytest.approx(kap, rel=1e-12)  # upper = kappa * 1


def test_mult_sandwich_contains_exact_scalar_family():
    # Lambda(x) = s(x) w with s in [0.5, 2]: exact kappa = 4 kappa(X^T W X)
    rng = np.random.default_rng(10)
    x_mat = rng.standard_normal((10, 3))
    w = rng.uniform(1.0, 3.0, 10)
    t = DifferentiableTarget(
        dim=3,
        potential=lambda x: 0.0,
        gradient=lambda x: np.zeros(3),
        hessian=lambda x: x_mat.T @ (w[:, None] * x_mat),
        structure=MultiplicativeStructure(
            design=x_mat, diag=lambda x: w, entry_inf=0.5 * w, entry_sup=2.0 * w
        ),
        kind="mult-test",
    )
    rep = conditioning.mult_kappa_bounds(t)
    exact = 4.0 * linalg.spectral_condition_number(x_mat.T @ (w[:, None] * x_mat))
    assert rep.lower <= exact * (1 + 1e-12)
    assert exact <= rep.value * (1 + 1e-12)


def test_mult_design_bound_binomial_formula():
    x_mat, y, w = targets.synth_binomial_data(3, 12, 1.0, 11)
    n = 12
    lam = 0.01
    t = targets.binomial_gprior_target(x_mat, y, w, lam / n)
    rep = conditioning.mult_dalalyan(t)
    expect = (n / 4 + lam) / lam * (w.max() / w.min())
    assert rep.value == pytest.approx(expect, rel=1e-12)
    assert rep.extras["corollary_value"] == pytest.approx(
        (w * (0.25 + lam / n)).max() / (w * (lam / n)).min()
    )
    assert rep.lower <= rep.value


def test_mult_dalalyan_lower_is_below_kappa_l():
    # Lambda(x) = s(x) w with s in [0.5, 2]: exact kappa_L = 4 kappa(Q^T W Q)
    # for Q = X (X^T X)^{-1/2}, and interlacing puts the lower bound beneath it
    rng = np.random.default_rng(14)
    x_mat = rng.standard_normal((10, 3))
    w = np.arange(1.0, 11.0) ** 2
    t = DifferentiableTarget(
        dim=3,
        potential=lambda x: 0.0,
        gradient=lambda x: np.zeros(3),
        hessian=lambda x: x_mat.T @ (w[:, None] * x_mat),
        structure=MultiplicativeStructure(
            design=x_mat, diag=lambda x: w, entry_inf=0.5 * w, entry_sup=2.0 * w
        ),
        kind="mult-test",
    )
    rep = conditioning.mult_dalalyan(t)
    q = x_mat @ linalg.sym_inv_sqrt(x_mat.T @ x_mat)
    exact = 4.0 * linalg.spectral_condition_number(q.T @ (w[:, None] * q))
    assert rep.lower == pytest.approx(2.0 * w[2] / (0.5 * w[-3]), rel=1e-12)
    assert rep.lower <= exact * (1 + 1e-12)
    # and on binomial instances against the design preconditioner's kappa_L
    for seed in range(5):
        x_mat, y, w = targets.synth_binomial_data(4, 20, 1.0, seed)
        t = targets.binomial_gprior_target(x_mat, y, w, 0.01 / 20)
        kappa_l = conditioning.kappa_after(
            t, preconditioners.design_preconditioner(x_mat))
        assert conditioning.mult_dalalyan(t).lower <= kappa_l * (1 + 1e-8)


def test_mult_mode_bound_formula_and_constant_case():
    x_mat, y, w = targets.synth_binomial_data(3, 12, 1.0, 12)
    n = 12
    r = 0.01 / n
    t = targets.binomial_gprior_target(x_mat, y, w, r)
    beta_star = np.zeros(3)
    rep = conditioning.mult_mode_bound(t, beta_star)
    lam_star = w * (0.25 + r)
    first = (w * (0.25 + r) / lam_star).max() / (w * r / lam_star).min()
    assert rep.value == pytest.approx(first, rel=1e-12)
    assert rep.extras["squared_ratio_cap"] == pytest.approx(
        ((w * (0.25 + r)).max() / (w * r).min()) ** 2
    )
    # constant Lambda: bound collapses to 1
    rng = np.random.default_rng(13)
    xc = rng.standard_normal((6, 2))
    lam_vec = rng.uniform(0.5, 1.5, 6)
    tc = _constant_mult_target(xc, lam_vec)
    assert conditioning.mult_mode_bound(tc, np.zeros(2)).value == pytest.approx(1.0)


def test_mult_requires_structure():
    t = targets.gaussian_target(np.zeros(2), np.eye(2))
    with pytest.raises(PrecondError):
        conditioning.mult_kappa_bounds(t)


# -- Fisher, gap sandwich, threshold ---------------------------------------------

def test_fisher_bound_examples():
    # the square-root-Fisher guarantee (1 + 2 eps)(1 + 2 sigma_1^2 eps / m) is
    # Thm3 at twice the norm slack
    for eps, sigma1, m in ((0.0, 1.0, 1.0), (0.1, 1.0, 1.0), (0.3, 2.0, 0.5)):
        fisher = (1.0 + 2.0 * eps) * (1.0 + 2.0 * sigma1**2 * eps / m)
        assert conditioning.bound_thm3(2.0 * eps, sigma1, m).value == fisher
    assert conditioning.bound_thm3(0.2, 1.0, 1.0).value == pytest.approx(1.44)


def test_rwm_gap_bounds_example():
    rep = conditioning.rwm_gap_bounds(1.0, 1, 1.0, 0.0, big_m=2.0)
    assert rep.lower == pytest.approx(RWM_GAP_CONSTANT * math.exp(-2.0))
    assert rep.lower == pytest.approx(2.669e-5, rel=1e-3)
    assert rep.value == pytest.approx(0.5)
    assert rep.extras["sigma2"] == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e6),
    st.integers(min_value=1, max_value=1000),
    st.floats(min_value=1e-6, max_value=50.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_rwm_gap_lower_below_upper(kappa, d, xi, eps):
    rep = conditioning.rwm_gap_bounds(kappa, d, xi, eps)
    assert rep.lower <= rep.value


def test_improved_threshold_limit_and_monotone():
    rep = conditioning.improved_gap_threshold(0.0, 0.0, 1.0, 1.0, 1e-12)
    assert rep.value == pytest.approx(0.5 / RWM_GAP_CONSTANT, rel=1e-9)
    assert rep.value == pytest.approx(2535.5, rel=1e-3)
    base = conditioning.improved_gap_threshold(0.1, 0.1, 1.0, 1.0, 0.5).value
    assert conditioning.improved_gap_threshold(0.2, 0.1, 1.0, 1.0, 0.5).value > base
    assert conditioning.improved_gap_threshold(0.1, 0.2, 1.0, 1.0, 0.5).value > base
    assert conditioning.improved_gap_threshold(0.1, 0.1, 2.0, 1.0, 0.5).value > base
    assert conditioning.improved_gap_threshold(0.1, 0.1, 1.0, 1.0, 0.8).value > base


def test_threshold_certifies_gap_improvement():
    # kappa above the threshold: preconditioned lower bound beats the
    # unpreconditioned upper bound
    xi, eps, eps_p, sigma1, m = 0.5, 0.05, 0.0, 1.0, 1.0
    thr = conditioning.improved_gap_threshold(eps_p, eps, sigma1, m, xi).value
    kappa = 2.0 * thr
    d = 4
    kappa_l = conditioning.bound_thm3(eps, sigma1, m).value
    before = conditioning.rwm_gap_bounds(kappa, d, xi, eps_p).value
    after = conditioning.rwm_gap_bounds(kappa_l, d, xi, eps_p).lower
    assert after >= before


# -- O-U gap ---------------------------------------------------------------------

def test_ou_gap_whitening():
    rng = np.random.default_rng(14)
    sigma = random_spd(rng, 3)
    gap, ok = paper_results.ou_spectral_gap(linalg.sym_inv_sqrt(sigma), sigma)
    assert ok and gap == pytest.approx(1.0, abs=1e-9)


def test_ou_gap_diag_example():
    gap, ok = paper_results.ou_spectral_gap(np.diag([2.0, 0.5]), np.eye(2))
    assert ok and gap == pytest.approx(0.25)


def test_ou_gap_maximized_at_whitening():
    rng = np.random.default_rng(15)
    sigma = random_spd(rng, 2)
    root = linalg.sym_inv_sqrt(sigma)
    for c in (0.3, 0.7, 1.0, 1.6, 3.0):
        l = np.diag([c, 1.0 / c]) @ root
        gap, ok = paper_results.ou_spectral_gap(l, sigma)
        assert ok
        if c == 1.0:
            assert gap == pytest.approx(1.0, abs=1e-9)
        else:
            assert gap < 1.0


# -- covariance localisation ------------------------------------------------------

def test_localisation_trivial_gaussian():
    rng = np.random.default_rng(16)
    sigma = random_spd(rng, 3)
    prec = linalg.sym_inv(sigma)
    mu = rng.standard_normal(3)
    p_minus, p_plus, bound = paper_results.covariance_localisation(prec, prec, mu, mu)
    assert np.allclose(p_minus, prec) and np.allclose(p_plus, prec)
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_localisation_sandwiches_gaussian_precision():
    rng = np.random.default_rng(17)
    sigma = random_spd(rng, 3)
    prec = linalg.sym_inv(sigma)
    mu = np.zeros(3)
    x_star = 0.05 * rng.standard_normal(3)
    p_minus, p_plus, bound = paper_results.covariance_localisation(
        0.9 * prec, 1.1 * prec, x_star, mu
    )
    assert linalg.loewner_leq(p_minus, prec, tol=1e-9)
    assert linalg.loewner_leq(prec, p_plus, tol=1e-9)
    assert bound > 0


def test_localisation_rejects_large_displacement():
    prec = np.eye(2)
    with pytest.raises(BoundInapplicableError):
        paper_results.covariance_localisation(prec, prec, np.array([2.0, 0.0]), np.zeros(2))


def test_localisation_additive_vanishes_in_limit():
    a = np.diag([2.0, 3.0])
    mu = np.zeros(2)
    vals = [
        paper_results.covariance_localisation_additive(a, eps, mu, mu).value
        for eps in (0.1, 0.01, 0.001)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.01


def test_localisation_additive_requires_eps_below_a():
    with pytest.raises(BoundInapplicableError):
        paper_results.covariance_localisation_additive(
            np.eye(2), 1.5, np.zeros(2), np.zeros(2)
        )


def test_localisation_additive_hyperbolic_finite():
    x_mat, y, lam = targets.synth_regression_data(3, 20, 18)
    a = x_mat.T @ x_mat
    rep = paper_results.covariance_localisation_additive(
        a, lam, 0.01 * np.ones(3), np.zeros(3)
    )
    assert np.isfinite(rep.value) and rep.value > 0


# -- diagonal dominance ------------------------------------------------------------

def test_diag_dominance_diagonal_sigma():
    rep = conditioning.diag_dominance_bound(np.diag([3.0, 1.0, 0.5]))
    assert rep.extras["kappa_corr"] == pytest.approx(1.0)
    assert rep.value >= 1.0


def test_diag_dominance_fixture_dominates_true_value():
    rep = conditioning.diag_dominance_bound(SIGMA_PI_FIXTURE)
    assert rep.value >= rep.extras["kappa_corr"]
    assert round(rep.extras["kappa_corr"], -2) == 8100.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_diag_dominance_sound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    sigma = random_spd(rng, d, spread=3.0)
    rep = conditioning.diag_dominance_bound(sigma)
    assert rep.extras["kappa_corr"] <= rep.value * (1 + 1e-10)


# -- report serialization -----------------------------------------------------------

def test_bound_report_json_roundtrip():
    import json

    rep = conditioning.bound_thm1(0.1, 0.2, np.array([2.0, 1.0]))
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["kind"] == "Thm1"
    assert data["value"] == pytest.approx(rep.value)
    assert data["inputs"]["sigmas"] == [2.0, 1.0]
