"""End-to-end acceptance suite.

Each test checks one acceptance criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure). The criteria
cover the headline numbers, orderings, and bound-soundness guarantees of the
package at the stated tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from precond import (
    conditioning,
    diagnostics,
    experiments,
    linalg,
    preconditioners,
    samplers,
    targets,
)
from precond.errors import BoundInapplicableError

import oracles
import paper_results
from oracles import DegeneratePairingError
from test_fixtures import SIGMA_PI_FIXTURE, random_spd


def _verdict(idx: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx}: {status} - {detail}")
    assert ok, f"criterion {idx} failed: {detail}"


def test_criterion_01_fixture_condition_numbers():
    t0 = time.perf_counter()
    target = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    kappa = conditioning.condition_number(target)
    diag = preconditioners.diag_covariance_preconditioner(SIGMA_PI_FIXTURE)
    kappa_l = conditioning.kappa_after(target, diag)
    elapsed = time.perf_counter() - t0
    ok = (
        round(kappa, -2) == 4400.0
        and round(kappa_l, -2) == 8100.0
        and elapsed < 1.0
    )
    _verdict(
        1, ok,
        f"kappa={kappa:.1f} (4.4e3), kappa_L(diag)={kappa_l:.1f} (8.1e3), "
        f"{elapsed:.3f}s",
    )


def test_criterion_02_counterproductive_ordering_paper_scale():
    t0 = time.perf_counter()
    cfg = experiments.PRESETS["paper-4.1"]
    result = experiments.run_counterproductive(cfg)
    # per-run ESS in dimensions 2, 4, 5 (1-indexed)
    per_arm = {"dense": [], "none": [], "diag": []}
    for row in result.rows:
        vals = [float(v) for v in row["ess_per_dim"].split(";")]
        per_arm[row["arm"]].append([vals[1], vals[3], vals[4]])
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    details = []
    for j, dim in enumerate((2, 4, 5)):
        dense = np.array([r[j] for r in per_arm["dense"]])
        none = np.array([r[j] for r in per_arm["none"]])
        diag = np.array([r[j] for r in per_arm["diag"]])
        med_ok = np.median(dense) > np.median(none) > np.median(diag)
        p1 = mannwhitneyu(dense, none, alternative="greater").pvalue
        p2 = mannwhitneyu(none, diag, alternative="greater").pvalue
        ok = ok and med_ok and p1 < 0.01 and p2 < 0.01
        details.append(
            f"dim{dim}: {np.median(dense):.0f}>{np.median(none):.0f}"
            f">{np.median(diag):.0f} (p={p1:.1e},{p2:.1e})"
        )
    _verdict(2, ok, "dense>none>diag " + "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_03_gaussian_whitening_and_fisher():
    rng = np.random.default_rng(303)
    n_draws = 100_000
    worst_white = 0.0
    worst_excess = -math.inf
    worst_fisher = 0.0
    for k in range(50):
        d = int(rng.integers(2, 21))
        sigma = random_spd(rng, d, spread=float(rng.uniform(0.5, 4.0)))
        target = targets.gaussian_target(np.zeros(d), sigma)
        white = preconditioners.dense_covariance_preconditioner(sigma)
        worst_white = max(
            worst_white, abs(conditioning.kappa_after(target, white) - 1.0)
        )
        # Fisher estimate from 1e5 exact posterior draws; gradients are
        # Sigma^{-1} x = Sigma^{-1/2} z for x = Sigma^{1/2} z
        inv_sqrt = linalg.sym_inv_sqrt(sigma)
        grads = rng.standard_normal((n_draws, d)) @ inv_sqrt
        fisher = preconditioners.fisher_preconditioner(grads)
        kappa_l = conditioning.kappa_after(target, fisher)
        worst_fisher = max(worst_fisher, kappa_l)
        # the sample Fisher cannot beat the Marchenko-Pastur floor of its own
        # Monte Carlo error, so the tolerance is the larger of 1.05 and that
        # floor with a 1% fluctuation allowance
        edge = math.sqrt(d / n_draws)
        floor = ((1.0 + edge) / (1.0 - edge)) ** 2
        worst_excess = max(worst_excess, kappa_l - max(1.05, 1.01 * floor))
    ok = worst_white <= 1e-8 and worst_excess <= 0.0
    _verdict(
        3, ok,
        f"max |kappa_L(whitening)-1|={worst_white:.2e} (<=1e-8), "
        f"max kappa_L(fisher)={worst_fisher:.4f} "
        f"(<= max(1.05, estimator floor); max excess {worst_excess:.2e})",
    )


def test_criterion_04_theorem_soundness_sweep():
    t0 = time.perf_counter()
    violations = []

    # 100 hyperbolic instances against Theorems 1-3 with measured constants
    for k in range(100):
        seed = experiments.derive_seed(404, k)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        d = int(rng.integers(2, 11))
        n = int(rng.integers(2 * d, 6 * d))
        x_mat, y, lam = targets.synth_regression_data(d, n, seed)
        target = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
        precond = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
        probes = oracles.default_probes(
            target, precond, seed=seed, n_chain=24, n_local=24
        )
        kappa_l = conditioning.kappa_after(target, precond)
        sigmas = np.sqrt(precond.sigma_sq)
        hs = oracles.hessian_stack(target, probes)
        eps_eig = oracles.measure_eps_eigenvalue(hs, precond)
        eps_norm = oracles.measure_eps_norm(hs, precond)
        try:
            delta = oracles.measure_delta_eigenvector(hs, precond)
            if kappa_l > conditioning.bound_thm1(eps_eig, delta, sigmas).value * (1 + 1e-8):
                violations.append(f"thm1@{k}")
        except DegeneratePairingError:
            pass
        try:
            rep2 = conditioning.bound_thm2(
                eps_norm, precond.eigengap, float(sigmas[-1]), sigmas
            )
            if kappa_l > rep2.value * (1 + 1e-8):
                violations.append(f"thm2@{k}")
        except BoundInapplicableError:
            pass
        rep3 = conditioning.bound_thm3(eps_norm, float(sigmas[0]), target.envelope.m)
        if kappa_l > rep3.value * (1 + 1e-8):
            violations.append(f"thm3@{k}")

    # 100 binomial instances against the multiplicative propositions
    max_rel = 0.0
    for k in range(100):
        seed = experiments.derive_seed(405, k)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        d = int(rng.integers(2, 8))
        n = 5 * d
        mu = float(rng.uniform(0.0, 5.0))
        x_mat, y, _ = targets.synth_binomial_data(d, n, mu, seed)
        # equal weights so every multiplicative entry shares the same range
        # [c, C]; the exact kappa_L = C/c identity needs that
        w = np.ones(n)
        target = targets.binomial_gprior_target(
            x_mat, y / np.arange(1, n + 1) ** 2, w, experiments.BINOMIAL_LAMBDA / n
        )
        # exact kappa from the Loewner Hessian extremes
        kappa = (
            np.linalg.eigvalsh(target.hessian_upper)[-1]
            / np.linalg.eigvalsh(target.hessian_lower)[0]
        )
        sandwich = conditioning.mult_kappa_bounds(target)
        if not (sandwich.lower <= kappa * (1 + 1e-8)
                and kappa <= sandwich.value * (1 + 1e-8)):
            violations.append(f"prop3@{k}")
        design = preconditioners.design_preconditioner(x_mat)
        kappa_design = conditioning.kappa_after(target, design)
        corollary = conditioning.mult_dalalyan(target).extras["corollary_value"]
        rel = abs(kappa_design - corollary) / corollary
        max_rel = max(max_rel, rel)
        if rel > 1e-6:
            violations.append(f"prop5cor@{k}")
        beta_star = samplers.find_mode(target, design, tol=1e-8)
        mode = preconditioners.hessian_at_mode_preconditioner(target, beta_star)
        kappa_mode = conditioning.kappa_after(target, mode)
        if kappa_mode > conditioning.mult_mode_bound(target, beta_star).value * (1 + 1e-8):
            violations.append(f"prop6@{k}")

    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300.0
    _verdict(
        4, ok,
        f"200 instances, {len(violations)} violations {violations[:5]}, "
        f"max |kappa_L(design)-C/c|/C/c={max_rel:.2e}, {elapsed:.0f}s (<300)",
    )


def test_criterion_05_hard_target_floor():
    target = targets.cosine_hard_target(1.0, 4.0)
    rng = np.random.default_rng(505)
    worst_margin = math.inf
    for k in range(50):
        raw = rng.standard_normal((2, 2))
        while abs(np.linalg.det(raw)) < 1e-2:
            raw = rng.standard_normal((2, 2))
        precond = preconditioners.from_matrix(raw)
        floor = conditioning.hard_target_lower(precond, 1.0, 4.0).value
        kappa_l = conditioning.kappa_after(target, precond)
        worst_margin = min(worst_margin, kappa_l - floor)
    ok = worst_margin >= -1e-6
    _verdict(
        5, ok,
        f"min(kappa_L - kappa(LL^T)*4) = {worst_margin:.3e} over 50 random L "
        "(>= -1e-6)",
    )


def test_criterion_06_tight_delta_closed_form():
    worst_rel = 0.0
    worst_coef = 0.0
    for lam1, lam2 in ((2.0, 1.0), (50.0, 1.0)):
        l_sum = lam1 / lam2 + lam2 / lam1
        for delta in (0.05, 0.1, 0.3):
            g = paper_results.givens_delta_kappa(lam1, lam2, delta)
            rot = linalg.givens_rotation(math.acos(1.0 - delta))
            sigma = rot.T @ np.diag([1.0 / lam1, 1.0 / lam2]) @ rot
            t = targets.gaussian_target(np.zeros(2), 0.5 * (sigma + sigma.T))
            p = preconditioners.from_matrix(
                np.diag([math.sqrt(lam1), math.sqrt(lam2)])
            )
            est = conditioning.kappa_after(t, p)
            worst_rel = max(worst_rel, abs(est - g.kappa_l) / g.kappa_l)
        # quartic trend: fit (T/2)^2 over a delta grid; the degree-4
        # coefficient must equal (l-2)^2/4
        grid = np.linspace(0.0, 0.4, 200)
        traces = np.array(
            [paper_results.givens_delta_kappa(lam1, lam2, dd).trace for dd in grid]
        )
        coefs = np.polyfit(grid, (traces / 2.0) ** 2, 4)
        expect = 0.25 * (l_sum - 2.0) ** 2
        worst_coef = max(worst_coef, abs(coefs[0] - expect) / expect)
    ok = worst_rel <= 1e-6 and worst_coef <= 0.01
    _verdict(
        6, ok,
        f"max closed-form mismatch {worst_rel:.2e} (<=1e-6), "
        f"delta^4 coefficient error {worst_coef:.2e} (<=1%)",
    )


def test_criterion_07_gap_sandwich_surrogate():
    d, xi = 10, 1.0
    details = []
    ok = True
    for kappa in (10.0, 100.0):
        big_m, m = kappa, 1.0
        sigma = np.diag(np.linspace(1.0 / big_m, 1.0 / m, d))
        target = targets.gaussian_target(np.zeros(d), sigma)
        cfg = samplers.ChainConfig(
            kind="RWM",
            step_size=math.sqrt(xi / (big_m * d)),
            preconditioner=preconditioners.identity_preconditioner(d),
            n_steps=1_000_000,
            seed=707,
        )
        (trace,) = samplers.run_chains(target, [cfg], np.zeros((1, d)))
        v_max = np.zeros(d)
        v_max[-1] = 1.0  # axis of largest variance 1/m
        est, se = paper_results.empirical_gap_upper(trace, v_max)
        lower = conditioning.rwm_gap_bounds(kappa, d, xi, 0.0).lower
        upper = xi / (2.0 * kappa * d)
        ok = ok and (lower - 4 * se <= est <= upper + 4 * se)
        details.append(
            f"kappa={kappa:.0f}: {lower:.2e}-4se <= {est:.2e} <= {upper:.2e}+4se "
            f"(se={se:.1e})"
        )
    _verdict(7, ok, "; ".join(details))


def test_criterion_08_ou_gap_maximized_at_whitening():
    d = 5
    rng = np.random.default_rng(808)
    sigma = random_spd(rng, d)
    white = linalg.sym_inv_sqrt(sigma)
    target_abs_det = abs(np.linalg.det(white))
    n_white = 0
    ok = True
    for k in range(1000):
        if k % 10 == 0:
            l_mat = white.copy()
        else:
            eta = float(rng.uniform(0.01, 0.3))
            l_mat = white + eta * rng.standard_normal((d, d)) * np.abs(white).mean()
            # renormalize to the determinant constraint |det L| = det(Sigma)^{-1/2}
            scale = (target_abs_det / abs(np.linalg.det(l_mat))) ** (1.0 / d)
            l_mat = scale * l_mat
        gap, constraint = paper_results.ou_spectral_gap(l_mat, sigma)
        if not constraint or gap > 1.0 + 1e-9:
            ok = False
        near_white = np.abs(l_mat - white).max() <= 1e-6 * np.abs(white).max()
        if gap >= 1.0 - 1e-6:
            n_white += 1
            if not near_white:
                ok = False
        elif near_white:
            ok = False
    _verdict(
        8, ok,
        f"1000 determinant-constrained members: gap <= 1 always, gap = 1 only "
        f"at the {n_white} whitening members",
    )


def test_criterion_09_covariance_localisation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    failures = []
    for k in range(20):
        seed = experiments.derive_seed(909, k)
        d = int(rng.integers(2, 6))
        n = 5 * d
        x_mat, y, lam = targets.synth_regression_data(d, n, seed)
        target = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
        precond = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
        cfg = samplers.ChainConfig(
            kind="RWM",
            step_size=2.38 / math.sqrt(d),
            preconditioner=precond,
            n_steps=1_000_000,
            seed=seed,
        )
        x_star = samplers.find_mode(target, precond, tol=1e-8)
        (trace,) = samplers.run_chains(target, [cfg], x_star[None])
        states = trace.states[100_000:]
        mu_hat = states.mean(axis=0)
        sigma_hat = preconditioners.sample_covariance(states)
        prec_hat = linalg.sym_inv(sigma_hat)
        # Monte Carlo tolerance: covariance-entry SE propagated through the
        # inverse, with the effective sample count from the worst dimension
        n_eff = min(diagnostics.ess_report(states[::100]).per_dimension) * 100
        entry_se = float(np.abs(sigma_hat).max()) * math.sqrt(2.0 / n_eff)
        tol = 3.0 * entry_se * d * float(np.linalg.norm(prec_hat, 2)) ** 2
        p_minus, p_plus, _ = paper_results.covariance_localisation(
            target.hessian_lower, target.hessian_upper, x_star, mu_hat
        )
        if not linalg.loewner_leq(p_minus, prec_hat, tol=tol):
            failures.append(f"lower@{k}")
        if not linalg.loewner_leq(prec_hat, p_plus, tol=tol):
            failures.append(f"upper@{k}")
        bound = paper_results.covariance_localisation_additive(
            target.hessian_lower, lam, x_star, mu_hat
        ).value
        probes = states[:: len(states) // 256][:256]
        worst = max(
            linalg.spectral_norm(target.hessian(x) - prec_hat) for x in probes
        )
        if worst > bound + tol:
            failures.append(f"norm@{k}: {worst:.3g} > {bound:.3g}+{tol:.3g}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _verdict(
        9, ok,
        f"20 instances with 1e6-draw chains, failures: {failures[:4]}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_directional_reproduction():
    t0 = time.perf_counter()

    # hyperbolic: covariance arm just as good as the design arm, both at
    # least as good as no preconditioning
    hyp = experiments.run_experiment(experiments.PRESETS["paper-4.2-small"])
    arm_ess = {"design": [], "covariance": [], "none": []}
    for row in hyp.rows:
        if row["status"] in ("ok", "stuck"):
            arm_ess[row["arm"]].append(row["median_ess"])
    design = np.array(arm_ess["design"])
    cov = np.array(arm_ess["covariance"])
    none = np.array(arm_ess["none"])
    p_design = mannwhitneyu(design, none, alternative="greater").pvalue
    p_cov = mannwhitneyu(cov, none, alternative="greater").pvalue
    ratio = float(np.median(cov) / np.median(design))
    hyp_ok = p_design < 0.05 and p_cov < 0.05 and 0.5 <= ratio <= 2.0
    hyp_elapsed = time.perf_counter() - t0

    # binomial: short-sample covariance estimation degrades with dimension
    # while the Fisher short/long difference stays very slight
    t1 = time.perf_counter()
    binom = experiments.run_experiment(experiments.PRESETS["paper-4.3-small"])
    by_arm_d = {}
    for row in binom.rows:
        if row["status"] == "ok":
            by_arm_d.setdefault((row["arm"], row["d"]), []).append(row["median_ess"])
    cov_short = np.array(by_arm_d.get(("covariance-short", 10), []))
    cov_long = np.array(by_arm_d.get(("covariance-long", 10), []))
    p_short = mannwhitneyu(cov_long, cov_short, alternative="greater").pvalue
    all_ess = np.array([
        v for (arm, d), vals in by_arm_d.items() for v in vals if d == 10
    ])
    spread = float(all_ess.max() - all_ess.min())
    fisher_gap = abs(
        float(np.median(by_arm_d[("fisher-long", 10)]))
        - float(np.median(by_arm_d[("fisher-short", 10)]))
    )
    binom_ok = p_short < 0.05 and fisher_gap <= 0.25 * spread
    binom_elapsed = time.perf_counter() - t1

    ok = (
        hyp_ok and binom_ok and hyp_elapsed < 600.0 and binom_elapsed < 600.0
    )
    _verdict(
        10, ok,
        f"hyperbolic: p(design>none)={p_design:.1e}, p(cov>none)={p_cov:.1e}, "
        f"cov/design median ratio {ratio:.2f} in [0.5,2], {hyp_elapsed:.0f}s; "
        f"binomial d=10: p(cov-long>cov-short)={p_short:.1e}, fisher "
        f"short/long median gap {fisher_gap:.1f} <= 0.25*spread {spread:.1f}, "
        f"{binom_elapsed:.0f}s",
    )
