"""Experiment harness: the three studies, bound verification, and persistence.

All runs are deterministic given the config: per-chain seeds derive from the
master seed and the cell/arm/chain indices through SeedSequence, and rows are
emitted in a fixed order, so repeated runs produce byte-identical CSV output.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import conditioning, diagnostics, linalg, preconditioners, samplers, targets
from .errors import DefinitenessError, ModelFileError, PrecondError

SCHEMA_VERSION = 1

# 5x5 covariance whose correlation matrix is worse conditioned than itself:
# kappa = 4.4e3, kappa(correlation) = 8.1e3 to two significant figures.
SIGMA_PI = np.array(
    [
        [21.454000608828, 5.694350163756, 18.669582664477, 4.513055674762, 6.851149064189],
        [5.694350163756, 1.997378898708, 4.858647450615, 1.177185049515, 2.111768145037],
        [18.669582664477, 4.858647450615, 16.347897046398, 3.904488499387, 5.725524743252],
        [4.513055674762, 1.177185049515, 3.904488499387, 1.37492871074, 1.383603244895],
        [6.851149064189, 2.111768145037, 5.725524743252, 1.383603244895, 2.915849085371],
    ]
)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str                       # counterproductive | hyperbolic | binomial | verify-bounds
    dims: tuple = (2, 5, 10)
    n_multipliers: tuple = (5, 20)
    mu_list: tuple = (0.0, 5.0)
    chains_per_cell: int = 5
    burn_in: int = 2_000
    measure: int = 2_000
    master_seed: int = 1234
    output_dir: str = "."
    schema_version: int = SCHEMA_VERSION
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.chains_per_cell < 1 or self.burn_in < 0 or self.measure < 1:
            raise PrecondError("counts must be positive")


PRESETS = {
    "paper-4.1": ExperimentConfig(
        experiment="counterproductive", dims=(5,), chains_per_cell=100,
        burn_in=0, measure=10_000,
    ),
    "paper-4.1-small": ExperimentConfig(
        experiment="counterproductive", dims=(5,), chains_per_cell=20,
        burn_in=0, measure=5_000,
    ),
    "paper-4.2": ExperimentConfig(
        experiment="hyperbolic", dims=(2, 5, 10, 20, 100), n_multipliers=(1, 5, 20),
        chains_per_cell=15, burn_in=10_000, measure=10_000,
    ),
    "paper-4.2-small": ExperimentConfig(
        experiment="hyperbolic", dims=(2, 5, 10), n_multipliers=(5, 20),
        chains_per_cell=5, burn_in=4_000, measure=4_000,
    ),
    "paper-4.3": ExperimentConfig(
        experiment="binomial", dims=(2, 5, 10, 20), mu_list=(0.0, 5.0, 50.0, 200.0),
        chains_per_cell=15, burn_in=10_000, measure=10_000,
        extra={"short_estimate": 10_000, "long_estimate": 100_000},
    ),
    "paper-4.3-small": ExperimentConfig(
        experiment="binomial", dims=(2, 5, 10), mu_list=(0.0, 5.0),
        chains_per_cell=5, burn_in=3_000, measure=3_000,
        extra={"short_estimate": 4_000, "long_estimate": 20_000},
    ),
    "verify-bounds": ExperimentConfig(
        experiment="verify-bounds", dims=(2, 5, 10),
        extra={"n_instances": 100, "n_preconditioners": 50},
    ),
}


def derive_seed(master: int, *parts: int) -> int:
    ss = np.random.SeedSequence([int(master)] + [int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class ExperimentResult:
    experiment: str
    rows: list = field(default_factory=list)       # dict rows
    bound_rows: list = field(default_factory=list)  # BoundReport


CSV_COLUMNS = [
    "experiment", "d", "n", "mu", "arm", "chain", "seed",
    "median_ess", "acceptance", "wall_time", "ess_per_dim", "status",
]


def result_to_csv(result: ExperimentResult) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in result.rows:
        vals = []
        for col in CSV_COLUMNS:
            v = row.get(col, "")
            if isinstance(v, float):
                vals.append(repr(float(v)))
            else:
                vals.append(str(v))
        buf.write(",".join(vals) + "\n")
    return buf.getvalue()


def result_from_csv(text: str) -> ExperimentResult:
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != CSV_COLUMNS:
        raise ModelFileError("unexpected CSV header", line=1)
    rows = []
    experiment = ""
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ModelFileError(
                f"expected {len(CSV_COLUMNS)} columns, got {len(parts)}", line=k
            )
        row = dict(zip(CSV_COLUMNS, parts))
        for col in ("d", "n", "chain", "seed"):
            row[col] = int(row[col]) if row[col] else 0
        for col in ("mu", "median_ess", "acceptance", "wall_time"):
            row[col] = float(row[col]) if row[col] else math.nan
        experiment = row["experiment"]
        rows.append(row)
    return ExperimentResult(experiment=experiment, rows=rows)


def save_result(result: ExperimentResult, output_dir: str) -> tuple[Path, Path]:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{result.experiment}.csv"
    csv_path.write_text(result_to_csv(result))
    json_path = out / f"{result.experiment}_bounds.json"
    json_path.write_text(
        json.dumps([b.to_dict() for b in result.bound_rows], sort_keys=True, indent=2)
        + "\n"
    )
    return csv_path, json_path


# Bytes of chain states that one lock-step batch may hold. Chains that would
# hold more run in several batches of near-equal size.
BATCH_STATE_BYTES = 32 << 20


def _batches(n_chains: int, n_steps: int, d: int) -> list:
    """Split n_chains chains into lock-step batches within BATCH_STATE_BYTES."""
    most = max(1, BATCH_STATE_BYTES // (8 * n_steps * d))
    n_batches = -(-n_chains // most)
    size = -(-n_chains // n_batches)
    return [range(i, min(i + size, n_chains)) for i in range(0, n_chains, size)]


def _measure_row(
    experiment: str, d: int, n: int, mu: float, arm: str, chain: int, seed: int,
    trace: Optional[samplers.Trace], wall: float, status: str = "ok",
) -> dict:
    if trace is None:
        return {
            "experiment": experiment, "d": d, "n": n, "mu": mu, "arm": arm,
            "chain": chain, "seed": seed, "median_ess": math.nan,
            "acceptance": math.nan, "wall_time": wall,
            "ess_per_dim": "", "status": status,
        }
    try:
        report = diagnostics.ess_report(trace.states)
    except PrecondError:
        # a fully stuck chain carries one effective sample per dimension
        return {
            "experiment": experiment, "d": d, "n": n, "mu": mu, "arm": arm,
            "chain": chain, "seed": seed, "median_ess": 1.0,
            "acceptance": diagnostics.acceptance_rate(trace), "wall_time": wall,
            "ess_per_dim": ";".join(["1.0"] * trace.states.shape[1]),
            "status": "stuck",
        }
    return {
        "experiment": experiment, "d": d, "n": n, "mu": mu, "arm": arm,
        "chain": chain, "seed": seed, "median_ess": report.median,
        "acceptance": diagnostics.acceptance_rate(trace), "wall_time": wall,
        "ess_per_dim": ";".join(repr(float(v)) for v in report.per_dimension),
        "status": status,
    }


# -- experiment 1: counterproductive diagonal preconditioning ----------------

def run_counterproductive(config: ExperimentConfig) -> ExperimentResult:
    """RWM on the fixed 5-d Gaussian with dense, diagonal, and no preconditioning."""
    sigma = SIGMA_PI
    d = sigma.shape[0]
    target = targets.gaussian_target(np.zeros(d), sigma)
    arms = [
        preconditioners.identity_preconditioner(d, label="none"),
        preconditioners.dense_covariance_preconditioner(sigma, label="dense"),
        preconditioners.diag_covariance_preconditioner(sigma, label="diag"),
    ]
    result = ExperimentResult(experiment="counterproductive")
    kappa = conditioning.condition_number(target)
    result.bound_rows.append(
        conditioning.BoundReport(
            kind="KappaSummary",
            value=conditioning.kappa_after(target, arms[2]).value,
            inputs={"kappa": kappa.value},
            extras={"kappa_dense": conditioning.kappa_after(target, arms[1]).value},
        )
    )
    sqrt_sigma = linalg.sym_sqrt(sigma)
    sigma_step = 2.38 / math.sqrt(d)
    for arm_idx, arm in enumerate(arms):
        for batch in _batches(config.chains_per_cell, config.measure, d):
            seeds = [derive_seed(config.master_seed, 0, arm_idx, chain) for chain in batch]
            x0s = np.array([  # equilibrium starts
                sqrt_sigma @ np.random.default_rng(np.random.SeedSequence([seed, 1]))
                .standard_normal(d)
                for seed in seeds
            ])
            cfgs = [
                samplers.ChainConfig(
                    kind="RWM", step_size=sigma_step, preconditioner=arm,
                    n_steps=config.measure, seed=seed,
                )
                for seed in seeds
            ]
            t0 = time.perf_counter()
            traces = samplers.run_chains(target, cfgs, x0s)
            wall = (time.perf_counter() - t0) / len(batch)
            result.rows += [
                _measure_row("counterproductive", d, d, 0.0, arm.label, chain,
                             seed, trace, wall)
                for chain, seed, trace in zip(batch, seeds, traces)
            ]
            del traces  # free this batch's states before the next one
    return result


# -- experiment 2: hyperbolic-prior regression with MALA ----------------------

def run_hyperbolic(config: ExperimentConfig) -> ExperimentResult:
    """MALA with design, estimated-covariance, and identity preconditioning."""
    result = ExperimentResult(experiment="hyperbolic")
    for di, d in enumerate(config.dims):
        for mi, mult in enumerate(config.n_multipliers):
            n = mult * d
            data_seed = derive_seed(config.master_seed, 1, di, mi)
            x_mat, y, lam = targets.synth_regression_data(d, n, data_seed)
            target = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
            a_mat = x_mat.T @ x_mat
            beta_ls = np.linalg.solve(a_mat, x_mat.T @ y)
            design = preconditioners.additive_base_preconditioner(a_mat, label="design")
            identity = preconditioners.identity_preconditioner(d, label="none")
            sig_d = float(np.linalg.eigvalsh(a_mat)[0])
            result.bound_rows.append(
                conditioning.BoundReport(
                    kind="KappaSummary",
                    value=1.0 + lam / sig_d,  # kappa_L for L = A^{1/2}
                    inputs={"d": d, "n": n,
                            "kappa": conditioning.condition_number(target).value},
                )
            )
            step0 = d ** (-1.0 / 6.0)
            arm_rows = []
            for arm_idx, (label, base_precond) in enumerate(
                [("design", design), ("covariance", None), ("none", identity)]
            ):
                burn_precond = base_precond if base_precond is not None else identity
                rows = []
                for batch in _batches(config.chains_per_cell,
                                      max(config.burn_in, config.measure), d):
                    seeds = {chain: derive_seed(config.master_seed, 1, di, mi, arm_idx, chain)
                             for chain in batch}
                    burn_cfgs = [
                        samplers.ChainConfig(
                            kind="MALA", step_size=step0, preconditioner=burn_precond,
                            n_steps=config.burn_in, seed=derive_seed(seed, 0),
                            adapt=samplers.AdaptConfig(target_rate=0.574),
                        )
                        for seed in seeds.values()
                    ]
                    t0 = time.perf_counter()
                    burn = dict(zip(batch, samplers.run_chains(
                        target, burn_cfgs, np.tile(beta_ls, (len(batch), 1)))))
                    precond_of = {}
                    for chain, trace in burn.items():
                        if base_precond is not None:
                            precond_of[chain] = base_precond
                            continue
                        try:
                            sigma_hat = preconditioners.sample_covariance(trace.states)
                            precond_of[chain] = preconditioners.dense_covariance_preconditioner(
                                sigma_hat, label="covariance"
                            )
                        except (DefinitenessError, np.linalg.LinAlgError):
                            pass  # the chain's row is marked failed
                    run_cfgs = [
                        samplers.ChainConfig(
                            kind="MALA", step_size=step0, preconditioner=precond,
                            n_steps=config.measure, seed=derive_seed(seeds[chain], 1),
                        )
                        for chain, precond in precond_of.items()
                    ]
                    starts = np.array([burn[chain].states[-1] for chain in precond_of])
                    del burn
                    traces = dict(zip(precond_of, samplers.run_chains(
                        target, run_cfgs, starts))) if run_cfgs else {}
                    wall = (time.perf_counter() - t0) / len(batch)
                    rows += [
                        _measure_row(
                            "hyperbolic", d, n, 0.0, label, chain, seeds[chain],
                            traces.get(chain), wall,
                            status="ok" if chain in traces else "failed",
                        )
                        for chain in batch
                    ]
                    del traces
                arm_rows.append(rows)
            for chain in range(config.chains_per_cell):  # rows in chain-major order
                result.rows += [rows[chain] for rows in arm_rows]
    return result


# -- experiment 3: binomial g-prior regression with RWM -----------------------

BINOMIAL_LAMBDA = 0.01


def run_binomial(config: ExperimentConfig) -> ExperimentResult:
    """RWM with the seven preconditioning arms on the binomial g-prior model."""
    result = ExperimentResult(experiment="binomial")
    short_n = int(config.extra.get("short_estimate", 4_000))
    long_n = int(config.extra.get("long_estimate", 20_000))
    for di, d in enumerate(config.dims):
        for mi, mu in enumerate(config.mu_list):
            n = 5 * d
            data_seed = derive_seed(config.master_seed, 2, di, mi)
            x_mat, y, w = targets.synth_binomial_data(d, n, mu, data_seed)
            target = targets.binomial_gprior_target(x_mat, y, w, BINOMIAL_LAMBDA / n)
            design = preconditioners.design_preconditioner(x_mat, label="design")
            beta_star = samplers.find_mode(target, design, tol=1e-8)
            mode_precond = preconditioners.hessian_at_mode_preconditioner(
                target, beta_star, label="mode"
            )
            identity = preconditioners.identity_preconditioner(d, label="none")
            init_cov_sqrt = linalg.sym_inv_sqrt(design.llt())  # (n^-1 X^T X)^{-1/2}
            step0 = 2.38 / math.sqrt(d)

            def estimate_chain(n_steps: int, precond, seed: int) -> samplers.Trace:
                cfg = samplers.ChainConfig(
                    kind="RWM", step_size=step0, preconditioner=precond,
                    n_steps=n_steps, seed=seed,
                    adapt=samplers.AdaptConfig(target_rate=0.234),
                )
                return samplers.rwm_chain(target, cfg, x0=beta_star)

            short_trace = estimate_chain(
                short_n, identity, derive_seed(config.master_seed, 2, di, mi, 8)
            )
            long_trace = estimate_chain(
                long_n, mode_precond, derive_seed(config.master_seed, 2, di, mi, 9)
            )

            arms: list[tuple[str, Optional[preconditioners.Preconditioner]]] = []
            for label, states in (
                ("covariance-short", short_trace.states),
                ("covariance-long", long_trace.states),
            ):
                try:
                    arms.append((label, preconditioners.dense_covariance_preconditioner(
                        preconditioners.sample_covariance(states), label=label)))
                except DefinitenessError:
                    arms.append((label, None))
            for label, states in (
                ("fisher-short", short_trace.states[:: max(1, short_n // 2000)]),
                ("fisher-long", long_trace.states[:: max(1, long_n // 2000)]),
            ):
                try:
                    arms.append((label, preconditioners.fisher_preconditioner(
                        target.gradient(states), label=label)))
                except (DefinitenessError, PrecondError):
                    arms.append((label, None))
            arms += [("mode", mode_precond), ("none", identity), ("design", design)]

            kappa = conditioning.condition_number(target)
            dal = conditioning.mult_dalalyan(target)
            mode_bound = conditioning.mult_mode_bound(target, beta_star)
            result.bound_rows.append(conditioning.BoundReport(
                kind="KappaSummary",
                value=dal.extras["corollary_value"],
                inputs={"d": d, "mu": mu, "kappa": kappa.value},
                extras={"mode_bound": mode_bound.value},
            ))

            # Every chain of every arm of the cell runs in one lock-step batch
            # per phase. Rows stay in arm-major order; an arm without a
            # preconditioner keeps its failed rows in place.
            slots = [
                (label, precond, chain,
                 derive_seed(config.master_seed, 2, di, mi, arm_idx, chain))
                for arm_idx, (label, precond) in enumerate(arms)
                for chain in range(config.chains_per_cell)
            ]
            rows = [
                None if precond is not None else _measure_row(
                    "binomial", d, n, mu, label, chain, seed, None, 0.0, status="failed")
                for label, precond, chain, seed in slots
            ]
            live = [k for k, row in enumerate(rows) if row is None]
            for batch in _batches(len(live), max(config.burn_in, config.measure), d):
                picked = [slots[live[j]] for j in batch]
                x0s = np.array([
                    beta_star + init_cov_sqrt @ np.random.default_rng(
                        np.random.SeedSequence([seed, 3])
                    ).standard_normal(d)
                    for _, _, _, seed in picked
                ])
                burn_cfgs = [
                    samplers.ChainConfig(
                        kind="RWM", step_size=step0, preconditioner=precond,
                        n_steps=config.burn_in, seed=derive_seed(seed, 0),
                        adapt=samplers.AdaptConfig(target_rate=0.234),
                    )
                    for _, precond, _, seed in picked
                ]
                t0 = time.perf_counter()
                burn = samplers.run_chains(target, burn_cfgs, x0s)
                run_cfgs = [
                    samplers.ChainConfig(
                        kind="RWM", step_size=b.final_step_size,
                        preconditioner=precond,
                        n_steps=config.measure, seed=derive_seed(seed, 1),
                    )
                    for (_, precond, _, seed), b in zip(picked, burn)
                ]
                starts = np.array([b.states[-1] for b in burn])
                del burn
                traces = samplers.run_chains(target, run_cfgs, starts)
                wall = (time.perf_counter() - t0) / len(batch)
                for j, (label, _, chain, seed), trace in zip(batch, picked, traces):
                    rows[live[j]] = _measure_row(
                        "binomial", d, n, mu, label, chain, seed, trace, wall)
                del traces
            result.rows += rows
    return result


# -- bound verification sweep -------------------------------------------------

def run_verify_bounds(config: ExperimentConfig) -> ExperimentResult:
    """Measured-constant soundness sweep across randomized instances."""
    result = ExperimentResult(experiment="verify-bounds")
    n_instances = int(config.extra.get("n_instances", 100))
    n_l = int(config.extra.get("n_preconditioners", 50))

    # hyperbolic instances against Theorems 1-3
    for k in range(n_instances):
        seed = derive_seed(config.master_seed, 3, k)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        d = int(rng.integers(2, 11))
        n = int(rng.integers(d, 4 * d + 1))
        x_mat, y, lam = targets.synth_regression_data(d, max(n, d), seed)
        target = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
        precond = preconditioners.additive_base_preconditioner(x_mat.T @ x_mat)
        probes = conditioning.default_probes(target, precond, seed=seed,
                                             n_chain=32, n_local=32)
        eps_norm = conditioning.measure_eps_norm(target, precond, probes)
        kappa_l = conditioning.kappa_after(target, precond).value
        rep3 = conditioning.bound_thm3(
            eps_norm, math.sqrt(precond.sigma_sq[0]), target.envelope.m
        )
        row = {
            "experiment": "verify-bounds", "d": d, "n": n, "mu": 0.0,
            "arm": "hyperbolic-thm3", "chain": k, "seed": seed,
            "median_ess": kappa_l, "acceptance": rep3.value,
            "wall_time": 0.0, "ess_per_dim": "",
            "status": "pass" if kappa_l <= rep3.value * (1 + 1e-8) else "fail",
        }
        result.rows.append(row)
        result.bound_rows.append(rep3)

    # binomial instances against the multiplicative-structure propositions
    for k in range(n_instances):
        seed = derive_seed(config.master_seed, 4, k)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
        d = int(rng.integers(2, 8))
        n = 5 * d
        x_mat, y, w = targets.synth_binomial_data(d, n, float(rng.uniform(0, 3)), seed)
        target = targets.binomial_gprior_target(x_mat, y, w, BINOMIAL_LAMBDA / n)
        sandwich = conditioning.mult_kappa_bounds(target)
        kappa = conditioning.condition_number(target).value
        dal = conditioning.mult_dalalyan(target)
        design = preconditioners.design_preconditioner(x_mat)
        kappa_design = conditioning.kappa_after(target, design).value
        ok = (
            sandwich.lower <= kappa * (1 + 1e-8)
            and kappa_design <= dal.extras["corollary_value"] * (1 + 1e-6)
        )
        result.rows.append({
            "experiment": "verify-bounds", "d": d, "n": n, "mu": 0.0,
            "arm": "binomial-mult", "chain": k, "seed": seed,
            "median_ess": kappa_design, "acceptance": dal.extras["corollary_value"],
            "wall_time": 0.0, "ess_per_dim": "",
            "status": "pass" if ok else "fail",
        })
        result.bound_rows += [sandwich, dal]

    # cosine hard target against the lower bound
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, 6]))
    target = targets.cosine_hard_target(1.0, 4.0)
    for k in range(n_l):
        raw = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
        if abs(np.linalg.det(raw)) < 1e-3:
            raw += np.eye(2)
        precond = preconditioners.from_matrix(raw, label=f"random-{k}")
        kappa_l = conditioning.kappa_after(target, precond).value
        floor = conditioning.hard_target_lower(precond, 1.0, 4.0)
        result.rows.append({
            "experiment": "verify-bounds", "d": 2, "n": 0, "mu": 0.0,
            "arm": "cosine-floor", "chain": k, "seed": 0,
            "median_ess": kappa_l, "acceptance": floor.value,
            "wall_time": 0.0, "ess_per_dim": "",
            "status": "pass" if kappa_l >= floor.value * (1 - 1e-8) else "fail",
        })
        result.bound_rows.append(floor)
    return result


# -- model files and analyze ---------------------------------------------------

def _parse_matrix(lines: list[str], start: int, n_rows: int) -> tuple[np.ndarray, int]:
    rows = []
    idx = start
    for _ in range(n_rows):
        if idx >= len(lines):
            raise ModelFileError("unexpected end of matrix block", line=idx + 1)
        try:
            rows.append([float(v) for v in lines[idx].split(",")])
        except ValueError as exc:
            raise ModelFileError(f"bad matrix entry: {exc}", line=idx + 1) from exc
        idx += 1
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ModelFileError("ragged matrix block", line=start + 1)
    return np.array(rows), idx


def load_model_file(path: str) -> targets.DifferentiableTarget:
    """Parse a plain-text model file into a target.

    Format: `model: <gaussian|hyperbolic|binomial|cosine>` followed by
    `key: value` scalars, `vector <key>: v1,v2,...` lines, and
    `matrix <key> <rows>:` headers introducing row-major CSV blocks.
    """
    text = Path(path).read_text()
    lines = [ln.rstrip() for ln in text.splitlines()]
    scalars: dict[str, float] = {}
    vectors: dict[str, np.ndarray] = {}
    matrices: dict[str, np.ndarray] = {}
    model = None
    idx = 0
    while idx < len(lines):
        ln = lines[idx].strip()
        if not ln or ln.startswith("#"):
            idx += 1
            continue
        if ":" not in ln:
            raise ModelFileError(f"expected 'key: value', got {ln!r}", line=idx + 1)
        key, _, value = ln.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "model":
            model = value
            idx += 1
        elif key.startswith("matrix "):
            parts = key.split()
            if len(parts) != 3:
                raise ModelFileError("matrix header must be 'matrix <name> <rows>:'",
                                     line=idx + 1)
            name, n_rows = parts[1], int(parts[2])
            mat, idx = _parse_matrix(lines, idx + 1, n_rows)
            matrices[name] = mat
        elif key.startswith("vector "):
            name = key.split()[1]
            try:
                vectors[name] = np.array([float(v) for v in value.split(",")])
            except ValueError as exc:
                raise ModelFileError(f"bad vector entry: {exc}", line=idx + 1) from exc
            idx += 1
        else:
            try:
                scalars[key] = float(value)
            except ValueError as exc:
                raise ModelFileError(f"bad scalar {key!r}: {exc}", line=idx + 1) from exc
            idx += 1
    if model is None:
        raise ModelFileError("missing 'model:' line", line=1)
    try:
        if model == "gaussian":
            sigma = matrices["sigma"]
            mu = vectors.get("mu", np.zeros(sigma.shape[0]))
            return targets.gaussian_target(mu, sigma)
        if model == "cosine":
            return targets.cosine_hard_target(scalars["m"], scalars["M"])
        if model == "hyperbolic":
            return targets.hyperbolic_regression_target(
                matrices["X"], vectors["Y"], scalars.get("sigma2", 1.0),
                scalars["lambda"],
            )
        if model == "binomial":
            return targets.binomial_gprior_target(
                matrices["X"], vectors["Y"], vectors["w"], scalars["lambda_over_n"],
            )
    except KeyError as exc:
        raise ModelFileError(f"missing required field {exc} for model {model!r}",
                             line=1) from exc
    raise ModelFileError(f"unknown model kind {model!r}", line=1)


def analyze(
    target: targets.DifferentiableTarget,
    precond: preconditioners.Preconditioner,
    seed: int = 0,
    xi: float = 1.0,
) -> list[conditioning.BoundReport]:
    """Condition numbers, measured constants, and every applicable bound."""
    reports: list[conditioning.BoundReport] = []
    kappa = conditioning.condition_number(target)
    kappa_l = conditioning.kappa_after(target, precond)
    reports.append(conditioning.BoundReport(
        kind="KappaSummary", value=kappa_l.value,
        inputs={"kappa": kappa.value,
                "kappa_provenance": kappa.provenance,
                "kappa_l_provenance": kappa_l.provenance},
        certified=kappa.exact and kappa_l.exact,
    ))
    probes = conditioning.default_probes(target, precond, seed=seed,
                                         n_chain=64, n_local=64)
    eps_eig = conditioning.measure_eps_eigenvalue(target, precond, probes)
    eps_norm = conditioning.measure_eps_norm(target, precond, probes)
    sigmas = np.sqrt(precond.sigma_sq)
    try:
        delta = conditioning.measure_delta_eigenvector(target, precond, probes)
        reports.append(conditioning.bound_thm1(eps_eig, delta, sigmas))
    except PrecondError:
        pass
    try:
        reports.append(conditioning.bound_thm2(
            eps_norm, precond.eigengap, float(sigmas[-1]), sigmas))
    except PrecondError:
        pass
    m = target.envelope.m if target.envelope is not None else None
    if m is not None:
        reports.append(conditioning.bound_thm3(eps_norm, float(sigmas[0]), m))
        eps_prime = conditioning.measure_eps_hessian_variation(
            target, probes[:16], m)
        reports.append(conditioning.improved_gap_threshold(
            eps_prime, eps_norm, float(sigmas[0]), m, xi))
        reports.append(conditioning.rwm_gap_bounds(
            kappa.value, target.dim, xi, eps_prime, big_m=target.envelope.big_m))
    if isinstance(target.structure, targets.MultiplicativeStructure):
        reports.append(conditioning.mult_kappa_bounds(target))
        reports.append(conditioning.mult_dalalyan(target))
    if target.exact_covariance is not None:
        reports.append(conditioning.diag_dominance_bound(target.exact_covariance))
    return reports


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    runners = {
        "counterproductive": run_counterproductive,
        "hyperbolic": run_hyperbolic,
        "binomial": run_binomial,
        "verify-bounds": run_verify_bounds,
    }
    if config.experiment not in runners:
        raise PrecondError(f"unknown experiment {config.experiment!r}")
    return runners[config.experiment](config)


def _config_fields(data: dict) -> dict:
    """The ExperimentConfig fields of a JSON config, after key and schema checks."""
    if not isinstance(data, dict):
        raise PrecondError("a config must be a JSON object")
    if "schema_version" in data and int(data["schema_version"]) != SCHEMA_VERSION:
        raise PrecondError(
            f"unsupported config schema version {data['schema_version']}"
        )
    known = {
        "experiment", "dims", "n_multipliers", "mu_list", "chains_per_cell",
        "burn_in", "measure", "master_seed", "output_dir", "extra",
    }
    unknown = set(data) - known - {"schema_version"}
    if unknown:
        raise PrecondError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in data.items() if k in known}
    for key in ("dims", "n_multipliers", "mu_list"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return kwargs


def config_from_dict(data: dict) -> ExperimentConfig:
    fields = _config_fields(data)
    if "experiment" not in fields:
        raise PrecondError("a config without a preset must name its experiment")
    return ExperimentConfig(**fields)


def load_config(path: str, preset: Optional[str] = None) -> ExperimentConfig:
    """A config from a JSON file, or a preset with the file's fields overriding it."""
    if preset is None:
        return config_from_dict(json.loads(Path(path).read_text()))
    if preset not in PRESETS:
        raise PrecondError(
            f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
        )
    data = json.loads(Path(path).read_text()) if path else {}
    return replace(PRESETS[preset], **_config_fields(data))
