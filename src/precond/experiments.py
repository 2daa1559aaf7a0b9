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
from typing import NamedTuple, Optional

import numpy as np

from . import conditioning, diagnostics, linalg, preconditioners, samplers, targets
from .errors import DefinitenessError, ModelFileError, PrecondError, ZeroVarianceError

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
        # the hyperbolic covariance arm estimates from the burn-in, and the
        # binomial arms measure at its adapted step
        burn_in_min = 1 if self.experiment in ("hyperbolic", "binomial") else 0
        # a shorter measurement has no ESS
        for key, least in (("chains_per_cell", 1), ("burn_in", burn_in_min),
                           ("measure", diagnostics.MIN_ESS_POINTS)):
            value = getattr(self, key)
            if value < least:
                raise PrecondError(
                    f"config field {key!r} must be at least {least}, got {value}"
                )


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
    row = {
        "experiment": experiment, "d": d, "n": n, "mu": mu, "arm": arm,
        "chain": chain, "seed": seed, "median_ess": math.nan,
        "acceptance": math.nan, "wall_time": wall, "ess_per_dim": "",
        "status": status,
    }
    if trace is None:
        return row
    try:
        report = diagnostics.ess_report(trace.states)
        row.update(median_ess=report.median,
                   ess_per_dim=";".join(repr(float(v)) for v in report.per_dimension))
    except ZeroVarianceError:
        # a fully stuck chain carries one effective sample per dimension
        row.update(median_ess=1.0, status="stuck",
                   ess_per_dim=";".join(["1.0"] * trace.states.shape[1]))
    row["acceptance"] = diagnostics.acceptance_rate(trace)
    return row


class _Slot(NamedTuple):
    """One chain of an experiment: its row's arm, chain and seed, its start
    state, and its preconditioner (None when the arm could not build one)."""

    arm: str
    chain: int
    seed: int
    x0: np.ndarray
    precond: Optional[preconditioners.Preconditioner]


def _run_slots(
    experiment: str, target, cell: tuple, slots: list, kind: str, step: float,
    measure: int, burn_in: int = 0, rate: Optional[float] = None, after_burn=None,
) -> list:
    """One row per slot, in slot order, from chains run in lock-step batches.

    A slot without a preconditioner reads "failed" with wall time 0 and does
    not run. The others run in the batches of _batches. Without after_burn,
    each chain measures for `measure` steps from its x0 on its row's seed.
    With it, each chain first adapts its step toward acceptance `rate` for
    `burn_in` steps on derive_seed(seed, 0); after_burn(slot, burn_trace)
    then returns the (preconditioner, step) to measure with, on
    derive_seed(seed, 1) from the last burn-in state, or None to mark the
    row failed. Every row of a batch of K chains reports its wall time / K.
    """
    d, n, mu = cell
    rows = [
        None if s.precond is not None else _measure_row(
            experiment, d, n, mu, s.arm, s.chain, s.seed, None, 0.0, status="failed")
        for s in slots
    ]
    live = [k for k, row in enumerate(rows) if row is None]
    for batch in _batches(len(live), max(burn_in, measure), d):
        picked = [slots[live[j]] for j in batch]
        starts = np.array([s.x0 for s in picked])
        t0 = time.perf_counter()
        if after_burn is None:
            plans = [(s.precond, step) for s in picked]
            seeds = [s.seed for s in picked]
        else:
            burn = samplers.run_chains(target, [
                samplers.ChainConfig(
                    kind=kind, step_size=step, preconditioner=s.precond,
                    n_steps=burn_in, seed=derive_seed(s.seed, 0),
                    adapt=samplers.AdaptConfig(target_rate=rate),
                )
                for s in picked
            ], starts)
            plans = [after_burn(s, b) for s, b in zip(picked, burn)]
            seeds = [derive_seed(s.seed, 1) for s in picked]
            starts = np.array([b.states[-1] for b in burn])
            del burn
        runs = [j for j, plan in enumerate(plans) if plan is not None]
        traces = dict(zip(runs, samplers.run_chains(target, [
            samplers.ChainConfig(kind=kind, step_size=plans[j][1],
                                 preconditioner=plans[j][0], n_steps=measure,
                                 seed=seeds[j])
            for j in runs
        ], starts[runs]))) if runs else {}
        wall = (time.perf_counter() - t0) / len(batch)
        for j, s in enumerate(picked):
            rows[live[batch[j]]] = _measure_row(
                experiment, d, n, mu, s.arm, s.chain, s.seed, traces.get(j), wall,
                status="ok" if j in traces else "failed")
        del traces  # free this batch's states before the next one
    return rows


# -- experiment 1: counterproductive diagonal preconditioning ----------------

def run_counterproductive(config: ExperimentConfig) -> ExperimentResult:
    """RWM on the fixed 5-d Gaussian with dense, diagonal, and no preconditioning.

    Every chain of every arm starts at equilibrium and runs without burn-in,
    in one batch per cell (or several of near-equal size, which may mix
    arms); rows stay in arm-major order.
    """
    sigma = SIGMA_PI
    d = sigma.shape[0]
    target = targets.gaussian_target(np.zeros(d), sigma)
    arms = [
        preconditioners.identity_preconditioner(d, label="none"),
        preconditioners.dense_covariance_preconditioner(sigma, label="dense"),
        preconditioners.diag_covariance_preconditioner(sigma, label="diag"),
    ]
    result = ExperimentResult(experiment="counterproductive")
    result.bound_rows.append(
        conditioning.BoundReport(
            kind="KappaSummary",
            value=conditioning.kappa_after(target, arms[2]),
            inputs={"kappa": conditioning.condition_number(target)},
            extras={"kappa_dense": conditioning.kappa_after(target, arms[1])},
        )
    )
    sqrt_sigma = linalg.sym_sqrt(sigma)
    slots = []
    for arm_idx, arm in enumerate(arms):
        for chain in range(config.chains_per_cell):
            seed = derive_seed(config.master_seed, 0, arm_idx, chain)
            x0 = sqrt_sigma @ np.random.default_rng(
                np.random.SeedSequence([seed, 1])).standard_normal(d)
            slots.append(_Slot(arm.label, chain, seed, x0, arm))
    result.rows = _run_slots("counterproductive", target, (d, d, 0.0), slots,
                             "RWM", 2.38 / math.sqrt(d), config.measure)
    return result


# -- experiment 2: hyperbolic-prior regression with MALA ----------------------

def run_hyperbolic(config: ExperimentConfig) -> ExperimentResult:
    """MALA with design, estimated-covariance, and identity preconditioning.

    Each chain adapts its step in burn-in and measures at the fixed d^(-1/6);
    the covariance arm burns in without preconditioning and measures with
    the covariance of its own burn-in states. Rows are in chain-major order.
    """
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
                            "kappa": conditioning.condition_number(target)},
                )
            )
            step0 = d ** (-1.0 / 6.0)

            def after_burn(slot: _Slot, burn: samplers.Trace):
                if slot.arm != "covariance":
                    return slot.precond, step0
                try:
                    return preconditioners.dense_covariance_preconditioner(
                        preconditioners.sample_covariance(burn.states), label="covariance"
                    ), step0
                except (DefinitenessError, np.linalg.LinAlgError):
                    return None

            # One batch per arm: a batch that mixed in the never-moving
            # fixed-step "none" chains would round them differently, and
            # some rows of that arm would turn from ok to stuck.
            arm_rows = [
                _run_slots("hyperbolic", target, (d, n, 0.0), [
                    _Slot(label, chain,
                          derive_seed(config.master_seed, 1, di, mi, arm_idx, chain),
                          beta_ls, precond)
                    for chain in range(config.chains_per_cell)
                ], "MALA", step0, config.measure, config.burn_in, 0.574, after_burn)
                for arm_idx, (label, precond) in enumerate(
                    [("design", design), ("covariance", identity), ("none", identity)])
            ]
            for chain in range(config.chains_per_cell):  # rows in chain-major order
                result.rows += [rows[chain] for rows in arm_rows]
    return result


# -- experiment 3: binomial g-prior regression with RWM -----------------------

BINOMIAL_LAMBDA = 0.01


def run_binomial(config: ExperimentConfig) -> ExperimentResult:
    """RWM with the seven preconditioning arms on the binomial g-prior model.

    Each chain adapts its step in burn-in and measures at the adapted step.
    All seven arms of a cell run in one batch; rows are in arm-major order.
    """
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
            init_cov_sqrt = design.inv  # (n^-1 X^T X)^{-1/2}
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

            dal = conditioning.mult_dalalyan(target)
            mode_bound = conditioning.mult_mode_bound(target, beta_star)
            result.bound_rows.append(conditioning.BoundReport(
                kind="KappaSummary",
                value=dal.extras["corollary_value"],
                inputs={"d": d, "mu": mu,
                        "kappa": conditioning.condition_number(target)},
                extras={"mode_bound": mode_bound.value},
            ))

            slots = []
            for arm_idx, (label, precond) in enumerate(arms):
                for chain in range(config.chains_per_cell):
                    seed = derive_seed(config.master_seed, 2, di, mi, arm_idx, chain)
                    x0 = beta_star + init_cov_sqrt @ np.random.default_rng(
                        np.random.SeedSequence([seed, 3])).standard_normal(d)
                    slots.append(_Slot(label, chain, seed, x0, precond))
            result.rows += _run_slots(
                "binomial", target, (d, n, mu), slots, "RWM", step0, config.measure,
                config.burn_in, 0.234,
                lambda slot, burn: (slot.precond, burn.final_step_size),
            )
    return result


# -- bound verification sweep -------------------------------------------------

def _bound_row(d: int, n: int, arm: str, chain: int, seed: int,
               value: float, bound: float, ok: bool) -> dict:
    """A sweep row: the checked value as median_ess, its bound as acceptance."""
    row = _measure_row("verify-bounds", d, n, 0.0, arm, chain, seed, None, 0.0,
                       "pass" if ok else "fail")
    return row | {"median_ess": value, "acceptance": bound}


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
        eps_norm = conditioning.measure_eps_norm(
            conditioning.hessian_stack(target, probes), precond)
        kappa_l = conditioning.kappa_after(target, precond)
        rep3 = conditioning.bound_thm3(
            eps_norm, math.sqrt(precond.sigma_sq[0]), target.envelope.m
        )
        result.rows.append(_bound_row(d, n, "hyperbolic-thm3", k, seed, kappa_l,
                                      rep3.value, kappa_l <= rep3.value * (1 + 1e-8)))
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
        kappa = conditioning.condition_number(target)
        dal = conditioning.mult_dalalyan(target)
        design = preconditioners.design_preconditioner(x_mat)
        kappa_design = conditioning.kappa_after(target, design)
        ok = (
            sandwich.lower <= kappa * (1 + 1e-8)
            and dal.lower <= kappa_design * (1 + 1e-8)
            and kappa_design <= dal.extras["corollary_value"] * (1 + 1e-6)
        )
        result.rows.append(_bound_row(d, n, "binomial-mult", k, seed, kappa_design,
                                      dal.extras["corollary_value"], ok))
        result.bound_rows += [sandwich, dal]

    # cosine hard target against the lower bound
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, 6]))
    target = targets.cosine_hard_target(1.0, 4.0)
    for k in range(n_l):
        raw = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
        if abs(np.linalg.det(raw)) < 1e-3:
            raw += np.eye(2)
        precond = preconditioners.from_matrix(raw, label=f"random-{k}")
        kappa_l = conditioning.kappa_after(target, precond)
        floor = conditioning.hard_target_lower(precond, 1.0, 4.0)
        result.rows.append(_bound_row(2, 0, "cosine-floor", k, 0, kappa_l, floor.value,
                                      kappa_l >= floor.value * (1 - 1e-8)))
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
            name, count = parts[1], parts[2]
            if not count.isdecimal() or int(count) < 1:
                raise ModelFileError(
                    f"matrix row count must be a positive integer, got {count!r}",
                    line=idx + 1)
            mat, idx = _parse_matrix(lines, idx + 1, int(count))
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
    reports = [conditioning.BoundReport(
        kind="KappaSummary", value=conditioning.kappa_after(target, precond),
        inputs={"kappa": conditioning.condition_number(target)},
    )]
    probes = conditioning.default_probes(target, precond, seed=seed,
                                         n_chain=64, n_local=64)
    # one Hessian per probe, shared by every measured constant
    hs = conditioning.hessian_stack(target, probes)
    eps_eig = conditioning.measure_eps_eigenvalue(hs, precond)
    eps_norm = conditioning.measure_eps_norm(hs, precond)
    sigmas = np.sqrt(precond.sigma_sq)
    try:
        delta = conditioning.measure_delta_eigenvector(hs, precond)
        reports.append(conditioning.bound_thm1(eps_eig, delta, sigmas))
    except PrecondError:
        pass
    try:
        reports.append(conditioning.bound_thm2(
            eps_norm, precond.eigengap, float(sigmas[-1]), sigmas))
    except PrecondError:
        pass
    env = target.envelope
    if env is not None:
        reports.append(conditioning.bound_thm3(eps_norm, float(sigmas[0]), env.m))
        eps_prime = conditioning.measure_eps_hessian_variation(hs[:16], env.m)
        reports.append(conditioning.improved_gap_threshold(
            eps_prime, eps_norm, float(sigmas[0]), env.m, xi))
        # the sandwich holds at proposal variance xi / (M d) with kappa = M/m,
        # the kappa of KappaSummary
        reports.append(conditioning.rwm_gap_bounds(
            env.kappa, target.dim, xi, eps_prime, big_m=env.big_m))
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) or isinstance(x, float) for x in v)


# The fields of a JSON config: the check each value must pass, and its wording.
_CONFIG_FIELDS = {
    "experiment": (lambda v: isinstance(v, str), "a string"),
    "dims": (lambda v: isinstance(v, list) and all(_is_int(x) and x > 0 for x in v),
             "a list of positive integers"),
    "n_multipliers": (_is_number_list, "a list of numbers"),
    "mu_list": (_is_number_list, "a list of numbers"),
    "chains_per_cell": (_is_int, "an integer"),
    "burn_in": (_is_int, "an integer"),
    "measure": (_is_int, "an integer"),
    "master_seed": (_is_int, "an integer"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
    "extra": (lambda v: isinstance(v, dict), "an object"),
}


def _config_fields(data: dict) -> dict:
    """The ExperimentConfig fields of a JSON config, after key, type and schema checks."""
    if not isinstance(data, dict):
        raise PrecondError("a config must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if not (_is_int(version) and version == SCHEMA_VERSION):
        raise PrecondError(f"unsupported config schema version {version!r}")
    unknown = set(data) - set(_CONFIG_FIELDS) - {"schema_version"}
    if unknown:
        raise PrecondError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in data.items() if k in _CONFIG_FIELDS}
    for key, value in kwargs.items():
        check, want = _CONFIG_FIELDS[key]
        if not check(value):
            raise PrecondError(f"config field {key!r} must be {want}, got {value!r}")
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
