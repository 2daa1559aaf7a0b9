"""The four benchmark workloads: their inputs, their CLI calls and their sizes.

Every workload writes its inputs (JSON configs, model files, preconditioner
CSVs) from the seed, parses them back through the program's public readers,
and then runs one round: a fixed list of ``precond.cli.main`` calls. A run
repeats the same round, on the same inputs, until its time is up.

Inputs that carry a failure the program cannot avoid today are fixed and do
not depend on the seed, so that every round of every run fails the same
operations (see README.md, "Failed operations").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from precond import experiments, preconditioners

# Master seed of the hyperbolic-mala experiment. Its no-preconditioning
# chains get stuck on some seeds and not on others, so the whole experiment
# runs from this one seed (README.md, "Failed operations").
HYPERBOLIC_MASTER_SEED = 4242
# Data seed and probe seed of the binomial model analysed by `certify`, whose
# gap certificates fail on every input of this kind.
BINOMIAL_MODEL_SEED = 2718
# Master seeds of the two parts of the `certify` sweep: its hyperbolic and
# binomial instances, and its cosine preconditioners. Whether a row of either
# part fails comes and goes with the seed (faults (f) and (g) in README.md),
# so each part runs from one seed, on which its fault shows in every round.
INSTANCE_MASTER_SEED = 287
COSINE_MASTER_SEED = 47
BINOMIAL_MODEL_SHAPE = (10, 50, 5.0)  # d, n, mu

# Sizes per scale. "full" is what a timed run repeats; "smoke" is a toy size
# that runs every workload and its checks in seconds.
SIZES = {
    "full": {
        "gauss-rwm": {"chains": 6, "measure": 5_000},
        "hyperbolic-mala": {"dims": [2, 5, 10], "mults": [5], "chains": 1,
                            "burn": 1_000, "measure": 1_000},
        "binomial-rwm": {"dims": [2, 5], "mus": [0.0, 5.0], "chains": 1,
                         "burn": 1_000, "measure": 1_000,
                         "short": 1_000, "long": 2_000},
        "certify": {"instances": 10, "cosine": 5, "hyperbolic": (8, 40)},
    },
    "smoke": {
        "gauss-rwm": {"chains": 2, "measure": 2_000},
        "hyperbolic-mala": {"dims": [2, 10], "mults": [5], "chains": 1,
                            "burn": 300, "measure": 300},
        "binomial-rwm": {"dims": [2], "mus": [0.0], "chains": 1,
                         "burn": 300, "measure": 300,
                         "short": 300, "long": 600},
        "certify": {"instances": 2, "cosine": 3, "hyperbolic": (4, 20)},
    },
}

NAMES = tuple(SIZES["full"])


@dataclass
class Inputs:
    """What a workload's round needs: the CLI calls and the data to check against."""

    name: str
    calls: list            # argv lists for precond.cli.main
    config: dict           # config as written; certify: sweep name -> config
    models: dict           # certify: model name -> arrays the model file holds


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def _vector(name: str, v: np.ndarray) -> str:
    return f"vector {name}: " + ",".join(repr(float(x)) for x in v)


def _matrix(name: str, m: np.ndarray) -> list:
    rows = [",".join(repr(float(x)) for x in row) for row in m]
    return [f"matrix {name} {m.shape[0]}:"] + rows


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    r = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (r + r.T)


def _write_precond(path: Path, label: str, l: np.ndarray) -> None:
    rows = [",".join(repr(float(x)) for x in row) for row in l]
    path.write_text(f"{label},{l.shape[0]}\n" + "\n".join(rows) + "\n")


def _regression_data(rng: np.random.Generator, d: int, n: int):
    """Hyperbolic-prior regression data: X, Y = X beta0 + noise, lambda = sqrt(n)/d."""
    x = rng.standard_normal((n, d))
    beta0 = rng.standard_normal(d)
    y = x @ beta0 + rng.standard_normal(n)
    return x, y, float(np.sqrt(n) / d)


def _binomial_data(rng: np.random.Generator, d: int, n: int, mu: float):
    """Binomial g-prior data as in the paper's section 4.3: weights w_i = i^2."""
    x = rng.standard_normal((n, d)) + mu
    beta0 = rng.standard_normal(d)
    w = np.arange(1, n + 1, dtype=float) ** 2
    p = 1.0 / (1.0 + np.exp(-(x @ beta0)))
    y = rng.binomial(w.astype(np.int64), p) / w
    return x, y, w


def _experiment(name: str, indir: Path, outdir: Path, config: dict) -> Inputs:
    path = indir / f"{name}.json"
    _write_json(path, config)
    experiments.load_config(str(path))  # parse through the program's reader
    argv = ["experiment", "--config", str(path), "--out", str(outdir)]
    return Inputs(name=name, calls=[argv], config=config, models={})


def _certify(seed: int, size: dict, indir: Path, outdir: Path) -> Inputs:
    sweeps = {
        "verify-bounds": {"master_seed": INSTANCE_MASTER_SEED,
                          "extra": {"n_instances": size["instances"],
                                    "n_preconditioners": 0}},
        "verify-bounds-cosine": {"master_seed": COSINE_MASTER_SEED,
                                 "extra": {"n_instances": 0,
                                           "n_preconditioners": size["cosine"]}},
    }
    calls = []
    for sweep, config in sweeps.items():
        path = indir / f"{sweep}.json"
        _write_json(path, config)
        experiments.load_config(str(path), preset="verify-bounds")
        calls.append(["verify-bounds", "--config", str(path), "--out",
                      str(outdir / sweep)])

    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    sigma = experiments.SIGMA_PI
    hd, hn = size["hyperbolic"]
    hx, hy, lam = _regression_data(rng, hd, hn)
    d, n, mu = BINOMIAL_MODEL_SHAPE
    lambda_over_n = experiments.BINOMIAL_LAMBDA / n
    bx, by, bw = _binomial_data(
        np.random.default_rng(BINOMIAL_MODEL_SEED), d, n, mu)
    models = {
        "gaussian": {"sigma": sigma,
                     "L": np.diag(1.0 / np.sqrt(np.diag(sigma))),
                     "seed": seed},
        "hyperbolic": {"X": hx, "Y": hy, "lambda": lam,
                       "L": sym_sqrt(hx.T @ hx), "seed": seed},
        "binomial": {"X": bx, "Y": by, "w": bw, "lambda_over_n": lambda_over_n,
                     "L": sym_sqrt(bx.T @ bx / n), "seed": BINOMIAL_MODEL_SEED},
    }
    texts = {
        "gaussian": ["model: gaussian"] + _matrix("sigma", sigma),
        "hyperbolic": ["model: hyperbolic"] + _matrix("X", hx)
        + [_vector("Y", hy), f"lambda: {lam!r}"],
        "binomial": ["model: binomial"] + _matrix("X", bx)
        + [_vector("Y", by), _vector("w", bw), f"lambda_over_n: {lambda_over_n!r}"],
    }
    labels = {"gaussian": "diag", "hyperbolic": "design", "binomial": "design"}
    for model, lines in texts.items():
        model_path = indir / f"{model}.txt"
        l_path = indir / f"{model}_L.csv"
        model_path.write_text("\n".join(lines) + "\n")
        _write_precond(l_path, labels[model], models[model]["L"])
        experiments.load_model_file(str(model_path))
        preconditioners.from_csv(l_path.read_text())
        calls.append(["analyze", "--config", str(model_path),
                      "--preconditioner", str(l_path),
                      "--seed", str(models[model]["seed"]),
                      "--out", str(outdir / model)])
    return Inputs(name="certify", calls=calls, config=sweeps, models=models)


def prepare(name: str, seed: int, scale: str, indir: Path, outdir: Path) -> Inputs:
    """Write the workload's inputs from the seed, parse them, and return the round."""
    size = SIZES[scale][name]
    indir.mkdir(parents=True, exist_ok=True)
    if name == "gauss-rwm":
        return _experiment(name, indir, outdir, {
            "experiment": "counterproductive", "dims": [5],
            "chains_per_cell": size["chains"], "burn_in": 0,
            "measure": size["measure"], "master_seed": seed,
        })
    if name == "hyperbolic-mala":
        return _experiment(name, indir, outdir, {
            "experiment": "hyperbolic", "dims": size["dims"],
            "n_multipliers": size["mults"], "chains_per_cell": size["chains"],
            "burn_in": size["burn"], "measure": size["measure"],
            "master_seed": HYPERBOLIC_MASTER_SEED,
        })
    if name == "binomial-rwm":
        return _experiment(name, indir, outdir, {
            "experiment": "binomial", "dims": size["dims"],
            "mu_list": size["mus"], "chains_per_cell": size["chains"],
            "burn_in": size["burn"], "measure": size["measure"],
            "master_seed": seed,
            "extra": {"short_estimate": size["short"],
                      "long_estimate": size["long"]},
        })
    if name == "certify":
        return _certify(seed, size, indir, outdir)
    raise ValueError(f"unknown workload {name!r}")
