import json
import math
from dataclasses import replace

import numpy as np
import pytest

from precond import (
    cli, conditioning, diagnostics, experiments, linalg, preconditioners, samplers, targets,
)
from precond.errors import DefinitenessError, ModelFileError, PrecondError, ZeroVarianceError
from precond.experiments import (
    ExperimentConfig,
    ExperimentResult,
    PRESETS,
    config_from_dict,
    derive_seed,
    load_model_file,
    result_from_csv,
    result_to_csv,
    run_experiment,
    save_result,
)

from test_fixtures import SIGMA_PI_FIXTURE


TINY = ExperimentConfig(
    experiment="counterproductive", dims=(5,), chains_per_cell=2,
    burn_in=0, measure=300, master_seed=77,
)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 0) != derive_seed(2, 0)


def test_presets_exist_and_validate():
    for name, cfg in PRESETS.items():
        assert cfg.experiment in (
            "counterproductive", "hyperbolic", "binomial", "verify-bounds"
        )
        assert cfg.chains_per_cell >= 1
    assert PRESETS["paper-4.1"].chains_per_cell == 100
    assert PRESETS["paper-4.2"].dims == (2, 5, 10, 20, 100)
    assert PRESETS["paper-4.3"].mu_list == (0.0, 5.0, 50.0, 200.0)


def test_config_schema_and_unknown_keys():
    cfg = config_from_dict({"experiment": "binomial", "dims": [2, 3]})
    assert cfg.dims == (2, 3)
    with pytest.raises(PrecondError):
        config_from_dict({"experiment": "binomial", "bogus_key": 1})
    with pytest.raises(PrecondError):
        config_from_dict({"experiment": "binomial", "schema_version": 99})
    with pytest.raises(PrecondError):
        ExperimentConfig(experiment="binomial", chains_per_cell=0)


def test_run_experiment_unknown_name():
    with pytest.raises(PrecondError):
        run_experiment(ExperimentConfig(experiment="nonsense"))


def _strip_wall_time(result):
    return [
        {k: v for k, v in row.items() if k != "wall_time"} for row in result.rows
    ]


def test_counterproductive_rows_and_determinism():
    a = run_experiment(TINY)
    b = run_experiment(TINY)
    assert _strip_wall_time(a) == _strip_wall_time(b)
    assert len(a.rows) == 3 * TINY.chains_per_cell  # three arms
    arms = {row["arm"] for row in a.rows}
    assert arms == {"none", "dense", "diag"}
    summary = a.bound_rows[0]
    assert round(summary.inputs["kappa"], -2) == 4400.0
    assert round(summary.value, -2) == 8100.0  # diagonal arm kappa_L
    assert summary.extras["kappa_dense"] == pytest.approx(1.0, rel=1e-9)


def test_csv_roundtrip_lossless():
    result = run_experiment(TINY)
    text = result_to_csv(result)
    back = result_from_csv(text)
    assert back.experiment == "counterproductive"
    assert len(back.rows) == len(result.rows)
    for orig, parsed in zip(result.rows, back.rows):
        assert parsed["arm"] == orig["arm"]
        assert parsed["seed"] == orig["seed"]
        assert parsed["median_ess"] == pytest.approx(orig["median_ess"], rel=1e-15)
    assert result_to_csv(back) == text


def test_result_from_csv_errors():
    with pytest.raises(ModelFileError):
        result_from_csv("wrong,header\n")
    good = result_to_csv(run_experiment(TINY))
    broken = good.splitlines()
    broken[1] = broken[1] + ",extra"
    with pytest.raises(ModelFileError) as err:
        result_from_csv("\n".join(broken))
    assert err.value.line == 2


def test_save_result_writes_sidecar(tmp_path):
    result = run_experiment(TINY)
    csv_path, json_path = save_result(result, str(tmp_path))
    assert csv_path.read_text() == result_to_csv(result)
    bounds = json.loads(json_path.read_text())
    assert bounds[0]["kind"] == "KappaSummary"


def test_hyperbolic_tiny_run():
    cfg = ExperimentConfig(
        experiment="hyperbolic", dims=(2,), n_multipliers=(5,),
        chains_per_cell=2, burn_in=300, measure=300, master_seed=5,
    )
    result = run_experiment(cfg)
    assert len(result.rows) == 2 * 3  # chains x arms
    assert {row["arm"] for row in result.rows} == {"design", "covariance", "none"}
    for row in result.rows:
        assert row["status"] in ("ok", "stuck", "failed")
    summary = result.bound_rows[0]
    assert summary.value >= 1.0  # kappa_L for the design preconditioner


def test_binomial_tiny_run():
    cfg = ExperimentConfig(
        experiment="binomial", dims=(2,), mu_list=(0.0,),
        chains_per_cell=1, burn_in=300, measure=300, master_seed=6,
        extra={"short_estimate": 400, "long_estimate": 800},
    )
    result = run_experiment(cfg)
    labels = {row["arm"] for row in result.rows}
    assert labels == {
        "covariance-short", "covariance-long", "fisher-short", "fisher-long",
        "mode", "none", "design",
    }
    summary = result.bound_rows[0]
    assert summary.value > 1.0  # C/c corollary value
    assert summary.extras["mode_bound"] > 1.0


def test_verify_bounds_smoke_all_pass():
    cfg = ExperimentConfig(
        experiment="verify-bounds", master_seed=11,
        extra={"n_instances": 5, "n_preconditioners": 10},
    )
    result = run_experiment(cfg)
    assert len(result.rows) == 5 + 5 + 10
    assert all(row["status"] == "pass" for row in result.rows)


def test_verify_bounds_checks_the_prop5_lower_bound(monkeypatch):
    dalalyan = conditioning.mult_dalalyan
    monkeypatch.setattr(conditioning, "mult_dalalyan",
                        lambda target: replace(dalalyan(target), lower=1e12))
    cfg = ExperimentConfig(experiment="verify-bounds", master_seed=11,
                           extra={"n_instances": 3, "n_preconditioners": 0})
    statuses = [row["status"] for row in run_experiment(cfg).rows
                if row["arm"] == "binomial-mult"]
    assert statuses == ["fail"] * 3


def test_batches_cover_chains_within_state_budget():
    chunks = experiments._batches(100, 10_000, 5)
    assert [list(c) for c in chunks] == [list(range(50)), list(range(50, 100))]
    assert experiments._batches(20, 5_000, 5) == [range(20)]
    # a chain over the budget on its own still runs, one at a time
    assert experiments._batches(3, 10**7, 5) == [range(0, 1), range(1, 2), range(2, 3)]
    for k, n, d in [(7, 3_000, 40), (15, 10_000, 10), (1000, 100_000, 20)]:
        chunks = experiments._batches(k, n, d)
        assert [c for chunk in chunks for c in chunk] == list(range(k))
        assert max(len(c) for c in chunks) * 8 * n * d <= experiments.BATCH_STATE_BYTES


def test_split_batches_give_the_same_rows(monkeypatch):
    cfg = ExperimentConfig(experiment="counterproductive", dims=(5,),
                           chains_per_cell=5, burn_in=0, measure=400, master_seed=3)

    def rows():
        return [{k: v for k, v in row.items() if k != "wall_time"}
                for row in run_experiment(cfg).rows]

    whole = rows()
    # room for two chains' states: batches of 2, 2 and 1 chains per arm
    monkeypatch.setattr(experiments, "BATCH_STATE_BYTES", 2 * 8 * 400 * 5)
    assert rows() == whole


def test_verify_bounds_csv_roundtrip():
    # bounds computed in numpy must be written as plain numbers
    cfg = ExperimentConfig(
        experiment="verify-bounds", master_seed=11,
        extra={"n_instances": 2, "n_preconditioners": 2},
    )
    result = run_experiment(cfg)
    text = result_to_csv(result)
    assert "np." not in text
    back = result_from_csv(text)
    assert len(back.rows) == len(result.rows)
    for got, row in zip(back.rows, result.rows):
        assert got["arm"] == row["arm"] and got["status"] == row["status"]
        assert got["median_ess"] == row["median_ess"]
        assert got["acceptance"] == row["acceptance"]
    assert result_to_csv(back) == text


def test_counterproductive_kappa_dense_is_whitened(tmp_path):
    # dense whitening of a Gaussian leaves kappa_L = 1
    _, json_path = save_result(run_experiment(TINY), str(tmp_path))
    (summary,) = json.loads(json_path.read_text())
    assert summary["extras"]["kappa_dense"] == pytest.approx(1.0, rel=1e-9)


def test_verify_bounds_cosine_floor_tolerance_is_relative():
    # kappa_L about 2.9e6 meets its floor to within 5e-11 relative
    cfg = ExperimentConfig(
        experiment="verify-bounds", master_seed=47,
        extra={"n_instances": 0, "n_preconditioners": 5},
    )
    row = run_experiment(cfg).rows[2]
    assert row["arm"] == "cosine-floor"
    assert row["median_ess"] == pytest.approx(row["acceptance"], rel=1e-9)
    assert row["status"] == "pass"


BINOMIAL_TINY = ExperimentConfig(
    experiment="binomial", dims=(2,), mu_list=(0.0,),
    chains_per_cell=3, burn_in=200, measure=200, master_seed=21,
    extra={"short_estimate": 400, "long_estimate": 800},
)
BINOMIAL_ARMS = [
    "covariance-short", "covariance-long", "fisher-short", "fisher-long",
    "mode", "none", "design",
]


def test_binomial_cell_runs_as_one_batch_and_splits_alike(monkeypatch):
    whole = run_experiment(BINOMIAL_TINY).rows
    assert [(r["arm"], r["chain"]) for r in whole] == [
        (arm, chain) for arm in BINOMIAL_ARMS for chain in range(3)
    ]
    assert len({r["wall_time"] for r in whole}) == 1  # one batch for the cell
    per_chain = 8 * 200 * 2
    for chains_per_batch in (1, 3):
        monkeypatch.setattr(experiments, "BATCH_STATE_BYTES", chains_per_batch * per_chain)
        rows = run_experiment(BINOMIAL_TINY).rows
        assert len(rows) == len(whole)
        for got, want in zip(rows, whole):
            for col in ("arm", "chain", "seed", "status", "acceptance"):
                assert got[col] == want[col]
            assert got["median_ess"] == pytest.approx(want["median_ess"], rel=1e-12)


def test_binomial_failed_arms_keep_their_rows(monkeypatch):
    def no_fisher(gradients, label="fisher"):
        raise DefinitenessError("rank deficient", offending_eigenvalue=0.0)

    monkeypatch.setattr(preconditioners, "fisher_preconditioner", no_fisher)
    rows = run_experiment(BINOMIAL_TINY).rows
    assert [(r["arm"], r["chain"]) for r in rows] == [
        (arm, chain) for arm in BINOMIAL_ARMS for chain in range(3)
    ]
    for arm_idx, arm in enumerate(BINOMIAL_ARMS):
        for chain in range(3):
            row = rows[3 * arm_idx + chain]
            assert row["seed"] == derive_seed(21, 2, 0, 0, arm_idx, chain)
            if arm.startswith("fisher"):
                assert row["status"] == "failed" and math.isnan(row["median_ess"])
            else:
                assert row["status"] in ("ok", "stuck")
                assert math.isfinite(row["median_ess"])


# -- model files ---------------------------------------------------------------

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_model_file_gaussian(tmp_path):
    rows = "\n".join(
        ",".join(repr(float(v)) for v in row) for row in SIGMA_PI_FIXTURE
    )
    path = _write(
        tmp_path, "model.txt",
        f"model: gaussian\nvector mu: 0,0,0,0,0\nmatrix sigma 5:\n{rows}\n",
    )
    t = load_model_file(path)
    assert t.dim == 5
    assert round(t.envelope.kappa, -2) == 4400.0


def test_load_model_file_cosine_and_binomial(tmp_path):
    path = _write(tmp_path, "cos.txt", "model: cosine\nm: 1.0\nM: 4.0\n")
    t = load_model_file(path)
    assert t.envelope.kappa == pytest.approx(4.0)

    binom = _write(
        tmp_path, "binom.txt",
        "model: binomial\n"
        "matrix X 3:\n1.0,0.5\n-0.2,1.1\n0.3,-0.7\n"
        "vector Y: 0.5,0.25,1.0\n"
        "vector w: 1,4,9\n"
        "lambda_over_n: 0.003\n",
    )
    tb = load_model_file(binom)
    assert tb.dim == 2


def test_load_model_file_errors_with_line_numbers(tmp_path):
    with pytest.raises(ModelFileError) as err:
        load_model_file(_write(tmp_path, "a.txt", "model: gaussian\nnonsense line\n"))
    assert err.value.line == 2
    with pytest.raises(ModelFileError) as err:
        load_model_file(_write(
            tmp_path, "b.txt", "model: gaussian\nmatrix sigma 2:\n1.0,oops\n0.0,1.0\n"
        ))
    assert err.value.line == 3
    with pytest.raises(ModelFileError):
        load_model_file(_write(tmp_path, "c.txt", "m: 1.0\n"))  # missing model
    with pytest.raises(ModelFileError):
        load_model_file(_write(tmp_path, "d.txt", "model: exotic\n"))
    with pytest.raises(ModelFileError):
        load_model_file(_write(tmp_path, "e.txt", "model: gaussian\n"))  # no sigma


def test_analyze_fixture_with_diag(tmp_path):
    from precond.experiments import analyze
    from precond import targets

    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    p = preconditioners.diag_covariance_preconditioner(SIGMA_PI_FIXTURE)
    reports = analyze(t, p, seed=0)
    kinds = [r.kind for r in reports]
    assert kinds[0] == "KappaSummary"
    assert round(reports[0].value, -2) == 8100.0
    assert "Thm3" in kinds and "GapSandwich" in kinds and "DiagDominance" in kinds
    # one curvature record: the gap sandwich reads KappaSummary's kappa
    gap = reports[kinds.index("GapSandwich")]
    assert gap.inputs["kappa"] == reports[0].inputs["kappa"]
    # every theorem bound must dominate the exact kappa_L
    for rep in reports:
        if rep.kind in ("Thm1", "Thm2", "Thm3"):
            assert rep.value >= reports[0].value * (1 - 1e-8)


# -- CLI -----------------------------------------------------------------------

def test_cli_analyze_ok(tmp_path, capsys):
    path = _write(tmp_path, "cos.txt", "model: cosine\nm: 1.0\nM: 4.0\n")
    code = cli.main(["analyze", "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "KappaSummary" in out
    data = json.loads((tmp_path / "out" / "analyze_bounds.json").read_text())
    assert data[0]["kind"] == "KappaSummary"


@pytest.mark.parametrize("count", ["0", "-2", "two"])
def test_cli_analyze_bad_matrix_row_count_names_its_line(tmp_path, capsys, count):
    path = _write(tmp_path, "m.txt", f"model: gaussian\n\nmatrix sigma {count}:\n1.0\n")
    assert cli.main(["analyze", "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: matrix row count") and repr(count) in err


def test_cli_analyze_missing_file(tmp_path, capsys):
    code = cli.main(["analyze", "--config", str(tmp_path / "nope.txt")])
    assert code == cli.EXIT_CONFIG


def test_cli_analyze_with_preconditioner(tmp_path, capsys):
    path = _write(tmp_path, "cos.txt", "model: cosine\nm: 1.0\nM: 4.0\n")
    p = preconditioners.from_matrix(np.diag([2.0, 1.0]), label="diag")
    pfile = _write(tmp_path, "precond.csv", preconditioners.to_csv(p))
    code = cli.main(["analyze", "--config", path, "--preconditioner", pfile])
    assert code == cli.EXIT_OK
    assert "value=16" in capsys.readouterr().out  # kappa_L of the corner family


def test_cli_experiment_writes_outputs(tmp_path, capsys):
    cfg = {
        "experiment": "counterproductive", "dims": [5], "chains_per_cell": 2,
        "burn_in": 0, "measure": 300, "master_seed": 3,
    }
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(cfg))
    code = cli.main([
        "experiment", "--config", cfg_path, "--out", str(tmp_path / "res"),
    ])
    assert code == cli.EXIT_OK
    assert (tmp_path / "res" / "counterproductive.csv").exists()
    assert (tmp_path / "res" / "counterproductive_bounds.json").exists()


def test_cli_experiment_bad_preset(capsys):
    code = cli.main(["experiment", "--preset", "not-a-preset"])
    assert code == cli.EXIT_CONFIG


def test_cli_experiment_requires_config_or_preset(capsys):
    code = cli.main(["experiment"])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("override", [{"bogus": 1}, {"schema_version": 99}, [1]])
def test_cli_preset_override_is_validated(tmp_path, capsys, override):
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(override))
    code = cli.main(["experiment", "--preset", "paper-4.1-small", "--config", cfg_path,
                     "--out", str(tmp_path / "res")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("override", [
    {"dims": 5}, {"chains_per_cell": "3"}, {"measure": 50},
    {"dims": [2, 0]}, {"dims": [2.0]}, {"n_multipliers": [5, "x"]},
    {"mu_list": [True]}, {"burn_in": True}, {"master_seed": 1.5},
    {"extra": [1]}, {"experiment": 5}, {"output_dir": 3},
    {"burn_in": -1}, {"chains_per_cell": 0},
])
def test_cli_config_field_types_are_validated(tmp_path, capsys, override):
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(override))
    code = cli.main(["experiment", "--preset", "paper-4.1-small", "--config", cfg_path,
                     "--out", str(tmp_path / "res")])
    assert code == cli.EXIT_CONFIG
    field_name = next(iter(override))
    assert capsys.readouterr().err.startswith(f"error: config field {field_name!r}")
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("preset, override", [
    ("paper-4.2-small", {"burn_in": 0, "dims": [2], "n_multipliers": [5],
                         "chains_per_cell": 1, "measure": 200}),
    ("paper-4.3-small", {"burn_in": 0}),
])
def test_cli_burn_in_is_required_where_arms_are_built_from_it(tmp_path, capsys, preset,
                                                              override):
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(override))
    code = cli.main(["experiment", "--preset", preset, "--config", cfg_path,
                     "--out", str(tmp_path / "res")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "error: config field 'burn_in' must be at least 1, got 0")
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("version", [1.9, "1", True, "x"])
def test_config_schema_version_must_be_the_integer(version):
    with pytest.raises(PrecondError, match="unsupported config schema version"):
        config_from_dict({"experiment": "binomial", "schema_version": version})


def test_cli_verify_bounds_runs_the_sweep_on_any_preset(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(
        {"extra": {"n_instances": 1, "n_preconditioners": 2}}))
    code = cli.main(["verify-bounds", "--preset", "paper-4.1-small", "--config",
                     cfg_path, "--out", str(tmp_path / "vb")])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "verify-bounds.csv (4 rows)" in out and "bound violations: 0" in out
    assert (tmp_path / "vb" / "verify-bounds_bounds.json").exists()


def test_cli_config_without_preset_needs_experiment(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"dims": [2]}))
    assert cli.main(["experiment", "--config", cfg_path]) == cli.EXIT_CONFIG
    assert "experiment" in capsys.readouterr().err


def test_preset_override_replaces_fields(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(
        {"schema_version": experiments.SCHEMA_VERSION, "dims": [2], "measure": 100}))
    cfg = experiments.load_config(cfg_path, preset="paper-4.3-small")
    assert cfg == replace(PRESETS["paper-4.3-small"], dims=(2,), measure=100)


def test_cli_verify_bounds(tmp_path, capsys):
    cfg = {"experiment": "verify-bounds",
           "extra": {"n_instances": 2, "n_preconditioners": 3}}
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(cfg))
    code = cli.main([
        "verify-bounds", "--config", cfg_path, "--preset", "",
        "--out", str(tmp_path / "vb"),
    ])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "bound violations: 0" in out


def test_cli_assumption_violation_exit_code(tmp_path, capsys):
    # a Gaussian model with an indefinite covariance trips the definiteness
    # check, which the CLI maps to the config exit code path for bad input;
    # a non-convex analyze run returns the assumption exit code instead
    path = _write(
        tmp_path, "bad.txt",
        "model: gaussian\nmatrix sigma 2:\n1.0,0.0\n0.0,-1.0\n",
    )
    code = cli.main(["analyze", "--config", path])
    assert code in (cli.EXIT_CONFIG, cli.EXIT_ASSUMPTION)
    assert code != cli.EXIT_OK


def test_cli_seed_override_changes_rows(tmp_path):
    cfg = {
        "experiment": "counterproductive", "dims": [5], "chains_per_cell": 1,
        "burn_in": 0, "measure": 300,
    }
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(cfg))
    assert cli.main([
        "experiment", "--config", cfg_path, "--seed", "1",
        "--out", str(tmp_path / "s1"),
    ]) == cli.EXIT_OK
    assert cli.main([
        "experiment", "--config", cfg_path, "--seed", "2",
        "--out", str(tmp_path / "s2"),
    ]) == cli.EXIT_OK
    a = (tmp_path / "s1" / "counterproductive.csv").read_text()
    b = (tmp_path / "s2" / "counterproductive.csv").read_text()
    assert a != b


# -- counterproductive cell batching --------------------------------------------

def _counterproductive_per_arm(config):
    """The counterproductive experiment with each arm's chains in a batch of their own."""
    sigma = experiments.SIGMA_PI
    d = sigma.shape[0]
    target = targets.gaussian_target(np.zeros(d), sigma)
    arms = [
        preconditioners.identity_preconditioner(d, label="none"),
        preconditioners.dense_covariance_preconditioner(sigma, label="dense"),
        preconditioners.diag_covariance_preconditioner(sigma, label="diag"),
    ]
    sqrt_sigma = linalg.sym_sqrt(sigma)
    rows = []
    for arm_idx, arm in enumerate(arms):
        chains = range(config.chains_per_cell)
        seeds = [derive_seed(config.master_seed, 0, arm_idx, chain) for chain in chains]
        x0s = np.array([
            sqrt_sigma @ np.random.default_rng(np.random.SeedSequence([seed, 1]))
            .standard_normal(d)
            for seed in seeds
        ])
        cfgs = [
            samplers.ChainConfig(kind="RWM", step_size=2.38 / math.sqrt(d),
                                 preconditioner=arm, n_steps=config.measure, seed=seed)
            for seed in seeds
        ]
        traces = samplers.run_chains(target, cfgs, x0s)
        rows += [
            experiments._measure_row("counterproductive", d, d, 0.0, arm.label,
                                     chain, seed, trace, 0.0)
            for chain, seed, trace in zip(chains, seeds, traces)
        ]
    return ExperimentResult("counterproductive", rows)


@pytest.mark.parametrize("chains_per_cell, chains_per_batch", [(1, 2), (2, 4), (5, 4)])
def test_counterproductive_cell_batches_match_per_arm_batches(
        monkeypatch, chains_per_cell, chains_per_batch):
    cfg = ExperimentConfig(experiment="counterproductive", dims=(5,),
                           chains_per_cell=chains_per_cell, burn_in=0, measure=300,
                           master_seed=19)
    want = _strip_wall_time(_counterproductive_per_arm(cfg))
    whole = run_experiment(cfg)
    assert _strip_wall_time(whole) == want
    assert len({row["wall_time"] for row in whole.rows}) == 1  # one batch for the cell
    # batches of 2, 3 or 4 chains that straddle the arm boundaries
    monkeypatch.setattr(experiments, "BATCH_STATE_BYTES", chains_per_batch * 8 * 300 * 5)
    batches = experiments._batches(3 * chains_per_cell, 300, 5)
    assert len(batches) > 1
    assert any(b.start // chains_per_cell != (b.stop - 1) // chains_per_cell
               for b in batches)
    assert _strip_wall_time(run_experiment(cfg)) == want


# -- stuck rows ------------------------------------------------------------------

def _trace(states):
    n, d = states.shape
    cfg = samplers.ChainConfig(kind="RWM", step_size=1.0, n_steps=n, seed=0,
                               preconditioner=preconditioners.identity_preconditioner(d))
    return samplers.Trace(states=states, accepted=np.zeros(n, dtype=bool),
                          log_potentials=np.zeros(n), config=cfg, x0=states[0],
                          final_step_size=1.0)


def test_measure_row_marks_only_zero_variance_stuck():
    with pytest.raises(ZeroVarianceError, match="zero variance"):
        diagnostics.ess(np.zeros(200))
    row = experiments._measure_row("counterproductive", 2, 2, 0.0, "none", 0, 1,
                                   _trace(np.zeros((200, 2))), 0.5)
    assert row["status"] == "stuck" and row["median_ess"] == 1.0
    assert row["ess_per_dim"] == "1.0;1.0" and row["acceptance"] == 0.0
    # a series too short for ESS is not a stuck chain
    with pytest.raises(PrecondError, match="at least") as err:
        experiments._measure_row("counterproductive", 2, 2, 0.0, "none", 0, 1,
                                 _trace(np.arange(100.0).reshape(50, 2)), 0.5)
    assert not isinstance(err.value, ZeroVarianceError)


# -- analyze with one Hessian stack ----------------------------------------------

def _analyze_from_public_measures(target, precond, seed=0, xi=1.0):
    """analyze with each measure_* call evaluating its own Hessian stack."""
    reports = [conditioning.BoundReport(
        kind="KappaSummary", value=conditioning.kappa_after(target, precond),
        inputs={"kappa": conditioning.condition_number(target)},
    )]
    probes = conditioning.default_probes(target, precond, seed=seed,
                                         n_chain=64, n_local=64)
    eps_eig = conditioning.measure_eps_eigenvalue(
        conditioning.hessian_stack(target, probes), precond)
    eps_norm = conditioning.measure_eps_norm(
        conditioning.hessian_stack(target, probes), precond)
    sigmas = np.sqrt(precond.sigma_sq)
    try:
        delta = conditioning.measure_delta_eigenvector(
            conditioning.hessian_stack(target, probes), precond)
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
            conditioning.hessian_stack(target, probes[:16]), m)
        reports.append(conditioning.improved_gap_threshold(
            eps_prime, eps_norm, float(sigmas[0]), m, xi))
        # the sandwich holds at proposal variance xi / (M d) with kappa = M/m,
        # so it reads both from the scalar envelope
        reports.append(conditioning.rwm_gap_bounds(
            target.envelope.kappa, target.dim, xi, eps_prime,
            big_m=target.envelope.big_m))
    if isinstance(target.structure, targets.MultiplicativeStructure):
        reports.append(conditioning.mult_kappa_bounds(target))
        reports.append(conditioning.mult_dalalyan(target))
    if target.exact_covariance is not None:
        reports.append(conditioning.diag_dominance_bound(target.exact_covariance))
    return reports


def _counting_hessian(target):
    calls = []

    def hessian(x):
        calls.append(1)
        return target.hessian(x)

    return replace(target, hessian=hessian), calls


def test_analyze_shares_one_hessian_stack():
    x_mat, y, lam = targets.synth_regression_data(4, 20, 5)
    hyperbolic = (targets.hyperbolic_regression_target(x_mat, y, 1.0, lam),
                  preconditioners.additive_base_preconditioner(x_mat.T @ x_mat))
    x_mat, y, w = targets.synth_binomial_data(3, 15, 1.0, 6)
    binomial = (targets.binomial_gprior_target(x_mat, y, w,
                                               experiments.BINOMIAL_LAMBDA / 15),
                preconditioners.design_preconditioner(x_mat))
    for target, precond in (hyperbolic, binomial):
        shared, shared_calls = _counting_hessian(target)
        public, public_calls = _counting_hessian(target)
        got = experiments.analyze(shared, precond, seed=3)
        want = _analyze_from_public_measures(public, precond, seed=3)
        assert {"Thm3", "GapSandwich"} <= {r.kind for r in got}
        assert [r.to_json() for r in got] == [r.to_json() for r in want]
        # 128 probes: three full stacks and the first 16 again become one stack
        assert len(public_calls) - len(shared_calls) == 2 * 128 + 16


# -- hyperbolic rows against a per-arm reference loop ---------------------------

def _hyperbolic_per_arm(config):
    """The hyperbolic experiment written out arm by arm and batch by batch."""
    rows = []
    for di, d in enumerate(config.dims):
        for mi, mult in enumerate(config.n_multipliers):
            n = mult * d
            x_mat, y, lam = targets.synth_regression_data(
                d, n, derive_seed(config.master_seed, 1, di, mi))
            target = targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
            a_mat = x_mat.T @ x_mat
            beta_ls = np.linalg.solve(a_mat, x_mat.T @ y)
            identity = preconditioners.identity_preconditioner(d, label="none")
            arms = [("design", preconditioners.additive_base_preconditioner(a_mat)),
                    ("covariance", None), ("none", identity)]
            step0 = d ** (-1.0 / 6.0)
            arm_rows = []
            for arm_idx, (label, base) in enumerate(arms):
                burn_precond = identity if base is None else base
                rows_of_arm = []
                for batch in experiments._batches(config.chains_per_cell,
                                                  max(config.burn_in, config.measure), d):
                    seeds = [derive_seed(config.master_seed, 1, di, mi, arm_idx, chain)
                             for chain in batch]
                    burn = samplers.run_chains(target, [
                        samplers.ChainConfig(
                            kind="MALA", step_size=step0, preconditioner=burn_precond,
                            n_steps=config.burn_in, seed=derive_seed(seed, 0),
                            adapt=samplers.AdaptConfig(target_rate=0.574))
                        for seed in seeds
                    ], np.tile(beta_ls, (len(batch), 1)))
                    chosen = {}
                    for chain, trace in zip(batch, burn):
                        try:
                            chosen[chain] = base if base is not None else (
                                preconditioners.dense_covariance_preconditioner(
                                    preconditioners.sample_covariance(trace.states),
                                    label="covariance"))
                        except DefinitenessError:
                            pass
                    traces = dict(zip(chosen, samplers.run_chains(target, [
                        samplers.ChainConfig(
                            kind="MALA", step_size=step0, preconditioner=precond,
                            n_steps=config.measure,
                            seed=derive_seed(seeds[chain - batch.start], 1))
                        for chain, precond in chosen.items()
                    ], np.array([burn[chain - batch.start].states[-1] for chain in chosen]))
                    )) if chosen else {}
                    rows_of_arm += [
                        experiments._measure_row(
                            "hyperbolic", d, n, 0.0, label, chain, seed, traces.get(chain),
                            0.0, status="ok" if chain in traces else "failed")
                        for chain, seed in zip(batch, seeds)
                    ]
                arm_rows.append(rows_of_arm)
            for chain in range(config.chains_per_cell):
                rows += [rows_of_arm[chain] for rows_of_arm in arm_rows]
    return ExperimentResult("hyperbolic", rows)


@pytest.mark.parametrize("chains_per_cell, chains_per_batch",
                         [(1, None), (3, None), (3, 2), (3, 1)])
def test_hyperbolic_rows_match_per_arm_reference(monkeypatch, chains_per_cell,
                                                 chains_per_batch):
    cfg = ExperimentConfig(experiment="hyperbolic", dims=(2, 3), n_multipliers=(5,),
                           chains_per_cell=chains_per_cell, burn_in=200, measure=200,
                           master_seed=13)
    if chains_per_batch is not None:
        monkeypatch.setattr(experiments, "BATCH_STATE_BYTES", chains_per_batch * 8 * 200 * 3)
        assert len(experiments._batches(chains_per_cell, 200, 3)) > 1
    dense = preconditioners.dense_covariance_preconditioner
    calls = []

    def second_fails(sigma, label="dense"):
        # the second covariance estimate of every run fails
        calls.append(1)
        if len(calls) == 2:
            raise DefinitenessError("not positive definite", offending_eigenvalue=0.0)
        return dense(sigma, label=label)

    monkeypatch.setattr(preconditioners, "dense_covariance_preconditioner", second_fails)
    want = _hyperbolic_per_arm(cfg)
    calls.clear()
    got = run_experiment(cfg)
    assert _strip_wall_time(got) == _strip_wall_time(want)
    assert [(r["d"], r["chain"], r["arm"]) for r in got.rows] == [
        (d, chain, arm) for d in (2, 3) for chain in range(chains_per_cell)
        for arm in ("design", "covariance", "none")
    ]
    failed = [(r["d"], r["chain"]) for r in got.rows if r["status"] == "failed"]
    assert failed == [(2, 1) if chains_per_cell == 3 else (3, 0)]
    assert all(r["arm"] == "covariance" for r in got.rows if r["status"] == "failed")
