import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precond import (
    cli, conditioning, diagnostics, experiments, linalg, preconditioners, samplers, targets,
)
from precond.errors import (
    DefinitenessError, DimensionMismatchError, ModelFileError, PrecondError,
    SingularMatrixError, ZeroVarianceError,
)
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

import oracles
from oracles import DegeneratePairingError
from test_fixtures import SIGMA_PI_FIXTURE, random_spd


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


@pytest.mark.parametrize("master_seed", [0, 33, 287])
def test_verify_bounds_thm3_holds_where_probes_miss_beta_zero(master_seed):
    # Thm3's sup of ||hessian - LL^T|| is attained at beta = 0; a probe-measured
    # eps missed it on one instance of each of these sweeps (11, 16 and 0)
    cfg = ExperimentConfig(experiment="verify-bounds", master_seed=master_seed,
                           extra={"n_instances": 20, "n_preconditioners": 0})
    rows = [row for row in run_experiment(cfg).rows if row["arm"] == "hyperbolic-thm3"]
    assert len(rows) == 20
    assert [row["chain"] for row in rows if row["status"] != "pass"] == []


def test_verify_bounds_runs_no_mode_search_or_probe_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify-bounds reads its constants in closed form")

    monkeypatch.setattr(samplers, "_mh_chain", refuse)
    monkeypatch.setattr(samplers, "_mh_lockstep", refuse)
    monkeypatch.setattr(samplers, "find_mode", refuse)
    cfg = ExperimentConfig(experiment="verify-bounds", master_seed=11,
                           extra={"n_instances": 3, "n_preconditioners": 2})
    rows = run_experiment(cfg).rows
    assert len(rows) == 3 + 3 + 2
    assert all(row["status"] == "pass" for row in rows)


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


@pytest.mark.parametrize("text, line", [
    ("model: hyperbolic\nmatrix X 2:\n1,0\n0,1\nvector Y: 1,2\nlambda: nan\n", 6),
    ("model: hyperbolic\nmatrix X 2:\n1,0\n0,1\nvector Y: 1,2\nlambda: inf\n", 6),
    ("model: hyperbolic\nmatrix X 2:\n1,0\n0,1\nvector Y: 1,2\nlambda: 1\nsigma2: nan\n", 7),
    ("model: hyperbolic\nmatrix X 2:\n1,0\n0,1\nvector Y: 1,nan\nlambda: 1\n", 5),
    ("model: binomial\nmatrix X 2:\n1,0\n0,1\nvector Y: 0.5,0.5\nvector w: 1,nan\n"
     "lambda_over_n: 0.1\n", 6),
    ("model: binomial\nmatrix X 2:\n1,0\n0,1\nvector Y: 0.5,0.5\nvector w: inf,1\n"
     "lambda_over_n: 0.1\n", 6),
    ("model: binomial\nmatrix X 2:\n1,0\n0,1\nvector Y: 0.5,0.5\nvector w: 1,1\n"
     "lambda_over_n: inf\n", 7),
    ("model: cosine\nm: 1\nM: inf\n", 3),
    ("model: gaussian\nvector mu: 0,-inf\nmatrix sigma 2:\n1,0\n0,1\n", 2),
], ids=["hyperbolic-lambda-nan", "hyperbolic-lambda-inf", "hyperbolic-sigma2-nan",
        "hyperbolic-Y-nan", "binomial-w-nan", "binomial-w-inf", "binomial-lambda-inf",
        "cosine-M-inf", "gaussian-mu-inf"])
def test_model_file_values_must_be_finite(tmp_path, capsys, text, line):
    path = _write(tmp_path, "model.txt", text)
    with pytest.raises(ModelFileError, match="is not finite") as err:
        load_model_file(path)
    assert err.value.line == line
    assert cli.main(["analyze", "--config", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_analyze_fixture_with_diag(tmp_path):
    from precond.experiments import analyze
    from precond import targets

    t = targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE)
    p = preconditioners.diag_covariance_preconditioner(SIGMA_PI_FIXTURE)
    reports = analyze(t, p)
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


@pytest.mark.parametrize("text, error, message", [
    ("diag,2\n0,0\n0,0\n", SingularMatrixError, "preconditioner is rank deficient"),
    ("diag,2\n1,0\n0,1e-300\n", SingularMatrixError, "preconditioner is rank deficient"),
    ("diag,0\n", ModelFileError, "line 1: dimension must be positive, got '0'"),
    ("diag,-1\n1\n", ModelFileError, "line 1: dimension must be positive, got '-1'"),
])
def test_cli_analyze_rejects_singular_or_empty_preconditioner(tmp_path, capsys, text,
                                                              error, message):
    path = _write(tmp_path, "cos.txt", "model: cosine\nm: 1.0\nM: 4.0\n")
    pfile = _write(tmp_path, "precond.csv", text)
    assert cli.main(["analyze", "--config", path, "--preconditioner", pfile]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {message}")
    with pytest.raises(error):
        preconditioners.from_csv(text)


def test_cli_analyze_prints_no_estimated_reports(tmp_path, capsys):
    sigma = "\n".join(",".join(repr(float(v)) for v in row) for row in SIGMA_PI_FIXTURE)
    path = _write(tmp_path, "g.txt", f"model: gaussian\nmatrix sigma 5:\n{sigma}\n")
    assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    reports = json.loads((tmp_path / "analyze_bounds.json").read_text())
    kinds = [rep["kind"] for rep in reports]
    assert kinds == ["KappaSummary", "Thm1", "Thm3", "ImprovedGapThreshold",
                     "GapSandwich", "DiagDominance"]
    assert all("certified" not in rep for rep in reports)
    assert "[estimated]" not in out and "[certified]" not in out
    for kind in kinds:
        assert any(ln.startswith(kind) and " value=" in ln for ln in out.splitlines())


def test_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, precond, precond.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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


_X_3_ROWS = "matrix X 3:\n1.0,0.5\n-0.2,1.1\n0.3,-0.7\n"


@pytest.mark.parametrize("model, precond, operands", [
    ("model: hyperbolic\n" + _X_3_ROWS + "vector Y: 0.5,0.25\nlambda: 1.0\n",
     None, ("Y has shape (2,)", "X has 3 rows")),
    ("model: binomial\n" + _X_3_ROWS + "vector Y: 0.5,0.25\nvector w: 1,4,9\n"
     "lambda_over_n: 0.003\n", None, ("Y has shape (2,)", "X has 3 rows")),
    ("model: binomial\n" + _X_3_ROWS + "vector Y: 0.5,0.25,1.0\nvector w: 1,4,9,16\n"
     "lambda_over_n: 0.003\n", None, ("w has shape (4,)", "X has 3 rows")),
    ("model: gaussian\nvector mu: 0,0,0\nmatrix sigma 2:\n2.0,0.5\n0.5,1.0\n",
     None, ("mu has shape (3,)", "sigma has 2 rows")),
    ("model: cosine\nm: 1.0\nM: 4.0\n", "diag,3\n1,0,0\n0,1,0\n0,0,1\n",
     ("preconditioner has dimension 3", "model has dimension 2")),
], ids=["hyperbolic-Y", "binomial-Y", "binomial-w", "gaussian-mu", "preconditioner"])
def test_cli_analyze_shape_mismatch_names_both_operands(tmp_path, capsys, model, precond,
                                                        operands):
    argv = ["analyze", "--config", _write(tmp_path, "m.txt", model)]
    if precond is not None:
        argv += ["--preconditioner", _write(tmp_path, "p.csv", precond)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(operand in err for operand in operands)
    with pytest.raises(DimensionMismatchError):
        if precond is None:
            load_model_file(argv[2])
        else:
            experiments.analyze(load_model_file(argv[2]),
                                preconditioners.from_csv(precond))


@pytest.mark.parametrize("argv, operand", [
    (["analyze"], "--config"),
    (["experiment", "--bogus"], "--bogus"),
    (["verify-bounds", "--seed", "x"], "--seed"),
    (["verify-bounds", "--preset", "verify-bounds"], "--preset"),
    ([], "command"),
], ids=["missing-config", "unknown-flag", "bad-seed", "verify-bounds-preset", "no-command"])
def test_cli_usage_errors_exit_config(capsys, argv, operand):
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: precond") and err.count("\n") == 1 and operand in err


def test_cli_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--help"])
    assert exc.value.code == cli.EXIT_OK
    assert "--preset" in capsys.readouterr().out


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
    {"burn_in": -1}, {"chains_per_cell": 0}, {"n_multipliers": [2.5]}, {"master_seed": -1},
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
    least = 2 if preset == "paper-4.2-small" else 1  # a covariance estimate needs 2 states
    assert capsys.readouterr().err.startswith(
        f"error: config field 'burn_in' must be at least {least}, got 0")
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command, override, message", [
    (["verify-bounds"], {"extra": {"n_instances": -3, "n_preconditioners": -1}},
     "config field 'extra.n_instances' must be at least 0, got -3"),
    (["verify-bounds"], {"extra": {"n_preconditioners": -1}},
     "config field 'extra.n_preconditioners' must be at least 0, got -1"),
    (["verify-bounds"], {"extra": {"n_instance": 5}},
     "unknown config keys: ['extra.n_instance']"),
    (["verify-bounds"], {"extra": {"n_instances": 1.5}},
     "config field 'extra.n_instances' must be an integer, got 1.5"),
    (["verify-bounds"], {"extra": {"n_preconditioners": True}},
     "config field 'extra.n_preconditioners' must be an integer, got True"),
    (["experiment", "--preset", "paper-4.3-small"], {"extra": {"short_estimate": 1}},
     "config field 'extra.short_estimate' must be at least 2, got 1"),
    (["experiment", "--preset", "paper-4.3-small"], {"extra": {"long_estimate": "9"}},
     "config field 'extra.long_estimate' must be an integer, got '9'"),
    (["experiment", "--preset", "paper-4.2-small"], {"burn_in": 1},
     "config field 'burn_in' must be at least 2, got 1"),
    (["experiment", "--preset", "paper-4.3-small"], {"dims": [2], "mu_list": [0.0, -1.0]},
     "config field 'mu_list' items must be at least 0, got [0.0, -1.0]"),
    (["experiment", "--preset", "paper-4.3-small"], {"mu_list": [math.nan]},
     "config field 'mu_list' must be a list of finite numbers, got [nan]"),
    (["experiment", "--preset", "paper-4.3-small"], {"mu_list": [math.inf]},
     "config field 'mu_list' must be a list of finite numbers, got [inf]"),
    *[(["experiment", "--preset", preset], override,
       f"config field {key!r} is not read by experiment {experiment!r}")
      for preset, experiment, override, key in [
          ("paper-4.2-small", "hyperbolic", {"mu_list": [1.0]}, "mu_list"),
          ("paper-4.2-small", "hyperbolic", {"extra": {"short_estimate": 4000}}, "extra"),
          ("paper-4.3-small", "binomial", {"n_multipliers": [5]}, "n_multipliers"),
          ("paper-4.3-small", "binomial", {"extra": {"n_instances": 1}}, "extra.n_instances"),
          ("paper-4.1-small", "counterproductive", {"n_multipliers": [5]}, "n_multipliers"),
          ("paper-4.1-small", "counterproductive", {"mu_list": [0.0]}, "mu_list"),
          ("paper-4.1-small", "counterproductive", {"extra": {}}, "extra"),
      ]],
    *[(["verify-bounds"], {key: value},
       f"config field {key!r} is not read by experiment 'verify-bounds'")
      for key, value in [("dims", [2, 5, 10]), ("n_multipliers", [5]), ("mu_list", [0.0]),
                         ("chains_per_cell", 5), ("burn_in", 2000), ("measure", 2000)]],
    (["verify-bounds"], {"extra": {"long_estimate": 20000}},
     "config field 'extra.long_estimate' is not read by experiment 'verify-bounds'"),
    (["verify-bounds"], {"experiment": "binomial", "extra": {"n_instances": 1}},
     "config field 'experiment' must be 'verify-bounds' for this command, got 'binomial'"),
    (["experiment", "--preset", "paper-4.1-small"], {"dims": [2, 5]},
     "config field 'dims' must be [5] for experiment 'counterproductive', got [2, 5]"),
], ids=["negative-sweep", "negative-preconditioners", "misspelt-key", "float", "bool",
        "short-estimate", "string", "hyperbolic-burn-in", "negative-mu", "nan-mu", "inf-mu",
        "hyperbolic-mu", "hyperbolic-extra", "binomial-multipliers", "binomial-sweep-size",
        "counterproductive-multipliers", "counterproductive-mu", "counterproductive-extra",
        "sweep-dims", "sweep-multipliers", "sweep-mu", "sweep-chains", "sweep-burn-in",
        "sweep-measure", "sweep-estimate", "sweep-experiment", "counterproductive-dims"])
def test_cli_config_checks_name_their_field(tmp_path, capsys, command, override, message):
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(override))
    code = cli.main(command + ["--config", cfg_path, "--out", str(tmp_path / "res")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "res").exists()


def test_counterproductive_arms_adapt_in_burn_in():
    # without burn-in the fixed step 2.38/sqrt(5) accepts about 4% under none
    # and 0.4% under diag; adapted, every arm sits near RWM's 0.234
    result = run_experiment(replace(TINY, chains_per_cell=4, burn_in=2000, measure=1000))
    for arm in ("none", "dense", "diag"):
        rates = [row["acceptance"] for row in result.rows if row["arm"] == arm]
        assert len(rates) == 4 and 0.18 <= np.mean(rates) <= 0.30, (arm, rates)


@pytest.mark.parametrize("kwargs, message", [
    ({"measure": "100"}, "config field 'measure' must be an integer, got '100'"),
    ({"chains_per_cell": None}, "config field 'chains_per_cell' must be an integer, got None"),
    ({"extra": [1]}, "config field 'extra' must be an object, got [1]"),
], ids=["measure", "chains", "extra"])
def test_python_built_config_is_checked_like_json(kwargs, message):
    with pytest.raises(PrecondError) as err:
        ExperimentConfig(experiment="binomial", **kwargs)
    assert str(err.value) == message


def test_extra_keys_are_accepted_on_any_experiment():
    extra = {"n_instances": 0, "n_preconditioners": 0,
             "short_estimate": 2, "long_estimate": 2}
    for experiment in ("counterproductive", "hyperbolic", "binomial", "verify-bounds"):
        assert ExperimentConfig(experiment=experiment, extra=extra).extra == extra
    assert replace(PRESETS["paper-4.3-small"], experiment="verify-bounds").extra == {
        "short_estimate": 4_000, "long_estimate": 20_000}


@pytest.mark.parametrize("version", [1.9, "1", True, "x"])
def test_config_schema_version_must_be_the_integer(version):
    with pytest.raises(PrecondError, match="unsupported config schema version"):
        config_from_dict({"experiment": "binomial", "schema_version": version})


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
        "verify-bounds", "--config", cfg_path, "--out", str(tmp_path / "vb"),
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
            experiments._chain_row("counterproductive", d, d, 0.0, arm.label,
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
    return samplers.Trace(states=states, accepted=np.zeros(n, dtype=bool), config=cfg,
                          x0=states[0], final_step_size=1.0)


def test_measure_row_marks_only_zero_variance_stuck():
    with pytest.raises(ZeroVarianceError, match="zero variance"):
        diagnostics.ess(np.zeros(200))
    row = experiments._chain_row("counterproductive", 2, 2, 0.0, "none", 0, 1,
                                 _trace(np.zeros((200, 2))), 0.5)
    assert row["status"] == "stuck" and row["median_ess"] == 1.0
    assert row["ess_per_dim"] == "1.0;1.0" and row["acceptance"] == 0.0
    # a series too short for ESS is not a stuck chain
    with pytest.raises(PrecondError, match="at least") as err:
        experiments._chain_row("counterproductive", 2, 2, 0.0, "none", 0, 1,
                               _trace(np.arange(100.0).reshape(50, 2)), 0.5)
    assert not isinstance(err.value, ZeroVarianceError)


def test_constant_series_reads_stuck_though_its_mean_rounds():
    # the float mean of 1000 copies of 0.1 is not 0.1
    assert np.full(1000, 0.1).mean() != 0.1
    with pytest.raises(ZeroVarianceError, match="zero variance"):
        diagnostics.ess(np.full(1000, 0.1))
    row = experiments._chain_row("hyperbolic", 2, 10, 0.0, "none", 0, 1,
                                 _trace(np.full((1000, 2), 0.1)), 0.5)
    assert row["status"] == "stuck" and row["median_ess"] == 1.0


# -- analyze reads every constant from the Loewner pair ---------------------------

def test_analyze_runs_no_mode_search_probe_chain_or_hessian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("analyze reads its constants in closed form")

    monkeypatch.setattr(samplers, "find_mode", refuse)
    monkeypatch.setattr(samplers, "_mh_chain", refuse)
    monkeypatch.setattr(samplers, "_mh_lockstep", refuse)
    x_mat, y, lam = targets.synth_regression_data(4, 20, 5)
    hyperbolic = (targets.hyperbolic_regression_target(x_mat, y, 1.0, lam),
                  preconditioners.additive_base_preconditioner(x_mat.T @ x_mat))
    x_mat, y, w = targets.synth_binomial_data(3, 15, 1.0, 6)
    binomial = (targets.binomial_gprior_target(x_mat, y, w,
                                               experiments.BINOMIAL_LAMBDA / 15),
                preconditioners.design_preconditioner(x_mat))
    gaussian = (targets.gaussian_target(np.zeros(5), SIGMA_PI_FIXTURE),
                preconditioners.diag_covariance_preconditioner(SIGMA_PI_FIXTURE))
    for target, precond in (hyperbolic, binomial, gaussian):
        target = replace(target, hessian=refuse)
        kinds = {r.kind for r in experiments.analyze(target, precond)}
        assert {"KappaSummary", "Thm1", "Thm3", "ImprovedGapThreshold",
                "GapSandwich"} <= kinds


def _certify_binomial_model():
    """The benchmark's binomial model: d = 10, n = 50, mu = 5, w_i = i^2, design L."""
    d, n, mu = 10, 50, 5.0
    rng = np.random.default_rng(2718)
    x_mat = rng.standard_normal((n, d)) + mu
    beta0 = rng.standard_normal(d)
    w = np.arange(1, n + 1, dtype=float) ** 2
    y = rng.binomial(w.astype(np.int64), 1.0 / (1.0 + np.exp(-(x_mat @ beta0)))) / w
    target = targets.binomial_gprior_target(x_mat, y, w, experiments.BINOMIAL_LAMBDA / n)
    return target, preconditioners.design_preconditioner(x_mat)


def test_analyze_gap_reports_see_the_binomial_hessian_variation():
    # an unadapted RWM probe chain never moves on this model, and the Hessian
    # variation over its states read 0
    target, precond = _certify_binomial_model()
    reports = {r.kind: r for r in experiments.analyze(target, precond)}
    eps_prime = reports["GapSandwich"].inputs["eps"]
    assert eps_prime > 0
    assert reports["ImprovedGapThreshold"].inputs["eps_prime"] == eps_prime
    probes = oracles.default_probes(target, precond, n_chain=64, n_local=64)
    measured = oracles.measure_eps_hessian_variation(
        oracles.hessian_stack(target, probes), target.envelope.m)
    assert 0 < measured <= eps_prime


def _random_family(family, d, seed):
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return targets.gaussian_target(rng.standard_normal(d), random_spd(rng, d))
    if family == "cosine":
        m = float(rng.uniform(0.1, 2.0))
        return targets.cosine_hard_target(m, m * float(rng.uniform(1.0, 50.0)))
    if family == "hyperbolic":
        x_mat, y, lam = targets.synth_regression_data(d, 3 * d, seed)
        return targets.hyperbolic_regression_target(x_mat, y, 1.0, lam)
    x_mat, y, w = targets.synth_binomial_data(d, 4 * d, 1.0, seed)
    return targets.binomial_gprior_target(x_mat, y, w, 0.01 / (4 * d))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["gaussian", "cosine", "hyperbolic", "binomial"]),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_analyze_reports_are_sound_and_dominate_the_probe_constants(family, d, seed):
    target = _random_family(family, d, seed)
    d = target.dim
    rng = np.random.default_rng(seed + 1)
    precond = preconditioners.from_matrix(
        random_spd(rng, d, spread=float(rng.uniform(0, 3))) * float(rng.uniform(0.1, 10)))
    reports = {r.kind: r for r in experiments.analyze(target, precond)}
    kappa_l = reports["KappaSummary"].value
    for kind in ("Thm1", "Thm2", "Thm3"):
        if kind in reports:
            assert reports[kind].value >= kappa_l * (1 - 1e-10), kind
    # beta = 0 attains H_up for the hyperbolic and binomial families; far out
    # (every |X_i^T x| >= 60 for the binomial) they approach H_lo
    v = rng.standard_normal(d)
    design = target.structure.design if target.structure is not None else np.eye(d)
    far = v * (60.0 / np.abs(design @ v).min())
    states = [np.zeros(d), far, 10.0 * far,
              *(scale * rng.standard_normal(d) for scale in (0.1, 1.0, 5.0))]
    hs = oracles.hessian_stack(target, states)
    tol = 1 + 1e-9
    thm1, thm3, gap = reports["Thm1"], reports["Thm3"], reports["GapSandwich"]
    assert oracles.measure_eps_eigenvalue(hs, precond) <= thm1.inputs["eps"] * tol + 1e-12
    assert oracles.measure_eps_norm(hs, precond) <= thm3.inputs["eps"] * tol + 1e-12
    assert oracles.measure_eps_hessian_variation(hs, target.envelope.m) \
        <= gap.inputs["eps"] * tol + 1e-12
    try:
        assert oracles.measure_delta_eigenvector(hs, precond) <= thm1.inputs["delta"] * tol
    except DegeneratePairingError:
        pass


# -- hyperbolic rows against a per-arm reference loop ---------------------------

HYPERBOLIC_TINY = ExperimentConfig(
    experiment="hyperbolic", dims=(2, 3), n_multipliers=(5,), chains_per_cell=3,
    burn_in=200, measure=200, master_seed=13,
)


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
            step0 = d ** (-1.0 / 6.0)
            (estimate,) = samplers.run_chains(target, [samplers.ChainConfig(
                kind="MALA", step_size=step0, preconditioner=identity,
                n_steps=config.burn_in, seed=derive_seed(config.master_seed, 1, di, mi, 3),
                adapt=True)], beta_ls[None])
            try:
                covariance = preconditioners.dense_covariance_preconditioner(
                    preconditioners.sample_covariance(estimate.states), label="covariance")
            except DefinitenessError:
                covariance = None
            arms = [("design", preconditioners.additive_base_preconditioner(a_mat)),
                    ("covariance", covariance), ("none", identity)]
            arm_rows = []
            for arm_idx, (label, precond) in enumerate(arms):
                seeds = [derive_seed(config.master_seed, 1, di, mi, arm_idx, chain)
                         for chain in range(config.chains_per_cell)]
                if precond is None:
                    arm_rows.append([
                        experiments._chain_row("hyperbolic", d, n, 0.0, label, chain, seed,
                                               None, 0.0, status="failed")
                        for chain, seed in enumerate(seeds)])
                    continue
                rows_of_arm = []
                for batch in experiments._batches(config.chains_per_cell,
                                                  max(config.burn_in, config.measure), d):
                    burn = samplers.run_chains(target, [
                        samplers.ChainConfig(
                            kind="MALA", step_size=step0, preconditioner=precond,
                            n_steps=config.burn_in, seed=derive_seed(seeds[chain], 0),
                            adapt=True)
                        for chain in batch
                    ], np.tile(beta_ls, (len(batch), 1)))
                    traces = samplers.run_chains(target, [
                        samplers.ChainConfig(
                            kind="MALA", step_size=trace.final_step_size,
                            preconditioner=precond, n_steps=config.measure,
                            seed=derive_seed(seeds[chain], 1))
                        for chain, trace in zip(batch, burn)
                    ], np.array([trace.states[-1] for trace in burn]))
                    rows_of_arm += [
                        experiments._chain_row("hyperbolic", d, n, 0.0, label, chain,
                                               seeds[chain], trace, 0.0)
                        for chain, trace in zip(batch, traces)
                    ]
                arm_rows.append(rows_of_arm)
            for chain in range(config.chains_per_cell):
                rows += [rows_of_arm[chain] for rows_of_arm in arm_rows]
    return ExperimentResult("hyperbolic", rows)


def _assert_rows_alike(got, want):
    """Rows of one experiment run in different batches: a batched potential
    rounds differently, so only the last digits of the ESS may move."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col in ("d", "n", "arm", "chain", "seed", "status"):
            assert g[col] == w[col]
        if w["status"] == "failed":
            assert math.isnan(g["median_ess"]) and math.isnan(g["acceptance"])
        else:
            assert g["acceptance"] == w["acceptance"]
            assert g["median_ess"] == pytest.approx(w["median_ess"], rel=1e-12)


@pytest.mark.parametrize("chains_per_cell, chains_per_batch",
                         [(1, None), (3, None), (3, 2), (3, 1)])
def test_hyperbolic_rows_match_per_arm_reference(monkeypatch, chains_per_cell,
                                                 chains_per_batch):
    cfg = replace(HYPERBOLIC_TINY, chains_per_cell=chains_per_cell)
    if chains_per_batch is not None:
        monkeypatch.setattr(experiments, "BATCH_STATE_BYTES", chains_per_batch * 8 * 200 * 3)
        assert len(experiments._batches(chains_per_cell, 200, 3)) > 1
    dense = preconditioners.dense_covariance_preconditioner
    calls = []

    def second_fails(sigma, label="dense"):
        # the covariance estimate of the second cell (d = 3) fails
        calls.append(1)
        if len(calls) == 2:
            raise DefinitenessError("not positive definite", offending_eigenvalue=0.0)
        return dense(sigma, label=label)

    monkeypatch.setattr(preconditioners, "dense_covariance_preconditioner", second_fails)
    want = _hyperbolic_per_arm(cfg)
    calls.clear()
    got = run_experiment(cfg)
    assert len(calls) == 2  # one estimate per cell
    _assert_rows_alike(got.rows, want.rows)
    assert [(r["d"], r["chain"], r["arm"]) for r in got.rows] == [
        (d, chain, arm) for d in (2, 3) for chain in range(chains_per_cell)
        for arm in ("design", "covariance", "none")
    ]
    failed = [(r["d"], r["chain"], r["arm"]) for r in got.rows if r["status"] == "failed"]
    assert failed == [(3, chain, "covariance") for chain in range(chains_per_cell)]
    assert all(r["wall_time"] == 0.0 for r in got.rows if r["status"] == "failed")
    assert all(r["status"] == "ok" for r in got.rows if r["status"] != "failed")


def _record_run_chains(monkeypatch):
    """Wrap samplers.run_chains; returns the (configs, traces) of each call
    that runs arms, leaving out the calls of experiments._estimate_chain."""
    calls = []
    estimating = []
    run_chains = samplers.run_chains
    estimate_chain = experiments._estimate_chain

    def recording(target, configs, x0s):
        traces = run_chains(target, configs, x0s)
        if not estimating:
            calls.append((list(configs), traces))
        return traces

    def estimating_chain(*args):
        estimating.append(True)
        try:
            return estimate_chain(*args)
        finally:
            estimating.pop()

    monkeypatch.setattr(samplers, "run_chains", recording)
    monkeypatch.setattr(experiments, "_estimate_chain", estimating_chain)
    return calls


@pytest.mark.parametrize("config", [HYPERBOLIC_TINY, BINOMIAL_TINY],
                         ids=["hyperbolic", "binomial"])
def test_every_arm_measures_at_its_own_adapted_step(monkeypatch, config):
    calls = _record_run_chains(monkeypatch)
    run_experiment(config)
    assert calls and len(calls) % 2 == 0  # a burn-in batch, then its measurement
    for (burn_configs, burn), (configs, _) in zip(calls[::2], calls[1::2]):
        assert all(c.adapt for c in burn_configs)
        assert not any(c.adapt for c in configs)
        assert len(configs) == len(burn)
        for cfg, burn_cfg, trace in zip(configs, burn_configs, burn):
            assert cfg.step_size == trace.final_step_size
            assert cfg.preconditioner is burn_cfg.preconditioner


def test_hyperbolic_cell_runs_as_one_batch_per_phase_and_splits_alike(monkeypatch):
    calls = _record_run_chains(monkeypatch)
    whole = run_experiment(HYPERBOLIC_TINY).rows
    # the burn-in and measurement of each of the two cells, all 3 x 3 chains
    assert [len(configs) for configs, _ in calls] == [9, 9, 9, 9]
    assert [(r["d"], r["chain"], r["arm"]) for r in whole] == [
        (d, chain, arm) for d in (2, 3) for chain in range(3)
        for arm in ("design", "covariance", "none")
    ]
    for d in (2, 3):
        assert len({r["wall_time"] for r in whole if r["d"] == d}) == 1
    for chains_per_batch in (1, 4):
        monkeypatch.setattr(experiments, "BATCH_STATE_BYTES",
                            chains_per_batch * 8 * 200 * 3)
        _assert_rows_alike(run_experiment(HYPERBOLIC_TINY).rows, whole)
