"""Command-line interface: analyze models, run experiments, verify bounds."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, preconditioners
from .errors import AssumptionViolationError, PrecondError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSUMPTION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits EXIT_CONFIG, not argparse's 2
        raise PrecondError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="precond",
        description=(
            "Linear preconditioning toolkit: condition numbers, bound "
            "certification, and preconditioned RWM/MALA experiments. "
            "Experiment CSV columns: " + ", ".join(experiments.CSV_COLUMNS) + "."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="print condition numbers and bounds for a model file"
    )
    p_analyze.add_argument("--config", required=True,
                           help="model file (plain text, see README)")
    p_analyze.add_argument("--preconditioner",
                           help="preconditioner CSV file; defaults to identity")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="unused: every bound is read in closed form")
    p_analyze.add_argument("--out", help="directory for the BoundReport JSON")

    p_exp = sub.add_parser("experiment", help="run one of the paper experiments")
    p_exp.add_argument("--config", default="",
                       help="JSON config file (overrides preset fields)")
    p_exp.add_argument("--preset", help=f"one of {sorted(experiments.PRESETS)}")
    p_exp.add_argument("--seed", type=int, help="override master seed")
    p_exp.add_argument("--out", help="output directory for CSV and JSON")

    p_verify = sub.add_parser("verify-bounds", help="run the bound soundness sweep")
    p_verify.add_argument("--config", default="",
                          help="JSON config file (overrides the verify-bounds preset)")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out")
    return parser


def _resolve_config(args) -> experiments.ExperimentConfig:
    if args.command == "verify-bounds":
        cfg = experiments.load_config(args.config, preset="verify-bounds",
                                      experiment="verify-bounds")
    elif not args.preset and not args.config:
        raise PrecondError("either --config or --preset is required")
    else:
        cfg = experiments.load_config(args.config, preset=args.preset or None)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _print_reports(reports) -> None:
    width = max(len(r.kind) for r in reports)
    for rep in reports:
        lower = f" lower={rep.lower:.6g}" if rep.lower is not None else ""
        print(f"{rep.kind:<{width}}  value={rep.value:.6g}{lower}")
        if rep.inputs:
            pretty = ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in rep.inputs.items()
                if not hasattr(v, "__len__") or isinstance(v, str)
            )
            if pretty:
                print(f"{'':<{width}}  inputs: {pretty}")


def _cmd_analyze(args) -> int:
    target = experiments.load_model_file(args.config)
    if args.preconditioner:
        precond = preconditioners.from_csv(Path(args.preconditioner).read_text())
    else:
        precond = preconditioners.identity_preconditioner(target.dim)
    reports = experiments.analyze(target, precond)
    _print_reports(reports)
    if args.out:
        experiments.save_bounds(reports, Path(args.out) / "analyze_bounds.json")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    """Run ``experiment``, or ``verify-bounds`` on its preset and config."""
    cfg = _resolve_config(args)
    result = experiments.run_experiment(cfg)
    csv_path, json_path = experiments.save_result(result, cfg.output_dir)
    n_fail = sum(1 for row in result.rows if row.get("status") == "fail")
    print(f"wrote {csv_path} ({len(result.rows)} rows) and {json_path}")
    if cfg.experiment == "verify-bounds":
        print(f"bound violations: {n_fail}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_experiment(args)
    except AssumptionViolationError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (PrecondError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
