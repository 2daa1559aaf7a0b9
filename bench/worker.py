"""One benchmark process: set up a workload, run its rounds, check and report.

Started by run.py as a fresh interpreter with BLAS threads pinned to one and
a fixed hash seed. It prints ``ready`` on standard output once set-up is
done; run.py times the process from its start to that line. With
``--setup-only`` it exits there. Otherwise it runs rounds until ``--seconds``
have passed, checks every round's outputs, and writes ``worker.json`` (metrics,
provenance and operation counts) into the output directory. Exit code 0
means every check passed and 1 that a check failed. Any exception, from the
program (a CLI call that exits non-zero) or from a check, exits 3 without
writing ``worker.json``.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import precond  # noqa: E402
from precond import cli  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

def git_revision() -> str:
    """The checked-out commit, or "unavailable" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "git_revision": git_revision(),
        "precond": str(Path(precond.__file__).parent.relative_to(ROOT)),
    }


def run_round(calls: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in calls:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"precond {' '.join(argv)} exited with {code}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    rounddir = out / "round"
    inputs = workloads.prepare(args.workload, args.seed, args.scale,
                               out / "inputs", rounddir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    trace = tracer.Tracer() if args.trace else None
    walls = {False: [], True: []}
    ranges = []
    attempted = failed = 0
    errors: list = []
    cache: dict = {}
    t_begin = time.perf_counter()
    k = 0
    while True:
        traced = trace is not None and k % 2 == 1
        shutil.rmtree(rounddir, ignore_errors=True)  # no file outlives its round
        t0 = time.perf_counter()
        if traced:
            ranges.append(trace.round(lambda: run_round(inputs.calls)))
        else:
            run_round(inputs.calls)
        walls[traced].append(time.perf_counter() - t0)
        outcome = checks.evaluate(inputs, rounddir, cache)
        attempted += outcome.attempted
        failed += outcome.failed
        errors += [f"round {k}: {e}" for e in outcome.errors]
        k += 1
        done = walls[False] and (trace is None or walls[True])
        typical = median(walls[False] + walls[True])
        if done and time.perf_counter() - t_begin + typical > args.seconds:
            break

    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "errors": errors[:20], "rounds": k,
        "round_walls_s": walls[False], "traced_round_walls_s": walls[True],
        "provenance": {**provenance(args), "attempted": attempted, "failed": failed},
    }
    if trace is None:
        result["metrics"] = {
            "wall_s": {"value": median(walls[False]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    else:
        spans = trace.arrays()
        np.savez(out / "spans.npz", **spans)
        layers = tracer.summarize(spans, ranges, walls[False], walls[True])
        result["metrics"] = {k: {"value": v, "unit": tracer.UNITS[k]}
                             for k, v in layers.items()}
    (out / "worker.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # exit 1 means "a check failed"; a crash must not look like one
        traceback.print_exc()
        sys.exit(3)
