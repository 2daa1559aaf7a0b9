"""Benchmark of precond: four workloads, timed end to end and per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gauss-rwm --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --smoke

Each run starts SETUP_PROBES fresh processes that only set the workload up,
then one more that sets it up and runs its rounds (worker.py). set-up time is
the median over all of them, from process start to ready. The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1). The
run's outputs, provenance and spans go to bench/out/<workload>/. See
README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gauss-rwm", "hyperbolic-mala", "binomial-rwm", "certify")
SETUP_PROBES = 8
# Hard limit on one worker process, so that a run ends within 180 s.
WORKER_TIMEOUT_S = 150
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}


def start_worker(argv: list, env: dict) -> tuple[subprocess.Popen, float]:
    """Start worker.py and wait for its ready line; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {' '.join(argv)} did not get ready")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for a worker; kill it if it outlives the timeout (which is re-raised)."""
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_one(workload: str, seed: int, seconds: float, trace: int,
            scale: str = "full", probes: int = SETUP_PROBES) -> dict:
    out = HERE / "out" / workload
    shutil.rmtree(out, ignore_errors=True)  # nothing of an earlier run is read back
    out.mkdir(parents=True)
    env = {**os.environ, **PINNED_ENV}
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scale", scale, "--out", str(out)]
    setups = []
    for _ in range(probes):
        proc, setup = start_worker(argv + ["--setup-only"], env)
        if finish(proc, 30) != 0:
            raise RuntimeError("set-up probe failed")
        setups.append(setup)
    proc, setup = start_worker(argv, env)
    setups.append(setup)
    code = finish(proc, WORKER_TIMEOUT_S)
    if code not in (0, 1) or not (out / "worker.json").is_file():
        raise RuntimeError(f"worker exited with {code}")
    result = json.loads((out / "worker.json").read_text())
    result["setup_samples_s"] = setups
    if not trace:
        result["metrics"]["setup_s"] = {"value": median(setups), "unit": "s"}
    (out / "run.json").write_text(json.dumps(result, indent=1) + "\n")
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics", "errors")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and its checks at toy size, "
                             "one untraced and one traced round each")
    args = parser.parse_args()
    if not (ROOT / "src" / "precond" / "__init__.py").is_file():
        print(f"error: no precond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        plan = [(w, 1) for w in WORKLOADS]
        run = {"seconds": 0.0, "scale": "smoke", "probes": 1}
    elif args.workload:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        plan = [(w, args.trace) for w in names]
        run = {"seconds": args.seconds, "scale": "full", "probes": SETUP_PROBES}
    else:
        parser.error("--workload or --smoke is required")
    ok = True
    for workload, trace in plan:
        try:
            res = run_one(workload, args.seed, run["seconds"], trace,
                          run["scale"], run["probes"])
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        for err in res.pop("errors"):
            print(f"check failed: {workload}: {err}", file=sys.stderr)
        ok = ok and res["correct"]
        if len(plan) > 1:
            print(workload, end=" ")
        print(json.dumps(res), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
