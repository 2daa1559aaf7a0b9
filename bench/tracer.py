"""Span tracing of the program's modules from outside, and per-layer metrics.

``Tracer.install`` wraps the public functions of each ``precond`` module in
every module namespace that refers to them, the ``Preconditioner.inv``
property, and the potential, gradient and Hessian closures of every target
and pushforward the program builds. Each call records a span (name, start,
end, parent) into flat in-memory arrays; ``uninstall`` restores the
originals. Nothing in the program changes.

Two per-step helpers of ``samplers`` (``mh_accept``, ``adapt_step_size``)
stay unwrapped: a span per step on each would double the tracing cost, and
their time is samplers time either way, counted in the chain's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from array import array
from statistics import median

import numpy as np

from precond import (cli, conditioning, diagnostics, experiments, linalg,
                     preconditioners, samplers, targets)

MODULES = (linalg, targets, preconditioners, samplers, diagnostics,
           conditioning, experiments, cli)
UNWRAPPED = {"samplers.mh_accept", "samplers.adapt_step_size"}
TARGET_CONSTRUCTORS = ("gaussian_target", "cosine_hard_target",
                       "hyperbolic_regression_target", "binomial_gprior_target")
CHAINS = ("samplers.rwm_chain", "samplers.mala_chain",
          "samplers.rwm_chain_pushforward_view")
CLOSURES = ("potential", "gradient", "hessian")
IO = ("experiments.save_result", "experiments.result_to_csv",
      "experiments.result_from_csv", "experiments.load_config",
      "experiments.config_from_dict", "experiments.load_model_file")
MEASURES = ("conditioning.measure_eps_eigenvalue", "conditioning.measure_eps_norm",
            "conditioning.measure_delta_eigenvector",
            "conditioning.measure_eps_hessian_variation")
EIGEN = ("linalg.sym_eigen", "linalg.spectral_norm", "linalg.loewner_leq",
         "linalg.symmetrize_preconditioner")
ROUND = "bench.round"

# Per-layer metrics: name -> unit. Their definitions are in layer_metrics.
UNITS = {
    "samplers.self_s": "s", "samplers.ns_per_step": "ns",
    "samplers.find_mode_s": "s",
    "targets.potential_calls": "count", "targets.potential_s": "s",
    "targets.ns_per_potential": "ns",
    "targets.gradient_calls": "count", "targets.gradient_s": "s",
    "targets.hessian_calls": "count", "targets.hessian_s": "s",
    "preconditioners.pushforward_s": "s", "preconditioners.inv_calls": "count",
    "preconditioners.build_s": "s",
    "diagnostics.ess_s": "s", "diagnostics.us_per_series": "us",
    "conditioning.kappa_after_calls": "count", "conditioning.kappa_after_s": "s",
    "conditioning.probes_s": "s", "conditioning.measure_s": "s",
    "linalg.eigen_calls": "count", "linalg.eigen_s": "s",
    "experiments.self_s": "s", "experiments.io_s": "s", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.steps = array("q")  # chain spans: n_steps of the chain
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, steps_of=None):
        nid = self._id(name)
        name_id, parent, start, end, steps = (self.name_id, self.parent,
                                              self.start, self.end, self.steps)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            steps.append(steps_of(args) if steps_of is not None else 0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_target(self, prefix: str, target):
        fields = {f: self.wrap(f"{prefix}.{f}", getattr(target, f)) for f in CLOSURES}
        return dataclasses.replace(target, **fields)

    def install(self) -> None:
        wrapped = {}
        for mod in MODULES:
            for attr, fn in vars(mod).items():
                name = f"{mod.__name__.split('.')[-1]}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                steps_of = (lambda a: a[1].n_steps) if name in CHAINS else None
                w = self.wrap(name, fn, steps_of)
                if attr in TARGET_CONSTRUCTORS:
                    w = self._returning_traced_target(w, "targets")
                elif name == "preconditioners.pushforward":
                    w = self._returning_traced_target(w, "preconditioners.pushforward")
                wrapped[fn] = w
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        inv = preconditioners.Preconditioner.inv
        self._patch(preconditioners.Preconditioner, "inv",
                    property(self.wrap("preconditioners.Preconditioner.inv", inv.fget)))

    def _returning_traced_target(self, fn, prefix: str):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            return self._wrap_target(prefix, fn(*args, **kwargs))
        return build

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def round(self, body):
        """Run body() as one traced round; returns the (first, end) span range."""
        first = len(self.start)
        self.install()
        try:
            self.wrap(ROUND, body)()
        finally:
            self.uninstall()
        return first, len(self.start)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "steps": np.frombuffer(self.steps, dtype=np.int64),
        }


def _in(names: list, selected) -> np.ndarray:
    """Boolean table over name ids: is the name in the selection (tuple or predicate)."""
    if callable(selected):
        return np.array([selected(n) for n in names], dtype=bool)
    return np.array([n in selected for n in names], dtype=bool)


def _topmost(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Spans in a family that have no ancestor in the same family."""
    covered = np.zeros(parent.shape[0], dtype=bool)  # some ancestor is a member
    has_parent = parent >= 0
    p = parent[has_parent]
    while True:
        nxt = np.zeros_like(covered)
        nxt[has_parent] = member[p] | covered[p]
        if np.array_equal(nxt, covered):
            return member & ~covered
        covered = nxt


def layer_metrics(arrays: dict, lo: int, hi: int) -> dict:
    """Per-layer metrics of the spans [lo, hi) of one traced round."""
    names = list(arrays["names"])
    nid = arrays["name_id"][lo:hi]
    parent = arrays["parent"][lo:hi] - lo
    parent[parent < 0] = -1
    dur = (arrays["end_ns"][lo:hi] - arrays["start_ns"][lo:hi]) * 1e-9
    steps = arrays["steps"][lo:hi]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=dur.shape[0])
    self_t = dur - child

    def sel(selected):
        return _in(names, selected)[nid]

    def self_s(selected):
        return float(self_t[sel(selected)].sum())

    def incl_s(selected):
        return float(dur[_topmost(parent, sel(selected))].sum())

    def calls(selected):
        return int(sel(selected).sum())

    def prefix(p):
        return lambda n: n.startswith(p)

    closures = tuple(f"preconditioners.pushforward.{c}" for c in CLOSURES)
    n_steps = int(steps[sel(CHAINS)].sum())
    pot = self_s(("targets.potential",))
    n_pot = calls(("targets.potential",))
    ess = incl_s(("diagnostics.ess_report", "diagnostics.ess"))
    n_series = calls(("diagnostics.ess",))
    return {
        "samplers.self_s": self_s(prefix("samplers.")),
        "samplers.ns_per_step": self_s(CHAINS) / n_steps * 1e9 if n_steps else 0.0,
        "samplers.find_mode_s": incl_s(("samplers.find_mode",)),
        "targets.potential_calls": n_pot,
        "targets.potential_s": pot,
        "targets.ns_per_potential": pot / n_pot * 1e9 if n_pot else 0.0,
        "targets.gradient_calls": calls(("targets.gradient",)),
        "targets.gradient_s": self_s(("targets.gradient",)),
        "targets.hessian_calls": calls(("targets.hessian",)),
        "targets.hessian_s": self_s(("targets.hessian",)),
        "preconditioners.pushforward_s": self_s(closures),
        "preconditioners.inv_calls": calls(("preconditioners.Preconditioner.inv",)),
        "preconditioners.build_s": incl_s(
            lambda n: n.startswith("preconditioners.") and n not in closures
            and n != "preconditioners.to_csv"),
        "diagnostics.ess_s": ess,
        "diagnostics.us_per_series": ess / n_series * 1e6 if n_series else 0.0,
        "conditioning.kappa_after_calls": calls(("conditioning.kappa_after",)),
        "conditioning.kappa_after_s": incl_s(("conditioning.kappa_after",)),
        "conditioning.probes_s": incl_s(("conditioning.default_probes",)),
        "conditioning.measure_s": incl_s(MEASURES),
        "linalg.eigen_calls": calls(EIGEN),
        "linalg.eigen_s": incl_s(prefix("linalg.")),
        "experiments.self_s": self_s(prefix("experiments.")),
        "experiments.io_s": incl_s(IO),
        "cli.self_s": self_s(prefix("cli.")),
    }


def summarize(arrays: dict, ranges: list, untraced_walls: list, traced_walls: list) -> dict:
    """Median of each per-layer metric over the traced rounds, plus the overhead."""
    per_round = [layer_metrics(arrays, lo, hi) for lo, hi in ranges]
    out = {k: median(r[k] for r in per_round) for k in per_round[0]}
    # counts are the same in every round
    out.update({k: int(v) for k, v in out.items() if UNITS[k] == "count"})
    out["trace.overhead_ratio"] = median(traced_walls) / median(untraced_walls)
    return out
