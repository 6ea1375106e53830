"""Outside-in span tracing of one modnlp solve, and the per-layer metrics
computed from the spans.

The tracer rebinds module-level names (in every module that imported them),
wraps three class methods and the Model callbacks; it changes no library
file and restores every binding on exit. A span is (name, start, end,
parent, note); spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import dataclasses
import struct
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "driver", "model", "reformulation", "linalg",
    "subproblem", "relaxation", "globalization", "mechanism",
)
SOLVE = "driver.solve"
MODEL_CALLBACKS = {
    "eval_objective": "model.f",
    "eval_constraints": "model.c",
    "eval_objective_gradient": "model.g",
    "eval_constraint_jacobian": "model.J",
    "eval_lagrangian_hessian": "model.H",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, note)
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    def wrap(self, name, fn, note=None):
        """Return fn recording one span per call. note(args, result) may
        attach a small value to the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, result))
            return result

        return traced

    def solve(self, run, *args):
        """Run one solve as the root span; callback repeats are counted per
        solve."""
        self._seen = {name: set() for name in MODEL_CALLBACKS.values()}
        return self.wrap(SOLVE, run)(*args)

    def traced_model(self, model):
        """The model with every callback wrapped; the note of a callback span
        is True when the same callback already ran at the same arguments in
        this solve."""
        replacements = {
            attr: self.wrap(name, getattr(model, attr), self._repeat_note(name))
            for attr, name in MODEL_CALLBACKS.items()
        }
        return dataclasses.replace(model, **replacements)

    def _repeat_note(self, name):
        def note(args, result):
            key = b"".join(
                np.ascontiguousarray(a, dtype=float).tobytes() if isinstance(a, np.ndarray)
                else struct.pack("d", a) for a in args
            )
            seen = self._seen[name]
            if key in seen:
                return True
            seen.add(key)
            return False

        return note


def _qp_note(args, solution):
    return (solution.status == "Optimal", solution.iterations)


def _dim_note(args, result):
    return int(np.shape(args[0])[0])


def _bool_note(args, result):
    return bool(result)


@contextmanager
def installed(tracer: Tracer, modnlp):
    """Rebind the layer entry points of the imported modnlp package to
    traced versions for the duration of the block."""
    linalg, subproblem = modnlp.linalg, modnlp.subproblem
    relaxation, driver, mechanism = modnlp.relaxation, modnlp.driver, modnlp.mechanism
    globalization = modnlp.globalization
    targets = [
        # (owners that bind the name, attribute, span name, note)
        ((linalg, relaxation, driver), "ldlt_factorize", "linalg.ldlt_factorize", _dim_note),
        ((linalg, subproblem, relaxation, driver), "solve_factorized",
         "linalg.solve_factorized", None),
        ((relaxation, driver), "qp_solve", "linalg.qp_solve", _qp_note),
        ((subproblem,), "make_positive_definite", "linalg.make_positive_definite", None),
        ((subproblem,), "inertia_correct", "linalg.inertia_correct", None),
        ((relaxation,), "build_sqp_qp", "subproblem.build_sqp_qp", None),
        ((relaxation,), "ipm_solve_step", "subproblem.ipm_solve_step", None),
        ((driver,), "to_equality_form", "reformulation.to_equality_form", None),
        ((driver,), "scale_functions", "reformulation.scale_functions", None),
        ((mechanism,), "assemble_trial", "mechanism.assemble_trial", None),
        ((relaxation.L1Relaxation, relaxation.FeasibilityRestoration), "compute_direction",
         "relaxation.compute_direction", None),
        ((globalization.MeritL1, globalization.FilterMethod), "check_acceptance",
         "globalization.check_acceptance", _bool_note),
        ((mechanism.BacktrackingLineSearch, mechanism.TrustRegionMethod),
         "compute_acceptable_iterate", "mechanism.compute_acceptable_iterate", None),
    ]
    saved = []
    try:
        for owners, attr, name, note in targets:
            for owner in owners:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, float]:
    """Per-layer metrics. Counts and seconds are per pass of the workload
    (totals over the traced passes divided by ``passes``); *_frac and
    *_per_* metrics are ratios. Every *_s and busy time is self time: the
    span's duration minus the time its child spans cover."""
    count = len(spans)
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]

    # nearest enclosing span of a few kinds, by index (-1: none)
    enclosing = {name: [-1] * count for name in (
        "linalg.qp_solve", "linalg.make_positive_definite", "linalg.inertia_correct",
        "relaxation.compute_direction")}
    for i, s in enumerate(spans):
        for name, table in enclosing.items():
            parent = table[s[3]] if s[3] >= 0 else -1
            table[i] = i if s[0] == name else parent

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_time):
        calls[s[0]] = calls.get(s[0], 0) + 1
        busy[s[0]] = busy.get(s[0], 0.0) + t
        layer_self[s[0].split(".", 1)[0]] += t
    solve_s = sum(s[2] - s[1] for s in spans if s[0] == SOLVE)

    def n(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def inside(kind, name):
        table = enclosing[kind]
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and s[3] >= 0 and table[s[3]] >= 0)

    ldlt = [s for s in spans if s[0] == "linalg.ldlt_factorize"]
    dims = np.array([s[4] for s in ldlt], dtype=float)
    qps = [s[4] for s in spans if s[0] == "linalg.qp_solve" and s[4] is not None]
    model_spans = [s for s in spans if s[0].startswith("model.")]
    tests = [s[4] for s in spans if s[0] == "globalization.check_acceptance" and s[4] is not None]
    per_pass = 1.0 / max(passes, 1)
    subproblem_solves = (inside("relaxation.compute_direction", "linalg.qp_solve")
                         + inside("relaxation.compute_direction", "subproblem.ipm_solve_step"))

    m = {
        "model.calls_f": n("model.f") * per_pass,
        "model.calls_c": n("model.c") * per_pass,
        "model.calls_g": n("model.g") * per_pass,
        "model.calls_J": n("model.J") * per_pass,
        "model.calls_H": n("model.H") * per_pass,
        "model.busy_s": layer_self["model"] * per_pass,
        "model.repeat_frac": ratio(sum(1 for s in model_spans if s[4]), len(model_spans)),
        "reformulation.busy_s": layer_self["reformulation"] * per_pass,
        "linalg.ldlt_calls": len(ldlt) * per_pass,
        "linalg.ldlt_busy_s": b("linalg.ldlt_factorize") * per_pass,
        "linalg.ldlt_dim_mean": float(dims.mean()) if dims.size else 0.0,
        "linalg.ldlt_flops_computed": float(np.sum(dims**3) / 3.0) * per_pass,
        "linalg.solve_factorized_busy_s": b("linalg.solve_factorized") * per_pass,
        "linalg.qp_calls": n("linalg.qp_solve") * per_pass,
        "linalg.qp_self_s": b("linalg.qp_solve") * per_pass,
        "linalg.qp_iterations": sum(it for _, it in qps) * per_pass,
        "linalg.ldlt_per_qp": ratio(inside("linalg.qp_solve", "linalg.ldlt_factorize"),
                                    n("linalg.qp_solve")),
        "linalg.qp_optimal_frac": ratio(sum(1 for ok, _ in qps if ok), len(qps)),
        "linalg.make_pd_calls": n("linalg.make_positive_definite") * per_pass,
        "linalg.make_pd_probes_per_call": ratio(
            inside("linalg.make_positive_definite", "linalg.ldlt_factorize"),
            n("linalg.make_positive_definite")),
        "linalg.inertia_calls": n("linalg.inertia_correct") * per_pass,
        "linalg.inertia_ldlt_per_call": ratio(
            inside("linalg.inertia_correct", "linalg.ldlt_factorize"),
            n("linalg.inertia_correct")),
        "linalg.self_s": layer_self["linalg"] * per_pass,
        "subproblem.build_qp_busy_s": b("subproblem.build_sqp_qp") * per_pass,
        "subproblem.ipm_step_calls": n("subproblem.ipm_solve_step") * per_pass,
        "subproblem.ipm_step_self_s": b("subproblem.ipm_solve_step") * per_pass,
        "relaxation.direction_calls": n("relaxation.compute_direction") * per_pass,
        "relaxation.direction_self_s": b("relaxation.compute_direction") * per_pass,
        "relaxation.solves_per_direction": ratio(subproblem_solves,
                                                 n("relaxation.compute_direction")),
        "globalization.tests": len(tests) * per_pass,
        "globalization.accept_frac": ratio(sum(tests), len(tests)),
        "globalization.busy_s": layer_self["globalization"] * per_pass,
        "mechanism.iterations": n("mechanism.compute_acceptable_iterate") * per_pass,
        "mechanism.trials_per_iteration": ratio(n("mechanism.assemble_trial"),
                                                n("mechanism.compute_acceptable_iterate")),
        "mechanism.self_s": layer_self["mechanism"] * per_pass,
        "driver.self_s": layer_self["driver"] * per_pass,
    }
    for layer in LAYERS:
        m[layer + ".self_frac"] = ratio(layer_self[layer], solve_s)
    m["trace.solve_s"] = solve_s * per_pass
    return m


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or "_per_" in name:
        return "ratio"
    if name.endswith("_dim_mean"):
        return "rows"
    if name.endswith("_flops_computed"):
        return "flop"
    return "count"
