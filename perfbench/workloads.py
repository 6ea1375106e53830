"""The benchmark's workloads: which models each one solves with which
configurations, and how every answer is checked.

A workload is a list of ``Task``s built from a seed. One pass solves every
task once, in list order; the same seed always gives the same list.
"""
from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import families
import modnlp

# Published optima of the corpus: the table the repository's tests check,
# including the KKT-system optima of the equality-constrained QPs bt3 and genhs28.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from test_corpus_optima import KNOWN_OPTIMA  # noqa: E402

SUCCESS = ("FeasibleKKT", "LooseToleranceKKT")
INFEASIBLE_STATIONARY = "InfeasibleStationary"
INFEASIBLE_PROBLEMS = ("infeasible1", "infeasible2")

# ROADMAP item 1's default configurations
CONFIGURATIONS = {
    "filtersqp": lambda: modnlp.preset_options("filtersqp"),
    "ipopt": lambda: modnlp.preset_options("ipopt"),
    "byrd": lambda: modnlp.preset_options("byrd"),
    "byrd_TR": lambda: dataclasses.replace(
        modnlp.preset_options("byrd"), globalization_mechanism="TR"
    ),
}

FEASIBILITY_TOL = 1e-6


def objective_tolerance(status: str) -> float:
    return 2e-4 if status == "LooseToleranceKKT" else 2e-5


def infeasibility(model: modnlp.Model, x: np.ndarray) -> float:
    """Largest violation of the row and variable bounds at x, recomputed
    through the model's own callbacks."""
    c = np.asarray(model.eval_constraints(x), dtype=float)
    rows = np.maximum(model.constraint_lower - c, c - model.constraint_upper)
    box = np.maximum(model.variable_lower - x, x - model.variable_upper)
    return float(max(np.max(rows, initial=0.0), np.max(box, initial=0.0)))


@dataclass
class Task:
    """One solve: a model under one configuration.

    The answer check compares the objective with ``optima`` when it is set;
    otherwise with the objective that a majority of the feasible successful
    solves of the same ``group`` agree on (see ``consensus``). ``infeasible`` tasks count as
    solved only with an InfeasibleStationary certificate. Generated models
    (``generated``) must also be feasible to FEASIBILITY_TOL at the returned
    x, recomputed through the callbacks.
    """

    problem: str
    config: str
    model: modnlp.Model
    options: modnlp.Options
    optima: tuple | None = None
    group: str = ""
    generated: bool = False
    infeasible: bool = False
    default_start: bool = False


@dataclass
class Outcome:
    status: str  # solver status, or "crash:<ExceptionType>"
    seconds: float  # wall time of the solve() call alone
    reference_seconds: float = np.nan  # the same, scaled to the reference machine speed
    objective: float = np.nan
    objective_evaluations: int | None = None  # None when solve() raised
    infeasibility: float = np.nan
    message: str = ""
    consistent: bool = True  # reported objective equals f(x)
    solved: bool = False


def run_task(task: Task, call=None) -> Outcome:
    """Solve one task and time the solve() call; every exception out of
    solve() becomes a crash outcome. ``call`` replaces the plain
    ``modnlp.solve(task.model, task.options)``."""
    start = perf_counter()
    try:
        result = call() if call is not None else modnlp.solve(task.model, task.options)
    except Exception as exc:  # noqa: BLE001 - every crash is counted, none aborts the run
        return Outcome("crash:" + type(exc).__name__, perf_counter() - start, message=str(exc))
    outcome = Outcome(
        result.status,
        perf_counter() - start,
        objective=float(result.objective_value),
        objective_evaluations=int(result.objective_evaluations),
        message=result.message,
    )
    if result.status in SUCCESS:
        x = np.asarray(result.x, dtype=float)
        f = float(task.model.eval_objective(x))
        outcome.consistent = abs(f - outcome.objective) <= 1e-9 * (1.0 + abs(f))
        outcome.infeasibility = infeasibility(task.model, x)
    return outcome


def matches(objective: float, status: str, reference: float) -> bool:
    return abs(objective - reference) / (1.0 + abs(reference)) <= objective_tolerance(status)


def consensus(outcomes: list[Outcome]) -> float | None:
    """The objective that more than half of ``outcomes`` match: the first
    one, in list order, whose cluster holds a majority. None when no value
    does, as when two local minima split the group evenly."""
    for candidate in outcomes:
        agree = sum(matches(o.objective, o.status, candidate.objective) for o in outcomes)
        if 2 * agree > len(outcomes):
            return candidate.objective
    return None


def check_answers(tasks: list[Task], outcomes: list[Outcome]) -> list[str]:
    """Set ``solved`` on each outcome: a success status that passes the
    answer check, or the certificate of an infeasible problem. Returns the
    groups whose feasible successful solves agree on no objective; none of
    their solves counts as solved."""
    groups: dict[str, list[Outcome]] = {}
    for task, out in zip(tasks, outcomes):
        if task.optima is None and out.status in SUCCESS and out.infeasibility <= FEASIBILITY_TOL:
            groups.setdefault(task.group, []).append(out)
    agreed = {group: consensus(members) for group, members in groups.items()}

    for task, out in zip(tasks, outcomes):
        if task.infeasible:
            out.solved = out.status == INFEASIBLE_STATIONARY
            continue
        if out.status not in SUCCESS:
            continue
        if task.optima is not None:
            optima = task.optima
        elif agreed.get(task.group) is not None:
            optima = (agreed[task.group],)
        else:
            continue  # no feasible successful solve in the group, or no majority
        close = any(matches(out.objective, out.status, f) for f in optima)
        feasible = not task.generated or out.infeasibility <= FEASIBILITY_TOL
        out.solved = bool(close and feasible)
    return [group for group, value in agreed.items() if value is None]


def answers_correct(tasks: list[Task], outcomes: list[Outcome]) -> bool:
    """No solve reports an objective other than f(x), and no corpus solve
    from its default start claims success away from the published optimum,
    which every configuration reaches from there (tests/test_corpus_optima.py)."""
    for task, out in zip(tasks, outcomes):
        if not out.consistent:
            return False
        if task.default_start and out.status in SUCCESS and not out.solved:
            return False
    return True


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


CORPUS_SEEDED_STARTS = 3


def corpus(rng: np.random.Generator) -> list[Task]:
    """All corpus problems x 4 configurations, from the default start and
    from CORPUS_SEEDED_STARTS seeded starts x0 + N(0, 1) clipped to the
    bounds. One seeded start per problem lets the seed move p50 and p90 by
    10%; three keep them within a few percent."""
    options = {label: make() for label, make in CONFIGURATIONS.items()}
    tasks = []
    for name in modnlp.corpus_names():
        model = modnlp.corpus_get(name)
        optima = None if name in INFEASIBLE_PROBLEMS else KNOWN_OPTIMA[name]
        starts = [model] + [_perturbed_start(model, rng)
                            for _ in range(CORPUS_SEEDED_STARTS)]
        for label, opts in options.items():
            for start in starts:
                tasks.append(Task(name, label, start, opts, optima,
                                  infeasible=name in INFEASIBLE_PROBLEMS,
                                  default_start=start is model))
    return tasks


def _gated(model: modnlp.Model, rng: np.random.Generator) -> modnlp.Model:
    """Refuse an instance whose hand-coded derivatives disagree with central
    differences at a seeded point near its start."""
    point = np.clip(model.initial_point + 0.01 * rng.standard_normal(model.n),
                    model.variable_lower, model.variable_upper)
    report = modnlp.check_derivatives(model, point)
    if not report.ok:
        raise RuntimeError("derivative check failed for %s: %s" % (model.name, report))
    return model


def _perturbed_start(model: modnlp.Model, rng: np.random.Generator) -> modnlp.Model:
    x0 = np.clip(model.initial_point + rng.standard_normal(model.n),
                 model.variable_lower, model.variable_upper)
    return dataclasses.replace(model, initial_point=x0)


SCALED_QP_CHAIN = (10, 12, 14, 16, 18)
SCALED_QP_CONTROL = (6, 8, 10, 12, 14)
SCALED_IPM_CHAIN = (100, 120, 140)
SCALED_IPM_CONTROL = (50, 60, 70)
FIT_SAMPLES = 80_000
FIT_INSTANCES = 25
DESIGN = 0  # seeds the fixed design points of the control and fit families


def _scaled(rng, chain_sizes, control_sizes, configs, starts) -> list[Task]:
    """Chain and control instances, each from ``starts`` seeded starts. The
    control targets come from fixed design points, so the seed moves the
    starts and not how many bounds the solution has active."""
    options = {label: CONFIGURATIONS[label]() for label in configs}
    tasks = []
    for family, sizes in (("chain", chain_sizes), ("control", control_sizes)):
        for size in sizes:
            group = "%s%d" % (family, size)
            for start in range(starts):
                if family == "chain":
                    model, optima = families.chained_rosenbrock(size, rng), (0.0,)
                else:
                    design = np.random.default_rng([DESIGN, size])
                    model, optima = families.optimal_control(size, design, rng), None
                _gated(model, rng)
                for label, opts in options.items():
                    tasks.append(Task("%s/start%d" % (group, start), label, model, opts,
                                      optima, group=group, generated=True))
    return tasks


SCALED_STARTS = 4  # seeded starts per instance; one lets the seed move the timings by 15%


def scaled_qp(rng: np.random.Generator) -> list[Task]:
    """Chain and control instances of moderate size under the active-set
    configurations."""
    return _scaled(rng, SCALED_QP_CHAIN, SCALED_QP_CONTROL, ("filtersqp", "byrd_TR"),
                   SCALED_STARTS)


def scaled_ipm(rng: np.random.Generator) -> list[Task]:
    """Larger chain and control instances under ipopt; the solves from the
    different starts of one control instance must agree."""
    return _scaled(rng, SCALED_IPM_CHAIN, SCALED_IPM_CONTROL, ("ipopt",), SCALED_STARTS)


def fit(rng: np.random.Generator) -> list[Task]:
    """Exponential-fit instances under all four configurations. The true
    parameters and starting rates come from a fixed design of FIT_INSTANCES
    points; the seed draws the measurement noise. Which instances end in
    the trust-region configurations' QP failures (0.5-2 s each) still
    changes with the noise seed, so p90 and solved_frac jump between seeds;
    this is why the workload is not in BENCHMARK.json."""
    options = {label: make() for label, make in CONFIGURATIONS.items()}
    tasks = []
    for i in range(FIT_INSTANCES):
        design = np.random.default_rng([DESIGN, 1000 + i])
        model = _gated(families.exponential_fit(FIT_SAMPLES, design, rng), rng)
        name = "%s/%d" % (model.name, i)
        for label, opts in options.items():
            tasks.append(Task(name, label, model, opts, group=name, generated=True))
    return tasks


WORKLOADS = {
    "corpus": corpus,
    "scaled_qp": scaled_qp,
    "scaled_ipm": scaled_ipm,
    "fit": fit,
}
