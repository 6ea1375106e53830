"""Checks of the benchmark itself:

    PYTHONPATH=src python -m pytest perfbench/baseline_check.py

- the corpus default-start pass reproduces ROADMAP item 1's baseline
  (28/28 solved per configuration; 265, 623, 1107 and 361 objective
  evaluations), through the benchmark's own configurations and answer checks;
- tracing changes no solver result, restores every binding, and its layer
  self times add up to the solve time.

The file name keeps these out of the repository's default test collection.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import modnlp  # noqa: E402
import workloads  # noqa: E402

BASELINE_OBJECTIVE_EVALUATIONS = {"filtersqp": 265, "ipopt": 623, "byrd": 1107, "byrd_TR": 361}


@pytest.fixture(scope="module")
def default_start_pass():
    tasks = [t for t in workloads.corpus(np.random.default_rng(0)) if t.default_start]
    outcomes = [workloads.run_task(t) for t in tasks]
    workloads.check_answers(tasks, outcomes)
    return tasks, outcomes


@pytest.mark.parametrize("config", sorted(BASELINE_OBJECTIVE_EVALUATIONS))
def test_corpus_default_starts_reproduce_roadmap_baseline(default_start_pass, config):
    rows = [(t, o) for t, o in zip(*default_start_pass) if t.config == config]
    assert len(rows) == 28
    assert [t.problem for t, o in rows if not o.solved] == []
    assert sum(o.objective_evaluations for _, o in rows) == BASELINE_OBJECTIVE_EVALUATIONS[config]


def test_default_start_answers_are_correct(default_start_pass):
    assert workloads.answers_correct(*default_start_pass)


def test_wrong_objective_is_not_solved():
    task = workloads.Task("hs071", "ipopt", modnlp.corpus_get("hs071"),
                          modnlp.preset_options("ipopt"), workloads.KNOWN_OPTIMA["hs071"],
                          default_start=True)
    outcome = workloads.Outcome("FeasibleKKT", 0.01, objective=17.1, objective_evaluations=9)
    workloads.check_answers([task], [outcome])
    assert not outcome.solved
    assert not workloads.answers_correct([task], [outcome])


def test_group_reference_is_the_majority_objective():
    def outcomes(*objectives):
        return [workloads.Outcome("FeasibleKKT", 0.01, objective=f) for f in objectives]

    assert workloads.consensus(outcomes(2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0)) == 1.0
    assert workloads.consensus(outcomes(1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0)) is None

    tasks = [workloads.Task("control6/start%d" % i, "filtersqp", None, None, group="control6")
             for i in range(4)]
    split = outcomes(1.0, 1.0, 2.0, 2.0)
    for out in split:
        out.infeasibility = 0.0
    assert workloads.check_answers(tasks, split) == ["control6"]
    assert not any(out.solved for out in split)


def test_tracing_is_transparent():
    tasks = workloads.scaled_ipm(np.random.default_rng(0))[:2]
    tasks += [t for t in workloads.corpus(np.random.default_rng(0)) if t.problem == "hs071"]
    plain = [workloads.run_task(t) for t in tasks]
    tracer = layers.Tracer()
    original = modnlp.linalg.ldlt_factorize
    with layers.installed(tracer, modnlp):
        traced = [workloads.run_task(t, lambda t=t: tracer.solve(
            modnlp.solve, tracer.traced_model(t.model), t.options)) for t in tasks]
    assert modnlp.linalg.ldlt_factorize is original
    assert [(o.status, o.objective_evaluations) for o in traced] == \
        [(o.status, o.objective_evaluations) for o in plain]

    metrics = layers.layer_metrics(tracer.spans, passes=1)
    shares = sum(metrics[layer + ".self_frac"] for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert metrics["linalg.ldlt_calls"] > 0 and metrics["linalg.inertia_calls"] > 0
    assert metrics["model.calls_f"] == sum(o.objective_evaluations for o in traced)
