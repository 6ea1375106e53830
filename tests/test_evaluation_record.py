"""One evaluation record per point: no callback repeats its arguments within
a solve, the scaled start is the scaled record of the unscaled one, a zero
step shares its iterate's record, and W_rho is kept per exact (rho, y)."""
import struct
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from modnlp.corpus import corpus_get, corpus_names
from modnlp.driver import preset_options, solve
from modnlp.mechanism import assemble_trial
from modnlp.model import EvaluationRecord, instrument
from modnlp.reformulation import scale_functions, to_equality_form
from modnlp.state import Iterate
from modnlp.subproblem import Direction

CALLBACKS = ("eval_objective", "eval_constraints", "eval_objective_gradient",
             "eval_constraint_jacobian", "eval_lagrangian_hessian")
PRESETS = {
    "filtersqp": preset_options("filtersqp"),
    "ipopt": preset_options("ipopt"),
    "byrd": preset_options("byrd"),
    "byrd_TR": replace(preset_options("byrd"), globalization_mechanism="TR"),
}


def arguments_key(args) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() if isinstance(a, np.ndarray)
                    else struct.pack("d", a) for a in args)


def recorded(model):
    """The model with every callback counted per argument bytes."""
    calls = {name: Counter() for name in CALLBACKS}

    def wrap(name):
        fn = getattr(model, name)

        def call(*args):
            calls[name][arguments_key(args)] += 1
            return fn(*args)

        return call

    return replace(model, **{name: wrap(name) for name in CALLBACKS}), calls


@pytest.mark.parametrize("preset", list(PRESETS))
def test_no_callback_repeats_its_arguments(preset):
    # f, the gradient, the Jacobian and W are evaluated once per argument;
    # c repeats once at most: to_equality_form evaluates it at the initial
    # point for the slack start, before the solver's record of that point
    repeats = []
    for name in corpus_names():
        model = corpus_get(name)
        wrapped, calls = recorded(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            solve(wrapped, PRESETS[preset])
        for callback, counter in calls.items():
            repeated = {key: count for key, count in counter.items() if count > 1}
            if callback == "eval_constraints" and not model.is_equality_form:
                start = arguments_key((model.initial_point,))
                if set(repeated) <= {start} and repeated.get(start, 2) == 2:
                    continue
            if repeated:
                repeats.append((name, callback, sorted(repeated.values())))
    assert repeats == []


@pytest.mark.parametrize("name", ["hs071", "hs063", "maratos", "booth", "infeasible1"])
def test_scaled_start_record_equals_a_fresh_scaled_evaluation(name):
    working, counts = instrument(to_equality_form(corpus_get(name)))
    start = EvaluationRecord(working, working.initial_point)
    f, c, g, J = start.f, start.c, start.grad_f, start.jac_c
    before = (counts.objective, counts.constraints, counts.objective_gradient,
              counts.constraint_jacobian)
    scaled, factors, scaled_start = scale_functions(start, 100.0)
    assert (counts.objective, counts.constraints, counts.objective_gradient,
            counts.constraint_jacobian) == before  # built from start, no callback
    fresh = EvaluationRecord(scaled, working.initial_point)
    assert scaled_start.model is scaled and scaled_start.x.tobytes() == fresh.x.tobytes()
    assert struct.pack("d", scaled_start.f) == struct.pack("d", fresh.f)
    for part in ("c", "grad_f", "jac_c"):
        ours, theirs = getattr(scaled_start, part), getattr(fresh, part)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
    assert factors.s_f * f == scaled_start.f and np.array_equal(factors.s_c * c, scaled_start.c)
    assert np.array_equal(factors.s_f * g, scaled_start.grad_f)
    assert np.array_equal(factors.s_c[:, None] * J, scaled_start.jac_c)


def test_scaled_record_scales_only_what_was_evaluated():
    working, counts = instrument(to_equality_form(corpus_get("hs071")))
    start = EvaluationRecord(working, working.initial_point)
    start.grad_f, start.jac_c  # what the scaling rule reads
    _, _, scaled_start = scale_functions(start, 100.0)
    assert (counts.objective, counts.constraints) == (0, 0)
    scaled_start.f, scaled_start.c
    assert (counts.objective, counts.constraints) == (1, 1)


def test_zero_step_trial_shares_the_iterate_record():
    model, counts = instrument(to_equality_form(corpus_get("hs071")))
    n, m = model.n, model.m
    x = model.initial_point.astype(float)
    iterate = Iterate(x, np.ones(m), np.ones(n), np.zeros(n), EvaluationRecord(model, x))
    iterate.evals.f, iterate.evals.grad_f

    def step(dx):
        return Direction(dx=dx, dy=np.full(m, 0.5), dzl=np.zeros(n), dzu=np.zeros(n),
                         status="Optimal")

    zero = assemble_trial(iterate, step(np.zeros(n)), 1.0)
    assert zero.evals is iterate.evals
    assert zero.y.tolist() == [1.5] * m  # the multipliers still step
    assert zero.evals.f == iterate.evals.f and counts.objective == 1
    moved = assemble_trial(iterate, step(np.full(n, 1e-3)), 1.0)
    assert moved.evals is not iterate.evals
    moved.evals.f
    assert counts.objective == 2
    # -0.0 + 0.0 is +0.0: a point equal in value but not in bytes is a new record
    signed = Iterate(-np.zeros(n), np.ones(m), np.ones(n), np.zeros(n),
                     EvaluationRecord(model, -np.zeros(n)))
    assert assemble_trial(signed, step(np.zeros(n)), 1.0).evals is not signed.evals


def test_hessian_memo_is_per_exact_rho_and_y():
    model, counts = instrument(to_equality_form(corpus_get("hs071")))
    record = EvaluationRecord(model, model.initial_point)
    y = np.array([0.5, -1.0])
    W = record.lagrangian_hessian(1.0, y)
    assert record.lagrangian_hessian(1.0, y.copy()) is W and counts.hessian == 1
    record.lagrangian_hessian(0.0, y)
    record.lagrangian_hessian(1.0, y + 1e-12)
    assert counts.hessian == 3
    assert record.with_hessian(1.0, y).hessian is W and counts.hessian == 3
    # no W is derived from another by linearity in rho
    record.lagrangian_hessian(0.5, y)
    assert counts.hessian == 4


def test_hessian_memo_evaluates_again_after_restoration_resets_y():
    # entering restoration replaces the iterate's multipliers with the
    # feasibility problem's; W at the new y is a new evaluation
    from modnlp.driver import _build_ingredients
    from modnlp.state import Workspace

    working, counts = instrument(to_equality_form(corpus_get("hs071")))
    ws = Workspace(working)
    _, relaxation, _ = _build_ingredients(ws, PRESETS["ipopt"])
    x, zl, zu = relaxation.subproblem.initial_point(working.initial_point)
    iterate = Iterate(x, np.array([3.0, -2.0]), zl, zu, EvaluationRecord(working, x))
    relaxation.initialize(iterate)
    relaxation.subproblem.optimality_direction(iterate, None)
    relaxation.subproblem.optimality_direction(iterate, None)
    assert counts.hessian == 1
    y_before = iterate.y
    relaxation._enter_restoration(iterate)
    assert not np.array_equal(iterate.y, y_before)
    relaxation.subproblem.optimality_direction(iterate, None)
    assert counts.hessian == 2
    assert counts.objective == 1 and counts.objective_gradient == 1  # one record of x
