"""One evaluation record per point: no callback repeats its arguments within
a solve, the scaled start is the scaled record of the unscaled one, a zero
step shares its iterate's record, and W_rho is kept per exact (rho, y)."""
import struct
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import modnlp.driver
from modnlp.corpus import corpus_get, corpus_names
from modnlp.driver import preset_options, solve
from modnlp.mechanism import assemble_trial
from modnlp.model import EvaluationRecord, instrument
from modnlp.reformulation import scale_functions, to_equality_form
from modnlp.state import Iterate
from modnlp.subproblem import Direction


def equality_form(model):
    """The working model of to_equality_form at the model's initial point."""
    return to_equality_form(EvaluationRecord(model, model.initial_point)).model

CALLBACKS = ("eval_objective", "eval_constraints", "eval_objective_gradient",
             "eval_constraint_jacobian", "eval_lagrangian_hessian")
PRESETS = {**{name: preset_options(name) for name in modnlp.driver.PRESETS},
           "byrd_TR": replace(preset_options("byrd"), globalization_mechanism="TR")}


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
    # every callback is evaluated once per argument within a solve; c(x0)
    # too, which the slack start reads from the record of x0 (it used to
    # evaluate c(x0) once more, before the solver's record of that point).
    # The counts the solve reports are the calls an outer counter sees.
    repeats, miscounted = [], []
    for name in corpus_names():
        wrapped, calls = recorded(corpus_get(name))
        counted, counts = instrument(wrapped)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            if solve(counted, PRESETS[preset]).counts != counts:
                miscounted.append(name)
        for callback, counter in calls.items():
            repeated = [count for count in counter.values() if count > 1]
            if repeated:
                repeats.append((name, callback, sorted(repeated)))
    assert (repeats, miscounted) == ([], [])


@pytest.mark.parametrize("name, preset", [("hs071", "ipopt"), ("hs063", "filtersqp")])
def test_a_moved_start_costs_no_objective_call_at_x0(name, preset):
    # the interior push (hs071 under ipopt) and the linear-row projection
    # (hs063 under filtersqp) move x0 before iteration 0; x0 is read only
    # for what processing the start needs, and f first where iteration 0
    # starts
    model = corpus_get(name)
    wrapped, calls = recorded(model)
    result = solve(wrapped, PRESETS[preset])
    x0 = arguments_key((model.initial_point,))
    assert result.status == "FeasibleKKT"
    assert calls["eval_objective"][x0] == 0
    assert calls["eval_objective_gradient"][x0] == calls["eval_constraint_jacobian"][x0] == 1


@pytest.mark.parametrize("name, preset", [("hs071", "filtersqp"), ("hs028", "byrd")])
def test_a_start_that_stays_costs_one_objective_call_at_x0(name, preset):
    model = corpus_get(name)
    wrapped, calls = recorded(model)
    result = solve(wrapped, PRESETS[preset])
    assert result.status == "FeasibleKKT"
    assert calls["eval_objective"][arguments_key((model.initial_point,))] == 1


@pytest.mark.parametrize("preset, status, message", [
    ("filtersqp", "EvaluationError", "IEEE exception at the initial point"),
    ("ipopt", "FeasibleKKT", ""),
])
def test_a_non_finite_objective_at_x0_counts_only_where_iteration_0_starts(
        preset, status, message):
    # f is NaN at x0 alone: filtersqp starts at x0 and refuses it, ipopt's
    # interior push moves the start and never reads f there
    model = corpus_get("hs071")
    x0 = arguments_key((model.initial_point,))
    base_f = model.eval_objective
    nan_at_x0 = replace(model, eval_objective=lambda x: (
        np.nan if arguments_key((x,)) == x0 else base_f(x)))
    wrapped, calls = recorded(nan_at_x0)
    result = solve(wrapped, PRESETS[preset])
    assert (result.status, result.message) == (status, message)
    assert calls["eval_objective"][x0] == (1 if preset == "filtersqp" else 0)
    if preset == "ipopt":  # the same run as from a finite f at x0
        plain = solve(model, PRESETS[preset])
        assert result.iterations == plain.iterations and result.x.tobytes() == plain.x.tobytes()


@pytest.mark.parametrize("name", ["hs071", "hs063", "maratos", "booth", "infeasible1"])
def test_scaled_start_record_equals_a_fresh_scaled_evaluation(name):
    working, counts = instrument(equality_form(corpus_get(name)))
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


@pytest.mark.parametrize("name", corpus_names())
def test_slack_start_record_equals_a_fresh_evaluation(name):
    # to_equality_form reads c(x0) once, from the record of x0, and forms the
    # working record's c from it by the working constraints' operations
    counted, counts = instrument(corpus_get(name))
    start = to_equality_form(EvaluationRecord(counted, counted.initial_point))
    assert counts.constraints == (0 if counted.is_equality_form else 1)
    assert counts.objective == counts.objective_gradient == counts.constraint_jacobian == 0
    c = start.c
    assert counts.constraints == 1
    fresh = EvaluationRecord(start.model, start.model.initial_point)
    assert start.x.tobytes() == fresh.x.tobytes()
    assert c.shape == fresh.c.shape and c.tobytes() == fresh.c.tobytes()


def test_scaled_record_scales_only_what_was_evaluated():
    working, counts = instrument(equality_form(corpus_get("hs071")))
    start = EvaluationRecord(working, working.initial_point)
    start.grad_f, start.jac_c  # what the scaling rule reads
    _, _, scaled_start = scale_functions(start, 100.0)
    assert (counts.objective, counts.constraints) == (0, 0)
    scaled_start.f, scaled_start.c
    assert (counts.objective, counts.constraints) == (1, 1)


def test_zero_step_trial_shares_the_iterate_record():
    model, counts = instrument(equality_form(corpus_get("hs071")))
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
    model, counts = instrument(equality_form(corpus_get("hs071")))
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

    working, counts = instrument(equality_form(corpus_get("hs071")))
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
