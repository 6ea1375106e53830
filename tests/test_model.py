from dataclasses import replace

import numpy as np
import pytest

from modnlp.corpus import corpus_get, corpus_names
from modnlp.errors import NonFiniteEvaluationError, UnknownProblemError
from modnlp.model import (
    DerivativeReport,
    Evaluations,
    Model,
    check_derivatives,
    evaluate,
    instrument,
)


def test_corpus_size_and_required_names():
    names = corpus_names()
    assert len(names) >= 25
    for required in ("booth", "zangwil3", "hs003", "hs021", "hs035", "bt3",
                     "hs028", "hs048", "hs071", "infeasible1"):
        assert required in names


def test_unknown_problem():
    with pytest.raises(UnknownProblemError):
        corpus_get("unknown")


def test_booth_evaluation():
    model = corpus_get("booth")
    ev = evaluate(model, np.array([1.0, 3.0]), rho=1.0, y=np.zeros(2))
    assert ev.f == 0.0
    np.testing.assert_allclose(ev.c, [0.0, 0.0])
    np.testing.assert_allclose(ev.jac_c, [[1.0, 2.0], [2.0, 1.0]])
    assert ev.is_finite


def test_hs071_initial_objective():
    model = corpus_get("hs071")
    ev = evaluate(model, model.initial_point)
    assert ev.f == pytest.approx(16.0)
    np.testing.assert_allclose(ev.c, [25.0, 52.0])


def test_nan_propagation_reported_not_raised():
    model = corpus_get("hs007")  # contains log(1 + x^2)
    ev = evaluate(model, np.array([np.nan, 1.0]))
    assert not ev.is_finite


def test_is_finite_checks_every_stored_part():
    # f, c, g, J and H, in that order; a None part is not evaluated and skipped
    parts = [1.5, np.array([0.0, -2.0]), np.array([1.0, 0.5, 3.0]),
             np.arange(6.0).reshape(2, 3), np.eye(3)]
    assert Evaluations(*parts).is_finite
    for k in range(5):
        for bad in (np.nan, np.inf, -np.inf):
            broken = list(parts)
            if k == 0:
                broken[0] = bad
            else:
                broken[k] = parts[k].copy()
                broken[k].flat[-1] = bad
            assert Evaluations(*broken).is_finite is False
            skipped = [None if j == k else part for j, part in enumerate(parts)]
            assert Evaluations(*skipped).is_finite is True
            broken[k] = None
            assert Evaluations(*broken).is_finite is True
    assert Evaluations(np.float64(np.nan), np.zeros(0)).is_finite is False
    assert Evaluations(2.0, np.zeros(0), np.zeros(0), np.zeros((0, 0))).is_finite is True


def test_evaluate_referentially_transparent():
    model = corpus_get("hs071")
    x = model.initial_point + 0.25
    y = np.array([0.3, -0.7])
    a = evaluate(model, x, 0.5, y, with_hessian=True)
    b = evaluate(model, x, 0.5, y, with_hessian=True)
    assert a.f == b.f
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.grad_f, b.grad_f)
    assert np.array_equal(a.jac_c, b.jac_c)
    assert np.array_equal(a.hessian, b.hessian)


def test_hessian_exactly_symmetric():
    rng = np.random.RandomState(0)
    for name in corpus_names():
        model = corpus_get(name)
        x = model.initial_point + 0.1 * rng.randn(model.n)
        y = rng.randn(model.m)
        W = model.eval_lagrangian_hessian(x, 0.7, y)
        assert np.array_equal(W, W.T)


def test_booth_derivative_check_exact():
    report = check_derivatives(corpus_get("booth"), np.zeros(2), h=1e-6)
    assert report.gradient_error <= 1e-8
    assert report.jacobian_error <= 1e-8
    assert report.hessian_error <= 1e-8


def test_injected_gradient_bug_detected():
    model = corpus_get("hs028")
    broken = replace(
        model,
        eval_objective_gradient=lambda x: model.eval_objective_gradient(x) + 0.5,
    )
    report = check_derivatives(broken, model.initial_point)
    assert not report.ok
    # broken gradient at x0 is (-5.5, -1.5, 4.5), so the checker scale is 6.5
    assert report.gradient_error == pytest.approx(0.5 / 6.5, rel=0.05)


@pytest.mark.parametrize("name", corpus_names())
def test_all_corpus_derivatives(name):
    model = corpus_get(name)
    report = check_derivatives(model, model.initial_point)
    assert report.ok, (name, report)
    rng = np.random.RandomState(hash(name) % 2**32)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=model.n)
        x = np.clip(x, model.variable_lower, model.variable_upper)
        report = check_derivatives(model, x)
        assert report.ok, (name, x, report)


def test_instrumented_counters():
    model = corpus_get("hs028")
    wrapped, counts = instrument(model)
    evaluate(wrapped, model.initial_point, with_hessian=True)
    assert counts.objective == 1
    assert counts.constraints == 1
    assert counts.objective_gradient == 1
    assert counts.constraint_jacobian == 1
    assert counts.hessian == 1
    evaluate(wrapped, model.initial_point, with_derivatives=False)
    assert counts.objective == 2
    assert counts.objective_gradient == 1


def check_derivatives_oracle(model, x, h=1e-6):
    """check_derivatives as it was written first: every probe through
    evaluate(), its columns written into full difference matrices."""
    x = np.asarray(x, dtype=float)
    n, m = model.n, model.m
    rho = 1.0
    y = np.array([(-1.0) ** j / (1.0 + j) for j in range(m)])

    base = evaluate(model, x, rho, y, with_hessian=True)
    if not base.is_finite:
        raise NonFiniteEvaluationError("non-finite evaluation at the probe center")

    fd_grad = np.zeros(n)
    fd_jac = np.zeros((m, n))
    fd_hess = np.zeros((n, n))
    for i in range(n):
        step = h * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        ep = evaluate(model, xp, rho, y)
        em = evaluate(model, xm, rho, y)
        if not (ep.is_finite and em.is_finite):
            raise NonFiniteEvaluationError("non-finite evaluation at a probe point")
        fd_grad[i] = (ep.f - em.f) / (2.0 * step)
        fd_jac[:, i] = (ep.c - em.c) / (2.0 * step)
        grad_lag_p = rho * ep.grad_f - ep.jac_c.T @ y
        grad_lag_m = rho * em.grad_f - em.jac_c.T @ y
        fd_hess[:, i] = (grad_lag_p - grad_lag_m) / (2.0 * step)

    def rel_err(approx, exact):
        if exact.size == 0:
            return 0.0
        scale = 1.0 + float(np.max(np.abs(exact)))
        return float(np.max(np.abs(approx - exact))) / scale

    return DerivativeReport(
        gradient_error=rel_err(fd_grad, base.grad_f),
        jacobian_error=rel_err(fd_jac, base.jac_c),
        hessian_error=rel_err(fd_hess, base.hessian),
        threshold=1e-5,
    )


def report_bytes(report):
    """The report's four floats as bytes: equal even where an error is NaN."""
    return np.array([report.gradient_error, report.jacobian_error,
                     report.hessian_error, report.threshold]).tobytes()


def dense_model(n, m, seed):
    """A random dense model with f = x'Qx/2 + sum(cos x) and
    c = Ax + (Bx)^2/2 - b, its derivatives hand-coded."""
    rng = np.random.RandomState(seed)
    Q = rng.randn(n, n)
    Q = Q + Q.T
    A, B, b = rng.randn(m, n), rng.randn(m, n), rng.randn(m)
    return Model(
        name="dense%d_%d" % (n, m), n=n, m=m,
        variable_lower=np.full(n, -np.inf), variable_upper=np.full(n, np.inf),
        constraint_lower=np.zeros(m), constraint_upper=np.zeros(m),
        eval_objective=lambda x: 0.5 * x @ Q @ x + np.cos(x).sum(),
        eval_constraints=lambda x: A @ x + 0.5 * (B @ x) ** 2 - b,
        eval_objective_gradient=lambda x: Q @ x - np.sin(x),
        eval_constraint_jacobian=lambda x: A + (B @ x)[:, None] * B,
        eval_lagrangian_hessian=lambda x, rho, y: (
            rho * (Q - np.diag(np.cos(x))) - B.T @ (y[:, None] * B)),
        initial_point=rng.randn(n),
    )


def as_lists(model):
    """The model with every callback returning Python lists and floats."""
    return replace(
        model,
        eval_objective=lambda x: float(model.eval_objective(x)),
        eval_constraints=lambda x: np.asarray(model.eval_constraints(x)).tolist(),
        eval_objective_gradient=lambda x: np.asarray(model.eval_objective_gradient(x)).tolist(),
        eval_constraint_jacobian=lambda x: np.asarray(
            model.eval_constraint_jacobian(x)).tolist(),
    )


def assert_same_check(model, x, h=1e-6):
    """check_derivatives and the oracle give equal reports, or raise the
    same error, after the same callback calls."""
    outcomes = []
    for check in (check_derivatives, check_derivatives_oracle):
        wrapped, counts = instrument(model)
        try:
            outcome = report_bytes(check(wrapped, x, h))
        except (NonFiniteEvaluationError, ValueError) as exc:
            outcome = type(exc)
        outcomes.append((outcome, vars(counts)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


@pytest.mark.parametrize("h", [1e-6, 1e-4])
def test_check_derivatives_equals_the_oracle_on_the_corpus(h):
    rng = np.random.RandomState(7)
    for name in corpus_names():
        model = corpus_get(name)
        points = [model.initial_point] + [
            np.clip(model.initial_point + rng.randn(model.n),
                    model.variable_lower, model.variable_upper) for _ in range(3)]
        for x in points:
            report = check_derivatives(model, x, h)
            assert report == check_derivatives_oracle(model, x, h)
            assert check_derivatives(as_lists(model), x, h) == report


@pytest.mark.parametrize("n, m", [(1, 0), (7, 0), (6, 1), (9, 4), (12, 11)])
@pytest.mark.parametrize("h", [1e-6, 1e-3])
def test_check_derivatives_equals_the_oracle_on_dense_models(n, m, h):
    for seed in range(3):
        model = dense_model(n, m, seed)
        x = model.initial_point
        report = check_derivatives(model, x, h)
        assert report == check_derivatives_oracle(model, x, h)
        assert check_derivatives(as_lists(model), x, h) == report


def poisoned(model, part, coordinate, sign, value=np.nan):
    """The model with one entry of one callback's result (part: "f", "c",
    "g" or "J") set to value at the probe of coordinate along sign."""
    center = model.initial_point
    names = {"f": "eval_objective", "c": "eval_constraints",
             "g": "eval_objective_gradient", "J": "eval_constraint_jacobian"}
    callback = getattr(model, names[part])

    def probed(x):
        result = callback(x)
        moved = np.flatnonzero(x != center)
        if list(moved) == [coordinate] and np.sign(x[coordinate] - center[coordinate]) == sign:
            if part == "f":
                return value
            result = np.array(result, dtype=float)
            result.flat[-1] = value
        return result

    return replace(model, **{names[part]: probed})


def raising_from(model, coordinate, sign=None):
    """The model whose objective raises ValueError at every probe of a
    coordinate from coordinate on, or only along sign of that coordinate."""
    center = model.initial_point
    objective = model.eval_objective

    def probed(x):
        moved = np.flatnonzero(x != center)
        if moved.size and moved[0] >= coordinate and (
                sign is None or np.sign(x[moved[0]] - center[moved[0]]) == sign):
            raise ValueError("probe %d" % moved[0])
        return objective(x)

    return replace(model, eval_objective=probed)


@pytest.mark.parametrize("part", ["f", "c", "g", "J"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_probe_raises_where_the_oracle_does(part, value):
    model = dense_model(6, 3, 0)
    for coordinate in (0, 2, 5):
        for sign in (1, -1):
            bad = poisoned(model, part, coordinate, sign, value)
            assert assert_same_check(bad, model.initial_point) is NonFiniteEvaluationError


def test_a_non_finite_probe_raises_before_the_next_coordinate_is_probed():
    model = dense_model(6, 3, 1)
    x = model.initial_point
    # NaN at the plus probe of coordinate 2, ValueError from coordinate 3 on
    bad = raising_from(poisoned(model, "c", 2, 1), 3)
    assert assert_same_check(bad, x) is NonFiniteEvaluationError
    # the minus probe of coordinate 2 raises before the NaN is judged
    bad = raising_from(poisoned(model, "c", 2, 1), 2, sign=-1)
    assert assert_same_check(bad, x) is ValueError


def test_finite_probes_that_overflow_return_the_oracle_report():
    # J^T y overflows at every probe (y = (1, -1/2)); f + c overflows in a sum
    n = 3
    big = np.array([[1.5e308, 1.0, 0.0], [-1.5e308, 0.0, 1.0]])
    model = Model(
        name="overflow", n=n, m=2,
        variable_lower=np.full(n, -np.inf), variable_upper=np.full(n, np.inf),
        constraint_lower=np.zeros(2), constraint_upper=np.zeros(2),
        eval_objective=lambda x: 1.7e308 + x[0],
        eval_constraints=lambda x: np.array([1.7e308, x[1]]),
        eval_objective_gradient=lambda x: np.array([1.0, 0.0, 0.0]),
        eval_constraint_jacobian=lambda x: big,
        eval_lagrangian_hessian=lambda x, rho, y: np.zeros((n, n)),
        initial_point=np.zeros(n),
    )
    with np.errstate(all="ignore"):
        assert np.isinf(big.T @ np.array([1.0, -0.5])).any()
        report = assert_same_check(model, model.initial_point)
        assert report == report_bytes(check_derivatives_oracle(model, model.initial_point))


def test_check_derivatives_calls_each_callback_once_per_probe():
    model, counts = instrument(corpus_get("hs071"))
    check_derivatives(model, model.initial_point)
    n = model.n
    assert vars(counts) == dict(objective=1 + 2 * n, constraints=1 + 2 * n,
                                objective_gradient=1 + 2 * n,
                                constraint_jacobian=1 + 2 * n, hessian=1)
