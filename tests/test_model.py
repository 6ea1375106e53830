import numpy as np
import pytest

from modnlp.corpus import corpus_get, corpus_names
from modnlp.errors import UnknownProblemError
from modnlp.model import Evaluations, check_derivatives, evaluate, instrument


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
    from dataclasses import replace

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
