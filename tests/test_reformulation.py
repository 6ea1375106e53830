import numpy as np
import pytest

from modnlp.corpus import corpus_get
from modnlp.errors import ConfigurationError, InconsistentBoundsError
from modnlp.linalg import elastic_init, ldlt_factorize
from modnlp.model import EvaluationRecord, evaluate
from modnlp.reformulation import scale_functions, to_equality_form
from modnlp.driver import Options
from modnlp.relaxation import IPMSubproblem, elastic_evaluations
from modnlp.state import Workspace


def equality_form(model):
    """The working model of to_equality_form at the model's initial point."""
    return to_equality_form(EvaluationRecord(model, model.initial_point)).model


def test_inequality_gets_slack():
    model = equality_form(corpus_get("hs021"))
    assert model.is_equality_form
    assert model.n == 3  # one slack for the single inequality
    assert model.m == 1
    # slack bounds equal the original row bounds
    assert model.variable_lower[2] == 0.0
    assert model.variable_upper[2] == np.inf


def test_equality_model_unchanged():
    model = corpus_get("booth")
    # booth rows are authored with nonzero rhs, so a shift is applied once
    eq = to_equality_form(EvaluationRecord(model, model.initial_point))
    assert eq.model.is_equality_form
    assert (eq.model.n, eq.model.m) == (2, 2)
    again = to_equality_form(eq)
    assert again is eq


def test_inconsistent_row_bounds():
    from dataclasses import replace

    model = corpus_get("hs021")
    broken = replace(
        model,
        constraint_lower=np.array([1.0]),
        constraint_upper=np.array([0.0]),
    )
    with pytest.raises(InconsistentBoundsError):
        to_equality_form(EvaluationRecord(broken, broken.initial_point))


@pytest.mark.parametrize("lower, upper", [(np.nan, 0.0), (0.0, np.nan), (np.inf, -np.inf)])
def test_nan_or_inverted_row_bounds_are_a_configuration_error(lower, upper):
    from dataclasses import replace

    model = corpus_get("hs021")
    broken = replace(model, constraint_lower=np.array([lower]),
                     constraint_upper=np.array([upper]))
    with pytest.raises(ConfigurationError, match="^constraint 0 has lower bound"):
        to_equality_form(EvaluationRecord(broken, broken.initial_point))


def test_equality_form_residual_consistency():
    for name in ("hs035", "hs071", "hs076"):
        base = corpus_get(name)
        eq = equality_form(base)
        w = eq.initial_point.copy()
        c = eq.eval_constraints(w)
        raw = base.eval_constraints(base.initial_point)
        # slack initialization clips the raw value into the row bounds
        for j in range(base.m):
            lo, hi = base.constraint_lower[j], base.constraint_upper[j]
            if lo < hi:
                expected = raw[j] - np.clip(raw[j], lo, hi)
            else:
                expected = raw[j] - lo
            assert c[j] == pytest.approx(expected, abs=1e-12)


def test_scaling_factors():
    model = equality_form(corpus_get("hs063"))
    x0 = model.initial_point
    scaled, factors, _ = scale_functions(EvaluationRecord(model, x0), s_max=100.0)
    ev = evaluate(model, x0)
    norm_f = np.max(np.abs(ev.grad_f))
    assert factors.s_f == pytest.approx(min(1.0, 100.0 / norm_f))
    sev = evaluate(scaled, x0)
    np.testing.assert_allclose(sev.grad_f, factors.s_f * ev.grad_f)
    np.testing.assert_allclose(sev.c, factors.s_c * ev.c)


def test_scaling_capped_and_zero_norm_convention():
    from dataclasses import replace

    model = corpus_get("booth")  # grad f = 0 everywhere
    scaled, factors, _ = scale_functions(EvaluationRecord(model, model.initial_point), s_max=100.0)
    assert factors.s_f == 1.0  # zero-norm convention
    steep = replace(
        model,
        eval_objective=lambda x: 1000.0 * x[0],
        eval_objective_gradient=lambda x: np.array([1000.0, 0.0]),
    )
    _, f2, _ = scale_functions(EvaluationRecord(steep, model.initial_point), s_max=100.0)
    assert f2.s_f == pytest.approx(0.1)


def test_unit_factors_return_the_model_and_the_start():
    # where every factor is 1 (always at s_max = inf) nothing is wrapped:
    # the model and the start record come back as given
    model = equality_form(corpus_get("rosenbrock_ring"))
    start = EvaluationRecord(model, model.initial_point)
    scaled, factors, scaled_start = scale_functions(start, s_max=100.0)
    assert factors.s_f < 1.0 and scaled is not model and scaled_start is not start
    scaled, factors, scaled_start = scale_functions(start, s_max=np.inf)
    assert factors.s_f == 1.0 and factors.s_c.tolist() == [1.0]
    assert scaled is model and scaled_start is start


def test_constraint_scaling_rule_per_row():
    # s_c is 1 for a zero row and min(1, s_max / |row|_inf) otherwise
    from dataclasses import replace

    model = corpus_get("booth")
    jac = np.array([[0.0, 0.0], [3.0, -40.0], [0.5, -400.0]])
    rows = replace(
        model,
        m=3,
        constraint_lower=np.zeros(3),
        constraint_upper=np.zeros(3),
        eval_constraint_jacobian=lambda x: jac,
    )
    _, factors, _ = scale_functions(EvaluationRecord(rows, model.initial_point), s_max=100.0)
    assert factors.s_c.tolist() == [1.0, 1.0, 100.0 / 400.0]
    none = replace(
        model,
        m=0,
        constraint_lower=np.zeros(0),
        constraint_upper=np.zeros(0),
        eval_constraint_jacobian=lambda x: np.zeros((0, 2)),
    )
    _, factors, _ = scale_functions(EvaluationRecord(none, model.initial_point), s_max=100.0)
    assert factors.s_c.shape == (0,) and factors.s_c.dtype == float


def test_elastic_init():
    up, um = elastic_init(np.array([3.0, -2.0]))
    np.testing.assert_allclose(up, [3.0, 0.0])
    np.testing.assert_allclose(um, [0.0, 2.0])
    up, um = elastic_init(np.zeros(3))
    assert np.all(up == 0.0) and np.all(um == 0.0)
    rng = np.random.RandomState(1)
    for _ in range(20):
        c = rng.uniform(-10.0, 10.0, size=6)
        up, um = elastic_init(c)
        assert np.sum(up) + np.sum(um) == pytest.approx(np.sum(np.abs(c)))
        np.testing.assert_allclose(c - up + um, np.zeros(6), atol=1e-14)


def elastic_at(base, x, rho):
    """The elastic problem at rho, at x with exact elastics (u+, u-) = (c+, c-)."""
    u = np.concatenate(elastic_init(evaluate(base, x, with_derivatives=False).c))
    return elastic_evaluations(EvaluationRecord(base, x), np.zeros(base.m), u, rho,
                               Workspace(base).bounds)


def test_elastic_model_objective_and_residual():
    base = equality_form(corpus_get("rosenbrock_ring"))
    rng = np.random.RandomState(2)
    for rho in (0.0, 0.37, 1.0):
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=base.n)
            ev = evaluate(base, x, with_derivatives=False)
            eev = elastic_at(base, x, rho)
            np.testing.assert_allclose(eev.c, np.zeros(base.m), atol=1e-14)
            assert eev.f == pytest.approx(rho * ev.f + np.sum(np.abs(ev.c)))


def test_elastic_rho_zero_is_feasibility_objective():
    base = equality_form(corpus_get("hs006"))
    x = np.array([0.5, -1.0])
    ev = evaluate(base, x, with_derivatives=False)
    assert elastic_at(base, x, 0.0).f == pytest.approx(np.sum(np.abs(ev.c)))
    assert elastic_at(base, x, 2.0).f == pytest.approx(2.0 * ev.f + np.sum(np.abs(ev.c)))


def test_elastic_jacobian_full_row_rank():
    rng = np.random.RandomState(3)
    for name in ("hs071", "infeasible1", "hs048"):
        base = equality_form(corpus_get(name))
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=base.n)
            J = elastic_at(base, x, 1.0).jac_c
            # rank via factorization of J J^T
            fact = ldlt_factorize(J @ J.T)
            assert fact.inertia == (base.m, 0, 0)


def test_elastic_structure_sizes():
    base = equality_form(corpus_get("booth"))
    ws = Workspace(base)
    eev = elastic_evaluations(
        EvaluationRecord(base, np.zeros(base.n)), np.zeros(base.m), np.zeros(4), 1.0, ws.bounds
    )
    bounds = IPMSubproblem(ws, Options()).elastic_bounds
    assert bounds.lower.size == bounds.upper.size == eev.grad_f.size == base.n + 4
    assert np.array_equal(bounds.lower[base.n:], np.zeros(4))
    assert np.array_equal(bounds.upper[base.n:], np.full(4, np.inf))
    assert eev.c.size == 2
    np.testing.assert_allclose(eev.grad_f[base.n:], np.ones(4))
