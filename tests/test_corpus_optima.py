"""The corpus's answer judge, ``modnlp.corpus.is_right``: its table covers the
corpus, its rule holds on hand-made results, and every preset gives a right
answer on every problem. The KKT oracle below reproduces the table's optima
of the equality-constrained QPs.
"""
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

# KNOWN_OPTIMA is also read from here by perfbench/workloads.py, which keeps
# this import path until the benchmark reads modnlp.corpus itself
from modnlp.corpus import ETA_MINIMA, KNOWN_OPTIMA, corpus_get, corpus_names, is_right
from modnlp.driver import preset_options, solve


def equality_qp_optimum(model):
    """Independent oracle for convex QPs with linear equality constraints:
    solve the KKT system directly."""
    n = model.n
    H = model.eval_lagrangian_hessian(np.zeros(n), 1.0, np.zeros(model.m))
    g = model.eval_objective_gradient(np.zeros(n))
    A = model.eval_constraint_jacobian(np.zeros(n))
    b = -(model.eval_constraints(np.zeros(n)) - model.constraint_lower)
    K = np.block([[H, A.T], [A, np.zeros((model.m, model.m))]])
    sol = np.linalg.solve(K, np.concatenate([-g, b]))
    x = sol[:n]
    return float(model.eval_objective(x))


@pytest.mark.parametrize("name", ("bt3", "genhs28"))
def test_equality_qp_oracle_reproduces_the_table(name):
    assert KNOWN_OPTIMA[name] == (equality_qp_optimum(corpus_get(name)),)


def test_bt3_oracle_matches_literature():
    assert equality_qp_optimum(corpus_get("bt3")) == pytest.approx(4.09302326, abs=1e-7)


@pytest.mark.parametrize("preset", ("filtersqp", "ipopt", "byrd"))
@pytest.mark.parametrize("name", sorted(KNOWN_OPTIMA))
def test_preset_reaches_known_optimum(preset, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = solve(corpus_get(name), preset_options(preset))
    assert is_right(name, result), (name, preset, result.objective_value, result.status)


@pytest.mark.parametrize("preset", ("filtersqp", "ipopt"))
@pytest.mark.parametrize("name", sorted(ETA_MINIMA))
def test_infeasible_certificates_match_analytic_minima(preset, name):
    result = solve(corpus_get(name), preset_options(preset))
    assert is_right(name, result), (name, preset, result.status)


def test_every_corpus_problem_has_expectation():
    covered = set(KNOWN_OPTIMA) | set(ETA_MINIMA)
    assert covered == set(corpus_names())


def test_answer_judge():
    def right(name, status, objective=np.nan, x=(0.0,)):
        result = SimpleNamespace(status=status, objective_value=objective, x=np.array(x))
        return is_right(name, result)

    ninth = 1.0 / 9.0
    assert right("hs035", "FeasibleKKT", ninth) is True  # JSON's bool, not numpy's
    assert not right("hs035", "FeasibleKKT", 0.284)  # a false success
    assert not right("hs035", "FeasibleKKT", ninth + 1e-4)  # relative gap 9e-5
    assert right("hs035", "LooseToleranceKKT", ninth + 1e-4)  # within 2e-4
    assert not right("hs035", "LooseToleranceKKT", ninth + 1e-3)
    assert not right("hs035", "IterationLimit", ninth)
    assert not right("hs035", "FeasibleFJ", ninth)
    assert not right("hs035", "FeasibleKKT", np.nan)
    assert right("rosenbrock_ring", "FeasibleKKT", 3.9955472578)  # either local optimum
    # infeasible1: c = (x^2, x^2 + 1), eta = 1 + 2 x^2, minimum 1 at x = 0
    assert right("infeasible1", "InfeasibleStationary", x=[0.0]) is True
    assert right("infeasible1", "InfeasibleStationary", x=[0.02])  # eta 1.0008
    assert not right("infeasible1", "InfeasibleStationary", x=[0.5])  # eta 1.5
    assert not right("infeasible1", "FeasibleKKT", 0.0, x=[0.0])
    assert not right("infeasible1", "InfeasibleStationary", x=[np.nan])
