"""The benchmark's tracer, perfbench/layers.py, rebinds solver functions and
methods by name. A rename in the solver must fail here, not in a traced
benchmark run."""
import importlib.util
from pathlib import Path

import modnlp

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every module and class attribute the tracer may rebind."""
    owners = [modnlp.linalg, modnlp.subproblem, modnlp.relaxation, modnlp.driver,
              modnlp.mechanism, modnlp.globalization]
    owners += [value for owner in owners[:] for value in vars(owner).values()
               if isinstance(value, type) and value.__module__ == owner.__name__]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()
            if callable(value)}


def test_tracer_installs_traces_and_restores():
    layers = load_layers()
    before = bindings()
    tracer = layers.Tracer()
    rebound = (modnlp.subproblem, "inertia_correct")
    with layers.installed(tracer, modnlp):
        assert getattr(*rebound) is not before[rebound]
        model = tracer.traced_model(modnlp.corpus_get("hs071"))
        result = tracer.solve(modnlp.solve, model, modnlp.preset_options("ipopt"))
    assert bindings() == before
    assert result.status == "FeasibleKKT"
    names = {span[0] for span in tracer.spans}
    assert {"driver.solve", "linalg.inertia_correct", "linalg.solve_factorized",
            "subproblem.ipm_solve_step", "globalization.check_acceptance",
            "model.f"} <= names
    metrics = layers.layer_metrics(tracer.spans, passes=1)
    assert metrics["linalg.inertia_calls"] == result.subproblem_solves
