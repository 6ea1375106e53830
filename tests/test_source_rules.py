"""Rules on the library source itself."""
import ast
import sys
from pathlib import Path

import modnlp

SOURCES = sorted(Path(modnlp.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts; internal contracts raise typed errors instead
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def test_imports_only_numpy_and_stdlib():
    # numpy is the only runtime dependency; scipy may be importable where
    # the tests run, so only this rule keeps it out of the library
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            found += [
                "%s:%d %s" % (path.name, node.lineno, name)
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert SOURCES and not found


def test_relaxations_call_only_subproblem_methods():
    # a relaxation drives its subproblem through the subproblem calls alone:
    # reading the subproblem's state ties it to one kind of subproblem
    from modnlp.driver import SUBPROBLEMS

    allowed = {"is_interior"} | {
        name for cls in SUBPROBLEMS.values() for name in dir(cls)
        if not name.startswith("__") and callable(getattr(cls, name))
    }
    relaxations = {"ConstraintRelaxationStrategy", "L1Relaxation", "FeasibilityRestoration"}
    tree = ast.parse((SOURCES[0].parent / "relaxation.py").read_text(encoding="utf-8"))
    found = [
        "%s:%d %s" % (cls.name, node.lineno, node.attr)
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name in relaxations
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "subproblem"
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"
        and node.attr not in allowed
    ]
    assert not found


def is_options(node):
    return (isinstance(node, ast.Name) and node.id in ("opts", "options")
            or isinstance(node, ast.Attribute) and node.attr in ("opts", "options"))


def test_only_driver_and_cli_read_part_selecting_options():
    # the driver builds the parts from driver.PARTS and the CLI makes its
    # flags from it; a part that read a selecting option would fork on a
    # choice the table has already made
    from modnlp.driver import PARTS

    found = [
        "%s:%d %s" % (path.name, node.lineno, node.attr if isinstance(node, ast.Attribute)
                      else node.value)
        for path in SOURCES if path.name not in ("driver.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in PARTS and is_options(node.value)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in PARTS  # getattr(opts, "...") and the like
    ]
    assert SOURCES and not found


def test_parts_inside_a_relaxation_are_read_only_by_it():
    # the relaxation owns its subproblem and strategy: a caller that reached
    # through it would learn what kind of part sits inside (the option of
    # the same name, read off opts, is not a part)
    found = [
        "%s:%d %s" % (path.name, node.lineno, node.attr)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("subproblem", "strategy")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        and not is_options(node.value)
    ]
    assert SOURCES and not found


def parameters(function):
    arguments = function.args
    return [a.arg for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs]


def test_subproblems_hold_their_workspace_and_kernels_take_bounds():
    # a subproblem is built with the workspace (__init__) and no later call
    # is given one; a kernel takes one bounds value (a state.Bounds, which
    # carries the finite masks) where it took lower, upper and the masks
    from modnlp.driver import SUBPROBLEMS

    subproblems = {cls.__name__ for cls in SUBPROBLEMS.values()}
    kernels = ("subproblem.py", "globalization.py", "relaxation.py")
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                     and path.name in kernels]
        functions += [method for cls in tree.body
                      if isinstance(cls, ast.ClassDef) and cls.name in subproblems
                      for method in cls.body
                      if isinstance(method, ast.FunctionDef) and method.name != "__init__"]
        for function in functions:
            names = parameters(function)
            found += ["%s:%d %s(%s)" % (path.name, function.lineno, function.name, name)
                      for name in names if name in ("ws", "workspace", "finite")]
            if "lower" in names or "upper" in names:
                found.append("%s:%d %s(lower, upper)" % (path.name, function.lineno,
                                                         function.name))
    assert subproblems and not found


def test_bound_masks_are_made_only_by_bounds():
    # np.isfinite of a lower or upper bound runs in state.Bounds alone, once
    # per bound set; the QP solver's own step bounds of each QP (lb, ub in
    # linalg) are not a bound set the solver works in
    def bound_name(node):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else "")
        return "lower" in name or "upper" in name

    found, in_bounds = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                owner.update({id(node): cls.name for node in ast.walk(cls)})
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "isfinite" and any(map(bound_name, node.args))):
                if path.name == "state.py" and owner.get(id(node)) == "Bounds":
                    in_bounds += 1
                else:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert in_bounds == 2 and not found


def test_the_lp_is_told_apart_by_its_hessian():
    # no second_order flag: the LP overrides hessian (None: W = 0) alone
    from modnlp.driver import SUBPROBLEMS

    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "second_order"
        or isinstance(node, ast.Attribute) and node.attr == "second_order"
        or isinstance(node, ast.arg) and node.arg == "second_order"
        or isinstance(node, ast.keyword) and node.arg == "second_order"
    ]
    assert not found
    assert not any(hasattr(cls, "second_order") for cls in SUBPROBLEMS.values())


def functions_around(tree):
    """Each node's innermost enclosing function, by the node's id."""
    owner = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                owner[id(node)] = function.name  # inner functions are walked later
    return owner


def test_sufficient_decrease_is_tested_in_one_place():
    # the roundoff slack of the Armijo test (a multiple of machine epsilon)
    # is written in globalization.sufficient_decrease alone
    def is_eps(node):
        return (isinstance(node, ast.Name) and node.id == "_EPS"
                or isinstance(node, ast.Attribute) and node.attr == "eps")

    found, inside = [], 0
    for name in ("globalization.py", "relaxation.py"):
        tree = ast.parse((SOURCES[0].parent / name).read_text(encoding="utf-8"))
        owner = functions_around(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                    and (is_eps(node.left) or is_eps(node.right))):
                if name == "globalization.py" and owner.get(id(node)) == "sufficient_decrease":
                    inside += 1
                else:
                    found.append("%s:%d" % (name, node.lineno))
    assert inside == 1 and not found


def test_model_callbacks_are_called_only_by_the_record_and_the_checker():
    # a point is evaluated through EvaluationRecord._evaluate, which takes
    # the callback as a value; check_derivatives' probes call theirs directly
    tree = ast.parse((SOURCES[0].parent / "model.py").read_text(encoding="utf-8"))
    owner = functions_around(tree)
    found = [
        "model.py:%d %s" % (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr.startswith("eval_")
        and owner.get(id(node)) not in ("_evaluate", "check_derivatives")
    ]
    assert not found


def test_every_strategy_sets_a_float_sigma():
    # feasibility restoration accepts its steps on strategy.sigma, which
    # GlobalizationStrategy declares
    from modnlp.driver import STRATEGIES, Options

    assert all(isinstance(cls(Options()).sigma, float) for cls in STRATEGIES.values())


def test_one_rule_turns_a_part_failure_into_a_status():
    # solve's loop names only the two errors with a status of their own;
    # every other ModNLPError a part raises ends in the last clause
    tree = ast.parse((SOURCES[0].parent / "driver.py").read_text(encoding="utf-8"))
    solve = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve")
    loop = next(node for node in ast.walk(solve) if isinstance(node, ast.For))
    caught = [
        [ast.unparse(handler.type) for handler in node.handlers]
        for node in ast.walk(loop) if isinstance(node, ast.Try)
    ]
    assert caught == [["TinyRadiusError", "NonFiniteEvaluationError", "ModNLPError"]]
