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
