"""Rules on the library source itself."""
import ast
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
