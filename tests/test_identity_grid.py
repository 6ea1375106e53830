"""tools/identity_grid.py --compare on two hand-made record files."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity_grid.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(x, status="Optimal", iterations=5, counts=(6, 6, 5, 5, 4), solves=5):
    return {"status": status, "iterations": iterations, "counts": list(counts),
            "subproblem_solves": solves, "x": list(x)}


def write(path, records):
    path.write_text(json.dumps(records))
    return str(path)


def test_compare_x_tolerance(tmp_path, capsys):
    compare = load_tool().compare
    a = write(tmp_path / "a.json", {"p": record([1.0, 2.0]), "q": record([0.0])})
    b = write(tmp_path / "b.json", {"p": record([1.0, 2.0 + 1e-9]), "q": record([0.0])})
    assert compare(a, b) == 1  # bit identity by default
    assert "p: x differs" in capsys.readouterr().out
    assert compare(a, b, x_tol=1e-6) == 0
    assert "0 differ, 1 differ in x by at most 1e-06" in capsys.readouterr().out
    assert compare(a, b, x_tol=1e-10) == 1


def test_compare_counts_must_match_exactly(tmp_path, capsys):
    compare = load_tool().compare
    base = {"p": record([1.0]), "q": record([3.0]), "r": record([float("nan")])}
    a = write(tmp_path / "a.json", base)
    changed = {"p": record([1.0], iterations=6), "q": record([3.0], counts=(6, 7, 5, 5, 4)),
               "r": record([0.0])}
    b = write(tmp_path / "b.json", changed)
    assert compare(a, b, x_tol=1.0) == 1
    out = capsys.readouterr().out
    assert "p: iterations 5 -> 6" in out and "q: counts" in out
    assert "r: x differs" in out  # NaN is never within the tolerance
    c = write(tmp_path / "c.json", {"p": record([1.0]), "q": record([3.0], status="crash:X")})
    assert compare(a, c, x_tol=1.0) == 1
    out = capsys.readouterr().out
    assert "q: status Optimal -> crash:X" in out and "r: only in" in out
