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


def record(x, status="Optimal", iterations=5, counts=(6, 6, 5, 5, 4), solves=5,
           y=(0.5,), z=(0.0,), rho=1.0, message=""):
    return {"status": status, "iterations": iterations, "counts": list(counts),
            "subproblem_solves": solves, "x": list(x), "y": list(y), "z": list(z),
            "rho": rho, "message": message}


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


def test_compare_multipliers_rho_and_message(tmp_path, capsys):
    # y, z and rho are compared like x; the message must match exactly
    compare = load_tool().compare
    a = write(tmp_path / "a.json", {
        "p": record([1.0]), "q": record([1.0]), "r": record([1.0]), "s": record([1.0]),
        "t": record([1.0])})
    b = write(tmp_path / "b.json", {
        "p": record([1.0], y=(0.5 + 1e-9,)), "q": record([1.0], z=(1e-9,), rho=1.0 - 1e-9),
        "r": record([1.0], z=(0.0, 0.0)), "s": record([1.0], rho=0.1),
        "t": record([1.0], message="stagnation")})
    assert compare(a, b) == 1  # bit identity by default
    out = capsys.readouterr().out
    assert "p: y differs" in out and "q: rho 1.0 -> 0.999999999; z differs" in out
    assert compare(a, b, x_tol=1e-6) == 1
    out = capsys.readouterr().out
    assert "p: y" not in out and "q: rho" not in out and "q: z" not in out
    assert "r: z differs" in out  # a changed shape is never within the tolerance
    assert "s: rho 1.0 -> 0.1" in out
    assert "t: message  -> stagnation" in out
    assert out.splitlines()[-1].startswith("5 solves, 3 differ, 2 differ in x by at most 1e-06")


def test_compare_summarizes_each_source(tmp_path, capsys):
    tool = load_tool()
    keys = ["grid hs071 l1", "preset ipopt", "options defaults",
            "corpus seed 1 #0 hs071 ipopt", "corpus seed 1 #1 hs071 byrd",
            "scaled_ipm seed 1 #3 chain ipopt"]
    assert [tool.source(key) for key in keys] == [
        "grid", "presets and Options", "presets and Options",
        "corpus seed 1", "corpus seed 1", "scaled_ipm seed 1"]
    a = write(tmp_path / "a.json", {
        "grid p": record([1.0]), "preset ipopt": {"mu": 0.1}, "options defaults": {"mu": 0.1},
        "corpus seed 1 #0 p": record([1.0, 2.0]), "corpus seed 1 #1 q": record([3.0]),
        "scaled_ipm seed 1 #0 r": record([4.0])})
    b = write(tmp_path / "b.json", {
        "grid p": record([1.0]), "preset ipopt": {"mu": 0.1}, "options defaults": {"mu": 0.1},
        "corpus seed 1 #0 p": record([1.0, 2.0 + 1e-9]), "corpus seed 1 #1 q": record([3.5]),
        "scaled_ipm seed 1 #0 r": record([4.0], iterations=7)})
    assert tool.compare(a, b, x_tol=1e-6) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  grid: 1 identical, 0 within 1e-06, 0 differ, max |dx| 0" in lines
    assert "  presets and Options: 2 identical, 0 within 1e-06, 0 differ, max |dx| 0" in lines
    assert "  corpus seed 1: 0 identical, 1 within 1e-06, 1 differ, max |dx| 0.5" in lines
    assert "  scaled_ipm seed 1: 0 identical, 0 within 1e-06, 1 differ, max |dx| 0" in lines
    assert lines[-1] == "6 solves, 2 differ, 1 differ in x by at most 1e-06, max |dx| 0.5"


def test_compare_counts_right_answers_per_combination(tmp_path, capsys):
    compare = load_tool().compare

    def judged(right, **kwargs):
        return dict(record([1.0], **kwargs), right=right)

    a = write(tmp_path / "a.json", {
        "grid p l1 QP": judged(True), "grid q l1 QP": judged(True),
        "grid p fr LP": judged(False), "grid q fr LP": judged(True),
        "corpus seed 1 #0 p filtersqp": record([1.0])})
    b = write(tmp_path / "b.json", {
        "grid p l1 QP": judged(True), "grid q l1 QP": judged(False, status="IterationLimit"),
        "grid p fr LP": judged(True, iterations=6), "grid q fr LP": judged(True),
        "corpus seed 1 #0 p filtersqp": record([1.0])})
    assert compare(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  right answers, fr LP: 1/2 -> 2/2" in lines
    assert "  right answers, l1 QP: 2/2 -> 1/2  lost" in lines
    assert "  right answers: 3/4 -> 3/4" in lines
    assert lines[-1] == "5 solves, 2 differ, 0 differ in x by at most 0, max |dx| 0"


def test_compare_reports_callback_totals_and_fewer_calls(tmp_path, capsys):
    # per source: the five callback totals of A and B, and the records whose
    # only difference is fewer calls in B; those still differ (exit 1)
    compare = load_tool().compare
    a = write(tmp_path / "a.json", {
        "grid p": record([1.0]), "grid q": record([2.0]), "grid r": record([3.0]),
        "preset ipopt": {"mu": 0.1}, "corpus seed 1 #0 s": record([1.0])})
    b = write(tmp_path / "b.json", {
        "grid p": record([1.0], counts=(4, 4, 5, 5, 3)),  # fewer calls only
        "grid q": record([2.0], counts=(6, 7, 5, 5, 4)),  # one more call
        "grid r": record([3.0], counts=(5, 6, 5, 5, 4), iterations=6),  # and an iteration
        "preset ipopt": {"mu": 0.1}, "corpus seed 1 #0 s": record([1.0])})
    assert compare(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "grid p: counts [6, 6, 5, 5, 4] -> [4, 4, 5, 5, 3]" in lines
    assert ("  grid: callbacks (f, c, g, J, H) 18/18/15/15/12 -> 15/17/15/15/11, "
            "1 differ only by fewer calls") in lines
    assert ("  corpus seed 1: callbacks (f, c, g, J, H) 6/6/5/5/4 -> 6/6/5/5/4, "
            "0 differ only by fewer calls") in lines
    assert not any(line.startswith("  presets and Options: callbacks") for line in lines)
    assert lines[-1] == "5 solves, 3 differ, 0 differ in x by at most 0, max |dx| 0"
    assert compare(a, a) == 0


def test_seeded_starts_are_drawn_per_problem_and_clipped():
    # the k-th start is x0 plus the k-th draw of default_rng(7), clipped
    # to the bounds, whatever else was drawn before
    import numpy as np

    from modnlp.corpus import corpus_get

    seeded_models = load_tool().seeded_models
    model = corpus_get("hs071")  # 1 <= x <= 5, x0 = (1, 5, 5, 1)
    first, second = seeded_models(model, 2)
    rng = np.random.default_rng(7)
    for start in (first, second):
        expected = np.clip(model.initial_point + rng.standard_normal(4), 1.0, 5.0)
        assert np.array_equal(start.initial_point, expected)
    assert np.array_equal(seeded_models(model, 1)[0].initial_point, first.initial_point)
    assert first.eval_objective is model.eval_objective


def test_compare_counts_seeded_statuses_and_messages(tmp_path, capsys):
    tool = load_tool()
    assert tool.source("seeded hs071 #1 l1 QP") == "seeded"

    def judged(right, **kwargs):
        return dict(record([1.0], **kwargs), right=right)

    a = write(tmp_path / "a.json", {
        "seeded p #0 l1": judged(True, status="FeasibleKKT"),
        "seeded p #1 l1": judged(False, status="IterationLimit", message="stagnation"),
        "grid p l1": judged(True)})
    b = write(tmp_path / "b.json", {
        "seeded p #0 l1": judged(True, status="FeasibleKKT"),
        "seeded p #1 l1": judged(True, status="FeasibleKKT"),
        "grid p l1": judged(True)})
    assert tool.compare(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  seeded: 1 identical, 0 within 0, 1 differ, max |dx| 0" in lines
    assert "  seeded: right answers 1 -> 2" in lines
    assert "  seeded: status FeasibleKKT 1 -> 2" in lines
    assert "  seeded: status IterationLimit 1 -> 0" in lines
    assert "  seeded: message 'stagnation' 1 -> 0" in lines
    assert "  seeded: message '' 1 -> 2" in lines
    assert "  right answers: 1/1 -> 1/1" in lines  # the grid's alone
