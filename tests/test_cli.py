import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modnlp
from modnlp.cli import (
    RunRecord,
    main,
    parse_profile_csv,
    performance_profile,
    profile_rows_to_csv,
)


def record(problem, config, evals, status="FeasibleKKT"):
    return RunRecord(
        problem=problem, config=config, status=status,
        objective_evaluations=evals, iterations=1, objective_value=0.0,
        eta=0.0, wall_time=0.0,
    )


class TestCLI:
    def test_preset_run_exit_zero(self, capsys):
        assert main(["-preset", "filtersqp", "booth", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "FeasibleKKT" in out

    def test_novel_combination_runs(self, capsys):
        code = main(["-preset", "byrd", "-globalization_mechanism", "TR",
                     "hs021", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FeasibleKKT" in out
        assert "-99.96" in out  # analytic optimum of hs021

    def test_prohibited_combination_exit_two(self, capsys):
        code = main(["-subproblem", "primal_dual_IPM",
                     "-globalization_mechanism", "TR", "booth", "--quiet"])
        assert code == 2
        assert "prohibited" in capsys.readouterr().err

    def test_unknown_problem_exit_two(self, capsys):
        assert main(["-preset", "filtersqp", "nosuchproblem", "--quiet"]) == 2

    def test_option_flag_and_file(self, tmp_path, capsys):
        path = tmp_path / "o.txt"
        path.write_text("max_iterations 500\n")
        code = main([
            "-preset", "filtersqp", "-options_file", str(path),
            "-option", "tolerance=1e-7", "booth", "--quiet",
        ])
        assert code == 0

    def test_unknown_option_exit_two(self, capsys):
        code = main(["-preset", "filtersqp", "-option", "bogus=1", "booth", "--quiet"])
        assert code == 2

    def test_unparsable_option_value_exit_two(self, capsys):
        code = main(["-preset", "filtersqp", "-option", "tolerance=abc", "hs071", "--quiet"])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err

    def test_out_of_range_ipm_option_exit_two(self, capsys):
        code = main(["-preset", "ipopt", "-option", "mu_initial=0", "hs071", "--quiet"])
        assert code == 2
        assert "mu_initial" in capsys.readouterr().err

    def test_out_of_range_option_exit_two_under_optimize(self):
        # python -O strips asserts: the range check must not be one
        src = str(Path(modnlp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "modnlp.cli", "-globalization_mechanism", "LS",
             "-option", "backtrack_factor=2", "booth", "--quiet"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "backtrack_factor" in proc.stderr

    def test_iteration_log_printed(self, capsys):
        main(["-preset", "ipopt", "hs035"])
        out = capsys.readouterr().out
        assert "mu" in out and "eta" in out


class TestPerformanceProfile:
    def test_single_config_all_solved(self):
        rows = performance_profile([record("p1", "A", 3)], tau_grid=[1.0, 2.0])
        assert rows == [("A", 1.0, 1.0), ("A", 2.0, 1.0)]

    def test_ratio_arithmetic(self):
        records = [record("p", "A", 2), record("p", "B", 4)]
        rows = performance_profile(records, tau_grid=[1.0, 2.0])
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[("A", 1.0)] == 1.0
        assert table[("B", 1.0)] == 0.0
        assert table[("A", 2.0)] == 1.0
        assert table[("B", 2.0)] == 1.0

    def test_failure_plateau(self):
        records = [record("p%d" % i, "A", 2) for i in range(10)]
        records[3] = record("p3", "A", 2, status="IterationLimit")
        # another config so p3 has a best-solver reference
        records += [record("p%d" % i, "B", 2) for i in range(10)]
        rows = performance_profile(records, tau_grid=[1.0, 1024.0])
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[("A", 1024.0)] == pytest.approx(0.9)
        assert table[("B", 1024.0)] == 1.0

    def test_curves_monotone_and_bounded(self):
        rng = np.random.RandomState(5)
        records = []
        for c in "ABC":
            for i in range(12):
                status = "FeasibleKKT" if rng.rand() > 0.2 else "IterationLimit"
                records.append(record("p%d" % i, c, int(rng.randint(2, 40)), status))
        rows = performance_profile(records)
        for config in "ABC":
            curve = [r[2] for r in rows if r[0] == config]
            assert all(0.0 <= v <= 1.0 for v in curve)
            assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_csv_round_trip(self):
        records = [record("p", "A", 2), record("p", "B", 4)]
        rows = performance_profile(records)
        text = profile_rows_to_csv(rows)
        assert text.startswith("config,tau,fraction\n")
        assert text.endswith("\n") and "\r" not in text
        assert parse_profile_csv(text) == rows

    def test_infeasible_problem_counts_certificate_as_success(self):
        r = record("infeasible1", "A", 5, status="InfeasibleStationary")
        assert r.is_success
        r2 = record("infeasible1", "A", 5, status="FeasibleKKT")
        assert not r2.is_success
