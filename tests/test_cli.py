import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import modnlp
from modnlp.cli import (
    RunRecord,
    main,
    parse_profile_csv,
    performance_profile,
    profile_rows_to_csv,
    run_problem,
)
from modnlp.driver import PARTS, Options


def record(problem, config, evals, right=True):
    return RunRecord(
        problem=problem, config=config, status="FeasibleKKT",
        objective_evaluations=evals, iterations=1, objective_value=0.0,
        feasibility=0.0, wall_time=0.0, right=right,
    )


class TestCLI:
    def test_preset_run_exit_zero(self, capsys):
        assert main(["-preset", "filtersqp", "booth", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "FeasibleKKT" in out
        assert "feasibility=" in out and "eta=" not in out  # not the l1 eta

    def test_novel_combination_runs(self, capsys):
        code = main(["-preset", "byrd", "-globalization_mechanism", "TR",
                     "hs021", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FeasibleKKT" in out
        assert "-99.96" in out  # analytic optimum of hs021

    def test_false_success_exit_one(self, capsys):
        # FeasibleKKT at f = 0.284 where hs035's optimum is 1/9: not a right answer
        code = main(["-constraint_relaxation_strategy", "l1_relaxation",
                     "-subproblem", "primal_dual_IPM", "-globalization_strategy", "l1_merit",
                     "-globalization_mechanism", "LS", "hs035", "--quiet"])
        assert code == 1
        assert capsys.readouterr().out.startswith("hs035: FeasibleKKT")

    def test_prohibited_combination_exit_two(self, capsys):
        code = main(["-subproblem", "primal_dual_IPM",
                     "-globalization_mechanism", "TR", "booth", "--quiet"])
        assert code == 2
        assert "prohibited" in capsys.readouterr().err

    @pytest.mark.parametrize("key", list(PARTS))
    def test_unknown_part_value_exit_two(self, key, capsys):
        assert main(["-" + key, "bogus", "booth", "--quiet"]) == 2
        assert "unknown %s 'bogus'" % key in capsys.readouterr().err

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

    @pytest.mark.parametrize("args", [
        # rho *= 1 used to steer forever
        ["-preset", "byrd", "-option", "rho_decrease_factor=1", "maratos"],
        # both used to end in a ZeroDivisionError traceback
        ["-preset", "filtersqp", "-option", "multiplier_scaling_cap=0", "hs071"],
        ["-preset", "ipopt", "-option", "s_max=0", "hs071"],
    ])
    def test_former_crash_options_exit_two(self, args, capsys):
        assert main(args + ["--quiet"]) == 2
        assert args[3].split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["-preset", "byrd", "-option", "loose_tolerance_factor=0.5", "hs071"],
        ["-preset", "byrd", "-option", "loose_tolerance_window=0", "hs071"],
        ["-preset", "ipopt", "-option", "theta_min_factor=0", "hs071"],
        # a false InfeasibleStationary on the convex, feasible hs035
        ["-preset", "ipopt", "-option", "eta_max_factor=-1", "hs035"],
        # "QP bound multiplier signs violated"
        ["-preset", "filtersqp", "-option", "eta_max_factor=0", "hs071"],
        # non-finite KKT entries at iteration 0
        ["-preset", "ipopt", "-option", "interior_push=0", "hs071"],
        # every solve stopped at iteration 0
        ["-preset", "filtersqp", "-option", "max_inner=0", "hs071"],
        ["-preset", "filtersqp", "-option", "radius_min=-1", "hs071"],
        # "feasibility QP unexpectedly failed" at iteration 0
        ["-preset", "filtersqp", "-option", "radius_max=-1", "hs071"],
        ["-preset", "filtersqp", "-option", "activity_tolerance_rel=1", "hs071"],
    ])
    def test_out_of_range_solver_constant_exit_two(self, args, capsys):
        assert main(args + ["--quiet"]) == 2
        assert args[3].split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        # was an OverflowError traceback in the barrier update; it ends in
        # the non-finite IPM step that linalg.central_elastics gives at
        # mu ~ 1e300
        ["-preset", "ipopt", "-option", "mu_initial=1e300", "hs071"],
        # ~3e17 steering re-solves to walk rho down to rho_min
        ["-preset", "byrd", "-option", "rho_decrease_factor=0.9999999999999999", "maratos"],
    ])
    def test_legal_extreme_option_reports_a_status(self, args, capsys):
        status = {"mu_initial=1e300": "EvaluationError"}.get(args[3], "IterationLimit")
        with np.errstate(all="ignore"):
            assert main(args + ["--quiet"]) == 1
        assert capsys.readouterr().out.startswith(args[-1] + ": " + status)

    def test_scaling_to_zero_exit_two(self, capsys):
        args = ["-preset", "filtersqp", "-option", "s_max=5e-324", "hs071", "--quiet"]
        assert main(args) == 2
        assert "s_max" in capsys.readouterr().err

    def test_non_finite_option_exit_two(self, capsys):
        # tolerance = inf used to return FeasibleKKT at iteration 0
        assert main(["-preset", "filtersqp", "-option", "tolerance=inf", "hs071", "--quiet"]) == 2
        assert "option tolerance must be finite" in capsys.readouterr().err
        assert main(["-preset", "filtersqp", "-option", "y_max=inf", "hs071", "--quiet"]) == 0

    def test_missing_options_file_exit_two(self, tmp_path, capsys):
        # used to end in a FileNotFoundError traceback and exit 1
        for path in (tmp_path / "missing.opts", tmp_path):  # no file, a directory
            assert main(["-preset", "filtersqp", "-options_file", str(path), "hs071",
                         "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read options file %s" % path)
            assert "Traceback" not in err

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
        records[3] = record("p3", "A", 2, right=False)
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
                right = bool(rng.rand() > 0.2)
                records.append(record("p%d" % i, c, int(rng.randint(2, 40)), right))
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

    def test_profile_counts_only_right_answers(self, monkeypatch):
        # run_problem records the corpus judge's verdict, not the status
        def run(name, config, status, objective=np.nan, x=(0.0,)):
            result = SimpleNamespace(status=status, objective_value=objective, x=np.array(x),
                                     objective_evaluations=3, iterations=1, feasibility=0.0)
            monkeypatch.setattr("modnlp.cli.solve", lambda model, opts, log=None: result)
            return run_problem(name, Options(), config, quiet=True)

        records = [
            run("hs035", "A", "FeasibleKKT", 1.0 / 9.0),
            run("hs035", "B", "FeasibleKKT", 0.284),  # a success at a wrong objective
            # infeasible1: eta = 1 + 2 x^2, minimum 1 at x = 0
            run("infeasible1", "A", "InfeasibleStationary", x=[0.0]),
            run("infeasible1", "B", "InfeasibleStationary", x=[0.5]),  # eta 1.5
        ]
        assert [r.right for r in records] == [True, False, True, False]
        rows = performance_profile(records, tau_grid=[1.0, 1024.0])
        assert rows == [("A", 1.0, 1.0), ("A", 1024.0, 1.0), ("B", 1.0, 0.0), ("B", 1024.0, 0.0)]


class TestProfileFlags:
    """The profile flags are checked before the first solve."""

    def test_unwritable_profile_csv_exit_two_before_solving(self, tmp_path, capsys):
        # used to run every solve, then end in a FileNotFoundError traceback
        for path in (tmp_path / "missing" / "x.csv", tmp_path):  # no directory, a directory
            assert main(["--all", "--profile-csv", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: cannot write profile CSV %s" % path)
            assert "Traceback" not in captured.err
            assert captured.out == ""  # no solve ran

    def test_profile_csv_without_all_is_a_usage_error(self, tmp_path, capsys):
        # used to solve hs071, exit 0 and write nothing
        path = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exit_:
            main(["hs071", "--quiet", "--profile-csv", str(path)])
        assert exit_.value.code == 2
        assert "--profile-csv needs --all" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("args", [["--all"], ["hs071", "--quiet"]])
    def test_profile_configs_without_profile_csv_is_a_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(args + ["--profile-configs", "ipopt"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert "--profile-configs needs --profile-csv" in captured.err
        assert captured.out == ""

    def test_bad_profile_config_exit_two_before_solving(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        for specs in ("ipopt;byrd -globalization_mechanism bogus", ";"):
            assert main(["--all", "--profile-csv", str(path), "--profile-configs", specs]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.out == ""
        assert not path.exists()

    def test_profile_csv_written_after_the_runs(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        assert main(["--all", "--profile-csv", str(path), "--profile-configs", "filtersqp"]) == 0
        assert "profile data written to %s" % path in capsys.readouterr().out
        rows = parse_profile_csv(path.read_text())
        assert len(rows) == 64 and {config for config, _, _ in rows} == {"filtersqp"}
