"""Command-line front end: single-problem runs with flag-per-ingredient
combination syntax, a batch corpus runner, and a performance-profile data
emitter (CSV).
"""
from __future__ import annotations

import argparse
import shlex
import sys
import time
from dataclasses import dataclass

import numpy as np

from .corpus import corpus_get, corpus_names, is_right
from .driver import (
    PARTS,
    PRESETS,
    Options,
    load_options_file,
    preset_options,
    solve,
    validate_options,
)
from .errors import ConfigurationError, ModNLPError, UnknownProblemError

TAU_GRID = np.logspace(0.0, np.log10(1024.0), 64)
PROFILE_CONFIGS = "filtersqp;ipopt;byrd"


@dataclass
class RunRecord:
    problem: str
    config: str
    status: str
    objective_evaluations: int
    iterations: int
    objective_value: float
    feasibility: float  # max violation of the scaled equality-form model
    wall_time: float
    right: bool  # the corpus's answer judge, corpus.is_right


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modnlp",
        description="Composable solver for nonlinearly constrained nonconvex optimization",
    )
    parser.add_argument("-preset", choices=PRESETS)
    for name in PARTS:
        parser.add_argument("-" + name)
    parser.add_argument(
        "-option", action="append", default=[], metavar="KEY=VALUE",
        help="override a single option (repeatable)",
    )
    parser.add_argument("-options_file", metavar="PATH")
    parser.add_argument("problem", nargs="?", help="corpus problem name")
    parser.add_argument("--all", action="store_true", help="run the whole corpus")
    parser.add_argument("--quiet", action="store_true", help="suppress per-iteration log")
    parser.add_argument(
        "--profile-csv", metavar="PATH",
        help="with --all: write performance-profile data comparing --profile-configs",
    )
    parser.add_argument(
        "--profile-configs", metavar="SPECS",
        help="with --profile-csv: ';'-separated configuration specs, each a preset "
        "name optionally followed by flag overrides, e.g. 'byrd "
        "-globalization_mechanism TR' (default %r)" % PROFILE_CONFIGS,
    )
    return parser


def resolve_options(args) -> Options:
    """Resolution order: command line > options file > preset > defaults."""
    opts = preset_options(args.preset) if args.preset else Options()
    if args.options_file:
        opts = opts.updated(load_options_file(args.options_file))
    for pair in args.option:
        if "=" not in pair:
            raise ConfigurationError("-option expects KEY=VALUE, got %r" % pair)
        key, value = pair.split("=", 1)
        opts = opts.updated({key.strip(): value.strip()})
    selectors = {name: getattr(args, name) for name in PARTS if getattr(args, name) is not None}
    return opts.updated(selectors)


def config_label(args) -> str:
    parts = [args.preset] if args.preset else []
    parts += ["%s=%s" % (name, getattr(args, name)) for name in PARTS
              if getattr(args, name) is not None]
    return "+".join(parts) if parts else "defaults"


def _iteration_printer(record: dict) -> None:
    parts = ["iter %4d" % record["iteration"]]
    if "radius" in record:
        parts.append("radius %.3e" % record["radius"])
    else:
        parts.append("step %.3e" % record["step_length"])
    parts.append("eta %.3e" % record["eta"])
    if "phi" in record:
        parts.append("phi %.6e" % record["phi"])
    else:
        parts.append("merit %.6e" % record["merit"])
    parts.append("f %.6e" % record["objective"])
    parts.append("rho %.2e" % record["rho"])
    if "mu" in record:
        parts.append("mu %.2e" % record["mu"])
    if "phase" in record:
        parts.append(record["phase"])
    print("  ".join(parts))


def run_problem(name: str, opts: Options, label: str, quiet: bool) -> RunRecord:
    model = corpus_get(name)
    log = None if quiet else _iteration_printer
    start = time.perf_counter()
    result = solve(model, opts, log=log)
    elapsed = time.perf_counter() - start
    return RunRecord(
        problem=name,
        config=label,
        status=result.status,
        objective_evaluations=result.objective_evaluations,
        iterations=result.iterations,
        objective_value=result.objective_value,
        feasibility=result.feasibility,
        wall_time=elapsed,
        right=is_right(name, result),
    )


def performance_profile(records: list[RunRecord], tau_grid=None):
    """Dolan-More style profile on objective evaluations.

    For each configuration and budget ratio tau, the fraction of problems it
    solved within tau times the best configuration's evaluations on that
    problem. As in Dolan & More (Math. Prog. 91, 2002), a problem counts as
    solved only by a right answer (corpus.is_right); any other run counts
    as infinite ratio.
    """
    tau_grid = TAU_GRID if tau_grid is None else np.asarray(tau_grid, dtype=float)
    configs = sorted({r.config for r in records})
    problems = sorted({r.problem for r in records})
    by_key = {(r.config, r.problem): r for r in records}
    ratios = {config: [] for config in configs}
    for problem in problems:
        best = min(
            (
                by_key[(c, problem)].objective_evaluations
                for c in configs
                if (c, problem) in by_key and by_key[(c, problem)].right
            ),
            default=None,
        )
        for config in configs:
            record = by_key.get((config, problem))
            if record is None or not record.right or best is None:
                ratios[config].append(np.inf)
            else:
                ratios[config].append(record.objective_evaluations / best)
    rows = []
    for config in configs:
        values = np.asarray(ratios[config])
        for tau in tau_grid:
            fraction = float(np.mean(values <= tau)) if values.size else 0.0
            rows.append((config, float(tau), fraction))
    return rows


def profile_rows_to_csv(rows) -> str:
    lines = ["config,tau,fraction"]
    for config, tau, fraction in rows:
        lines.append("%s,%.17g,%.17g" % (config, tau, fraction))
    return "\n".join(lines) + "\n"


def parse_profile_csv(text: str):
    lines = text.strip().split("\n")
    rows = []
    for line in lines[1:]:
        config, tau, fraction = line.split(",")
        rows.append((config, float(tau), float(fraction)))
    return rows


def _parse_config_spec(spec: str):
    """A config spec is a preset name optionally followed by command-line
    style overrides, e.g. 'byrd -globalization_mechanism TR'."""
    tokens = shlex.split(spec.strip())
    if not tokens:
        raise ConfigurationError("empty configuration spec")
    preset = tokens[0]
    opts = preset_options(preset)
    label = preset
    rest = tokens[1:]
    while rest:
        flag = rest.pop(0)
        if not flag.startswith("-") or not rest:
            raise ConfigurationError("malformed configuration spec %r" % spec)
        value = rest.pop(0)
        opts = opts.updated({flag.lstrip("-"): value})
        label += " %s %s" % (flag, value)
    return label, opts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile_csv and not args.all:
        parser.error("--profile-csv needs --all")
    if args.profile_configs is not None and not args.profile_csv:
        parser.error("--profile-configs needs --profile-csv")
    try:
        if args.all:
            return _run_all(args)
        if not args.problem:
            parser.error("a problem name or --all is required")
        opts = validate_options(resolve_options(args))
        record = run_problem(args.problem, opts, config_label(args), args.quiet)
        print(
            "%s: %s  f=%.10g  feasibility=%.3e  evaluations=%d  iterations=%d"
            % (
                record.problem,
                record.status,
                record.objective_value,
                record.feasibility,
                record.objective_evaluations,
                record.iterations,
            )
        )
        return 0 if record.right else 1
    except (ConfigurationError, UnknownProblemError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ModNLPError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _run_all(args) -> int:
    """Solve the corpus under each configuration. Every configuration is
    validated, and the profile CSV opened, before the first solve."""
    if args.profile_csv:
        given = PROFILE_CONFIGS if args.profile_configs is None else args.profile_configs
        configs = [_parse_config_spec(spec) for spec in given.split(";") if spec.strip()]
        if not configs:
            raise ConfigurationError("--profile-configs names no configuration")
    else:
        configs = [(config_label(args), resolve_options(args))]
    for _, opts in configs:
        validate_options(opts)
    if not args.profile_csv:
        return _solve_corpus(configs, None)
    try:
        handle = open(args.profile_csv, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        message = "cannot write profile CSV %s: %s" % (args.profile_csv, exc)
        raise ConfigurationError(message) from exc
    with handle:
        return _solve_corpus(configs, handle)


def _solve_corpus(configs, profile) -> int:
    records = []
    for label, opts in configs:
        for name in corpus_names():
            record = run_problem(name, opts, label, quiet=True)
            records.append(record)
            print(
                "%-28s %-16s %-21s f=%-14.8g evals=%4d"
                % (label, record.problem, record.status,
                   record.objective_value, record.objective_evaluations)
            )
    failures = [r for r in records if not r.right]
    if profile is not None:
        profile.write(profile_rows_to_csv(performance_profile(records)))
        print("profile data written to %s" % profile.name)
    print("%d/%d runs successful" % (len(records) - len(failures), len(records)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
