"""Command-line entry point: validate, plan, episode, and bench subcommands.

Machine-readable results go to stdout; diagnostics and logging go to stderr.
Exit codes: 0 success, 1 domain outcome failure (no plan / episode failed),
2 usage or configuration error, 3 I/O error. All stochastic behavior is
determined by --seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .assets import DATA_DIR_ENV, load_model
from .bench import (
    EXPERIMENT_CONFIGS,
    REPORT_FORMATS,
    ExperimentConfig,
    emit_report,
    run_experiment,
    write_trace,
)
from .episode import TRUST_POLICIES, check_alignment, episode_event, run_episode, trace_events
from .errors import ConfigError, FgsError
from .heuristics import HEURISTIC_NAMES
from .scenario import load_scenario, sense
from .scoring import JoinScorer
from .search import SearchConfig, search

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_USAGE = 2
EXIT_IO = 3

log = logging.getLogger("fgs")


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        algorithm={"wastar": "weighted_astar"}.get(args.algorithm, args.algorithm),
        heuristic=args.heuristic,
        use_feature_score=args.features == "on",
        weight=args.weight,
        node_budget=args.node_budget,
    )


def _load_scenario(args, gp):
    """The --scenario file checked against the grounded problem, or None."""
    if not args.scenario:
        return None
    scenario = load_scenario(args.scenario)
    check_alignment(gp, scenario)
    return scenario


def cmd_validate(args) -> int:
    domain, problem, gp = load_model(args.domain, args.problem)
    scenario = _load_scenario(args, gp)
    if scenario is not None:
        print(f"scenario {scenario.scenario_id}: {len(scenario.objects)} objects, "
              f"tools {', '.join(scenario.tools)}")
    print(f"domain {domain.name}: {len(domain.action_schemas)} schemas, "
          f"{len(domain.predicates)} predicates")
    print(f"problem {problem.name}: {len(problem.objects)} objects, "
          f"{len(gp.actions)} ground actions, {len(gp.atoms)} atoms")
    return EXIT_OK


def cmd_plan(args) -> int:
    _, _, gp = load_model(args.domain, args.problem)
    cfg = _search_config(args)
    scenario = _load_scenario(args, gp)
    scorer = None
    if cfg.use_feature_score:
        if scenario is None:
            raise ConfigError("--features on requires --scenario")
        scorer = JoinScorer(scenario.registry(), sense(scenario, args.noise == "on"))
    result = search(gp, cfg, scorer=scorer)
    log.info("search status=%s nodes=%d", result.status, result.nodes_expanded)
    if result.plan is None:
        print(f"no plan ({result.status})", file=sys.stderr)
        return EXIT_NO_SOLUTION
    for act in result.plan:
        print(act.name)
    return EXIT_OK


def cmd_episode(args) -> int:
    _, _, gp = load_model(args.domain, args.problem)
    scenario = load_scenario(args.scenario)
    cfg = _search_config(args)
    result = run_episode(
        gp,
        cfg,
        scenario,
        trust_policy=args.trust,
        budget=args.budget,
        noise_on=args.noise == "on",
    )
    if args.trace:  # before the summary, so an unwritable trace leaves stdout empty
        write_trace(args.trace, trace_events(scenario, cfg, result))
    summary = dict(
        episode_event(scenario, result),
        plan=[a.name for a in result.final_plan] if result.final_plan is not None else None,
        attempted=[list(p) for p in result.attempted],
        trust_trace=result.trust_trace,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if result.success else EXIT_NO_SOLUTION


def cmd_bench(args) -> int:
    cfg = ExperimentConfig(
        experiment=args.experiment,
        cases_per_tool=args.cases,
        trust_policy=args.trust,
        budgets=tuple(args.budget_sweep) if args.budget_sweep else None,
        seed=args.seed,
        noise_on=args.noise == "on",
        regression=not args.generate,
    )
    table = run_experiment(cfg, trace_dir=Path(args.trace_dir) if args.trace_dir else None)
    written = emit_report(table, args.format, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers; an empty item or list is an error."""
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgs",
        description="Feature-guided STRIPS planning with tool construction episodes.",
        epilog=f"The {DATA_DIR_ENV} environment variable overrides the bundled data directory.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-vv for debug)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--domain", required=True, help="domain PDDL file")
        p.add_argument("--problem", required=True, help="problem PDDL file")

    def add_search_args(p):
        p.add_argument("--algorithm", default="astar", choices=("astar", "wastar", "ucs", "ehc"))
        p.add_argument("--heuristic", default="ff", choices=HEURISTIC_NAMES)
        p.add_argument("--features", default="off", choices=("on", "off"))
        p.add_argument("--weight", type=float, default=5.0, help="weighted search weight")
        p.add_argument("--node-budget", type=int, default=None)
        p.add_argument("--noise", default="off", choices=("on", "off"),
                       help="apply the scenario's seeded sensor noise")

    p = sub.add_parser("validate", help="parse and validate PDDL (and optionally a scenario)")
    add_model_args(p)
    p.add_argument("--scenario", help="scenario JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="run a single search and print the plan")
    add_model_args(p)
    add_search_args(p)
    p.add_argument("--scenario", help="scenario JSON file, checked against the problem "
                   "(needed with --features on)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("episode", help="run a plan-execute-replan episode")
    add_model_args(p)
    add_search_args(p)
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--trust", default="switchable", choices=TRUST_POLICIES)
    p.add_argument("--budget", type=int, default=None, help="max failed construction attempts")
    p.add_argument("--trace", help="write a JSON-lines episode trace to this file")
    p.set_defaults(func=cmd_episode)

    p = sub.add_parser("bench", help="run a benchmark experiment and write a report")
    p.add_argument("--experiment", required=True, choices=EXPERIMENT_CONFIGS)
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--format", default="csv", choices=REPORT_FORMATS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None,
                   help="cases per tool with --generate (default 10)")
    p.add_argument("--generate", action="store_true",
                   help="draw the suite's scenarios at --seed instead of the bundled ones")
    p.add_argument("--trust", default="switchable", choices=TRUST_POLICIES)
    p.add_argument("--noise", default="off", choices=("on", "off"))
    p.add_argument("--budget-sweep", type=_int_list, default=None,
                   help="comma-separated budgets for success-rate curves, e.g. 0,1,2,5,10,89")
    p.add_argument("--trace-dir", help="directory for raw episode traces")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except FgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
