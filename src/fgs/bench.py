"""Benchmark harness: baseline comparison, alternative algorithms, and
adaptability, each over one scenario suite: the bundled files (regression
mode) or the suite drawn by its generator at any seed. Adaptability runs
the suite's two-tool scenarios, the other experiments its one-tool ones. Each
episode's record is its `episode` trace event (episode.episode_event),
built from the run's EpisodeResult and tagged with its config; the rest of
its trace is built from the same result only when a trace directory is
given. Aggregation is a deterministic fold over those
records ordered by (scenario, config), so identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .assets import benchmark_dir, load_task, task_for_scenario
from .episode import STATUS_SUCCESS, EpisodeResult, episode_event, run_episode, trace_events
from .errors import ConfigError
from .scenario import (
    BENCH_CASES_PER_TOOL,
    TASK_TOOLS,
    Scenario,
    build_benchmark_suite,
    load_scenario,
)
from .search import STATUS_EXHAUSTED, SearchConfig

REPORT_FORMATS = ("csv", "json", "markdown")

BASELINE_CONFIGS: tuple[tuple[str, SearchConfig], ...] = (
    ("FS+H", SearchConfig(algorithm="astar", heuristic="landmarks", use_feature_score=True)),
    ("H", SearchConfig(algorithm="astar", heuristic="landmarks")),
    ("FS", SearchConfig(algorithm="ucs", use_feature_score=True)),
    ("UCS", SearchConfig(algorithm="ucs")),
)

ALGORITHM_CONFIGS: tuple[tuple[str, SearchConfig], ...] = (
    ("A*+LM", SearchConfig(algorithm="astar", heuristic="landmarks", use_feature_score=True)),
    ("wA*+FF", SearchConfig(algorithm="weighted_astar", heuristic="ff", weight=5.0, use_feature_score=True)),
    ("EHC+FF", SearchConfig(algorithm="ehc", heuristic="ff", use_feature_score=True)),
)

ADAPTABILITY_CONFIG = (
    "FS+H",
    SearchConfig(algorithm="astar", heuristic="landmarks", use_feature_score=True),
)

# each experiment's search configs, by experiment name
EXPERIMENT_CONFIGS: dict[str, tuple[tuple[str, SearchConfig], ...]] = {
    "baselines": BASELINE_CONFIGS,
    "algorithms": ALGORITHM_CONFIGS,
    "adaptability": (ADAPTABILITY_CONFIG,),
}

RANDOM_BASELINE_ID = "random"


@dataclass(frozen=True)
class ExperimentConfig:
    """One `fgs bench` run; each field is set by one of its flags."""
    experiment: str
    cases_per_tool: int | None = None  # generated mode only; None draws BENCH_CASES_PER_TOOL
    trust_policy: str = "switchable"
    budgets: tuple[int, ...] | None = None
    seed: int = 0
    noise_on: bool = False
    regression: bool = True  # use the bundled fixed scenarios

    def validate(self) -> None:
        if self.experiment not in EXPERIMENT_CONFIGS:
            raise ConfigError(f"unknown experiment '{self.experiment}' "
                              f"(choose from {tuple(EXPERIMENT_CONFIGS)})")
        if self.cases_per_tool is not None:
            if self.regression:
                raise ConfigError("cases per tool apply only to generated scenarios; "
                                  "add --generate (--cases)")
            if self.cases_per_tool < 1:
                raise ConfigError(f"cases_per_tool must be >= 1, got {self.cases_per_tool} (--cases)")
        if self.budgets is not None and self.experiment == "adaptability":
            raise ConfigError("budget curves cover the baselines and algorithms experiments, "
                              "not adaptability")
        budgets = self.budgets or ()
        for budget in budgets:
            if budget < 0:
                raise ConfigError(f"budget must be non-negative, got {budget} (--budget-sweep)")
            if budgets.count(budget) > 1:
                raise ConfigError(f"budget {budget} is repeated in the budget sweep (--budget-sweep)")


# The row dataclasses are the report schema: a report's columns are the
# fields of its rows, in declaration order.


@dataclass
class SummaryRow:
    task: str
    tool: str
    config: str
    nodes_mean: float | None
    failed_attempts_mean: float | None
    success: int
    plan_length_mean: float | None


@dataclass
class BudgetPoint:
    config: str
    budget: int
    success_rate: float


@dataclass
class AdaptRow:
    task: str
    config: str
    correct: int
    cases: int


@dataclass
class MetricsTable:
    kind: str  # "summary" or "adaptability"
    rows: list[SummaryRow | AdaptRow] = field(default_factory=list)  # AdaptRow for adaptability
    budget_points: list[BudgetPoint] = field(default_factory=list)


# -- scenario selection ----------------------------------------------------------


def experiment_scenarios(cfg: ExperimentConfig) -> list[Scenario]:
    """The experiment's scenarios of the suite, sorted by id: its two-tool
    scenarios for adaptability, its one-tool ones otherwise. The suite is
    every file under benchmark_dir(), or in generated mode
    build_benchmark_suite at cfg.seed."""
    if cfg.regression:
        suite = []
        for p in sorted(benchmark_dir().glob("*.json")):
            scenario = load_scenario(p)
            if scenario.scenario_id != p.stem:  # it names the scenario's trace files
                raise ConfigError(f"{p.name}.scenario_id: '{scenario.scenario_id}' "
                                  f"is not the file stem '{p.stem}'")
            suite.append(scenario)
    else:
        suite = build_benchmark_suite(cfg.seed, cfg.cases_per_tool or BENCH_CASES_PER_TOOL)
    two_tool = cfg.experiment == "adaptability"
    out = sorted((sc for sc in suite if (len(sc.tools) > 1) == two_tool),
                 key=lambda s: s.scenario_id)
    if not out:  # a generated suite has both kinds
        raise ConfigError(f"no bundled {'two' if two_tool else 'one'}-tool scenarios "
                          f"under {benchmark_dir()}")
    return out


# -- episode collection ------------------------------------------------------------


def write_trace(path, events) -> None:
    """Write *events* to *path* as a JSON-lines trace, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(event, sort_keys=True) + "\n" for event in events)


def _random_guess(cfg: ExperimentConfig, scenario: Scenario) -> EpisodeResult:
    """The random baseline's episode: a seeded guess among the candidate
    tools and no search. A wrong guess leaves no option, like an exhausted
    search."""
    rng = random.Random(f"random-baseline:{cfg.seed}:{scenario.scenario_id}")
    guess = rng.choice(sorted(scenario.tools))
    status = STATUS_SUCCESS if guess == scenario.ground_truth.tool else STATUS_EXHAUSTED
    return EpisodeResult(status=status, final_plan=None, reject_final=frozenset(),
                         search_log=(), chosen_tool=guess)


def collect_records(cfg: ExperimentConfig, trace_dir: Path | None = None) -> list[dict]:
    """Run every episode of the experiment; returns each episode's
    `episode` event tagged with its `config`. With *trace_dir*, each
    episode's trace (episode.trace_events) is written there, that record
    its last line."""
    cfg.validate()
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    scenarios = experiment_scenarios(cfg)
    configs = EXPERIMENT_CONFIGS[cfg.experiment]
    gp_cache: dict[str, tuple] = {}
    records: list[dict] = []

    def keep(scenario: Scenario, config_id: str, search_cfg: SearchConfig | None,
             result: EpisodeResult) -> None:
        record = dict(episode_event(scenario, result), config=config_id)
        records.append(record)
        if trace_dir is not None:
            events = trace_events(scenario, search_cfg, result)
            events[-1] = record
            safe = re.sub(r"[^A-Za-z0-9_.-]", "-", config_id)
            write_trace(trace_dir / f"{scenario.scenario_id}__{safe}.jsonl", events)

    for scenario in scenarios:
        task = task_for_scenario(scenario.task_type, scenario.tools)
        if task.task_id not in gp_cache:
            _, _, gp = load_task(task.task_id)
            gp_cache[task.task_id] = (gp, {})
        gp, succ_cache = gp_cache[task.task_id]
        for config_id, search_cfg in configs:
            keep(scenario, config_id, search_cfg,
                 run_episode(gp, search_cfg, scenario, trust_policy=cfg.trust_policy,
                             noise_on=cfg.noise_on, succ_cache=succ_cache))
        if cfg.experiment == "adaptability":
            keep(scenario, RANDOM_BASELINE_ID, None, _random_guess(cfg, scenario))
    return records


# -- aggregation --------------------------------------------------------------------


def _mean(values) -> float | None:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def aggregate(records: list[dict], cfg: ExperimentConfig) -> MetricsTable:
    """Fold episode records, the config-tagged `episode` events, into the
    metrics table. Means over first-search nodes, failed attempts, and plan
    length use only successful episodes; success counts and budget curves
    use all episodes."""
    config_ids = [cid for cid, _ in EXPERIMENT_CONFIGS[cfg.experiment]]
    if cfg.experiment == "adaptability":
        config_ids = config_ids + [RANDOM_BASELINE_ID]
        table = MetricsTable(kind="adaptability")
        for task_type in sorted(TASK_TOOLS):
            for cid in config_ids:
                group = [r for r in records if r["task"] == task_type and r["config"] == cid]
                if not group:
                    continue
                correct = sum(1 for r in group if r["success"] and r["chosen_tool"] == r["tool"])
                table.rows.append(AdaptRow(task_type, cid, correct, len(group)))
        return table

    table = MetricsTable(kind="summary")
    keys = sorted({(r["task"], r["tool"]) for r in records})
    for task_type, tool in keys:
        for cid in config_ids:
            group = [r for r in records
                     if r["task"] == task_type and r["tool"] == tool and r["config"] == cid]
            if not group:
                continue
            wins = [r for r in group if r["success"]]
            table.rows.append(
                SummaryRow(
                    task=task_type,
                    tool=tool,
                    config=cid,
                    nodes_mean=_mean(r["nodes_first_search"] for r in wins),
                    failed_attempts_mean=_mean(r["failed_attempts"] for r in wins),
                    success=len(wins),
                    plan_length_mean=_mean(r["plan_length"] for r in wins),
                )
            )
    if cfg.budgets:
        for cid in config_ids:
            group = [r for r in records if r["config"] == cid]
            if not group:
                continue
            for budget in cfg.budgets:
                hits = sum(1 for r in group if r["success"] and r["failed_attempts"] <= budget)
                table.budget_points.append(BudgetPoint(cid, budget, hits / len(group)))
    return table


def run_experiment(cfg: ExperimentConfig, trace_dir: Path | None = None) -> MetricsTable:
    return aggregate(collect_records(cfg, trace_dir), cfg)


# -- report emission -----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _header(row_type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(row_type))


def _cells(row) -> tuple[str, ...]:
    """One report row: each field of *row*, formatted, in field order."""
    return tuple(_fmt(getattr(row, f.name)) for f in fields(row))


def emit_report(table: MetricsTable, fmt: str, path) -> list[Path]:
    """Write the metrics table at *path*; budget curves, when present, land
    beside it as long-format rows in '<stem>_budgets.<ext>'. Returns the
    written paths."""
    if fmt not in REPORT_FORMATS:
        raise ConfigError(f"unknown report format '{fmt}'")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _header(AdaptRow if table.kind == "adaptability" else SummaryRow)
    rows = [_cells(row) for row in table.rows]
    budget_header = _header(BudgetPoint)
    budget_rows = [_cells(point) for point in table.budget_points]
    written = [path]

    if fmt == "json":
        payload = {
            "kind": table.kind,
            "rows": [dict(zip(header, row)) for row in rows],
            "budget_curves": [dict(zip(budget_header, row)) for row in budget_rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return written

    def render(header_row, body_rows) -> str:
        if fmt == "csv":
            lines = [",".join(header_row)]
            lines.extend(",".join(row) for row in body_rows)
        else:
            lines = ["| " + " | ".join(header_row) + " |"]
            lines.append("|" + "|".join(" --- " for _ in header_row) + "|")
            lines.extend("| " + " | ".join(row) + " |" for row in body_rows)
        return "\n".join(lines) + "\n"

    path.write_text(render(header, rows), encoding="utf-8")
    if table.budget_points:
        ext = "md" if fmt == "markdown" else fmt
        budget_path = path.with_name(f"{path.stem}_budgets.{ext}")
        budget_path.write_text(render(budget_header, budget_rows), encoding="utf-8")
        written.append(budget_path)
    return written
