import json

import pytest

from fgs.assets import TASK_TOOLS, benchmark_dir, load_task
from fgs.bench import (
    ALGORITHM_CONFIGS,
    BASELINE_CONFIGS,
    EXPERIMENT_CONFIGS,
    ExperimentConfig,
    MetricsTable,
    SummaryRow,
    aggregate,
    collect_records,
    emit_report,
    experiment_scenarios,
)
from fgs.episode import run_episode
from fgs.errors import ConfigError
from fgs.scenario import load_scenario
from fgs.search import STATUS_BUDGET

from .conftest import golden

SUMMARY_HEADER = "task,tool,config,nodes_mean,failed_attempts_mean,success,plan_length_mean"

# the golden `fgs bench` runs the tests below read; the `golden_run` store
# writes each once per session, and no test writes beside them
MATRIX = golden.matrix()
BASELINES = "bench/baselines-noise-off"
ALGORITHMS = "bench/algorithms-noise-off"


def test_config_validation():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig(experiment="nope").validate()
    with pytest.raises(ConfigError, match="--generate"):
        ExperimentConfig(experiment="baselines", cases_per_tool=2).validate()


def test_bundled_scenario_selection():
    scenarios = experiment_scenarios(ExperimentConfig(experiment="baselines"))
    assert len(scenarios) == 60  # six tools, ten cases each
    assert [s.scenario_id for s in scenarios] == sorted(s.scenario_id for s in scenarios)
    assert all(len(s.tools) == 1 for s in scenarios)
    adapt = experiment_scenarios(ExperimentConfig(experiment="adaptability"))
    assert len(adapt) == 30  # three task types, ten cases each
    assert all(len(s.tools) == 2 for s in adapt)


def test_generated_mode_respects_cases():
    cfg = ExperimentConfig(experiment="baselines", cases_per_tool=2, regression=False, seed=5)
    scenarios = experiment_scenarios(cfg)
    tools = [tool for pair in TASK_TOOLS.values() for tool in pair]
    assert sorted(s.ground_truth.tool for s in scenarios) == sorted(tools * 2)


def test_collect_records_and_fairness(golden_run):
    run = golden_run(ALGORITHMS)
    # the records come from the episode results, with or without traces
    records = collect_records(ExperimentConfig(experiment="algorithms"))
    assert records == run.records
    assert len(records) == 60 * len(ALGORITHM_CONFIGS)
    assert all(r["success"] for r in records)
    # one trace file per (scenario, config), each attempt/search logged and
    # the episode's record last
    traces = sorted((run.dir / "traces").glob("*.jsonl"))
    assert len(traces) == len(records)
    events = [json.loads(line) for line in traces[0].read_text().splitlines()]
    assert {e["event"] for e in events[:-1]} <= {"search", "attempt"}
    assert sum(e["event"] == "search" for e in events) >= 1
    assert events[-1] == records[0]


def test_aggregate_denominators():
    cfg = ExperimentConfig(experiment="baselines", budgets=(0, 1, 89))
    keys = ("scenario", "success", "failed_attempts", "nodes_first_search", "plan_length")
    records = [
        dict(zip(keys, values), task="cleaning", tool="rake", config="FS+H")
        for values in (("s1", True, 1, 10, 8), ("s2", True, 3, 20, 8), ("s3", False, 7, 30, None))
    ]
    table = aggregate(records, cfg)
    row = table.rows[0]
    # means over successful episodes only; success counts over all
    assert row.failed_attempts_mean == 2.0
    assert row.nodes_mean == 15.0
    assert row.success == 2
    curve = {p.budget: p.success_rate for p in table.budget_points}
    assert curve[0] == 0.0
    assert curve[1] == pytest.approx(1 / 3)
    assert curve[89] == pytest.approx(2 / 3)


def test_budget_curves_monotone_and_recomputable(golden_run):
    run = golden_run(BASELINES)
    cfg = ExperimentConfig(experiment="baselines", budgets=tuple(range(0, 90, 10)))
    table = aggregate(run.records, cfg)
    by_config = {}
    for p in table.budget_points:
        by_config.setdefault(p.config, []).append(p.success_rate)
    for rates in by_config.values():
        assert rates == sorted(rates)
    # recompute one point from the raw traces
    attempts_by_key = {}
    for path in (run.dir / "traces").glob("*.jsonl"):
        events = [json.loads(line) for line in path.read_text().splitlines()]
        accepted = any(e["event"] == "attempt" and e["accepted"] for e in events)
        failed = sum(1 for e in events if e["event"] == "attempt" and not e["accepted"])
        attempts_by_key[path.stem] = (accepted, failed)
    for cid in ("FS+H", "UCS"):
        safe = cid.replace("+", "-").replace("*", "-")
        mine = [v for k, v in attempts_by_key.items() if k.endswith(f"__{safe}")]
        rate = sum(1 for ok, failed in mine if ok and failed <= 10) / len(mine)
        assert rate == dict(((p.config, p.budget), p.success_rate) for p in table.budget_points)[(cid, 10)]


def test_budget_point_b_is_episode_budget_b_plus_one(golden_run):
    # an episode launches no search once its failed attempts reach --budget,
    # while a curve point b counts a success with at most b failed attempts:
    # point b counts exactly the episodes that succeed under --budget b+1
    # (cleaning_rake_case04 fails 8 attempts under H, then succeeds)
    ids = ("cleaning_rake_case04", "cooking_spatula_case02", "woodworking_hammer_case07")
    h = dict(BASELINE_CONFIGS)["H"]
    records = [r for r in golden_run(BASELINES).records
               if r["config"] == "H" and r["scenario"] in ids]
    assert len(records) == len(ids)
    for record in records:
        failed = record["failed_attempts"]
        budgets = tuple(sorted({0, max(failed - 1, 0), failed, failed + 1}))
        table = aggregate([record], ExperimentConfig(experiment="baselines", budgets=budgets))
        scenario = load_scenario(benchmark_dir() / f"{record['scenario']}.json")
        _, _, gp = load_task(f"{record['task']}_{record['tool']}")
        succ_cache = {}
        for point in table.budget_points:
            result = run_episode(gp, h, scenario, budget=point.budget + 1, succ_cache=succ_cache)
            assert result.success == (point.success_rate == 1.0), (record["scenario"], point)
            assert result.success or result.status == STATUS_BUDGET


@pytest.mark.parametrize("experiment", EXPERIMENT_CONFIGS)
def test_reports_rebuild_from_trace_files_alone(golden_run, tmp_path, experiment):
    # the last line of every trace file is the episode's record, so folding
    # those lines alone writes the run's own report and budget file, the
    # adaptability random row included
    prefix = f"bench/{experiment}-noise-off"
    run = golden_run(prefix)
    cfg = MATRIX[prefix][1]
    events = [json.loads(path.read_text().splitlines()[-1])
              for path in sorted((run.dir / "traces").glob("*.jsonl"))]

    def key(record):
        return record["scenario"], record["config"]

    assert sorted(events, key=key) == sorted(run.records, key=key)
    for fmt, ext in (("csv", "csv"), ("json", "json"), ("markdown", "md")):
        rebuilt = emit_report(aggregate(events, cfg), fmt, tmp_path / f"report.{ext}")
        assert len(rebuilt) == (2 if cfg.budgets and fmt != "json" else 1)
        assert [p.read_bytes() for p in rebuilt] == [(run.dir / p.name).read_bytes() for p in rebuilt]


def test_reports_csv_json_markdown_agree(tmp_path):
    table = MetricsTable(
        kind="summary",
        rows=[SummaryRow("cleaning", "rake", "FS+H", 42.25, 1.5, 10, 8.0)],
    )
    csv_path = emit_report(table, "csv", tmp_path / "r.csv")[0]
    md_path = emit_report(table, "markdown", tmp_path / "r.md")[0]
    json_path = emit_report(table, "json", tmp_path / "r.json")[0]
    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == SUMMARY_HEADER
    assert csv_lines[1] == "cleaning,rake,FS+H,42.25,1.5,10,8"
    md_cells = [c.strip() for c in md_path.read_text().splitlines()[2].strip("|").split("|")]
    assert md_cells == csv_lines[1].split(",")
    payload = json.loads(json_path.read_text())
    assert payload["rows"][0]["nodes_mean"] == "42.25"


def test_empty_table_is_header_only(tmp_path):
    path = emit_report(MetricsTable(kind="summary"), "csv", tmp_path / "empty.csv")[0]
    assert path.read_text() == SUMMARY_HEADER + "\n"


def test_adaptability_table_shape(golden_run, tmp_path):
    cfg = ExperimentConfig(experiment="adaptability")
    table = aggregate(golden_run("bench/adaptability-noise-off").records, cfg)
    assert table.kind == "adaptability"
    assert [(r.task, r.config) for r in table.rows] == [
        (task, config) for task in sorted(TASK_TOOLS) for config in ("FS+H", "random")]
    for fsh in (r for r in table.rows if r.config == "FS+H"):
        assert fsh.cases == 10
        assert fsh.correct == 10  # noiseless: always the right tool
    path = emit_report(table, "csv", tmp_path / "adapt.csv")[0]
    assert path.read_text().splitlines()[0] == "task,config,correct,cases"


def test_cross_config_fairness_same_scenarios(golden_run):
    records = golden_run(BASELINES).records
    scenarios = {cid: {r["scenario"] for r in records if r["config"] == cid}
                 for cid, _ in BASELINE_CONFIGS}
    bundled = {s.scenario_id for s in experiment_scenarios(ExperimentConfig(experiment="baselines"))}
    assert len(scenarios) == 4
    assert all(ids == bundled for ids in scenarios.values())
