import json

import pytest

from fgs.bench import (
    BASELINE_CONFIGS,
    EXPERIMENTS,
    ExperimentConfig,
    MetricsTable,
    SummaryRow,
    aggregate,
    collect_records,
    emit_report,
    experiment_scenarios,
    run_experiment,
)
from fgs.errors import ConfigError
from fgs.search import SearchConfig

SUMMARY_HEADER = "task,tool,config,nodes_mean,failed_attempts_mean,success,plan_length_mean"

FSH_ONLY = (("FS+H", SearchConfig(algorithm="astar", heuristic="landmarks", use_feature_score=True)),)
SMALL = ExperimentConfig(experiment="baselines", task_types=("cleaning",), configs=FSH_ONLY)


def test_config_validation():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig(experiment="nope").validate()
    with pytest.raises(ConfigError, match="task type"):
        ExperimentConfig(experiment="baselines", task_types=("gardening",)).validate()
    with pytest.raises(ConfigError, match="nonempty"):
        ExperimentConfig(experiment="baselines", configs=()).validate()
    with pytest.raises(ConfigError, match="--generate"):
        ExperimentConfig(experiment="baselines", cases_per_tool=2).validate()


def test_bundled_scenario_selection():
    scenarios = experiment_scenarios(SMALL)
    assert len(scenarios) == 20  # rake + squeegee, ten cases each
    assert [s.scenario_id for s in scenarios] == sorted(s.scenario_id for s in scenarios)
    adapt = experiment_scenarios(ExperimentConfig(experiment="adaptability", task_types=("cooking",)))
    assert len(adapt) == 10
    assert all(len(s.tools) == 2 for s in adapt)


def test_generated_mode_respects_cases():
    cfg = ExperimentConfig(
        experiment="baselines", task_types=("cleaning",),
        cases_per_tool=2, configs=FSH_ONLY, regression=False, seed=5,
    )
    scenarios = experiment_scenarios(cfg)
    assert sorted(s.ground_truth.tool for s in scenarios) == ["rake", "rake", "squeegee", "squeegee"]


def test_collect_records_and_fairness(tmp_path):
    records = collect_records(SMALL, trace_dir=tmp_path)
    assert len(records) == 20
    assert all(r["success"] for r in records)
    # one trace file per (scenario, config), each attempt/search logged and
    # the episode's record last
    traces = sorted(tmp_path.glob("*.jsonl"))
    assert len(traces) == 20
    events = [json.loads(line) for line in traces[0].read_text().splitlines()]
    assert {e["event"] for e in events[:-1]} <= {"search", "attempt"}
    assert sum(e["event"] == "search" for e in events) >= 1
    assert events[-1] == records[0]
    # the records come from the episode results, with or without traces
    assert collect_records(SMALL) == records


def test_aggregate_denominators():
    cfg = ExperimentConfig(experiment="baselines", configs=FSH_ONLY, budgets=(0, 1, 89))
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


@pytest.fixture(scope="module")
def cleaning_baselines(tmp_path_factory):
    """The four-config cleaning baselines run, with its trace directory;
    budgets only shape the report, so the records serve any budget sweep."""
    trace_dir = tmp_path_factory.mktemp("cleaning-baselines")
    cfg = ExperimentConfig(experiment="baselines", task_types=("cleaning",))
    return collect_records(cfg, trace_dir=trace_dir), trace_dir


def test_budget_curves_monotone_and_recomputable(cleaning_baselines):
    records, trace_dir = cleaning_baselines
    cfg = ExperimentConfig(
        experiment="baselines", task_types=("cleaning",), budgets=tuple(range(0, 90, 10))
    )
    table = aggregate(records, cfg)
    by_config = {}
    for p in table.budget_points:
        by_config.setdefault(p.config, []).append(p.success_rate)
    for rates in by_config.values():
        assert rates == sorted(rates)
    # recompute one point from the raw traces
    attempts_by_key = {}
    for path in trace_dir.glob("*.jsonl"):
        events = [json.loads(line) for line in path.read_text().splitlines()]
        accepted = any(e["event"] == "attempt" and e["accepted"] for e in events)
        failed = sum(1 for e in events if e["event"] == "attempt" and not e["accepted"])
        attempts_by_key[path.stem] = (accepted, failed)
    for cid in ("FS+H", "UCS"):
        safe = cid.replace("+", "-").replace("*", "-")
        mine = [v for k, v in attempts_by_key.items() if k.endswith(f"__{safe}")]
        rate = sum(1 for ok, failed in mine if ok and failed <= 10) / len(mine)
        assert rate == dict(((p.config, p.budget), p.success_rate) for p in table.budget_points)[(cid, 10)]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_reports_rebuild_from_trace_files_alone(cleaning_baselines, tmp_path, experiment):
    # the last line of every trace file is the episode's record, so folding
    # those lines alone writes the same report and budget file, the
    # adaptability random row included
    budgets = None if experiment == "adaptability" else (0, 1, 2, 5, 10, 89)
    cfg = ExperimentConfig(experiment=experiment, task_types=("cleaning",), budgets=budgets)
    if experiment == "baselines":
        records, trace_dir = cleaning_baselines
    else:
        trace_dir = tmp_path / "traces"
        records = collect_records(cfg, trace_dir=trace_dir)
    events = [json.loads(path.read_text().splitlines()[-1])
              for path in sorted(trace_dir.glob("*.jsonl"))]

    def key(record):
        return record["scenario"], record["config"]

    assert sorted(events, key=key) == sorted(records, key=key)
    for fmt in ("csv", "json", "markdown"):
        written = emit_report(aggregate(records, cfg), fmt, tmp_path / "bench" / f"r.{fmt}")
        rebuilt = emit_report(aggregate(events, cfg), fmt, tmp_path / "rebuilt" / f"r.{fmt}")
        assert len(written) == (2 if budgets and fmt != "json" else 1)
        assert [p.read_bytes() for p in rebuilt] == [p.read_bytes() for p in written]


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


def test_adaptability_table_shape(tmp_path):
    cfg = ExperimentConfig(experiment="adaptability", task_types=("cooking",))
    table = run_experiment(cfg)
    assert table.kind == "adaptability"
    configs = {r.config for r in table.rows}
    assert configs == {"FS+H", "random"}
    fsh = next(r for r in table.rows if r.config == "FS+H")
    assert fsh.cases == 10
    assert fsh.correct == 10  # noiseless: always the right tool
    path = emit_report(table, "csv", tmp_path / "adapt.csv")[0]
    assert path.read_text().splitlines()[0] == "task,config,correct,cases"


def test_byte_identical_reports(tmp_path):
    cfg = ExperimentConfig(experiment="algorithms", task_types=("cleaning",), budgets=(0, 5))
    a = emit_report(run_experiment(cfg), "csv", tmp_path / "a.csv")
    b = emit_report(run_experiment(cfg), "csv", tmp_path / "b.csv")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert len(a) == 2  # summary plus budget curves


def test_cross_config_fairness_same_scenarios(cleaning_baselines):
    records = collect_records(SMALL)
    records4, _ = cleaning_baselines
    ids = {r["scenario"] for r in records}
    ids4 = {r["scenario"] for r in records4 if r["config"] == "FS+H"}
    assert ids == ids4
    assert len(BASELINE_CONFIGS) == 4

