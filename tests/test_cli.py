import copy
import json
import re
import shutil
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgs import cli
from fgs.assets import data_dir, load_model, load_task
from fgs.bench import ExperimentConfig, MetricsTable, experiment_scenarios
from fgs.cli import EXIT_IO, EXIT_NO_SOLUTION, EXIT_OK, EXIT_USAGE, main
from fgs.episode import run_episode, trace_events
from fgs.heuristics import HEURISTIC_NAMES
from fgs.scenario import TOOL_TABLE, load_scenario
from fgs.search import SearchConfig

from .test_pddl import mutated_tokens
from .test_scenario import FIELD_PATHS, json_values

DOMAINS = data_dir() / "domains"
BENCH = data_dir() / "benchmarks"


def args_for(task, *extra):
    return [
        "--domain", str(DOMAINS / f"{task}.domain.pddl"),
        "--problem", str(DOMAINS / f"{task}.problem.pddl"),
        *extra,
    ]


def test_validate_ok(capsys):
    assert main(["validate", *args_for("cleaning_rake")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cleaning-rake" in out and "ground actions" in out


# `fgs validate` on each bundled task pair: (schemas, predicates, objects,
# ground actions, atoms)
VALIDATE_COUNTS = {
    "cleaning_either": (10, 18, 16, 216, 141),
    "cleaning_rake": (8, 16, 16, 124, 139),
    "cleaning_squeegee": (8, 17, 16, 124, 140),
    "cooking_either": (13, 22, 17, 224, 159),
    "cooking_ladle": (11, 20, 17, 131, 157),
    "cooking_spatula": (11, 20, 17, 131, 157),
    "woodworking_either": (10, 19, 18, 229, 155),
    "woodworking_hammer": (8, 17, 18, 131, 153),
    "woodworking_screwdriver": (8, 17, 18, 131, 153),
}


@pytest.mark.parametrize("task", sorted(VALIDATE_COUNTS))
def test_validate_output_is_pinned_for_every_bundled_task(capsys, task):
    schemas, predicates, objects, actions, atoms = VALIDATE_COUNTS[task]
    name = task.replace("_", "-")
    assert main(["validate", *args_for(task)]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"domain {name}: {schemas} schemas, {predicates} predicates\n"
        f"problem {name}-1: {objects} objects, {actions} ground actions, {atoms} atoms\n")


def test_untyped_objects_ground_once(tmp_path, capsys):
    domain = tmp_path / "d.pddl"
    problem = tmp_path / "p.pddl"
    domain.write_text("(define (domain d) (:predicates (at ?x) (done)) "
                      "(:action go :parameters (?x) :precondition (at ?x) :effect (done)))")
    problem.write_text("(define (problem p) (:domain d) (:objects a b) (:init (at a)) (:goal (done)))")
    names = [act.name for act in load_model(domain, problem)[2].actions]
    assert names == ["(go a)"]
    assert main(["validate", "--domain", str(domain), "--problem", str(problem)]) == EXIT_OK
    assert capsys.readouterr().out == ("domain d: 1 schemas, 2 predicates\n"
                                       "problem p: 2 objects, 1 ground actions, 2 atoms\n")


def test_validate_scenario_not_matching_problem_exits_two(capsys):
    # the same check as `fgs episode` and `fgs plan`: the rake problem's join
    # has no tool spec in a ladle scenario
    code = main(["validate", *args_for("cleaning_rake"),
                 "--scenario", str(BENCH / "cooking_ladle_case00.json")])
    assert code == EXIT_USAGE
    assert "join action(s) ['join-rake'] have no tool spec" in capsys.readouterr().err


def test_validate_bad_pddl(tmp_path, capsys):
    bad = tmp_path / "bad.domain.pddl"
    bad.write_text("(define (domain broken) (:predicates (p ?x)) (:action a :parameters (?x) :precondition (or) :effect (p ?x)))")
    code = main(["validate", "--domain", str(bad), "--problem", str(bad)])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_validate_headless_domain_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.domain.pddl"
    bad.write_text("(define (domain))")
    code = main(["validate", "--domain", str(bad), "--problem", str(bad)])
    assert code == EXIT_USAGE
    assert "missing domain name" in capsys.readouterr().err


def test_validate_non_utf8_pddl_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.domain.pddl"
    bad.write_bytes(b"\xff\xfe(define (domain d))")
    code = main(["validate", "--domain", str(bad), "--problem", str(bad)])
    assert code == EXIT_USAGE
    assert "bad.domain.pddl: not UTF-8 text" in capsys.readouterr().err


# Each row edits a copy of a bundled scenario: (field path, new value, the
# expected message); with a path of None the value is the whole file text,
# and a value of ... removes the field.
CASE_TEXT = (BENCH / "woodworking_hammer_case00.json").read_text(encoding="utf-8")
# the same case as a version-1 file: whole tool specs in place of tool names
V1_CASE = {k: v for k, v in json.loads(CASE_TEXT).items() if k != "tools"}
V1_CASE.update(format_version=1, tool_specs=[
    dict(asdict(TOOL_TABLE["hammer"]), allowed_materials=sorted(TOOL_TABLE["hammer"].allowed_materials))
])
MALFORMED_SCENARIOS = [
    ("seed-string", ("noise", "seed"), "ten",
     r"case\.json\.noise\.seed: expected an integer, got a string"),
    ("seed-null", ("noise", "seed"), None,
     r"case\.json\.noise\.seed: expected an integer, got null"),
    ("shape-conf-string", ("objects", 0, "shape_conf", "handle"), "0.4",
     r"case\.json\.objects\[0\]\.shape_conf\.handle: expected a number, got a string"),
    ("material-conf-list", ("objects", 0, "material_conf"), [1],
     r"case\.json\.objects\[0\]\.material_conf: expected an object, got a list"),
    ("truncated-json", None, CASE_TEXT[: len(CASE_TEXT) // 2], r"case\.json: invalid JSON"),
    ("deeply-nested-json", None, "[" * 100_000 + "]" * 100_000, r"case\.json: invalid JSON"),
    ("objects-string", ("objects",), "nope", r"case\.json\.objects: expected a list, got a string"),
    ("pierceable-string", ("objects", 0, "pierceable"), "false",
     r"case\.json\.objects\[0\]\.pierceable: expected a boolean, got a string"),
    ("seed-fraction", ("noise", "seed"), 10.7,
     r"case\.json\.noise\.seed: expected an integer, got a number"),
    ("noise-rate-range", ("noise", "material_fn_rate"), 1.5,
     r"case\.json\.noise\.material_fn_rate: 1\.5 not in \[0, 1\]"),
    ("noise-jitter-range", ("noise", "shape_jitter"), 0.9,
     r"case\.json\.noise\.shape_jitter: 0\.9 not in \[0, 0\.5\]"),
    ("tools-string", ("tools",), "hammer", r"case\.json\.tools: expected a list, got a string"),
    ("tool-unknown", ("tools", 0), "mallet", r"case\.json\.tools\[0\]: unknown tool 'mallet'"),
    ("tools-empty", ("tools",), [], r"case\.json\.tools: no candidate tool"),
    ("format-version-1", None, json.dumps(V1_CASE),
     r"error: case\.json\.format_version: unsupported format_version 1\n$"),
    ("confidence-overflows-float", ("objects", 0, "shape_conf", "handle"), 10**400,
     r"case\.json\.objects\[0\]\.shape_conf\.handle: number out of range"),
    ("confidence-range", ("objects", 0, "shape_conf", "handle"), 2.0,
     r"case\.json\.objects\[0\]\.shape_conf\.handle: 2\.0 not in \[0, 1\]"),
    ("shape-role-unknown", ("objects", 0, "shape_conf", "rake_head"), 0.5,
     r"case\.json\.objects\[0\]\.shape_conf: unknown part role 'rake_head'"),
    ("object-id-repeated", ("objects", 1, "object_id"), "obj0",
     r"case\.json\.objects\[1\]: duplicate object_id 'obj0'"),
    ("ground-truth-tool-other", ("ground_truth", "tool"), "rake",
     r"case\.json\.ground_truth\.tool: 'rake' not among candidate tools"),
    ("ground-truth-part-unknown", ("ground_truth", "grasp_part"), "obj99",
     r"case\.json\.ground_truth\.grasp_part: unknown object 'obj99'"),
    ("ground-truth-same-parts", ("ground_truth", "grasp_part"), "obj2",
     r"case\.json\.ground_truth: action and grasp parts must differ"),
    ("ground-truth-material", ("objects", 2, "material_conf"), {"plastic": 0.9},
     r"case\.json\.ground_truth: pair fails the material constraint"),
    ("format-version-missing", ("format_version",), ...,
     r"case\.json\.format_version: missing required field"),
    ("noise-misspelt-field", ("noise", "materal_fn_rate"), 1.0,
     r"case\.json\.noise\.materal_fn_rate: unknown field"),
    ("object-misspelt-field", ("objects", 0, "pierceble"), True,
     r"case\.json\.objects\[0\]\.pierceble: unknown field"),
    ("legacy-n", ("n",), 10, r"case\.json\.n: unknown field"),
    ("task-type-unknown", ("task_type",), "nonsense",
     r"case\.json\.task_type: unknown task type 'nonsense'"),
    ("tool-of-another-task", ("task_type",), "cooking",
     r"case\.json\.tools\[0\]: tool 'hammer' is not registered for task type 'cooking'"),
]


def test_validate_repeated_tool_exits_two(tmp_path, capsys):
    data = json.loads(CASE_TEXT)
    data["tools"].append("hammer")
    bad = tmp_path / "case.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = main(["validate", *args_for("woodworking_hammer"), "--scenario", str(bad)])
    assert code == EXIT_USAGE
    assert "case.json.tools[1]: duplicate tool 'hammer'" in capsys.readouterr().err


RAKE_DOMAIN = (DOMAINS / "cleaning_rake.domain.pddl").read_text(encoding="utf-8")
RAKE_PARTS = "(?head - tool-part ?grip - tool-part)"
# the rake domain with a join that binds one or three tool parts
RAKE_VARIANTS = {
    "one-part": RAKE_DOMAIN.replace(RAKE_PARTS, "(?head - tool-part)").replace("?grip", "?head"),
    "three-part": RAKE_DOMAIN.replace(RAKE_PARTS, RAKE_PARTS[:-1] + " ?brace - tool-part)"),
}
ARITY_COMMANDS = {
    "validate": [],
    "plan": ["--features", "on"],
    "episode": ["--features", "on"],
}

# every command with the scenario, and validate and plan without one: the
# parser rejects the join before any scenario is read
JOIN_ARITY_RUNS = {
    **{command: (command, ["--scenario", str(BENCH / "cleaning_rake_case00.json"), *flags])
       for command, flags in ARITY_COMMANDS.items()},
    "validate-no-scenario": ("validate", []),
    "plan-features-off": ("plan", ["--features", "off"]),
}


@pytest.mark.parametrize("command", JOIN_ARITY_RUNS)
@pytest.mark.parametrize("variant", RAKE_VARIANTS)
def test_join_without_two_parts_exits_two(tmp_path, capsys, variant, command):
    # scoring reads an ordered pair, and only a pair can match the ground truth
    assert RAKE_VARIANTS[variant] != RAKE_DOMAIN
    domain = tmp_path / "rake.domain.pddl"
    domain.write_text(RAKE_VARIANTS[variant], encoding="utf-8")
    subcommand, flags = JOIN_ARITY_RUNS[command]
    code = main([subcommand, "--domain", str(domain),
                 "--problem", str(DOMAINS / "cleaning_rake.problem.pddl"), *flags])
    assert code == EXIT_USAGE
    assert "join-rake" in capsys.readouterr().err


# Each row: an id, a bundled file, an edit that breaks it, and the error that
# names the copy of it, rake.domain.pddl or rake.problem.pddl.
BROKEN_PDDL = [
    ("repeated-predicate", "cleaning_rake.domain.pddl", "    (hand-empty)\n", "    (hand-empty)\n    (hand-empty)\n",
     "error: rake.domain.pddl: duplicate predicate 'hand-empty' (line 14, col 6)\n"),
    ("three-part-join", "cleaning_rake.domain.pddl", "(?head - tool-part ?grip - tool-part)",
     "(?head - tool-part ?grip - tool-part ?brace - tool-part)",
     "error: rake.domain.pddl: action 'join-rake' is a join action but has 3 'tool-part' "
     "parameters; a join binds exactly two (action part, grasp part) (line 50, col 12)\n"),
    ("repeated-goal", "cleaning_rake.problem.pddl", "  (:goal (and (garbage-binned)))\n",
     "  (:goal (and (garbage-binned)))\n  (:goal (and (bin-open)))\n",
     "error: rake.problem.pddl: duplicate :goal section (line 25, col 3)\n"),
    ("repeated-objects", "cleaning_rake.problem.pddl", "  (:objects", "  (:objects obj0 - tool-part)\n  (:objects",
     "error: rake.problem.pddl: duplicate :objects section (line 4, col 3)\n"),
    ("missing-goal", "cleaning_rake.problem.pddl", "  (:goal (and (garbage-binned)))\n", "",
     "error: rake.problem.pddl: problem is missing (:goal ...) (line 1, col 1)\n"),
]


@pytest.mark.parametrize("command", ["validate", "plan"])
@pytest.mark.parametrize("name,old,new,message", [row[1:] for row in BROKEN_PDDL],
                         ids=[row[0] for row in BROKEN_PDDL])
def test_pddl_error_names_its_file(tmp_path, capsys, command, name, old, new, message):
    paths = {}
    for kind in ("domain", "problem"):
        text = (DOMAINS / f"cleaning_rake.{kind}.pddl").read_text(encoding="utf-8")
        if name == f"cleaning_rake.{kind}.pddl":
            assert old in text
            text = text.replace(old, new, 1)
        paths[kind] = tmp_path / f"rake.{kind}.pddl"
        paths[kind].write_text(text, encoding="utf-8")
    code = main([command, "--domain", str(paths["domain"]), "--problem", str(paths["problem"])])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == message


def test_bundled_pddl_error_names_its_file(tmp_path, monkeypatch, capsys):
    # tasks are read by assets.load_task; the adaptability run reads
    # cleaning_either first
    (tmp_path / "benchmarks").symlink_to(BENCH)
    (tmp_path / "domains").mkdir()
    for path in DOMAINS.glob("*.pddl"):
        (tmp_path / "domains" / path.name).write_bytes(path.read_bytes())
    problem = tmp_path / "domains" / "cleaning_either.problem.pddl"
    problem.write_text(problem.read_text(encoding="utf-8").replace("(:init", "(:goal (and)) (:init"),
                       encoding="utf-8")
    monkeypatch.setenv("FGS_DATA_DIR", str(tmp_path))
    code = main(["bench", "--experiment", "adaptability", "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    assert "error: cleaning_either.problem.pddl: duplicate :goal section" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ARITY_COMMANDS)
def test_unbuildable_ground_truth_tool_exits_two(capsys, command):
    # the hammer domain grounds no join-screwdriver, so no plan can build
    # this scenario's ground-truth screwdriver
    search_flags = [] if command == "validate" else ["--algorithm", "astar", "--heuristic", "landmarks"]
    code = main([command, *args_for("woodworking_hammer"),
                 "--scenario", str(BENCH / "woodworking_either_case01.json"),
                 *ARITY_COMMANDS[command], *search_flags])
    assert code == EXIT_USAGE
    assert ("scenario 'woodworking_either_case01' has ground-truth tool 'screwdriver', "
            "but the domain grounds no 'join-screwdriver' action") in capsys.readouterr().err


@pytest.mark.parametrize(
    "path,value,message", [row[1:] for row in MALFORMED_SCENARIOS],
    ids=[row[0] for row in MALFORMED_SCENARIOS],
)
def test_validate_malformed_scenario_exits_two(tmp_path, capsys, path, value, message):
    text = value
    if path is not None:
        data = json.loads(CASE_TEXT)
        target = data
        for key in path[:-1]:
            target = target[key]
        if value is ...:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        text = json.dumps(data)
    bad = tmp_path / "case.json"
    bad.write_text(text, encoding="utf-8")
    code = main(["validate", *args_for("woodworking_hammer"), "--scenario", str(bad)])
    assert code == EXIT_USAGE
    assert re.search(message, capsys.readouterr().err)


def test_missing_file_is_io_error(capsys):
    code = main(["validate", "--domain", "/nonexistent.pddl", "--problem", "/nonexistent.pddl"])
    assert code == EXIT_IO


def test_plan_prints_actions(capsys):
    code = main([
        "plan", *args_for("cooking_spatula"),
        "--scenario", str(BENCH / "cooking_spatula_case00.json"),
        "--algorithm", "astar", "--heuristic", "landmarks", "--features", "on",
    ])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("(") and line.endswith(")") for line in lines)
    assert sum("join-spatula" in line for line in lines) == 1


def test_plan_features_need_scenario(capsys):
    code = main(["plan", *args_for("cooking_spatula"), "--features", "on"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("case", ["truncated", "other-problem"])
def test_plan_checks_scenario_with_features_off(tmp_path, capsys, case):
    # the file is read and matched to the problem even when no score needs it
    text = CASE_TEXT if case == "other-problem" else CASE_TEXT[: len(CASE_TEXT) // 2]
    scenario = tmp_path / "case.json"
    scenario.write_text(text, encoding="utf-8")
    code = main(["plan", *args_for("cleaning_rake"), "--features", "off", "--scenario", str(scenario)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert ("case.json: invalid JSON" if case == "truncated" else "have no tool spec") in err


def test_plan_unsolvable_exits_one(tmp_path, capsys):
    dom = tmp_path / "d.pddl"
    prob = tmp_path / "p.pddl"
    dom.write_text("(define (domain dead) (:predicates (p) (q)) (:action a :parameters () :precondition (q) :effect (p)))")
    prob.write_text("(define (problem x) (:domain dead) (:init) (:goal (p)))")
    code = main(["plan", "--domain", str(dom), "--problem", str(prob), "--heuristic", "zero"])
    assert code == EXIT_NO_SOLUTION


def test_episode_json_summary(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main([
        "episode", *args_for("woodworking_hammer"),
        "--scenario", str(BENCH / "woodworking_hammer_case00.json"),
        "--algorithm", "astar", "--heuristic", "landmarks", "--features", "on",
        "--trace", str(trace),
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["success"] is True
    assert summary["plan"][0].startswith("(")
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    # the trace file is the library's trace of the same episode
    cfg = SearchConfig(algorithm="astar", heuristic="landmarks", use_feature_score=True)
    scenario = load_scenario(BENCH / "woodworking_hammer_case00.json")
    result = run_episode(load_task("woodworking_hammer")[2], cfg, scenario)
    assert events == trace_events(scenario, cfg, result)
    # the printed summary is the trace's closing episode event, plus detail
    details = ("plan", "attempted", "trust_trace")
    assert events[-1] == {k: v for k, v in summary.items() if k not in details}


def test_episode_unwritable_trace_exits_three(tmp_path, capsys):
    code = main([
        "episode", *args_for("woodworking_hammer"),
        "--scenario", str(BENCH / "woodworking_hammer_case00.json"),
        "--trace", str(tmp_path / "missing" / "trace.jsonl"),
    ])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "i/o error" in captured.err


EPISODE_ARGS = [*args_for("cleaning_rake"), "--scenario", str(BENCH / "cleaning_rake_case00.json")]


@pytest.mark.parametrize("flag, argv", [
    ("--node-budget", ["plan", *args_for("cleaning_rake"), "--node-budget", "-1"]),
    ("--node-budget", ["episode", *EPISODE_ARGS, "--node-budget", "-1"]),
    ("--budget", ["episode", *EPISODE_ARGS, "--budget", "-1"]),
    ("--weight", ["plan", *args_for("cleaning_rake"), "--algorithm", "wastar", "--weight", "0.5"]),
    ("--cases", ["bench", "--experiment", "algorithms", "--generate", "--cases", "0"]),
    ("--budget-sweep", ["bench", "--experiment", "algorithms", "--budget-sweep=-1"]),
    ("--cases", ["bench", "--experiment", "algorithms", "--cases", "2"]),
    # budget 0 launches no search, so the episode checks the config itself
    ("--weight", ["episode", *EPISODE_ARGS, "--algorithm", "wastar", "--weight", "0.5", "--budget", "0"]),
    ("--node-budget", ["episode", *EPISODE_ARGS, "--node-budget", "-1", "--budget", "0"]),
])
def test_flag_errors_name_the_flag(flag, argv, tmp_path, capsys):
    if argv[0] == "bench":
        argv = [*argv, "--out", str(tmp_path / "r.csv")]
    assert main(argv) == EXIT_USAGE
    assert f"({flag})" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_episode_negative_budget_exits_two(capsys):
    code = main([
        "episode", *args_for("woodworking_hammer"),
        "--scenario", str(BENCH / "woodworking_hammer_case00.json"),
        "--budget", "-3",
    ])
    assert code == EXIT_USAGE
    assert "budget" in capsys.readouterr().err


def test_plan_scenario_not_matching_problem_exits_two(tmp_path, capsys):
    case = json.loads((BENCH / "cleaning_rake_case00.json").read_text(encoding="utf-8"))
    for obj in case["objects"]:
        obj["object_id"] = "other-" + obj["object_id"]
    for part in ("action_part", "grasp_part"):
        case["ground_truth"][part] = "other-" + case["ground_truth"][part]
    scenario = tmp_path / "case.json"
    scenario.write_text(json.dumps(case), encoding="utf-8")
    code = main(["plan", *args_for("cleaning_rake"), "--features", "on", "--scenario", str(scenario)])
    assert code == EXIT_USAGE
    assert "missing from scenario 'cleaning_rake_case00'" in capsys.readouterr().err


def test_bench_negative_budget_exits_two(tmp_path, capsys):
    code = main(["bench", "--experiment", "algorithms", "--budget-sweep=-3,2",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    assert "budget must be non-negative, got -3" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bench_adaptability_budget_sweep_exits_two(tmp_path, capsys):
    # the adaptability report counts tool choices and has no budget curve
    code = main(["bench", "--experiment", "adaptability", "--budget-sweep", "0,1",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    assert "budget curves cover the baselines and algorithms experiments" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("sweep", [",", "", "1,,2", "1,", "x"])
def test_bench_malformed_budget_sweep_exits_two(sweep, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--experiment", "algorithms", f"--budget-sweep={sweep}",
              "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == EXIT_USAGE
    assert "argument --budget-sweep: expected comma-separated integers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bench_repeated_budget_exits_two(tmp_path, capsys):
    code = main(["bench", "--experiment", "algorithms", "--budget-sweep", "2,0,2",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    assert "budget 2 is repeated in the budget sweep (--budget-sweep)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_plan_non_finite_weight_exits_two(weight, capsys):
    code = main(["plan", *args_for("cleaning_rake"), "--algorithm", "wastar", "--weight", weight])
    assert code == EXIT_USAGE
    assert "weight must be a finite number" in capsys.readouterr().err


def test_bench_generate_malformed_library_exits_two(tmp_path, monkeypatch, capsys):
    library = tmp_path / "library" / "objects.json"
    library.parent.mkdir()
    library.write_text('{"format_version": 1}', encoding="utf-8")
    monkeypatch.setenv("FGS_DATA_DIR", str(tmp_path))
    code = main(["bench", "--experiment", "algorithms", "--generate", "--cases", "1",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    assert "objects.json.objects: missing required field" in capsys.readouterr().err


def test_bench_scenario_id_not_its_file_stem_exits_two(tmp_path, monkeypatch, capsys):
    # the id names the scenario's trace files, which must stay in --trace-dir
    shutil.copytree(data_dir(), tmp_path / "data")
    case = tmp_path / "data" / "benchmarks" / "cleaning_either_case00.json"
    case.write_text(case.read_text(encoding="utf-8").replace(
        '"scenario_id": "cleaning_either_case00"', '"scenario_id": "../escaped"'), encoding="utf-8")
    monkeypatch.setenv("FGS_DATA_DIR", str(tmp_path / "data"))
    code = main(["bench", "--experiment", "adaptability", "--out", str(tmp_path / "out" / "r.csv"),
                 "--trace-dir", str(tmp_path / "out" / "tr")])
    assert code == EXIT_USAGE
    assert ("cleaning_either_case00.json.scenario_id: '../escaped' is not the file stem "
            "'cleaning_either_case00'") in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("escaped*"))


def test_bench_selects_scenarios_by_their_tools(tmp_path, monkeypatch):
    # every file under benchmarks/ is the suite, whatever its name: a
    # two-tool file is an adaptability case, and a tool with no files is
    # left out of the one-tool experiments
    shutil.copytree(data_dir(), tmp_path / "data")
    bench = tmp_path / "data" / "benchmarks"
    (bench / "custom_case.json").write_text((bench / "cleaning_either_case00.json").read_text(
        encoding="utf-8").replace('"cleaning_either_case00"', '"custom_case"'), encoding="utf-8")
    for path in bench.glob("cooking_ladle_*.json"):
        path.unlink()
    monkeypatch.setenv("FGS_DATA_DIR", str(tmp_path / "data"))
    assert main(["bench", "--experiment", "adaptability", "--format", "json",
                 "--out", str(tmp_path / "r.json"), "--trace-dir", str(tmp_path / "tr")]) == EXIT_OK
    rows = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["rows"]
    assert {(r["task"], r["config"]): r["cases"] for r in rows} == {
        (task, config): "11" if task == "cleaning" else "10"
        for task in ("cleaning", "cooking", "woodworking") for config in ("FS+H", "random")}
    assert (tmp_path / "tr" / "custom_case__FS-H.jsonl").is_file()
    single = [sc.scenario_id for sc in experiment_scenarios(ExperimentConfig(experiment="baselines"))]
    assert len(single) == 50 and "custom_case" not in single
    assert not any(sid.startswith("cooking_ladle") for sid in single)


@pytest.mark.parametrize("experiment, kind", [("algorithms", "one"), ("adaptability", "two")])
def test_bench_empty_benchmark_dir_exits_two(experiment, kind, tmp_path, monkeypatch, capsys):
    shutil.copytree(data_dir() / "domains", tmp_path / "domains")
    (tmp_path / "benchmarks").mkdir()
    monkeypatch.setenv("FGS_DATA_DIR", str(tmp_path))
    code = main(["bench", "--experiment", experiment, "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    assert (f"no bundled {kind}-tool scenarios under {tmp_path / 'benchmarks'}"
            in capsys.readouterr().err)
    assert not (tmp_path / "r.csv").exists()


def test_bench_generate_lone_grasp_object_exits_two(tmp_path, monkeypatch, capsys):
    # the one hammer head is also the one handle, so no other object can be
    # its grasp part
    data = json.loads((data_dir() / "library" / "objects.json").read_text(encoding="utf-8"))
    for obj in data["objects"]:
        tags = [t for t in obj["role_tags"] if t not in ("hammer_head", "handle")]
        obj["role_tags"] = ["hammer_head", "handle"] if obj["library_id"] == "metal_chunk" else tags
    library = tmp_path / "library" / "objects.json"
    library.parent.mkdir()
    library.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setenv("FGS_DATA_DIR", str(tmp_path))
    code = main(["bench", "--experiment", "algorithms", "--generate", "--cases", "1",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    assert "object library too small" in capsys.readouterr().err


def test_episode_prints_chosen_tool(capsys):
    code = main([
        "episode", *args_for("cleaning_either"),
        "--scenario", str(BENCH / "cleaning_either_case00.json"),
        "--algorithm", "astar", "--heuristic", "landmarks", "--features", "on",
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["chosen_tool"] == "rake"
    assert summary["use_action"] == "collect"
    assert summary["attempted"] == [["obj7", "obj3"]]


def test_episode_summary_with_trust_withdrawn_is_pinned(capsys):
    # FS+H with noise on: eight trusted searches, then one over the reject set
    code = main([
        "episode", *args_for("woodworking_screwdriver"),
        "--scenario", str(BENCH / "woodworking_screwdriver_case03.json"),
        "--algorithm", "astar", "--heuristic", "landmarks", "--features", "on",
        "--noise", "on",
    ])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "attempted": [["obj1", "obj8"], ["obj1", "obj3"], ["obj1", "obj4"], ["obj6", "obj3"],
                      ["obj7", "obj3"], ["obj6", "obj4"], ["obj7", "obj4"], ["obj8", "obj1"]],
        "chosen_tool": "screwdriver",
        "event": "episode",
        "failed_attempts": 7,
        "nodes_first_search": 74,
        "nodes_total": 743,
        "plan": [
            "(pick-up p1 storage)", "(move storage bench)", "(stage p1 bench)",
            "(move bench rack)", "(pick-up p0 rack)", "(move rack bench)", "(stage p0 bench)",
            "(align p0 p1 bench)", "(move bench storage)", "(fetch-fastener s1 storage)",
            "(move storage bench)", "(set-screw s1 p0 p1 bench)",
            "(join-screwdriver obj8 obj1)", "(tighten s1 p0 p1)",
        ],
        "plan_length": 14,
        "scenario": "woodworking_screwdriver_case03",
        "searches": 9,
        "status": "success",
        "success": True,
        "task": "woodworking",
        "tool": "screwdriver",
        "trust_trace": [True] * 8 + [False],
        "use_action": "tighten",
    }


def test_episode_prints_an_empty_accepted_plan_as_a_list(tmp_path, capsys):
    # the robot starts at the porch, so the empty plan reaches the goal
    problem = tmp_path / "rake.problem.pddl"
    text = (DOMAINS / "cleaning_rake.problem.pddl").read_text(encoding="utf-8")
    problem.write_text(text.replace("(:goal (and (garbage-binned)))", "(:goal (robot-at porch))"),
                       encoding="utf-8")
    code = main(["episode", "--domain", str(DOMAINS / "cleaning_rake.domain.pddl"),
                 "--problem", str(problem), "--scenario", str(BENCH / "cleaning_rake_case00.json")])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert (summary["success"], summary["plan"], summary["plan_length"]) == (True, [], 0)


def test_bench_deterministic_reports(tmp_path, capsys):
    argv = [
        "bench", "--experiment", "algorithms", "--seed", "7",
        "--format", "csv",
    ]
    code = main(argv + ["--out", str(tmp_path / "a.csv")])
    assert code == EXIT_OK
    code = main(argv + ["--out", str(tmp_path / "b.csv")])
    assert code == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header == "task,tool,config,nodes_mean,failed_attempts_mean,success,plan_length_mean"


def test_bench_generated_mode_seeded(tmp_path):
    argv = [
        "bench", "--experiment", "adaptability", "--generate", "--cases", "2",
        "--format", "json",
    ]
    for run, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        assert main(argv + ["--seed", seed, "--out", str(tmp_path / f"{run}.json"),
                            "--trace-dir", str(tmp_path / run)]) == EXIT_OK
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert json.loads((tmp_path / "a.json").read_text())["kind"] == "adaptability"

    def searched(run):
        """The traces of the searched episodes. The random baseline's are left
        out: the seed picks its tool directly, not through the scenarios."""
        return {p.name: p.read_bytes() for p in (tmp_path / run).iterdir()
                if not p.name.endswith("__random.jsonl")}

    # the searched traces differ only if the seed reached the generator
    assert searched("a") and searched("a") == searched("b")
    assert searched("a").keys() == searched("c").keys()
    assert searched("a") != searched("c")


def test_bench_generated_mode_applies_noise(tmp_path):
    argv = ["bench", "--experiment", "algorithms", "--generate", "--cases", "2", "--seed", "3"]
    for noise in ("off", "on"):
        assert main([*argv, "--noise", noise, "--out", str(tmp_path / f"{noise}.csv")]) == EXIT_OK
    assert (tmp_path / "off.csv").read_bytes() != (tmp_path / "on.csv").read_bytes()


@pytest.mark.parametrize("experiment", ["algorithms", "adaptability"])
def test_bench_generated_at_the_bundled_seed_is_the_regression_run(experiment, tmp_path):
    argv = ["bench", "--experiment", experiment, "--seed", "1729", "--noise", "on"]
    for run, extra in (("bundled", []), ("drawn", ["--generate", "--cases", "10"])):
        assert main([*argv, *extra, "--out", str(tmp_path / f"{run}.csv"),
                     "--trace-dir", str(tmp_path / run)]) == EXIT_OK
    assert (tmp_path / "bundled.csv").read_bytes() == (tmp_path / "drawn.csv").read_bytes()
    traces = sorted(p.name for p in (tmp_path / "bundled").iterdir())
    assert traces == sorted(p.name for p in (tmp_path / "drawn").iterdir())
    for name in traces:
        assert (tmp_path / "bundled" / name).read_bytes() == (tmp_path / "drawn" / name).read_bytes()


def test_bench_sets_every_experiment_config_field(tmp_path, monkeypatch):
    # each ExperimentConfig field is a flag: with every flag off its default,
    # no field keeps its own
    seen = []

    def run_experiment(cfg, trace_dir=None):
        seen.append(cfg)
        return MetricsTable(kind="summary")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert main(["bench", "--experiment", "algorithms", "--cases", "2", "--generate",
                 "--trust", "fixed", "--budget-sweep", "0,1", "--seed", "3", "--noise", "on",
                 "--out", str(tmp_path / "r.csv")]) == EXIT_OK
    [cfg] = seen
    assert [f.name for f in fields(ExperimentConfig) if getattr(cfg, f.name) == f.default] == []


def test_usage_error_on_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--frobnicate"])
    assert exc.value.code == 2


# -- fuzzing: every run ends in an exit code, never a traceback ----------------

RAKE_DOMAIN = (DOMAINS / "cleaning_rake.domain.pddl").read_text(encoding="utf-8")
RAKE_PROBLEM = (DOMAINS / "cleaning_rake.problem.pddl").read_text(encoding="utf-8")
RAKE_CASE = json.loads((BENCH / "cleaning_rake_case00.json").read_text(encoding="utf-8"))

# Mostly legal values: each flag has at most one that argparse rejects.
# The last two flags are for episode only.
FLAG_VALUES = {
    "--algorithm": ("astar", "wastar", "ucs", "ehc", "dfs"),
    "--heuristic": HEURISTIC_NAMES,
    "--features": ("on", "off"),
    "--noise": ("on", "off"),
    "--weight": ("5", "1", "0", "-1", "nan", "x"),
    "--node-budget": ("0", "1", "50", "-1"),
    "--trust": ("fixed", "switchable"),
    "--budget": ("0", "2", "-3", "x"),
}
COMMAND_FLAGS = {
    "validate": (),
    "plan": tuple(FLAG_VALUES)[:-2],
    "episode": tuple(FLAG_VALUES),
}


def command_lines(command):
    """*command* and a few of its flags, each with a value."""
    names = COMMAND_FLAGS[command]
    if not names:
        return st.just([command])
    args = st.sampled_from(names).flatmap(
        lambda f: st.tuples(st.just(f), st.sampled_from(FLAG_VALUES[f]))
    )
    return st.lists(args, max_size=4).map(lambda flags: [command, *(a for f in flags for a in f)])


@st.composite
def input_files(draw):
    """Valid domain, problem and scenario texts, at most one of them mutated:
    PDDL by its tokens, the scenario by one field replaced or removed."""
    case = copy.deepcopy(RAKE_CASE)
    corrupt = draw(st.sampled_from((None, "domain", "problem", "scenario")))
    if corrupt == "scenario":
        path = draw(st.sampled_from(FIELD_PATHS))
        target = case
        for key in path[:-1]:
            target = target[key]
        value = draw(st.just(...) | json_values)
        if value is ...:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return {
        "domain": draw(mutated_tokens(RAKE_DOMAIN)) if corrupt == "domain" else RAKE_DOMAIN,
        "problem": draw(mutated_tokens(RAKE_PROBLEM)) if corrupt == "problem" else RAKE_PROBLEM,
        "scenario": json.dumps(case),
    }


@settings(max_examples=100, deadline=None)
@given(line=st.sampled_from(sorted(COMMAND_FLAGS)).flatmap(command_lines), files=input_files())
def test_cli_fuzz_ends_in_an_exit_code(line, files):
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(line)
        for name, text in files.items():
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            argv += [f"--{name}", str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            assert exc.code == 2
        else:
            assert code in (EXIT_OK, EXIT_NO_SOLUTION, EXIT_USAGE, EXIT_IO)
