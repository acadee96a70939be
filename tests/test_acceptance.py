"""End-to-end acceptance checks over the bundled benchmark.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts its stated tolerance. The `fgs bench` runs they fold are the
golden matrix's, written once per session by the `golden_run` fixture.
"""

import random
import time

import pytest

from fgs.assets import load_task
from fgs.bench import ADAPTABILITY_CONFIG, ExperimentConfig, aggregate, experiment_scenarios
from fgs.cli import main as cli_main
from fgs.episode import run_episode
from fgs.scenario import TOOL_TABLE, scenario_from_json
from fgs.scoring import ObjectProfile, feature_score
from fgs.search import SearchConfig, search

from .test_scoring import FIXTURES
from .util import bfs_optimal_length, dijkstra_distances, random_model

FSH = SearchConfig(algorithm="astar", heuristic="landmarks", use_feature_score=True)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d} {label}{suffix}")
    assert ok, f"criterion {num:02d} {label}{suffix}"


BASELINES_OFF = "bench/baselines-noise-off"
BASELINES_ON = "bench/baselines-noise-on"


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _config_means(records, key="nodes_first_search"):
    out = {}
    for cid in {r["config"] for r in records}:
        wins = [r for r in records if r["config"] == cid and r["success"]]
        out[cid] = _mean(r[key] for r in wins)
    return out


def test_c01_search_correctness_property():
    start = time.monotonic()
    rng = random.Random(104729)
    checked = 0
    for _ in range(50):
        gp = random_model(rng)
        optimal = bfs_optimal_length(gp)
        for heuristic in ("hmax", "zero"):
            result = search(gp, SearchConfig(algorithm="astar", heuristic=heuristic))
            assert result.found and len(result.plan) == optimal
        dist = dijkstra_distances(gp)
        result = search(gp, SearchConfig(algorithm="ucs"))
        for state in result.closed:
            assert result.g_values[state] == dist[state]
        checked += 1
    elapsed = time.monotonic() - start
    report(1, "search correctness", checked == 50 and elapsed < 60.0,
           f"{checked} models, {elapsed:.1f}s")


def test_c02_score_equations_exact():
    mismatches = 0
    for head, handle, mat, attach, trust, in_reject, expected in FIXTURES:
        a = ObjectProfile("a", {"hammer_head": head, "handle": 0.0},
                          {"metal": mat}, has_magnet=attach)
        b = ObjectProfile("b", {"hammer_head": 0.0, "handle": handle}, {}, has_magnet=attach)
        reject = frozenset([(("a", "b"), "join-hammer")]) if in_reject else frozenset()
        got = feature_score(TOOL_TABLE["hammer"], ("a", "b"), {"a": a, "b": b},
                            None if trust else reject)
        if expected == float("-inf"):
            if got != expected:
                mismatches += 1
        elif abs(got - expected) > 1e-12:
            mismatches += 1
    rng = random.Random(16384)
    out_of_range = 0
    profiles_checked = 0
    while profiles_checked < 100_000:
        pair = []
        for oid in ("a", "b"):
            pair.append(ObjectProfile(
                oid,
                {"hammer_head": rng.random(), "handle": rng.random()},
                {"metal": rng.random() * 0.6, "wood": rng.random() * 0.4},
                pierceable=rng.random() < 0.5,
                can_grasp_others=rng.random() < 0.5,
                can_be_grasped=rng.random() < 0.5,
                has_magnet=rng.random() < 0.5,
            ))
            profiles_checked += 1
        profiles = {p.object_id: p for p in pair}
        reject = frozenset([(("a", "b"), "join-hammer")]) if rng.random() < 0.5 else frozenset()
        for trust in (True, False):
            phi = feature_score(TOOL_TABLE["hammer"], ("a", "b"), profiles,
                                None if trust else reject)
            if phi != float("-inf") and not 0.0 <= phi <= 2.0:
                out_of_range += 1
    report(2, "score equations and range",
           len(FIXTURES) >= 20 and mismatches == 0 and out_of_range == 0,
           f"{len(FIXTURES)} fixtures, {profiles_checked} random profiles")


def test_c03_attempt_reduction(golden_run):
    run = golden_run(BASELINES_OFF)
    elapsed = run.seconds
    means = _config_means(run.records, "failed_attempts")
    fsh, h, ucs = means["FS+H"], means["H"], means["UCS"]
    reduction = 1.0 - fsh / h
    ok = fsh <= 4.0 and reduction >= 0.80 and h >= 25.0 and ucs >= 25.0 and elapsed < 300.0
    report(3, "attempt reduction",
           ok, f"FS+H {fsh:.2f}, H {h:.2f}, UCS {ucs:.2f}, reduction {reduction:.0%}, {elapsed:.0f}s")


def test_c04_node_expansion_ordering(golden_run):
    means = _config_means(golden_run(BASELINES_OFF).records, "nodes_first_search")
    informed = max(means["FS+H"], means["H"])
    uninformed = min(means["FS"], means["UCS"])
    ratio = means["FS+H"] / means["H"]
    ok = informed < uninformed and ratio <= 1.25
    report(4, "node-expansion ordering", ok,
           f"FS+H {means['FS+H']:.0f}, H {means['H']:.0f}, FS {means['FS']:.0f}, "
           f"UCS {means['UCS']:.0f}, ratio {ratio:.3f}")


def _everything_goes_scenario():
    """All ninety permutations pass the hard constraints, and the annotated
    pair is the last one the uninformed sweep reaches."""
    objects = []
    for i in range(10):
        objects.append({
            "object_id": f"obj{i}",
            "shape_conf": {"hammer_head": 0.5, "handle": 0.5},
            "material_conf": {"metal": 0.9},
            "pierceable": False,
            "can_grasp_others": False,
            "can_be_grasped": True,
            "has_magnet": True,
        })
    return scenario_from_json({
        "format_version": 2,
        "scenario_id": "ceiling_worst_case",
        "task_type": "woodworking",
        "objects": objects,
        "ground_truth": {"action_part": "obj9", "grasp_part": "obj8", "tool": "hammer"},
        "tools": ["hammer"],
        "noise": {"seed": 0},
    })


def test_c05_brute_force_ceiling(golden_run):
    records = golden_run(BASELINES_OFF).records
    ceiling_ok = all(r["failed_attempts"] <= 89 for r in records)
    _, _, gp = load_task("woodworking_hammer")
    scenario = _everything_goes_scenario()
    cfg = SearchConfig(algorithm="astar", heuristic="landmarks")  # no feature constraints
    result = run_episode(gp, cfg, scenario)
    worst_ok = (result.success and len(result.attempted) == 90
                and result.failed_attempts == 89)
    report(5, "brute-force ceiling", ceiling_ok and worst_ok,
           f"max failed {max(r['failed_attempts'] for r in records)}, "
           f"worst case attempted {len(result.attempted)}")


@pytest.fixture(scope="module")
def single_tool_scenarios():
    return experiment_scenarios(ExperimentConfig(experiment="baselines"))


def test_c06_trust_switch_rescue(single_tool_scenarios):
    gps = {}
    outcomes = {"fixed": [], "switchable": []}
    whitelists_ok = True
    for sc in single_tool_scenarios:
        task_id = f"{sc.task_type}_{sc.tools[0]}"
        if task_id not in gps:
            gps[task_id] = (load_task(task_id)[2], {})
        gp, cache = gps[task_id]
        for policy in outcomes:
            result = run_episode(gp, FSH, sc, trust_policy=policy, noise_on=True,
                                 succ_cache=cache)
            outcomes[policy].append(result)
            if policy == "switchable" and result.phase2_whitelist is not None:
                if result.phase2_whitelist != result.reject_final:
                    whitelists_ok = False
    fixed_wins = sum(r.success for r in outcomes["fixed"])
    switch_wins = sum(r.success for r in outcomes["switchable"])
    rescued = sum(
        1 for fixed, switched in zip(outcomes["fixed"], outcomes["switchable"])
        if switched.success and not fixed.success
    )
    ok = fixed_wins == 52 and switch_wins == 60 and rescued == 8 and whitelists_ok
    report(6, "trust-switch rescue", ok,
           f"fixed {fixed_wins}/60, switchable {switch_wins}/60, rescued {rescued}")


def test_c07_budget_curves(golden_run):
    cfg = ExperimentConfig(experiment="baselines", budgets=tuple(range(0, 90)))
    table = aggregate(golden_run(BASELINES_OFF).records, cfg)
    curves = {}
    for p in table.budget_points:
        curves.setdefault(p.config, []).append(p.success_rate)
    monotone = all(rates == sorted(rates) for rates in curves.values())
    dominated = all(
        on_rate >= off_rate
        for on in ("FS+H", "FS")
        for off in ("H", "UCS")
        for on_rate, off_rate in zip(curves[on], curves[off])
    )
    report(7, "budget curves", monotone and dominated,
           f"non-decreasing {monotone}, features-on dominates {dominated}")


def test_c08_alternative_algorithms(golden_run):
    algorithm_records = golden_run("bench/algorithms-noise-off").records
    nodes = _config_means(algorithm_records, "nodes_first_search")
    lengths = _config_means(algorithm_records, "plan_length")
    failed = _config_means(algorithm_records, "failed_attempts")
    ok = (
        nodes["wA*+FF"] < nodes["A*+LM"]
        and nodes["EHC+FF"] < nodes["A*+LM"]
        and lengths["wA*+FF"] >= lengths["A*+LM"]
        and lengths["EHC+FF"] >= lengths["A*+LM"]
        and max(failed.values()) - min(failed.values()) <= 2.0
    )
    report(8, "alternative algorithms", ok,
           f"nodes LM {nodes['A*+LM']:.0f} / wA* {nodes['wA*+FF']:.0f} / "
           f"EHC {nodes['EHC+FF']:.0f}; lengths {lengths['A*+LM']:.1f} / "
           f"{lengths['wA*+FF']:.1f} / {lengths['EHC+FF']:.1f}")


def test_c09_adaptability(golden_run):
    clean = golden_run("bench/adaptability-noise-off").records
    noisy = golden_run("bench/adaptability-noise-on").records

    def correct(records, cid):
        return sum(1 for r in records if r["config"] == cid
                   and r["success"] and r["chosen_tool"] == r["tool"])

    # the task action must match the chosen tool as well
    actions_ok = all(
        r["use_action"] == TOOL_TABLE[r["chosen_tool"]].use_action
        for r in clean if r["config"] == ADAPTABILITY_CONFIG[0] and r["success"]
    )
    clean_correct = correct(clean, ADAPTABILITY_CONFIG[0])
    noisy_correct = correct(noisy, ADAPTABILITY_CONFIG[0])
    rand_correct = correct(clean, "random")
    ok = (clean_correct == 30 and actions_ok and noisy_correct >= 26
          and 10 <= rand_correct <= 20)
    report(9, "adaptability", ok,
           f"noiseless {clean_correct}/30, noisy {noisy_correct}/30, random {rand_correct}/30")


def test_c10_determinism(tmp_path, capsys):
    from fgs.assets import data_dir

    domains = data_dir() / "domains"
    bench = data_dir() / "benchmarks"
    model = [
        "--domain", str(domains / "cleaning_rake.domain.pddl"),
        "--problem", str(domains / "cleaning_rake.problem.pddl"),
    ]
    scenario = ["--scenario", str(bench / "cleaning_rake_case02.json")]
    search_flags = ["--algorithm", "astar", "--heuristic", "landmarks", "--features", "on"]

    def run_twice(argv):
        outs = []
        for i in range(2):
            suffixed = [a.replace("{i}", str(i)) for a in argv]
            assert cli_main(suffixed) == 0
            outs.append(capsys.readouterr().out.replace(f"run{i}", "runX"))
        return outs[0] == outs[1]

    checks = {
        "validate": run_twice(["validate", *model, *scenario]),
        "plan": run_twice(["plan", *model, *scenario, *search_flags]),
        "episode": run_twice([
            "episode", *model, *scenario, *search_flags,
            "--trace", str(tmp_path / "trace_run{i}.jsonl"),
        ]),
        "bench": run_twice([
            "bench", "--experiment", "algorithms", "--seed", "7", "--format", "csv",
            "--out", str(tmp_path / "report_run{i}.csv"),
            "--trace-dir", str(tmp_path / "traces_run{i}"),
        ]),
    }
    traces = [
        sorted((tmp_path / f"traces_run{i}").glob("*.jsonl")) for i in range(2)
    ]
    checks["bench"] = checks["bench"] and (
        [p.read_bytes() for p in traces[0]] == [p.read_bytes() for p in traces[1]]
        and (tmp_path / "report_run0.csv").read_bytes()
        == (tmp_path / "report_run1.csv").read_bytes()
        and (tmp_path / "trace_run0.jsonl").read_bytes()
        == (tmp_path / "trace_run1.jsonl").read_bytes()
    )
    ok = all(checks.values())
    report(10, "determinism", ok, ", ".join(f"{k}={v}" for k, v in checks.items()))


def test_c11_search_effort_cut(golden_run):
    # the paper's headline: expansions summed over every search of an
    # episode, replans included, against plain heuristic and blind search,
    # with every episode of every config solved
    cuts = {}
    solved = True
    for noise, prefix in (("on", BASELINES_ON), ("off", BASELINES_OFF)):
        records = golden_run(prefix).records
        solved = solved and all(r["success"] for r in records)
        totals = {cid: sum(r["nodes_total"] for r in records if r["config"] == cid)
                  for cid in ("FS+H", "H", "FS", "UCS")}
        cuts[noise] = (1.0 - totals["FS+H"] / totals["H"], 1.0 - totals["FS"] / totals["UCS"])
    ok = solved and all(cut >= 0.90 for pair in cuts.values() for cut in pair)
    report(11, "search-effort cut", ok,
           "; ".join(f"noise {noise}: FS+H vs H {fsh:.2%}, FS vs UCS {fs:.2%}"
                     for noise, (fsh, fs) in cuts.items()))
