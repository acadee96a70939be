import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fgs import grounding, heuristics
from fgs.assets import benchmark_dir, load_task, task_for_scenario
from fgs.bench import ALGORITHM_CONFIGS, ExperimentConfig, experiment_scenarios
from fgs.episode import episode_event, first_join, run_episode, trace_events
from fgs.errors import ConfigError
from fgs.scenario import TASK_TOOLS, NoiseSpec, load_scenario
from fgs.search import SearchConfig

from .util import drawn

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import check_episode  # noqa: E402

FSH = SearchConfig(algorithm="astar", heuristic="landmarks", use_feature_score=True)
H = SearchConfig(algorithm="astar", heuristic="landmarks")


@pytest.fixture(scope="module")
def squeegee_setup():
    _, _, gp = load_task("cleaning_squeegee")
    scenarios = drawn(21, 3, ("squeegee",))
    return gp, scenarios


def test_oracle_judges_first_join_pair(squeegee_setup):
    gp, scenarios = squeegee_setup
    sc = scenarios[0]
    result = run_episode(gp, FSH, sc)
    join = first_join(result.final_plan)
    assert join.o_a == sc.ground_truth.pair == result.attempted[-1]
    assert result.chosen_tool == sc.registry()[join.schema_name].tool
    assert first_join([]) is None  # nothing built, nothing to fail


def test_noiseless_episode_succeeds_quickly(squeegee_setup):
    gp, scenarios = squeegee_setup
    for sc in scenarios:
        result = run_episode(gp, FSH, sc)
        assert result.success
        assert result.failed_attempts <= 3
        assert result.status == "success"
        assert result.plan_length == len(result.final_plan)


def test_features_off_explores_blindly(squeegee_setup):
    gp, scenarios = squeegee_setup
    result = run_episode(gp, H, scenarios[0])
    assert result.success
    # uninformed ordering: the episode walks permutations until the truth
    assert result.failed_attempts > 3
    assert result.trust_trace == [True] * result.searches
    assert result.reject_final == frozenset()  # features off never reject


def test_no_repeated_attempts(squeegee_setup):
    gp, scenarios = squeegee_setup
    result = run_episode(gp, H, scenarios[0])
    assert len(set(result.attempted)) == len(result.attempted)
    assert result.failed_attempts == len(result.attempted) - 1


def test_budget_stops_search_launches(squeegee_setup):
    gp, scenarios = squeegee_setup
    result = run_episode(gp, H, scenarios[0], budget=5)
    assert not result.success
    assert result.status == "budget"
    assert result.failed_attempts == 5
    # searches: 5 failures then the gate refuses a sixth launch
    assert result.searches == 5


def test_budget_zero_launches_nothing(squeegee_setup):
    gp, scenarios = squeegee_setup
    result = run_episode(gp, H, scenarios[0], budget=0)
    assert not result.success
    assert result.searches == 0
    assert result.failed_attempts == 0


def test_negative_budget_rejected(squeegee_setup):
    gp, scenarios = squeegee_setup
    with pytest.raises(ConfigError, match="budget"):
        run_episode(gp, H, scenarios[0], budget=-3)


@pytest.mark.parametrize("cfg, flag", [
    (replace(H, algorithm="weighted_astar", weight=0.5), "--weight"),
    (replace(H, node_budget=-1), "--node-budget"),
])
def test_bad_search_config_rejected_without_a_search(squeegee_setup, cfg, flag):
    # budget 0 launches no search, so the episode checks the config itself
    gp, scenarios = squeegee_setup
    with pytest.raises(ConfigError, match=flag):
        run_episode(gp, cfg, scenarios[0], budget=0)


def test_shared_cache_discovers_landmarks_once(squeegee_setup, monkeypatch):
    # every search of every episode on one cache reuses one landmark heuristic
    gp, scenarios = squeegee_setup
    calls = []
    discover = heuristics.discover_landmarks

    def counted(g):
        calls.append(g)
        return discover(g)

    monkeypatch.setattr(heuristics, "discover_landmarks", counted)
    cache: dict = {}
    searches = sum(run_episode(gp, FSH, sc, succ_cache=cache).searches for sc in scenarios)
    assert searches >= len(scenarios) and calls == [gp]


def test_material_false_negative_fixed_trust_fails(squeegee_setup):
    gp, scenarios = squeegee_setup
    sc = replace(scenarios[0], noise=NoiseSpec(seed=9, material_fn_rate=1.0))
    result = run_episode(gp, FSH, sc, noise_on=True, trust_policy="fixed")
    assert not result.success
    assert result.status == "exhausted"
    assert sc.ground_truth.pair not in result.attempted
    assert result.trust_trace == [True] * result.searches
    join_action = sc.spec_for_tool(sc.ground_truth.tool).join_action_name
    assert (sc.ground_truth.pair, join_action) in result.reject_final


def test_trust_switch_rescues(squeegee_setup):
    gp, scenarios = squeegee_setup
    sc = replace(scenarios[0], noise=NoiseSpec(seed=9, material_fn_rate=1.0))
    result = run_episode(gp, FSH, sc, noise_on=True, trust_policy="switchable")
    assert result.success
    assert result.attempted[-1] == sc.ground_truth.pair
    assert result.phase2_whitelist == result.reject_final
    # trust never switches back once withdrawn
    flips = [a != b for a, b in zip(result.trust_trace, result.trust_trace[1:])]
    assert sum(flips) == 1
    assert result.trust_trace[0] is True and result.trust_trace[-1] is False


def test_attach_false_negative_rescued(squeegee_setup):
    gp, scenarios = squeegee_setup
    sc = replace(scenarios[1], noise=NoiseSpec(seed=9, attach_fn_rate=1.0))
    fixed = run_episode(gp, FSH, sc, noise_on=True, trust_policy="fixed")
    switched = run_episode(gp, FSH, sc, noise_on=True, trust_policy="switchable")
    assert not fixed.success and switched.success


def test_oracle_rejections_alone_do_not_switch_trust(squeegee_setup):
    # plenty of finite-score pairs left: phase 1 keeps replanning, so the
    # trust trace must stay all-true while attempts accumulate
    gp, scenarios = squeegee_setup
    sc = scenarios[2]
    result = run_episode(gp, FSH, sc, budget=2)
    assert result.trust_trace == [True] * result.searches


def test_misaligned_scenario_is_config_error(squeegee_setup):
    gp, _ = squeegee_setup
    scenarios = drawn(2, 1, ("ladle",))
    with pytest.raises(ConfigError, match="join-squeegee"):
        run_episode(gp, FSH, scenarios[0])


def test_trace_events(squeegee_setup):
    gp, scenarios = squeegee_setup
    result = run_episode(gp, FSH, scenarios[0])
    events = trace_events(scenarios[0], FSH, result)
    kinds = {e["event"] for e in events[:-1]}
    assert kinds == {"search", "attempt"}
    searches = [e for e in events if e["event"] == "search"]
    attempts = [e for e in events if e["event"] == "attempt"]
    assert len(searches) == result.searches and len(attempts) >= 1
    assert [e["nodes"] for e in searches] == list(result.nodes_per_search)
    assert [e["trust"] for e in searches] == result.trust_trace
    assert [tuple(e["pair"]) for e in attempts] == list(result.attempted)
    assert attempts[-1]["accepted"] is True
    # the episode's summary closes the trace
    assert events[-1] == episode_event(scenarios[0], result)
    assert events[-1]["searches"] == len(searches)
    assert events[-1]["failed_attempts"] == attempts[-1]["failed_attempts"]


def _bundled(scenario_id):
    sc = load_scenario(benchmark_dir() / f"{scenario_id}.json")
    return load_task(task_for_scenario(sc.task_type, sc.tools).task_id)[2], sc


def test_node_budget_cut_keeps_trust():
    # the trusted phase is cut off, not out of plans: the episode ends with
    # the search's own status, and trust is never withdrawn
    gp, sc = _bundled("cleaning_rake_case03")
    result = run_episode(gp, replace(FSH, node_budget=30), sc, noise_on=True)
    assert result.status == "budget"
    assert result.search_log[-1].status == "budget"
    assert result.searches > 1
    assert result.trust_trace == [True] * result.searches
    assert result.phase2_whitelist is None


# Paths the pinned bench and episode digests do not cover: fixed trust, the
# failed-attempt budget, EHC, features off and the node budget.
TRACE_PATHS = {
    "fixed-trust": (FSH, {"trust_policy": "fixed"}),
    "attempt-budget": (H, {"budget": 3}),
    "ehc": (SearchConfig(algorithm="ehc", heuristic="ff", use_feature_score=True), {}),
    "features-off": (H, {}),
    "node-budget": (replace(FSH, node_budget=30), {}),
}


@pytest.mark.parametrize("noise_on", [False, True])
@pytest.mark.parametrize("path", sorted(TRACE_PATHS))
@pytest.mark.parametrize("scenario_id", ["cleaning_rake_case03", "woodworking_screwdriver_case03"])
def test_trace_events_follow_the_search_log(scenario_id, path, noise_on):
    gp, sc = _bundled(scenario_id)
    cfg, kwargs = TRACE_PATHS[path]
    result = run_episode(gp, cfg, sc, noise_on=noise_on, **kwargs)
    events = trace_events(sc, cfg, result)
    assert events[-1] == episode_event(sc, result)
    body = events[:-1]
    # each search, followed by an attempt exactly when it found a plan
    searches = [e for e in body if e["event"] == "search"]
    expected = []
    for e in searches:
        expected += ["search"] + (["attempt"] if e["plan_length"] is not None else [])
    assert [e["event"] for e in body] == expected
    assert len(searches) == result.searches
    assert [e["status"] for e in searches] == [s.status for s in result.search_log]
    attempts = [e for e in body if e["event"] == "attempt"]
    assert [tuple(e["pair"]) for e in attempts if e["pair"]] == list(result.attempted)
    last_failed = attempts[-1]["failed_attempts"] if attempts else 0
    assert last_failed == result.failed_attempts
    assert check_episode(grounding, gp, sc, result) == []


def test_adaptability_reports_tool_and_action():
    _, _, gp = load_task("cooking_either")
    for sc in drawn(5, 4, TASK_TOOLS["cooking"]):
        result = run_episode(gp, FSH, sc)
        assert result.success
        assert result.chosen_tool == sc.ground_truth.tool
        expected_action = sc.spec_for_tool(sc.ground_truth.tool).use_action
        assert result.use_action == expected_action


def test_adaptability_no_viable_tool_fails():
    _, _, gp = load_task("cooking_either")
    sc = drawn(5, 1, TASK_TOOLS["cooking"])[0]
    # corrupt every object's material below threshold: nothing passes trust,
    # and the no-trust whitelist rescue eventually proposes pairs anyway
    bad_objects = tuple(
        replace(o, material_conf={"paper": 0.2}) for o in sc.objects
    )
    sc = replace(sc, objects=bad_objects)
    result = run_episode(gp, FSH, sc, trust_policy="fixed")
    assert result.chosen_tool is None
    assert not result.success


def test_single_tool_episodes_report_their_tool():
    # every successful episode names the tool its accepted plan builds, not
    # only those of the adaptability experiment
    caches = {}
    for sc in experiment_scenarios(ExperimentConfig(experiment="baselines")):
        task_id = task_for_scenario(sc.task_type, sc.tools).task_id
        if task_id not in caches:
            caches[task_id] = (load_task(task_id)[2], {})
        gp, cache = caches[task_id]
        result = run_episode(gp, FSH, sc, succ_cache=cache)
        assert result.success, sc.scenario_id
        assert result.chosen_tool == sc.tools[0]
        assert result.use_action == sc.spec_for_tool(sc.tools[0]).use_action
    assert len(caches) == 6


def test_episode_deterministic(squeegee_setup):
    gp, scenarios = squeegee_setup
    a = run_episode(gp, H, scenarios[0])
    b = run_episode(gp, H, scenarios[0])
    assert a.attempted == b.attempted
    assert a.nodes_total == b.nodes_total
    assert [x.name for x in a.final_plan] == [x.name for x in b.final_plan]


def test_shared_cache_episodes_match_cold_episodes():
    # One cache per task, shared by every episode over it, carries successor
    # lists, h_max/h_add/FF values and landmark sets between episodes; the
    # episodes must decide and count exactly as with a fresh cache each.
    configs = [cfg for _, cfg in ALGORITHM_CONFIGS] + [
        SearchConfig(algorithm="astar", heuristic=name, use_feature_score=True)
        for name in ("hadd", "hmax")
    ]
    gps, shared = {}, {}
    for sc in experiment_scenarios(ExperimentConfig(experiment="algorithms")):
        task_id = task_for_scenario(sc.task_type, sc.tools).task_id
        if task_id not in gps:
            gps[task_id], shared[task_id] = load_task(task_id)[2], {}
        for noise_on in (False, True):
            for cfg in configs:
                runs = []
                for cache in (shared[task_id], {}):
                    result = run_episode(gps[task_id], cfg, sc, noise_on=noise_on, succ_cache=cache)
                    runs.append((result, trace_events(sc, cfg, result)))
                assert runs[0] == runs[1], (sc.scenario_id, cfg, noise_on)
    assert len(gps) == 6
    assert all({"ff", "hadd", "hmax", "landmarks"} <= cache.keys() for cache in shared.values())
