import random
from dataclasses import replace

import pytest

from fgs import heuristics, scoring
from fgs.assets import benchmark_dir, load_task, task_for_scenario
from fgs.bench import ALGORITHM_CONFIGS, BASELINE_CONFIGS
from fgs.errors import ConfigError
from fgs.grounding import goal_satisfied
from fgs.scenario import load_scenario, sense
from fgs.scoring import NEG_INF, JoinScorer, ToolSpec
from fgs.search import (
    STATUS_BUDGET,
    STATUS_EXHAUSTED,
    STATUS_FOUND,
    PlanResult,
    SearchConfig,
    search,
)

from .util import (
    ReferenceScorer,
    bfs_optimal_length,
    chain_problem,
    decode,
    dijkstra_distances,
    encode,
    make_ground_problem,
    random_model,
    reference_search,
)


def simulate(gp, plan):
    state = decode(gp.init)
    for act in plan:
        assert decode(act.pre) <= state and not (decode(act.neg) & state)
        state = (state - decode(act.dels)) | decode(act.adds)
    return encode(state)


def test_goal_at_init_expands_nothing():
    gp = make_ground_problem(["p"], [("a", [], [], ["p"], [])], ["p"], ["p"])
    result = search(gp, SearchConfig())
    assert result.status == STATUS_FOUND
    assert result.plan == []
    assert result.nodes_expanded == 0


def test_three_step_chain_matches_bfs():
    gp = chain_problem(3)
    for heuristic in ("zero", "hmax"):
        result = search(gp, SearchConfig(algorithm="astar", heuristic=heuristic))
        assert result.found
        assert len(result.plan) == 3 == bfs_optimal_length(gp)


def test_plans_optimal_on_random_models():
    rng = random.Random(11)
    for _ in range(25):
        gp = random_model(rng)
        opt = bfs_optimal_length(gp)
        for algorithm, heuristic in (("astar", "hmax"), ("astar", "zero"), ("ucs", "zero")):
            result = search(gp, SearchConfig(algorithm=algorithm, heuristic=heuristic))
            assert result.found
            assert len(result.plan) == opt
            assert goal_satisfied(simulate(gp, result.plan), gp)


def test_closed_g_matches_dijkstra():
    rng = random.Random(12)
    for _ in range(10):
        gp = random_model(rng)
        dist = dijkstra_distances(gp)
        result = search(gp, SearchConfig(algorithm="ucs"))
        for state in result.closed:
            assert result.g_values[state] == dist[state]


def test_unsolvable_exhausts():
    gp = make_ground_problem(["p", "g"], [("a", [], [], ["p"], [])], [], ["g"])
    result = search(gp, SearchConfig(algorithm="ucs"))
    assert result.status == STATUS_EXHAUSTED
    assert result.plan is None


def test_budget_exhaustion_distinguished():
    gp = chain_problem(30)
    result = search(gp, SearchConfig(algorithm="ucs", node_budget=5))
    assert result.status == STATUS_BUDGET
    assert result.nodes_expanded <= 5
    full = search(gp, SearchConfig(algorithm="ucs"))
    assert full.status == STATUS_FOUND


def join_fanout_problem(phis):
    """Gate state with one join per entry in *phis*; joins are mutually
    exclusive and each leads to a one-step suffix reaching the goal."""
    atoms = ["start", "gate", "goal", "has-tool"] + [f"joined{i}" for i in range(len(phis))]
    actions = [("prep", ["start"], [], ["gate"], [])]
    for i in range(len(phis)):
        actions.append(
            (f"join{i}", ["gate"], ["has-tool"], ["has-tool", f"joined{i}"], [], (f"x{i}", f"y{i}"))
        )
        actions.append((f"use{i}", [f"joined{i}"], [], ["goal"], []))
    return make_ground_problem(atoms, actions, ["start"], ["goal"])


def table_scorer(monkeypatch, table, whitelist=None):
    """A real JoinScorer, with a spec registered for each join{i}, whose
    feature_score reads phi from *table*, keyed by object pair, so the
    scorer's own reject recording is what gets tested."""
    monkeypatch.setattr(scoring, "feature_score", lambda spec, o_a, *_: table[o_a])
    registry = {f"join{i}": ToolSpec(f"tool{i}", f"join{i}", "head", frozenset({"metal"}), "use")
                for i in range(len(table))}
    return JoinScorer(registry, {}, whitelist)


def test_higher_phi_join_wins_at_equal_g_plus_h(monkeypatch):
    gp = join_fanout_problem([0.3, 1.8])
    table = {("x0", "y0"): 0.3, ("x1", "y1"): 1.8}
    cfg = SearchConfig(algorithm="astar", heuristic="zero", use_feature_score=True)
    result = search(gp, cfg, scorer=table_scorer(monkeypatch, table))
    assert result.found
    assert any(a.schema_name == "join1" for a in result.plan)
    # exhaustive check: both joins reach the goal in the same number of steps
    assert bfs_optimal_length(gp) == len(result.plan)


def test_join_expansion_order_follows_phi(monkeypatch):
    phis = [0.2, 1.9, 0.7, 1.1, 1.5]
    gp = join_fanout_problem(phis)
    table = {(f"x{i}", f"y{i}"): phi for i, phi in enumerate(phis)}
    cfg = SearchConfig(algorithm="ucs", use_feature_score=True)
    result = search(gp, cfg, scorer=table_scorer(monkeypatch, table))
    # joined-states must first reach expansion in non-increasing phi order
    seen_phis = []
    for state in result.closed:
        for i in range(len(phis)):
            if gp.atoms.index((f"joined{i}",)) in decode(state):
                seen_phis.append(phis[i])
    assert len(seen_phis) >= 2
    assert sorted(seen_phis, reverse=True) == seen_phis


# The join-gate tests run on both search loops: best-first (A*, UCS) and EHC.
# They loop over the algorithms inside one test each, so each keeps its id.
GATE_ALGORITHMS = ("astar", "ucs", "ehc")


def test_rejected_combination_recorded_and_skipped(monkeypatch):
    gp = join_fanout_problem([0.5, 0.9])
    table = {("x0", "y0"): NEG_INF, ("x1", "y1"): 0.9}
    for algorithm in GATE_ALGORITHMS:
        cfg = SearchConfig(algorithm=algorithm, heuristic="zero", use_feature_score=True)
        scorer = table_scorer(monkeypatch, table)
        result = search(gp, cfg, scorer=scorer)
        assert result.found
        assert scorer.rejected == frozenset({(("x0", "y0"), "join0")})
        assert all(a.schema_name != "join0" for a in result.plan)


def test_rejects_not_recorded_without_trust(monkeypatch):
    gp = join_fanout_problem([0.5])
    table = {("x0", "y0"): NEG_INF}
    for algorithm in GATE_ALGORITHMS:
        cfg = SearchConfig(algorithm=algorithm, heuristic="zero", use_feature_score=True)
        scorer = table_scorer(monkeypatch, table, whitelist=frozenset())
        result = search(gp, cfg, scorer=scorer)
        assert result.status == STATUS_EXHAUSTED
        assert scorer.rejected == frozenset()


def test_exclusions_skipped_without_rerecording(monkeypatch):
    gp = join_fanout_problem([0.5, 0.9])
    table = {("x0", "y0"): 0.5, ("x1", "y1"): 0.9}
    for algorithm in GATE_ALGORITHMS:
        cfg = SearchConfig(algorithm=algorithm, heuristic="zero", use_feature_score=True)
        scorer = table_scorer(monkeypatch, table)
        result = search(gp, cfg, scorer=scorer, exclusions=frozenset({("x1", "y1")}))
        assert result.found
        assert any(a.schema_name == "join0" for a in result.plan)
        assert scorer.rejected == frozenset()


def test_exclusions_apply_with_features_off():
    gp = join_fanout_problem([0.5, 0.9])
    for algorithm in GATE_ALGORITHMS:
        cfg = SearchConfig(algorithm=algorithm)
        result = search(gp, cfg, exclusions=frozenset({("x0", "y0")}))
        assert result.found
        assert any(a.schema_name == "join1" for a in result.plan)


def test_all_joins_rejected_fails_with_reject_set(monkeypatch):
    gp = join_fanout_problem([0.5, 0.9])
    table = {("x0", "y0"): NEG_INF, ("x1", "y1"): NEG_INF}
    for algorithm in GATE_ALGORITHMS:
        cfg = SearchConfig(algorithm=algorithm, heuristic="zero", use_feature_score=True)
        scorer = table_scorer(monkeypatch, table)
        result = search(gp, cfg, scorer=scorer)
        assert result.status == STATUS_EXHAUSTED
        assert len(scorer.rejected) == 2


def test_weighted_astar_valid_and_uses_weight():
    rng = random.Random(13)
    for _ in range(10):
        gp = random_model(rng)
        opt = bfs_optimal_length(gp)
        result = search(gp, SearchConfig(algorithm="weighted_astar", heuristic="ff", weight=5.0))
        assert result.found
        assert len(result.plan) >= opt
        assert goal_satisfied(simulate(gp, result.plan), gp)


def test_feature_scoring_requires_scorer():
    gp = chain_problem(2)
    with pytest.raises(ConfigError, match="scorer"):
        search(gp, SearchConfig(use_feature_score=True))


def test_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(algorithm="dfs").validate()
    with pytest.raises(ConfigError):
        SearchConfig(weight=0.5).validate()


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_rejected(weight):
    with pytest.raises(ConfigError, match="finite"):
        SearchConfig(algorithm="weighted_astar", heuristic="ff", weight=weight).validate()


def test_determinism_bitwise():
    rng = random.Random(21)
    gp = random_model(rng)
    cfg = SearchConfig(algorithm="astar", heuristic="hadd")
    a = search(gp, cfg)
    b = search(gp, cfg)
    assert [x.name for x in a.plan] == [x.name for x in b.plan]
    assert a.nodes_expanded == b.nodes_expanded
    assert a.g_values == b.g_values


# -- enforced hill-climbing ----------------------------------------------------


def test_ehc_monotone_chain():
    gp = chain_problem(5)
    result = search(gp, SearchConfig(algorithm="ehc", heuristic="ff"))
    assert result.found
    assert len(result.plan) == 5
    # each commit expands roughly one state along the chain
    assert result.nodes_expanded <= 2 * 5 + 2


def test_ehc_dead_end_fails():
    # h improves into a trap: grab reaches a state with no successors
    gp = make_ground_problem(
        ["s", "mid", "g"],
        [
            ("trap", ["s"], [], ["mid"], ["s"]),
            ("out", ["mid"], ["mid"], ["g"], []),  # contradictory: never applicable
        ],
        ["s"],
        ["g"],
    )
    result = search(gp, SearchConfig(algorithm="ehc", heuristic="hadd"))
    assert result.status == STATUS_EXHAUSTED


def test_ehc_goal_at_init():
    gp = make_ground_problem(["p"], [("a", [], [], ["p"], [])], ["p"], ["p"])
    result = search(gp, SearchConfig(algorithm="ehc", heuristic="ff"))
    assert result.plan == []
    assert result.nodes_expanded == 0


def test_ehc_phi_boost_commits_first(monkeypatch):
    # with h = 0 nothing improves on its own; only the boosted join drops
    # below the current f and gets committed
    gp = join_fanout_problem([0.0, 1.4])
    table = {("x0", "y0"): 0.0, ("x1", "y1"): 1.4}
    cfg = SearchConfig(algorithm="ehc", heuristic="zero", use_feature_score=True)
    result = search(gp, cfg, scorer=table_scorer(monkeypatch, table))
    assert result.found
    assert any(a.schema_name == "join1" for a in result.plan)
    assert all(a.schema_name != "join0" for a in result.plan)


def test_ehc_via_search_dispatch():
    gp = chain_problem(2)
    result = search(gp, SearchConfig(algorithm="ehc", heuristic="ff"))
    assert isinstance(result, PlanResult)
    assert result.found


def test_ehc_budget():
    gp = chain_problem(40)
    result = search(gp, SearchConfig(algorithm="ehc", heuristic="zero", node_budget=3))
    assert result.status == STATUS_BUDGET
    assert result.nodes_expanded <= 3


# -- the loops against verbatim copies of the loops they replaced ---------------

# the baseline and algorithm configs, each distinct config once (A*+LM is
# FS+H's), and the benchmark's A*+hadd and A*+hmax
DIFFERENTIAL_CONFIGS = BASELINE_CONFIGS + tuple(
    entry for entry in ALGORITHM_CONFIGS if entry[1] not in [c for _, c in BASELINE_CONFIGS]
) + (
    ("A*+hadd", SearchConfig(algorithm="astar", heuristic="hadd", use_feature_score=True)),
    ("A*+hmax", SearchConfig(algorithm="astar", heuristic="hmax", use_feature_score=True)),
)


def _record_scores(monkeypatch, log):
    """Log every feature_score call, by join action and object pair; the
    gate and the reference scorer both read it off fgs.scoring."""
    original = scoring.feature_score

    def feature_score(spec, o_a, profiles, whitelist):
        log.append(("score", spec.join_action_name, o_a))
        return original(spec, o_a, profiles, whitelist)

    monkeypatch.setattr(scoring, "feature_score", feature_score)


def _record_evaluations(monkeypatch, log):
    """Log every evaluate(state, ctx) call of every heuristic class."""
    for cls in (heuristics.ZeroHeuristic, heuristics.MaxHeuristic, heuristics.AddHeuristic,
                heuristics.FFHeuristic, heuristics.LandmarkCountHeuristic):
        def evaluate(self, state, parent_ctx=None, _original=cls.evaluate):
            log.append(("evaluate", self.name, state, parent_ctx))
            return _original(self, state, parent_ctx)

        monkeypatch.setattr(cls, "evaluate", evaluate)


def _compare_loops(log, gp, cfg, registry, profiles, whitelist, exclusions, cache, where):
    """Run search under a fresh JoinScorer and reference_search under a
    fresh ReferenceScorer on one input at node budgets None, 0, 1 and 5, and
    assert they agree on every result field and on every evaluate and
    feature_score call. Returns the unbudgeted result and the joins its
    scorer rejected."""
    out = None
    for budget in (None, 0, 1, 5):
        runs = []
        for run, make_scorer in ((search, JoinScorer), (reference_search, ReferenceScorer)):
            log.clear()
            scorer = make_scorer(registry, profiles, whitelist)
            result = run(gp, replace(cfg, node_budget=budget), scorer, exclusions, cache)
            runs.append((result, list(log), scorer.rejected))
        (new, new_calls, new_rejected), (ref, ref_calls, ref_rejected) = runs
        at = (*where, whitelist, exclusions, budget)
        assert new.plan == ref.plan, at
        assert new.nodes_expanded == ref.nodes_expanded, at
        assert new.status == ref.status, at
        assert new.g_values == ref.g_values, at
        assert new.closed == ref.closed, at
        assert new_calls == ref_calls, at
        assert new_rejected == ref_rejected, at
        out = out or (new, new_rejected)
    return out


def test_loops_match_reference_loops_on_bundled_scenarios(monkeypatch):
    log: list = []
    _record_evaluations(monkeypatch, log)
    _record_scores(monkeypatch, log)
    tasks: dict = {}
    done: set = set()  # (task, config) pairs of unscored configs, already compared
    for path in sorted(benchmark_dir().glob("*.json")):
        scenario = load_scenario(path)
        task_id = task_for_scenario(scenario.task_type, scenario.tools).task_id
        if task_id not in tasks:
            tasks[task_id] = (load_task(task_id)[2], {})
        gp, cache = tasks[task_id]
        registry = scenario.registry()
        for noise_on in (False, True):
            profiles = sense(scenario, noise_on)
            if noise_on and profiles == sense(scenario, False):
                continue  # the noise left this scenario's profiles as they were
            for name, cfg in DIFFERENTIAL_CONFIGS:
                # without scoring, a search depends on the task alone
                if not cfg.use_feature_score:
                    if (task_id, name) in done:
                        continue
                    done.add((task_id, name))
                where = (scenario.scenario_id, noise_on, name)
                args = (log, gp, cfg, registry, profiles)
                # the episode's first search; its second, with the first
                # plan's join excluded; and for the configs that withdraw
                # trust in the benchmark (noise on, FS+H and FS), the
                # untrusted phase over what the first search rejected
                first, rejected = _compare_loops(*args, None, frozenset(), cache, where)
                pair = next((act.o_a for act in first.plan or () if act.o_a), None)
                if pair is not None:
                    _compare_loops(*args, None, frozenset({pair}), cache, where)
                if noise_on and name in ("FS+H", "FS") and rejected:
                    _compare_loops(*args, frozenset(rejected), frozenset(), cache, where)
