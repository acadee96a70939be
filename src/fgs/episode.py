"""Plan-execute-replan episodes.

One episode plans with sensors trusted, simulates execution of the proposed
join against the scenario's annotated ground truth, and on failure replans
with the attempted combination excluded. When trusted planning runs out of
plans and some combinations were rejected by the hard constraints, trust is
withdrawn and planning continues over exactly those rejected combinations
(shape-guided), never switching back. Attempted combinations are never
retried within an episode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .grounding import GroundAction, GroundProblem
from .heuristics import make_heuristic
from .scenario import Scenario, sense
from .scoring import JoinScorer
from .search import HEURISTIC_ALGORITHMS, SearchConfig, search

STATUS_SUCCESS = "success"
STATUS_EXHAUSTED = "exhausted"
STATUS_BUDGET = "budget"


@dataclass(frozen=True)
class ExecutionOracle:
    """Deterministic stand-in for physical construction and tool use: a plan
    works exactly when its join uses the annotated ordered pair."""

    pair: tuple[str, str]

    def judge(self, plan) -> tuple[bool, tuple[str, ...] | None]:
        """Return (accepted, attempted pair). Judged solely on the plan's
        first join; plans that build nothing have nothing to fail."""
        for act in plan:
            if act.o_a:
                return tuple(act.o_a) == self.pair, tuple(act.o_a)
        return True, None


@dataclass
class EpisodeResult:
    success: bool
    status: str
    failed_attempts: int
    nodes_total: int
    plans: list[list[GroundAction]]
    trust_trace: list[bool]
    reject_final: frozenset
    plan_length: int | None
    attempted: tuple[tuple[str, ...], ...]  # every attempted pair, in order
    phase2_whitelist: frozenset | None = None
    searches: int = 0
    nodes_per_search: tuple[int, ...] = ()

    @property
    def nodes_first_search(self) -> int:
        """Expansion count of the initial planning run, before any
        replanning; the per-search effort the benchmark tables report."""
        return self.nodes_per_search[0] if self.nodes_per_search else 0

    @property
    def final_plan(self) -> list[GroundAction] | None:
        return self.plans[-1] if self.success and self.plans else None


@dataclass
class AdaptabilityOutcome:
    chosen_tool: str | None
    use_action: str | None
    result: EpisodeResult


def check_alignment(gp: GroundProblem, scenario: Scenario) -> None:
    registry = scenario.registry()
    object_ids = {o.object_id for o in scenario.objects}
    join_schemas = {act.schema_name for act in gp.actions if act.o_a}
    missing = sorted(join_schemas - registry.keys())
    if missing:
        raise ConfigError(f"join action(s) {missing} have no tool spec in scenario "
                          f"'{scenario.scenario_id}'")
    referenced = {obj for act in gp.actions for obj in act.o_a}
    unknown = sorted(referenced - object_ids)
    if unknown:
        raise ConfigError(f"grounded joins reference objects {unknown} missing from scenario "
                          f"'{scenario.scenario_id}'")


def run_episode(
    gp: GroundProblem,
    cfg: SearchConfig,
    scenario: Scenario,
    *,
    trust_policy: str = "switchable",
    budget: int | None = None,
    noise_on: bool = False,
    succ_cache: dict | None = None,
    trace=None,
) -> EpisodeResult:
    """Drive one episode to success, exhaustion of both trust phases, or the
    failed-attempt budget. Once failed_attempts reaches the budget, no
    further search is launched.

    *succ_cache* is a dict the caller may share among the episodes over one
    grounded problem *gp*: it holds successor lists under integer state keys
    (grounding.successors) and, under each heuristic's name, that
    heuristic's per-state values or landmark set (heuristics.make_heuristic).
    It lives as long as the caller keeps it; None starts a fresh one."""
    if trust_policy not in ("fixed_true", "switchable"):
        raise ConfigError(f"unknown trust policy '{trust_policy}'")
    if budget is not None and budget < 0:
        raise ConfigError(f"budget must be non-negative, got {budget}")
    check_alignment(gp, scenario)
    profiles = sense(scenario, noise_on)
    registry = scenario.registry()
    oracle = ExecutionOracle(scenario.ground_truth.pair)
    if succ_cache is None:
        succ_cache = {}
    heuristic = None
    if cfg.algorithm in HEURISTIC_ALGORITHMS:
        heuristic = make_heuristic(cfg.heuristic, gp, succ_cache)

    exclusions: set[tuple[str, ...]] = set()
    attempted: list[tuple[str, ...]] = []
    nodes_per_search: list[int] = []
    trust_trace: list[bool] = []
    plans: list[list[GroundAction]] = []
    nodes_total = 0
    failed = 0
    searches = 0
    phase2_whitelist: frozenset | None = None

    def emit(event: dict) -> None:
        if trace is not None:
            trace(event)

    def run_phase(scorer: JoinScorer) -> str:
        """Returns 'success', 'budget', or 'no_plan'."""
        nonlocal nodes_total, failed, searches
        trust = scorer.whitelist is None
        while True:
            if budget is not None and failed >= budget:
                return "budget"
            result = search(
                gp,
                cfg,
                scorer=scorer,
                exclusions=frozenset(exclusions),
                heuristic=heuristic,
                succ_cache=succ_cache,
            )
            searches += 1
            nodes_total += result.nodes_expanded
            nodes_per_search.append(result.nodes_expanded)
            trust_trace.append(trust)
            emit(
                {
                    "event": "search",
                    "scenario": scenario.scenario_id,
                    "trust": trust,
                    "algorithm": cfg.algorithm,
                    "heuristic": cfg.heuristic,
                    "status": result.status,
                    "nodes": result.nodes_expanded,
                    "plan_length": None if result.plan is None else len(result.plan),
                }
            )
            if result.plan is None:
                return "no_plan"
            plans.append(result.plan)
            accepted, pair = oracle.judge(result.plan)
            if pair is not None:
                attempted.append(pair)
            emit(
                {
                    "event": "attempt",
                    "scenario": scenario.scenario_id,
                    "trust": trust,
                    "pair": list(pair) if pair else None,
                    "accepted": accepted,
                    "failed_attempts": failed + (0 if accepted else 1),
                }
            )
            if accepted:
                return "success"
            failed += 1
            exclusions.add(pair)

    # with feature scoring off the gate never scores, so nothing is rejected
    scorer = JoinScorer(registry, profiles)
    outcome = run_phase(scorer)
    reject = scorer.rejected  # (o_a, join action) pairs
    if outcome == "no_plan" and trust_policy == "switchable" and reject:
        # trusted planning is out of options: explore what the hard
        # constraints rejected, guided by shape alone
        phase2_whitelist = frozenset(reject)
        outcome = run_phase(JoinScorer(registry, profiles, phase2_whitelist))

    success = outcome == "success"
    status = STATUS_SUCCESS if success else (
        STATUS_BUDGET if outcome == "budget" else STATUS_EXHAUSTED
    )
    return EpisodeResult(
        success=success,
        status=status,
        failed_attempts=failed,
        nodes_total=nodes_total,
        plans=plans,
        trust_trace=trust_trace,
        reject_final=frozenset(reject),
        plan_length=len(plans[-1]) if success and plans else None,
        attempted=tuple(attempted),
        phase2_whitelist=phase2_whitelist,
        searches=searches,
        nodes_per_search=tuple(nodes_per_search),
    )


def run_adaptability_episode(
    gp: GroundProblem,
    cfg: SearchConfig,
    scenario: Scenario,
    **kwargs,
) -> AdaptabilityOutcome:
    """Episode over a two-tool problem; reports which tool the accepted plan
    constructs and which task action it uses."""
    result = run_episode(gp, cfg, scenario, **kwargs)
    plan = result.final_plan
    if plan is None:
        return AdaptabilityOutcome(None, None, result)
    registry = scenario.registry()
    chosen_tool = None
    use_action = None
    for act in plan:
        if act.o_a and act.schema_name in registry:
            chosen_tool = registry[act.schema_name].tool
            break
    if chosen_tool is not None:
        wanted = scenario.spec_for_tool(chosen_tool).use_action
        for act in plan:
            if act.schema_name == wanted:
                use_action = act.schema_name
                break
    return AdaptabilityOutcome(chosen_tool, use_action, result)
