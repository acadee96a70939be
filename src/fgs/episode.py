"""Plan-execute-replan episodes.

One episode plans with sensors trusted, simulates execution of the proposed
join against the scenario's annotated ground truth, and on failure replans
with the attempted combination excluded. When trusted planning runs out of
plans and some combinations were rejected by the hard constraints, trust is
withdrawn and planning continues over exactly those rejected combinations
(shape-guided), never switching back. Attempted combinations are never
retried within an episode.

The EpisodeResult is the one record of what an episode decided: its status,
one SearchRecord per search (trust, status, effort, the pair its plan
attempts and whether it was accepted), and, on success, the tool the
accepted plan builds and the task action it uses. The episode's trace is a
function of that record: trace_events returns each search and attempt event
in order, then episode_event, the episode's summary, which the bench reports
fold and `fgs episode` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError
from .grounding import GroundAction, GroundProblem
from .scenario import Scenario, sense
from .scoring import JoinScorer
from .search import STATUS_BUDGET, STATUS_EXHAUSTED, SearchConfig, search

STATUS_SUCCESS = "success"
# "fixed" keeps trust for the whole episode; "switchable" withdraws it once
# trusted planning is exhausted
TRUST_POLICIES = ("fixed", "switchable")


class SearchRecord(NamedTuple):
    """One search of an episode and the attempt its plan makes."""

    trust: bool  # the search ran in the trusted phase
    status: str  # the search's own status (search.STATUS_*)
    nodes: int  # nodes expanded
    plan_length: int | None  # None when the search found no plan
    pair: tuple[str, ...] | None  # the pair the plan's first join attempts; None without one
    accepted: bool  # the plan was accepted: its join used the ground-truth pair, or it had none


@dataclass
class EpisodeResult:
    status: str  # STATUS_SUCCESS, STATUS_EXHAUSTED or STATUS_BUDGET
    final_plan: list[GroundAction] | None  # the accepted plan; None unless successful
    reject_final: frozenset
    search_log: tuple[SearchRecord, ...]  # every search, in order
    chosen_tool: str | None = None  # the tool the accepted plan builds
    use_action: str | None = None  # that tool's task action, when the plan uses it

    @property
    def success(self) -> bool:
        return self.status == STATUS_SUCCESS

    @property
    def searches(self) -> int:
        return len(self.search_log)

    @property
    def nodes_per_search(self) -> tuple[int, ...]:
        return tuple(s.nodes for s in self.search_log)

    @property
    def trust_trace(self) -> list[bool]:
        """Per search, whether it ran with sensors trusted."""
        return [s.trust for s in self.search_log]

    @property
    def attempted(self) -> tuple[tuple[str, ...], ...]:
        """Every attempted pair, in order."""
        return tuple(s.pair for s in self.search_log if s.pair is not None)

    @property
    def failed_attempts(self) -> int:
        return sum(1 for s in self.search_log if s.pair is not None and not s.accepted)

    @property
    def nodes_total(self) -> int:
        """Expansions summed over every search, replans included."""
        return sum(s.nodes for s in self.search_log)

    @property
    def nodes_first_search(self) -> int:
        """Expansion count of the initial planning run, before any
        replanning; the per-search effort the benchmark tables report."""
        return self.search_log[0].nodes if self.search_log else 0

    @property
    def phase2_whitelist(self) -> frozenset | None:
        """The joins the untrusted phase planned over, or None when trust
        was never withdrawn: that phase runs exactly on the trusted phase's
        rejects, and always runs at least one search."""
        return None if all(s.trust for s in self.search_log) else self.reject_final

    @property
    def plan_length(self) -> int | None:
        plan = self.final_plan
        return None if plan is None else len(plan)


def episode_event(scenario: Scenario, result: EpisodeResult) -> dict:
    """The episode's summary: the last event of its trace, the record the
    bench reports fold, and what `fgs episode` prints. `tool` is the
    ground-truth tool; `nodes_first_search` is the per-search effort the
    summary tables report, `nodes_total` the effort summed over replans."""
    return {
        "event": "episode",
        "scenario": scenario.scenario_id,
        "task": scenario.task_type,
        "tool": scenario.ground_truth.tool,
        "status": result.status,
        "success": result.success,
        "failed_attempts": result.failed_attempts,
        "searches": result.searches,
        "nodes_first_search": result.nodes_first_search,
        "nodes_total": result.nodes_total,
        "plan_length": result.plan_length,
        "chosen_tool": result.chosen_tool,
        "use_action": result.use_action,
    }


def trace_events(scenario: Scenario, cfg: SearchConfig | None, result: EpisodeResult) -> list[dict]:
    """The episode's trace: a `search` event per search, each search that
    found a plan followed by its `attempt` event, and episode_event last.
    *cfg* names each search's algorithm and heuristic; a result with no
    search needs none."""
    sid = scenario.scenario_id
    events = []
    failed = 0
    for s in result.search_log:
        events.append({"event": "search", "scenario": sid, "trust": s.trust,
                       "algorithm": cfg.algorithm, "heuristic": cfg.heuristic,
                       "status": s.status, "nodes": s.nodes, "plan_length": s.plan_length})
        if s.plan_length is not None:
            failed += not s.accepted
            events.append({"event": "attempt", "scenario": sid, "trust": s.trust,
                           "pair": list(s.pair) if s.pair else None, "accepted": s.accepted,
                           "failed_attempts": failed})
    events.append(episode_event(scenario, result))
    return events


def check_alignment(gp: GroundProblem, scenario: Scenario) -> None:
    """Every grounded join binds objects of *scenario*, and its schema has a
    tool spec there (the parser has checked that it binds two tool parts,
    the ordered pair scoring reads). The domain must also ground the join
    of the ground-truth tool, or no plan could build it."""
    schemas, referenced = gp.joins
    missing = sorted(schemas - scenario.registry().keys())
    if missing:
        raise ConfigError(f"join action(s) {missing} have no tool spec in scenario "
                          f"'{scenario.scenario_id}'")
    unknown = sorted(referenced - {o.object_id for o in scenario.objects})
    if unknown:
        raise ConfigError(f"grounded joins reference objects {unknown} missing from scenario "
                          f"'{scenario.scenario_id}'")
    truth = scenario.ground_truth.tool
    join = scenario.spec_for_tool(truth).join_action_name
    if join not in schemas:
        raise ConfigError(f"scenario '{scenario.scenario_id}' has ground-truth tool '{truth}', "
                          f"but the domain grounds no '{join}' action")


def first_join(plan) -> GroundAction | None:
    """The first join of *plan*, or None when it builds nothing. Execution
    is judged on this join alone: the attempt succeeds exactly when it
    uses the annotated ordered pair, and it names the tool the plan builds."""
    return next((act for act in plan if act.o_a), None)


def run_episode(
    gp: GroundProblem,
    cfg: SearchConfig,
    scenario: Scenario,
    *,
    trust_policy: str = "switchable",
    budget: int | None = None,
    noise_on: bool = False,
    succ_cache: dict | None = None,
) -> EpisodeResult:
    """Drive one episode to success, exhaustion of both trust phases, the
    failed-attempt budget or the node budget. Once failed_attempts reaches
    the budget, no further search is launched; a search cut by
    cfg.node_budget ends the episode with that status, and only an
    exhausted trusted phase withdraws trust. A successful episode also
    reports the tool its accepted plan builds and the task action it uses
    (chosen_tool, use_action), which is what the adaptability experiment
    scores.

    *succ_cache* is a dict the caller may share among the episodes over one
    grounded problem *gp*: it holds each expanded state's successors under
    its integer key (grounding.successors) and, under its name, each
    heuristic its searches use (heuristics.make_heuristic). It lives as long
    as the caller keeps it; None starts a fresh one."""
    if trust_policy not in TRUST_POLICIES:
        raise ConfigError(f"unknown trust policy '{trust_policy}'")
    if budget is not None and budget < 0:
        raise ConfigError(f"budget must be non-negative, got {budget} (--budget)")
    cfg.validate()
    check_alignment(gp, scenario)
    profiles = sense(scenario, noise_on)
    registry = scenario.registry()
    truth = scenario.ground_truth.pair
    if succ_cache is None:
        succ_cache = {}

    attempted: list[tuple[str, ...]] = []
    log: list[SearchRecord] = []
    final_plan: list[GroundAction] | None = None

    def run_phase(scorer: JoinScorer) -> str:
        """Plan, judge and replan under *scorer*'s trust phase; returns the
        episode status this phase ends in."""
        nonlocal final_plan
        trust = scorer.whitelist is None
        while True:
            # an accepted pair ends the episode, so every attempt so far failed
            if budget is not None and len(attempted) >= budget:
                return STATUS_BUDGET
            result = search(gp, cfg, scorer=scorer, exclusions=frozenset(attempted),
                            succ_cache=succ_cache)
            plan = result.plan
            join = first_join(plan or ())
            pair = None if join is None else join.o_a
            accepted = plan is not None and (pair is None or pair == truth)
            log.append(SearchRecord(trust, result.status, result.nodes_expanded,
                                    None if plan is None else len(plan), pair, accepted))
            if plan is None:
                return result.status  # STATUS_EXHAUSTED or STATUS_BUDGET
            if accepted:
                final_plan = plan
                return STATUS_SUCCESS
            attempted.append(pair)

    # with feature scoring off the gate never scores, so nothing is rejected
    scorer = JoinScorer(registry, profiles)
    status = run_phase(scorer)
    reject = frozenset(scorer.rejected)  # (o_a, join action) pairs
    if status == STATUS_EXHAUSTED and trust_policy == "switchable" and reject:
        # trusted planning is out of options: explore what the hard
        # constraints rejected, guided by shape alone
        status = run_phase(JoinScorer(registry, profiles, reject))

    chosen_tool = use_action = None
    join = first_join(final_plan or ())
    if join is not None:
        spec = registry[join.schema_name]
        chosen_tool = spec.tool
        if any(act.schema_name == spec.use_action for act in final_plan):
            use_action = spec.use_action
    return EpisodeResult(status, final_plan, reject, tuple(log), chosen_tool, use_action)
