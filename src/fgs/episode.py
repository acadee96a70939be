"""Plan-execute-replan episodes.

One episode plans with sensors trusted, simulates execution of the proposed
join against the scenario's annotated ground truth, and on failure replans
with the attempted combination excluded. When trusted planning runs out of
plans and some combinations were rejected by the hard constraints, trust is
withdrawn and planning continues over exactly those rejected combinations
(shape-guided), never switching back. Attempted combinations are never
retried within an episode.

The EpisodeResult is the one record of what an episode decided: its status,
every attempted pair and search effort, and, on success, the tool the
accepted plan builds and the task action it uses. episode_event turns it
into the episode's summary, the last event of its trace, which the bench
reports fold and `fgs episode` prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .grounding import GroundAction, GroundProblem
from .scenario import Scenario, sense
from .scoring import JoinScorer
from .search import STATUS_BUDGET, STATUS_EXHAUSTED, SearchConfig, search

STATUS_SUCCESS = "success"


@dataclass
class EpisodeResult:
    status: str  # STATUS_SUCCESS, STATUS_EXHAUSTED or STATUS_BUDGET
    failed_attempts: int
    final_plan: list[GroundAction] | None  # the accepted plan; None unless successful
    trust_trace: list[bool]  # per search
    reject_final: frozenset
    attempted: tuple[tuple[str, ...], ...]  # every attempted pair, in order
    nodes_per_search: tuple[int, ...]
    chosen_tool: str | None = None  # the tool the accepted plan builds
    use_action: str | None = None  # that tool's task action, when the plan uses it

    @property
    def success(self) -> bool:
        return self.status == STATUS_SUCCESS

    @property
    def searches(self) -> int:
        return len(self.nodes_per_search)

    @property
    def nodes_total(self) -> int:
        """Expansions summed over every search, replans included."""
        return sum(self.nodes_per_search)

    @property
    def nodes_first_search(self) -> int:
        """Expansion count of the initial planning run, before any
        replanning; the per-search effort the benchmark tables report."""
        return self.nodes_per_search[0] if self.nodes_per_search else 0

    @property
    def phase2_whitelist(self) -> frozenset | None:
        """The joins the untrusted phase planned over, or None when trust
        was never withdrawn: that phase runs exactly on the trusted phase's
        rejects, and always runs at least one search."""
        return None if all(self.trust_trace) else self.reject_final

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


def check_alignment(gp: GroundProblem, scenario: Scenario) -> None:
    """Every grounded join binds two tool parts, both objects of *scenario*,
    and its schema has a tool spec there: scoring reads an ordered pair.
    The domain must also ground the join of the ground-truth tool, or no
    plan could build it."""
    parts, referenced = gp.joins
    odd = sorted(name for name, n in parts.items() if n != 2)
    if odd:
        raise ConfigError(f"join action(s) {odd} do not bind exactly two tool parts; "
                          "only two-part tools are supported")
    missing = sorted(parts.keys() - scenario.registry().keys())
    if missing:
        raise ConfigError(f"join action(s) {missing} have no tool spec in scenario "
                          f"'{scenario.scenario_id}'")
    unknown = sorted(referenced - {o.object_id for o in scenario.objects})
    if unknown:
        raise ConfigError(f"grounded joins reference objects {unknown} missing from scenario "
                          f"'{scenario.scenario_id}'")
    truth = scenario.ground_truth.tool
    join = scenario.spec_for_tool(truth).join_action_name
    if join not in parts:
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
    trace=None,
) -> EpisodeResult:
    """Drive one episode to success, exhaustion of both trust phases, or the
    failed-attempt budget. Once failed_attempts reaches the budget, no
    further search is launched. A successful episode also reports the tool
    its accepted plan builds and the task action it uses (chosen_tool,
    use_action), which is what the adaptability experiment scores. With a
    *trace* callback, each search and attempt is passed to it as an event
    dict, and episode_event last; without one, no event is built.

    *succ_cache* is a dict the caller may share among the episodes over one
    grounded problem *gp*: it holds successor lists under integer state keys
    (grounding.successors) and, under each heuristic's name, that
    heuristic's per-state values or landmark set, which every search of the
    episode builds its heuristic on (heuristics.make_heuristic). It lives as
    long as the caller keeps it; None starts a fresh one."""
    if trust_policy not in ("fixed_true", "switchable"):
        raise ConfigError(f"unknown trust policy '{trust_policy}'")
    if budget is not None and budget < 0:
        raise ConfigError(f"budget must be non-negative, got {budget}")
    check_alignment(gp, scenario)
    profiles = sense(scenario, noise_on)
    registry = scenario.registry()
    truth = scenario.ground_truth.pair
    if succ_cache is None:
        succ_cache = {}

    attempted: list[tuple[str, ...]] = []
    nodes_per_search: list[int] = []
    trust_trace: list[bool] = []
    final_plan: list[GroundAction] | None = None

    def run_phase(scorer: JoinScorer) -> str:
        """Plan, judge and replan under *scorer*'s trust phase; returns the
        episode status this phase ends in."""
        nonlocal final_plan
        trust = scorer.whitelist is None
        while True:
            failed = len(attempted)  # an accepted pair ends the episode
            if budget is not None and failed >= budget:
                return STATUS_BUDGET
            result = search(
                gp,
                cfg,
                scorer=scorer,
                exclusions=frozenset(attempted),
                succ_cache=succ_cache,
            )
            nodes_per_search.append(result.nodes_expanded)
            trust_trace.append(trust)
            if trace is not None:
                trace({"event": "search", "scenario": scenario.scenario_id, "trust": trust,
                       "algorithm": cfg.algorithm, "heuristic": cfg.heuristic,
                       "status": result.status, "nodes": result.nodes_expanded,
                       "plan_length": None if result.plan is None else len(result.plan)})
            if result.plan is None:
                return STATUS_EXHAUSTED
            join = first_join(result.plan)
            pair = None if join is None else join.o_a
            accepted = pair is None or pair == truth
            if pair is not None:
                attempted.append(pair)
            if trace is not None:
                trace({"event": "attempt", "scenario": scenario.scenario_id, "trust": trust,
                       "pair": list(pair) if pair else None, "accepted": accepted,
                       "failed_attempts": failed + (0 if accepted else 1)})
            if accepted:
                final_plan = result.plan
                return STATUS_SUCCESS

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
    episode = EpisodeResult(
        status=status,
        # the ground-truth pair is attempted only once, and then accepted
        failed_attempts=len(attempted) - (truth in attempted),
        final_plan=final_plan,
        trust_trace=trust_trace,
        reject_final=reject,
        attempted=tuple(attempted),
        nodes_per_search=tuple(nodes_per_search),
        chosen_tool=chosen_tool,
        use_action=use_action,
    )
    if trace is not None:
        trace(episode_event(scenario, episode))
    return episode
