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
accepted plan builds and the task action it uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .grounding import GroundAction, GroundProblem
from .scenario import Scenario, sense
from .scoring import JoinScorer
from .search import STATUS_BUDGET, STATUS_EXHAUSTED, SearchConfig, search

STATUS_SUCCESS = "success"


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
    status: str  # STATUS_SUCCESS, STATUS_EXHAUSTED or STATUS_BUDGET
    failed_attempts: int
    plans: list[list[GroundAction]]  # every plan proposed, the accepted one last
    trust_trace: list[bool]  # per search
    reject_final: frozenset
    attempted: tuple[tuple[str, ...], ...]  # every attempted pair, in order
    nodes_per_search: tuple[int, ...]
    phase2_whitelist: frozenset | None = None
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
    def final_plan(self) -> list[GroundAction] | None:
        return self.plans[-1] if self.success and self.plans else None

    @property
    def plan_length(self) -> int | None:
        plan = self.final_plan
        return None if plan is None else len(plan)


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


def _tool_use(plan, scenario: Scenario, registry) -> tuple[str | None, str | None]:
    """The tool that *plan*'s first registered join builds, and that tool's
    task action when the plan performs it."""
    for act in plan:
        if act.o_a and act.schema_name in registry:
            tool = registry[act.schema_name].tool
            wanted = scenario.spec_for_tool(tool).use_action
            return tool, wanted if any(a.schema_name == wanted for a in plan) else None
    return None, None


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
    use_action), which is what the adaptability experiment scores.

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
    oracle = ExecutionOracle(scenario.ground_truth.pair)
    if succ_cache is None:
        succ_cache = {}

    attempted: list[tuple[str, ...]] = []
    nodes_per_search: list[int] = []
    trust_trace: list[bool] = []
    plans: list[list[GroundAction]] = []

    def emit(event: dict) -> None:
        if trace is not None:
            trace(event)

    def run_phase(scorer: JoinScorer) -> str:
        """Plan, judge and replan under *scorer*'s trust phase; returns the
        episode status this phase ends in."""
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
                return STATUS_EXHAUSTED
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
                return STATUS_SUCCESS

    # with feature scoring off the gate never scores, so nothing is rejected
    scorer = JoinScorer(registry, profiles)
    status = run_phase(scorer)
    reject = frozenset(scorer.rejected)  # (o_a, join action) pairs
    phase2_whitelist = None
    if status == STATUS_EXHAUSTED and trust_policy == "switchable" and reject:
        # trusted planning is out of options: explore what the hard
        # constraints rejected, guided by shape alone
        phase2_whitelist = reject
        status = run_phase(JoinScorer(registry, profiles, phase2_whitelist))

    accepted_plan = plans[-1] if status == STATUS_SUCCESS else ()
    chosen_tool, use_action = _tool_use(accepted_plan, scenario, registry)
    return EpisodeResult(
        status=status,
        # the ground-truth pair is attempted only once, and then accepted
        failed_attempts=len(attempted) - (oracle.pair in attempted),
        plans=plans,
        trust_trace=trust_trace,
        reject_final=reject,
        attempted=tuple(attempted),
        nodes_per_search=tuple(nodes_per_search),
        phase2_whitelist=phase2_whitelist,
        chosen_tool=chosen_tool,
        use_action=use_action,
    )
