"""Best-first search with object-fitness-augmented cost, plus enforced
hill-climbing.

Cost shapes per algorithm (g path cost, h heuristic, phi fitness of the
generating edge's object permutation):

    astar           f = g + h - phi          (clamped at 0)
    weighted_astar  f = g + w * (h - phi)    (clamped at 0)
    ucs             f = g, or g + (2 - phi) with feature scoring on
    ehc             f = h - phi, committed breadth-first improvement

A permutation scored -inf has its successor skipped, and so does one in
*exclusions*, since it was already attempted; the scorer's gate alone knows
the trust phase and records what it rejects. A known state is re-opened exactly
when a strictly cheaper path to it appears.

Ties break on (f, then h, then insertion order), so runs are reproducible.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigError, GroundingError, InternalError
from .grounding import (
    GroundAction,
    GroundProblem,
    State,
    apply_action,
    goal_satisfied,
    successors,
)
from .heuristics import make_heuristic

INF = float("inf")

ALGORITHMS = ("astar", "ucs", "weighted_astar", "ehc")
HEURISTIC_ALGORITHMS = ("astar", "weighted_astar", "ehc")  # those that evaluate cfg.heuristic

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"
STATUS_BUDGET = "budget"


@dataclass
class SearchConfig:
    algorithm: str = "astar"
    heuristic: str = "zero"
    use_feature_score: bool = False
    weight: float = 5.0
    node_budget: int | None = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm '{self.algorithm}' (choose from {ALGORITHMS})")
        if not (math.isfinite(self.weight) and self.weight >= 1.0):
            raise ConfigError(f"weighted search weight must be a finite number >= 1, got {self.weight} (--weight)")
        if self.node_budget is not None and self.node_budget < 0:
            raise ConfigError(f"node_budget must be non-negative, got {self.node_budget} (--node-budget)")


@dataclass
class PlanResult:
    plan: list[GroundAction] | None
    nodes_expanded: int
    status: str
    g_values: dict[State, float] = field(default_factory=dict, repr=False)
    closed: tuple = ()  # states in expansion order

    @property
    def found(self) -> bool:
        return self.plan is not None


def _combined_cost(cfg: SearchConfig):
    """The f of *cfg*'s algorithm, as a function of (g, h, phi)."""
    if cfg.algorithm == "astar":
        return lambda g, h, phi: max(0.0, g + h - phi)
    if cfg.algorithm == "weighted_astar":
        weight = cfg.weight
        return lambda g, h, phi: max(0.0, g + weight * (h - phi))
    if cfg.use_feature_score:  # feature-guided uniform cost
        return lambda g, h, phi: g + (2.0 - phi)
    return lambda g, h, phi: g


def _join_gate(exclusions: frozenset):
    """The join rule of both search loops without feature scoring: gate(act)
    is None when the join *act* is in *exclusions*, else phi 0. With
    scoring, the scorer builds the gate (scoring.JoinScorer.gate). A
    non-join edge has phi 0, so the loops never pass one to the gate."""

    def gate(act: GroundAction) -> float | None:
        return None if act.o_a in exclusions else 0.0

    return gate


def search(
    gp: GroundProblem,
    cfg: SearchConfig,
    scorer=None,
    exclusions: frozenset = frozenset(),
    succ_cache: dict | None = None,
) -> PlanResult:
    """Run one search over *gp*. The scorer, a scoring.JoinScorer, is
    required when feature scoring is on. Exclusions are object permutations
    never to revisit. *succ_cache*, shared by searches over *gp*, holds the
    successor table (grounding.successors) and the heuristic each search
    uses, with the values it has computed (heuristics.make_heuristic); None
    starts a fresh one.

    Both loops bind successors, the heuristic's evaluate and the scorer's
    gate when the search starts, never at import, so a wrapper installed on
    those names beforehand sees every call."""
    cfg.validate()
    if cfg.use_feature_score and scorer is None:
        raise ConfigError("feature scoring enabled but no scorer provided")
    evaluate = None
    if cfg.algorithm in HEURISTIC_ALGORITHMS:
        evaluate = make_heuristic(cfg.heuristic, gp, succ_cache).evaluate
    gate = scorer.gate(exclusions) if cfg.use_feature_score else _join_gate(exclusions)
    if cfg.algorithm == "ehc":
        return _hill_climb(gp, evaluate, gate, cfg.node_budget, succ_cache)

    cost = _combined_cost(cfg)
    expand, actions, budget = successors, gp.actions, cfg.node_budget
    goal, goal_neg = gp.goal, gp.goal_neg
    push, pop = heapq.heappush, heapq.heappop

    init = gp.init
    h0, ctx0 = evaluate(init, None) if evaluate else (0.0, None)
    best_g: dict[State, float] = {init: 0.0}
    if h0 == INF:
        return PlanResult(None, 0, STATUS_EXHAUSTED, best_g, ())
    best_get = best_g.get
    closed: list[State] = []  # its length is the expansion count
    seq = 0
    # heap entries: (f, h, seq, state, g, path, ctx), where path is None at
    # the root and (parent path, action) below it
    heap: list[tuple] = [(cost(0.0, h0, 0.0), h0, seq, init, 0.0, None, ctx0)]
    while heap:
        _, _, _, state, g, path, ctx = pop(heap)
        if g > best_get(state, INF):
            continue  # superseded by a cheaper path
        if state & goal == goal and not state & goal_neg:
            plan = extract_plan(path, gp)
            return PlanResult(plan, len(closed), STATUS_FOUND, best_g, tuple(closed))
        if budget is not None and len(closed) >= budget:
            return PlanResult(None, len(closed), STATUS_BUDGET, best_g, tuple(closed))
        closed.append(state)
        g2 = g + 1
        for action_idx, succ in zip(*expand(gp, state, succ_cache)):
            if g2 >= best_get(succ, INF):
                continue
            best_g[succ] = g2  # recorded before the feature gate, as in the transition rule
            act = actions[action_idx]
            phi = gate(act) if act.o_a else 0.0
            if phi is None:
                continue
            h2, ctx2 = evaluate(succ, ctx) if evaluate else (0.0, None)
            f2 = cost(g2, h2, phi)
            if f2 == INF:
                continue
            seq += 1
            push(heap, (f2, h2, seq, succ, g2, (path, act), ctx2))
    return PlanResult(None, len(closed), STATUS_EXHAUSTED, best_g, tuple(closed))


def _hill_climb(gp: GroundProblem, evaluate, gate, budget: int | None,
                succ_cache: dict | None) -> PlanResult:
    """Enforced hill-climbing: breadth-first search from the current state
    until an expansion yields strictly better f = h - phi, commit to the
    best such successor, repeat. Fails when a plateau has no improving
    descendant. Committing to the lowest-f improver (rather than whichever
    improving state is generated first) is what lets the feature term steer
    which objects get joined."""
    expand, actions = successors, gp.actions
    goal, goal_neg = gp.goal, gp.goal_neg

    expanded = 0
    state = gp.init
    h0, ctx = evaluate(state, None)
    if h0 == INF:
        return PlanResult(None, 0, STATUS_EXHAUSTED)
    f_cur = h0  # the root has no generating edge, hence no feature term
    plan: list[GroundAction] = []

    while not (state & goal == goal and not state & goal_neg):
        committed = None
        queue = deque([(state, ctx, ())])  # (state, ctx, actions since the last commit)
        seen = {state}
        while queue and committed is None:
            s, c, path = queue.popleft()
            if budget is not None and expanded >= budget:
                return PlanResult(None, expanded, STATUS_BUDGET)
            expanded += 1
            best = None  # lowest-f improving successor of this expansion
            for action_idx, succ in zip(*expand(gp, s, succ_cache)):
                if succ in seen:
                    continue
                act = actions[action_idx]
                phi = gate(act) if act.o_a else 0.0
                if phi is None:
                    continue
                h2, c2 = evaluate(succ, c)
                if h2 == INF:
                    continue
                seen.add(succ)
                f2 = h2 - phi
                step = path + (act,)
                if succ & goal == goal and not succ & goal_neg:
                    best = (0.0 - phi, succ, c2, step)
                    break
                if f2 < f_cur and (best is None or f2 < best[0]):
                    best = (f2, succ, c2, step)
                elif f2 >= f_cur:
                    queue.append((succ, c2, step))
            committed = best
        if committed is None:
            return PlanResult(None, expanded, STATUS_EXHAUSTED)
        f_cur, state, ctx, step = committed
        plan.extend(step)

    _simulate(plan, gp)
    return PlanResult(plan, expanded, STATUS_FOUND)


def extract_plan(path, gp: GroundProblem) -> list[GroundAction]:
    """The actions of a search path, (parent path, action) pairs ending in
    None at the root, in order, re-simulated from gp.init as a validity
    check."""
    actions: list[GroundAction] = []
    while path is not None:
        path, act = path
        actions.append(act)
    actions.reverse()
    _simulate(actions, gp)
    return actions


def _simulate(plan, gp: GroundProblem) -> State:
    state = gp.init
    for act in plan:
        try:
            state = apply_action(state, act)
        except GroundingError as exc:
            raise InternalError(f"extracted plan is invalid at {act.name}") from exc
    if not goal_satisfied(state, gp):
        raise InternalError("extracted plan does not reach the goal")
    return state
