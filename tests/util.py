"""Shared helpers: tiny model builders, the scenarios of a drawn suite by
their tools, brute-force search oracles, naive
frozenset references for the bitset state code, PDDL serialization, the
character-loop PDDL reader the regex scan replaced, the search loops as they
stood before the guarded successor scan, and the join scorer and material fit
as they stood before the scorer-built gate."""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, replace
from functools import cache
from itertools import repeat

from fgs import scoring
from fgs.errors import ConfigError, InternalError, PddlParseError
from fgs.grounding import GroundAction, GroundProblem, State, goal_satisfied, successors
from fgs.heuristics import make_heuristic
from fgs.pddl import SUPPORTED_REQUIREMENTS, DomainDef, Literal, ProblemDef, SList, Symbol
from fgs.scenario import Scenario, build_benchmark_suite
from fgs.scoring import NEG_INF
from fgs.search import (
    HEURISTIC_ALGORITHMS,
    STATUS_BUDGET,
    STATUS_EXHAUSTED,
    STATUS_FOUND,
    PlanResult,
    SearchConfig,
    _simulate,
)


def drawn(seed: int, cases: int, tools: tuple[str, ...]) -> list[Scenario]:
    """The scenarios of build_benchmark_suite(seed, cases) with these tools."""
    return [sc for sc in build_benchmark_suite(seed, cases) if sc.tools == tools]


def encode(atom_ids) -> State:
    """The bitset state holding exactly the atom indices *atom_ids*."""
    state = 0
    for i in atom_ids:
        state |= 1 << i
    return state


@cache
def decode(state: State) -> frozenset[int]:
    """The atom indices a bitset state or mask holds, read bit by bit. The
    references read each action's masks through it on every state, so each
    mask is decoded once."""
    return frozenset(i for i in range(state.bit_length()) if state >> i & 1)


def make_ground_problem(atoms, actions, init, goal_pos, goal_neg=()):
    """Build a GroundProblem straight from atom names.

    actions: list of (name, pre_pos, pre_neg, adds, dels, o_a) with atom
    names; o_a optional. The first word of a name is the action's schema.
    """
    atoms = tuple(sorted(atoms))
    ids = {name: i for i, name in enumerate(atoms)}

    def to_mask(names):
        return encode(ids[n] for n in names)

    ground_actions = []
    for entry in actions:
        name, pre_pos, pre_neg, adds, dels = entry[:5]
        o_a = tuple(entry[5]) if len(entry) > 5 else ()
        ground_actions.append(
            GroundAction(
                name=f"({name})",
                schema_name=name.split()[0],
                o_a=o_a,
                pre=to_mask(pre_pos),
                neg=to_mask(pre_neg),
                adds=to_mask(adds),
                dels=to_mask(dels),
            )
        )
    return GroundProblem(
        atoms=tuple((a,) for a in atoms),
        actions=tuple(ground_actions),
        init=to_mask(init),
        goal=to_mask(goal_pos),
        goal_neg=to_mask(goal_neg),
    )


def chain_problem(n):
    """Serial chain: step i enables step i+1; goal is the last fact."""
    atoms = [f"s{i}" for i in range(n + 1)]
    actions = [(f"adv{i}", [f"s{i}"], [], [f"s{i+1}"], []) for i in range(n)]
    return make_ground_problem(atoms, actions, ["s0"], [f"s{n}"])


def bfs_optimal_length(gp: GroundProblem) -> int | None:
    """Breadth-first oracle: optimal plan length, or None if unsolvable."""
    if goal_satisfied(gp.init, gp):
        return 0
    seen = {gp.init}
    frontier = deque([(gp.init, 0)])
    while frontier:
        state, depth = frontier.popleft()
        for succ in successors(gp, state)[1]:
            if succ in seen:
                continue
            if goal_satisfied(succ, gp):
                return depth + 1
            seen.add(succ)
            frontier.append((succ, depth + 1))
    return None


def dijkstra_distances(gp: GroundProblem) -> dict[State, int]:
    """Unit-cost shortest path distance from the initial state to every
    reachable state."""
    dist = {gp.init: 0}
    frontier = deque([gp.init])
    while frontier:
        state = frontier.popleft()
        d = dist[state]
        for succ in successors(gp, state)[1]:
            if succ not in dist:
                dist[succ] = d + 1
                frontier.append(succ)
    return dist


def random_model(rng: random.Random, n_atoms=8, n_actions=14):
    """A random solvable STRIPS model with a goal sampled from a reachable
    state, so the BFS oracle always terminates with a plan."""
    while True:
        atoms = [f"a{i}" for i in range(n_atoms)]
        actions = []
        for i in range(n_actions):
            pre_pos = rng.sample(atoms, rng.randint(0, 2))
            rest = [a for a in atoms if a not in pre_pos]
            pre_neg = rng.sample(rest, rng.randint(0, 1))
            adds = rng.sample(atoms, rng.randint(1, 2))
            dels = rng.sample([a for a in atoms if a not in adds], rng.randint(0, 2))
            actions.append((f"act{i}", pre_pos, pre_neg, adds, dels))
        init = rng.sample(atoms, rng.randint(1, 3))
        gp = make_ground_problem(atoms, actions, init, [])
        # walk a few random steps to pick a genuinely reachable goal; the walk
        # runs on frozensets built from the sampled names in order, whose
        # iteration order fixes the goal sample
        def ids(names):
            return frozenset(gp.atoms.index((n,)) for n in names)

        steps = [tuple(map(ids, entry[1:])) for entry in actions]
        state = ids(init)
        for _ in range(rng.randint(1, 6)):
            succs = [(state - dels) | adds for pre, neg, adds, dels in steps
                     if pre <= state and not neg & state]
            if not succs:
                break
            state = rng.choice(succs)
        goal_atoms = [gp.atoms[i][0] for i in state]
        if not goal_atoms:
            continue
        goal = rng.sample(goal_atoms, min(len(goal_atoms), rng.randint(1, 3)))
        gp = make_ground_problem(atoms, actions, init, goal)
        if bfs_optimal_length(gp) is not None:
            return gp


def grouped_random_model(rng: random.Random, n_atoms=8, n_runs=4):
    """A random model whose actions come in runs of one schema, as ground
    actions do: the actions of a run share some positive and negative
    preconditions and add their own. About one action in six also has an
    atom as both a positive and a negative precondition, so it never
    applies. The goal is empty."""
    atoms = [f"a{i}" for i in range(n_atoms)]
    actions = []
    for run in range(n_runs):
        shared_pos = rng.sample(atoms, rng.randint(0, 2))
        shared_neg = rng.sample([a for a in atoms if a not in shared_pos], rng.randint(0, 1))
        free = [a for a in atoms if a not in shared_pos and a not in shared_neg]
        for i in range(rng.randint(1, 6)):
            pre_pos = shared_pos + rng.sample(free, rng.randint(0, 1))
            pre_neg = shared_neg + rng.sample([a for a in free if a not in pre_pos], rng.randint(0, 1))
            if rng.random() < 1 / 6:
                clash = rng.choice(atoms)
                pre_pos, pre_neg = pre_pos + [clash], pre_neg + [clash]
            adds = rng.sample(atoms, rng.randint(1, 2))
            dels = rng.sample([a for a in atoms if a not in adds], rng.randint(0, 2))
            actions.append((f"run{run} x{i}", pre_pos, pre_neg, adds, dels))
    return make_ground_problem(atoms, actions, rng.sample(atoms, rng.randint(1, 4)), [])


# -- naive frozenset references for the transition code ------------------------
# States here are frozensets of atom indices, as in the simple implementation
# the bitset encoding replaced; the model's masks are read through decode.


def reference_applicable(state: frozenset[int], act: GroundAction) -> bool:
    return decode(act.pre) <= state and not (decode(act.neg) & state)


def reference_apply(state: frozenset[int], act: GroundAction) -> frozenset[int]:
    return (state - decode(act.dels)) | decode(act.adds)


def reference_goal_satisfied(state: frozenset[int], gp: GroundProblem) -> bool:
    return decode(gp.goal) <= state and not (decode(gp.goal_neg) & state)


def reference_successors(gp: GroundProblem, state: frozenset[int]):
    return [
        (idx, reference_apply(state, act))
        for idx, act in enumerate(gp.actions)
        if reference_applicable(state, act)
    ]


def reference_landmark_count(gp, landmark_mask, state: frozenset[int], accepted: frozenset[int] | None):
    """The landmark count heuristic on frozensets, over the landmarks of
    *landmark_mask*: (h, accepted landmarks)."""
    landmarks = decode(landmark_mask)
    achieved_now = landmarks & state
    accepted = achieved_now if accepted is None else accepted | achieved_now
    required_again = (accepted & landmarks & decode(gp.goal)) - state
    return float(len(landmarks) - len(accepted) + len(required_again)), accepted


# -- naive delete-relaxation references ----------------------------------------
# Straightforward all-action sweeps, kept as the oracle the shared exploration
# in fgs.heuristics is checked against.

INF = float("inf")


def reference_relaxed_cost(gp: GroundProblem, state: State, combine) -> float:
    """h_max (combine=max) or h_add (combine=sum): sweep every action until
    no atom cost drops."""
    costs = {atom: 0.0 for atom in decode(state)}
    changed = True
    while changed:
        changed = False
        for act in gp.actions:
            pre = decode(act.pre)
            if not pre <= costs.keys():
                continue
            new = (combine(costs[p] for p in pre) if pre else 0.0) + 1.0
            for f in decode(act.adds):
                if costs.get(f, INF) > new:
                    costs[f] = new
                    changed = True
    goal = decode(gp.goal)
    if not goal:
        return 0.0
    if not goal <= costs.keys():
        return INF
    return combine(costs[g] for g in goal)


def reference_rpg(gp: GroundProblem, state: State):
    """Leveled relaxed planning graph grown one all-action scan per layer
    until the goal appears or nothing new is added: (fact_level,
    action_level)."""
    fact_level = {f: 0 for f in decode(state)}
    action_level: dict[int, int] = {}
    level = 0
    while not decode(gp.goal) <= fact_level.keys():
        new_actions = [
            idx
            for idx, act in enumerate(gp.actions)
            if idx not in action_level and decode(act.pre) <= fact_level.keys()
        ]
        for idx in new_actions:
            action_level[idx] = level
        grew = False
        for idx in new_actions:
            for f in decode(gp.actions[idx].adds):
                if f not in fact_level:
                    fact_level[f] = level + 1
                    grew = True
        level += 1
        if not grew:
            break
    return fact_level, action_level


def reference_ff(gp: GroundProblem, state: State) -> float:
    """Greedy relaxed-plan length over reference_rpg; each needed fact takes
    the lowest-index achiever from the action layer one level down, unless
    a supporter already chosen at its level adds it."""
    goal = decode(gp.goal)
    if goal <= decode(state):
        return 0.0
    fact_level, action_level = reference_rpg(gp, state)
    if not goal <= fact_level.keys():
        return INF
    max_level = max(fact_level[g] for g in goal)
    needed = {lv: set() for lv in range(max_level + 1)}
    for g in goal:
        needed[fact_level[g]].add(g)
    plan_length = 0
    for level in range(max_level, 0, -1):
        covered: set[int] = set()  # adds of the supporters chosen at this level
        for fact in sorted(needed[level]):
            if fact in covered:
                continue
            supporter = min(
                idx
                for idx, act in enumerate(gp.actions)
                if fact in decode(act.adds) and action_level.get(idx) == level - 1
            )
            plan_length += 1
            covered |= decode(gp.actions[supporter].adds)
            for p in decode(gp.actions[supporter].pre):
                if fact_level[p] > 0:
                    needed[fact_level[p]].add(p)
    return float(plan_length)


def reference_reachable_without(gp: GroundProblem, banned: int) -> set[int]:
    """Relaxed reachability from the initial state with *banned* struck from
    every add list."""
    facts = set(decode(gp.init))
    changed = True
    while changed:
        changed = False
        for act in gp.actions:
            if decode(act.pre) <= facts:
                new = (decode(act.adds) - {banned}) - facts
                if new:
                    facts |= new
                    changed = True
    return facts


def reference_landmarks(gp: GroundProblem) -> frozenset[int]:
    """Backchaining landmark discovery over reference_reachable_without."""
    init = decode(gp.init)
    landmarks = {g for g in decode(gp.goal) if g not in init}
    queue = sorted(landmarks)
    while queue:
        lm = queue.pop(0)
        reached = reference_reachable_without(gp, lm)
        achiever_pres = [
            decode(act.pre)
            for act in gp.actions
            if lm in decode(act.adds) and decode(act.pre) <= reached
        ]
        if not achiever_pres:
            continue
        for p in sorted(frozenset.intersection(*achiever_pres)):
            if p not in init and p not in landmarks:
                landmarks.add(p)
                queue.append(p)
    return frozenset(landmarks)


# -- PDDL serialization for the parser round-trip tests ------------------------


def _typed_list_str(entries) -> str:
    return " ".join(f"{name} - {typ}" for name, typ in entries)


def _literal_str(lit: Literal) -> str:
    atom = f"({lit.predicate}{''.join(' ' + a for a in lit.args)})"
    return f"(not {atom})" if lit.negated else atom


def _conjunction_str(literals) -> str:
    return "(and " + " ".join(_literal_str(l) for l in literals) + ")"


def domain_to_pddl(domain: DomainDef) -> str:
    lines = [f"(define (domain {domain.name})"]
    lines.append("  (:requirements " + " ".join(SUPPORTED_REQUIREMENTS) + ")")
    if domain.types:
        lines.append("  (:types " + " ".join(domain.types) + ")")
    lines.append("  (:predicates")
    for pred in domain.predicates:
        params = "".join(f" {v} - {t}" for v, t in pred.params)
        lines.append(f"    ({pred.name}{params})")
    lines.append("  )")
    for schema in domain.action_schemas:
        lines.append(f"  (:action {schema.name}")
        lines.append(f"    :parameters ({_typed_list_str(schema.params)})")
        lines.append(f"    :precondition {_conjunction_str(schema.preconditions)}")
        effects = [*schema.add_effects, *(replace(l, negated=True) for l in schema.del_effects)]
        lines.append(f"    :effect {_conjunction_str(effects)}")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def problem_to_pddl(problem: ProblemDef) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain_name})")
    if problem.objects:
        lines.append(f"  (:objects {_typed_list_str(problem.objects)})")
    lines.append("  (:init")
    for atom in sorted(problem.init):
        lines.append(f"    ({' '.join(atom)})")
    lines.append("  )")
    lines.append(f"  (:goal {_conjunction_str(problem.goal)})")
    lines.append(")")
    return "\n".join(lines) + "\n"


# -- the PDDL reader as it stood before the regex scan ---------------------------
# _tokenize and _read_sexprs copied verbatim from fgs.pddl.


def _tokenize(text: str):
    """Yield (kind, value, line, col); kind in {'(', ')', 'sym'}."""
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            yield ch, ch, line, col
            i += 1
            col += 1
            continue
        start = i
        start_col = col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        yield "sym", text[start:i], line, start_col


def reference_read_sexprs(text: str) -> list:
    stack: list[list] = []
    marks: list[tuple[int, int]] = []
    top: list = []
    for kind, value, line, col in _tokenize(text):
        if kind == "(":
            stack.append(top)
            marks.append((line, col))
            top = []
        elif kind == ")":
            if not stack:
                raise PddlParseError("unbalanced ')'", line, col)
            closed = SList(tuple(top), *marks.pop())
            top = stack.pop()
            top.append(closed)
        else:
            top.append(Symbol(value, line, col))
    if stack:
        line, col = marks[-1]
        raise PddlParseError("unclosed '('", line, col)
    return top


# -- the join scorer as it stood before the scorer-built gate -------------------
# JoinScorer.score copied verbatim but for reading feature_score off the
# fgs.scoring module, so a recorder installed there sees the reference's
# calls as it sees the gate's.

class ReferenceScorer:
    """Scores joins under one trust phase: trusted exactly when *whitelist*
    is None. The whitelist is the set of (o_a, join action) pairs that the
    trusted phase rejected. While trusted, every join scored -inf is added
    to *rejected*, the next phase's whitelist."""

    def __init__(self, registry, profiles, whitelist: frozenset | None = None):
        self.registry = registry
        self.profiles = profiles
        self.whitelist = whitelist
        self.rejected: set[tuple[tuple[str, ...], str]] = set()

    def score(self, action_name: str, o_a: tuple[str, ...]) -> float:
        spec = self.registry.get(action_name)
        if spec is None:
            raise ConfigError(f"no tool spec registered for join action '{action_name}'")
        phi = scoring.feature_score(spec, o_a, self.profiles, self.whitelist)
        if phi == NEG_INF and self.whitelist is None:
            self.rejected.add((o_a, action_name))
        return phi


def reference_material_fit(o_a, spec, profiles) -> float:
    """scoring.material_fit as a max over the allowed materials' confidences."""
    conf = profiles[o_a[0]].material_conf
    z = max(map(conf.get, spec.allowed_materials, repeat(0.0)), default=0.0)
    if z >= scoring.MATERIAL_THRESHOLD:
        return z
    return NEG_INF


# -- the search loops as they stood before the guarded successor scan -----------
# search and search_ehc copied verbatim (renamed reference_search and
# reference_search_ehc) with the helpers they call, kept as the oracle the
# loops in fgs.search are checked against, call by call.

@dataclass
class SearchNode:
    state: State
    g: float
    parent: tuple["SearchNode", GroundAction] | None
    ctx: object = None  # heuristic path bookkeeping


def _combined_cost(cfg: SearchConfig, g: float, h: float, phi: float) -> float:
    if cfg.algorithm == "astar":
        return max(0.0, g + h - phi)
    if cfg.algorithm == "weighted_astar":
        return max(0.0, g + cfg.weight * (h - phi))
    if cfg.use_feature_score:  # feature-guided uniform cost
        return g + (2.0 - phi)
    return g


def _join_gate(cfg: SearchConfig, scorer, exclusions: frozenset):
    """The edge rule of both search loops: gate(act) is the phi of the edge
    *act* generates (0 for non-joins), or None when the edge is skipped: its
    join is in *exclusions* or scores -inf."""
    score = scorer.score if cfg.use_feature_score else None

    def gate(act: GroundAction) -> float | None:
        if not act.o_a:
            return 0.0
        if act.o_a in exclusions:
            return None
        if score is None:
            return 0.0
        phi = score(act.schema_name, act.o_a)
        return None if phi == NEG_INF else phi

    return gate


def reference_search(
    gp: GroundProblem,
    cfg: SearchConfig,
    scorer=None,
    exclusions: frozenset = frozenset(),
    succ_cache: dict | None = None,
) -> PlanResult:
    """Run one search over *gp*. The scorer, a ReferenceScorer, is
    required when feature scoring is on. Exclusions are object permutations
    never to revisit. *succ_cache*, shared by searches over *gp*, holds the
    successor lists and the values of the heuristic each search builds on it
    (heuristics.make_heuristic); None starts a fresh one."""
    cfg.validate()
    if cfg.algorithm == "ehc":
        return reference_search_ehc(gp, cfg, scorer, exclusions, succ_cache)
    if cfg.use_feature_score and scorer is None:
        raise ConfigError("feature scoring enabled but no scorer provided")

    needs_h = cfg.algorithm in HEURISTIC_ALGORITHMS
    heuristic = make_heuristic(cfg.heuristic, gp, succ_cache) if needs_h else None

    gate = _join_gate(cfg, scorer, exclusions)
    expanded = 0
    closed: list[State] = []
    init = gp.init
    if needs_h:
        h0, ctx0 = heuristic.evaluate(init, None)
    else:
        h0, ctx0 = 0.0, None
    best_g: dict[State, float] = {init: 0.0}
    if h0 == INF:
        return PlanResult(None, 0, STATUS_EXHAUSTED, best_g, ())

    root = SearchNode(init, 0.0, None, ctx0)
    seq = 0
    heap: list[tuple] = [(_combined_cost(cfg, 0.0, h0, 0.0), h0, seq, root)]
    while heap:
        _, _, _, node = heapq.heappop(heap)
        if node.g > best_g.get(node.state, INF):
            continue  # superseded by a cheaper path
        if goal_satisfied(node.state, gp):
            plan = extract_plan(node, gp)
            return PlanResult(plan, expanded, STATUS_FOUND, best_g, tuple(closed))
        if cfg.node_budget is not None and expanded >= cfg.node_budget:
            return PlanResult(None, expanded, STATUS_BUDGET, best_g, tuple(closed))
        expanded += 1
        closed.append(node.state)
        for action_idx, succ in zip(*successors(gp, node.state, succ_cache)):
            act = gp.actions[action_idx]
            g2 = node.g + 1
            if g2 >= best_g.get(succ, INF):
                continue
            best_g[succ] = g2  # recorded before the feature gate, as in the transition rule
            phi = gate(act)
            if phi is None:
                continue
            if needs_h:
                h2, ctx2 = heuristic.evaluate(succ, node.ctx)
            else:
                h2, ctx2 = 0.0, None
            f2 = _combined_cost(cfg, g2, h2, phi)
            if f2 == INF:
                continue
            seq += 1
            heapq.heappush(heap, (f2, h2, seq, SearchNode(succ, g2, (node, act), ctx2)))
    return PlanResult(None, expanded, STATUS_EXHAUSTED, best_g, tuple(closed))


def reference_search_ehc(
    gp: GroundProblem,
    cfg: SearchConfig,
    scorer=None,
    exclusions: frozenset = frozenset(),
    succ_cache: dict | None = None,
) -> PlanResult:
    """Enforced hill-climbing: breadth-first search from the current state
    until an expansion yields strictly better f = h - phi, commit to the
    best such successor, repeat. Fails when a plateau has no improving
    descendant. Committing to the lowest-f improver (rather than whichever
    improving state is generated first) is what lets the feature term steer
    which objects get joined."""
    cfg.validate()
    if cfg.use_feature_score and scorer is None:
        raise ConfigError("feature scoring enabled but no scorer provided")
    heuristic = make_heuristic(cfg.heuristic, gp, succ_cache)

    gate = _join_gate(cfg, scorer, exclusions)
    expanded = 0
    state = gp.init
    h0, ctx = heuristic.evaluate(state, None)
    if h0 == INF:
        return PlanResult(None, 0, STATUS_EXHAUSTED)
    f_cur = h0  # the root has no generating edge, hence no feature term
    plan: list[GroundAction] = []

    while not goal_satisfied(state, gp):
        committed = None
        queue = deque([(state, ctx, ())])
        seen = {state}
        while queue and committed is None:
            s, c, path = queue.popleft()
            if cfg.node_budget is not None and expanded >= cfg.node_budget:
                return PlanResult(None, expanded, STATUS_BUDGET)
            expanded += 1
            best = None  # lowest-f improving successor of this expansion
            for action_idx, succ in zip(*successors(gp, s, succ_cache)):
                if succ in seen:
                    continue
                act = gp.actions[action_idx]
                phi = gate(act)
                if phi is None:
                    continue
                h2, c2 = heuristic.evaluate(succ, c)
                if h2 == INF:
                    continue
                seen.add(succ)
                f2 = h2 - phi
                step = path + ((act, succ, c2),)
                if goal_satisfied(succ, gp):
                    best = (0.0 - phi, succ, c2, step)
                    break
                if f2 < f_cur and (best is None or f2 < best[0]):
                    best = (f2, succ, c2, step)
                elif f2 >= f_cur:
                    queue.append((succ, c2, step))
            if best is not None:
                committed = best
        if committed is None:
            return PlanResult(None, expanded, STATUS_EXHAUSTED)
        f_cur, state, ctx, step = committed
        plan.extend(act for act, _, _ in step)

    _simulate(plan, gp)
    return PlanResult(plan, expanded, STATUS_FOUND)


def extract_plan(goal_node: SearchNode, gp: GroundProblem) -> list[GroundAction]:
    """Reverse the parent chain and re-simulate it as a validity check."""
    actions: list[GroundAction] = []
    node = goal_node
    while node.parent is not None:
        parent, act = node.parent
        actions.append(act)
        node = parent
    actions.reverse()
    if node.state != gp.init:
        raise InternalError("plan parent chain does not reach the initial state")
    _simulate(actions, gp)
    return actions
