"""Shared helpers: tiny model builders, brute-force search oracles, and naive
frozenset references for the bitset state code."""

from __future__ import annotations

import random
from collections import deque

from fgs.grounding import GroundAction, GroundProblem, State, goal_satisfied, successors


def encode(atom_ids) -> State:
    """The bitset state holding exactly the atom indices *atom_ids*."""
    state = 0
    for i in atom_ids:
        state |= 1 << i
    return state


def decode(state: State) -> frozenset[int]:
    """The atom indices a bitset state holds, read bit by bit."""
    return frozenset(i for i in range(state.bit_length()) if state >> i & 1)


def make_ground_problem(atoms, actions, init, goal_pos, goal_neg=()):
    """Build a GroundProblem straight from atom names.

    actions: list of (name, pre_pos, pre_neg, adds, dels, o_a) with atom
    names; o_a optional.
    """
    atoms = tuple(sorted(atoms))
    ids = {name: i for i, name in enumerate(atoms)}

    def to_ids(names):
        return frozenset(ids[n] for n in names)

    ground_actions = []
    for entry in actions:
        name, pre_pos, pre_neg, adds, dels = entry[:5]
        o_a = tuple(entry[5]) if len(entry) > 5 else ()
        ground_actions.append(
            GroundAction(
                name=f"({name})",
                schema_name=name,
                bound_objects=(),
                o_a=o_a,
                pre_pos=to_ids(pre_pos),
                pre_neg=to_ids(pre_neg),
                adds=to_ids(adds),
                dels=to_ids(dels),
            )
        )
    atom_tuples = tuple((a,) for a in atoms)
    return GroundProblem(
        atoms=atom_tuples,
        atom_ids={t: i for i, t in enumerate(atom_tuples)},
        actions=tuple(ground_actions),
        init=encode(to_ids(init)),
        goal_pos=to_ids(goal_pos),
        goal_neg=to_ids(goal_neg),
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
        for _, succ in successors(gp, state):
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
        for _, succ in successors(gp, state):
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
        # runs on frozensets, whose iteration order fixes the goal sample
        state = frozenset(gp.atom_ids[(a,)] for a in init)
        for _ in range(rng.randint(1, 6)):
            succs = reference_successors(gp, state)
            if not succs:
                break
            _, state = rng.choice(succs)
        goal_atoms = [gp.atoms[i][0] for i in state]
        if not goal_atoms:
            continue
        goal = rng.sample(goal_atoms, min(len(goal_atoms), rng.randint(1, 3)))
        gp = make_ground_problem(atoms, actions, init, goal)
        if bfs_optimal_length(gp) is not None:
            return gp


# -- naive frozenset references for the transition code ------------------------
# States here are frozensets of atom indices, as in the simple implementation
# the bitset encoding replaced.


def reference_applicable(state: frozenset[int], act: GroundAction) -> bool:
    return act.pre_pos <= state and not (act.pre_neg & state)


def reference_apply(state: frozenset[int], act: GroundAction) -> frozenset[int]:
    return (state - act.dels) | act.adds


def reference_goal_satisfied(state: frozenset[int], gp: GroundProblem) -> bool:
    return gp.goal_pos <= state and not (gp.goal_neg & state)


def reference_successors(gp: GroundProblem, state: frozenset[int]):
    return [
        (idx, reference_apply(state, act))
        for idx, act in enumerate(gp.actions)
        if reference_applicable(state, act)
    ]


def reference_landmark_count(landmark_set, state: frozenset[int], accepted: frozenset[int] | None):
    """The landmark count heuristic on frozensets: (h, accepted landmarks)."""
    achieved_now = landmark_set.landmarks & state
    accepted = achieved_now if accepted is None else accepted | achieved_now
    required_again = (accepted & landmark_set.goal_landmarks) - state
    return float(len(landmark_set.landmarks) - len(accepted) + len(required_again)), accepted


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
            if not act.pre_pos <= costs.keys():
                continue
            new = (combine(costs[p] for p in act.pre_pos) if act.pre_pos else 0.0) + 1.0
            for f in act.adds:
                if costs.get(f, INF) > new:
                    costs[f] = new
                    changed = True
    if not gp.goal_pos:
        return 0.0
    if not gp.goal_pos <= costs.keys():
        return INF
    return combine(costs[g] for g in gp.goal_pos)


def reference_rpg(gp: GroundProblem, state: State):
    """Leveled relaxed planning graph grown one all-action scan per layer
    until the goal appears or nothing new is added: (fact_level,
    action_level)."""
    fact_level = {f: 0 for f in decode(state)}
    action_level: dict[int, int] = {}
    level = 0
    while not gp.goal_pos <= fact_level.keys():
        new_actions = [
            idx
            for idx, act in enumerate(gp.actions)
            if idx not in action_level and act.pre_pos <= fact_level.keys()
        ]
        for idx in new_actions:
            action_level[idx] = level
        grew = False
        for idx in new_actions:
            for f in gp.actions[idx].adds:
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
    if gp.goal_pos <= decode(state):
        return 0.0
    fact_level, action_level = reference_rpg(gp, state)
    if not gp.goal_pos <= fact_level.keys():
        return INF
    max_level = max(fact_level[g] for g in gp.goal_pos)
    needed = {lv: set() for lv in range(max_level + 1)}
    for g in gp.goal_pos:
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
                if fact in act.adds and action_level.get(idx) == level - 1
            )
            plan_length += 1
            covered |= gp.actions[supporter].adds
            for p in gp.actions[supporter].pre_pos:
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
            if act.pre_pos <= facts:
                new = (act.adds - {banned}) - facts
                if new:
                    facts |= new
                    changed = True
    return facts


def reference_landmarks(gp: GroundProblem) -> frozenset[int]:
    """Backchaining landmark discovery over reference_reachable_without."""
    init = decode(gp.init)
    landmarks = {g for g in gp.goal_pos if g not in init}
    queue = sorted(landmarks)
    while queue:
        lm = queue.pop(0)
        reached = reference_reachable_without(gp, lm)
        achiever_pres = [
            act.pre_pos for act in gp.actions if lm in act.adds and act.pre_pos <= reached
        ]
        if not achiever_pres:
            continue
        for p in sorted(frozenset.intersection(*achiever_pres)):
            if p not in init and p not in landmarks:
                landmarks.add(p)
                queue.append(p)
    return frozenset(landmarks)
