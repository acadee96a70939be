"""Domain-independent heuristics over the grounded model.

All estimates work on the delete relaxation: negative preconditions and
negative goal literals are treated as satisfied, which keeps h_max a lower
bound on true cost. Unit action costs throughout. Sets of atoms are the bit
masks of the grounded model (see grounding). One layered exploration,
relaxed_layers, backs h_max, FF and landmark discovery: its layers are
masks, grown by one mask test per action over the schema runs of
GroundProblem.runs, each tested on its guard_pre alone. Layer k holds
exactly the atoms of level at most k in the relaxed planning graph, so
h_max is the index of the goal's layer and FF's plan is extracted from the
masks. h_add settles atom costs
in one bucket-queue Dijkstra pass of its own over the goal-relevant atoms
only (GroundProblem.goal_relevant): no other atom's cost feeds a goal
atom's, so leaving them out gives the same sum.

The landmark heuristic counts discovered-but-unachieved landmarks plus goal
landmarks that were achieved and then undone (required again); landmark
bookkeeping travels along the search path via an opaque context value (the
bitset of accepted landmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .errors import ConfigError
from .grounding import GroundProblem, State, atom_indices

INF = float("inf")


class Heuristic:
    """Estimate interface: evaluate(state, parent_ctx) -> (value, ctx).

    parent_ctx is None for a search root; stateless heuristics return None
    as their context. *cache*, a dict shared by every heuristic and search
    over *gp*, lets a heuristic keep what it computes under its own name.
    """

    name = "base"

    def __init__(self, gp: GroundProblem, cache: dict | None = None):
        self.gp = gp

    def evaluate(self, state: State, parent_ctx=None):
        raise NotImplementedError


class ZeroHeuristic(Heuristic):
    name = "zero"

    def evaluate(self, state, parent_ctx=None):
        return 0.0, None


def relaxed_layers(
    gp: GroundProblem, state: State, banned: int | None = None, goal: State | None = None
) -> list[State]:
    """Layered delete-relaxed reachability from *state*: the masks
    L[0] = state, L[1], ..., each the one before plus the adds of every
    action whose positive preconditions it holds. An atom's level, the
    first layer holding it, is its h_max cost under unit cost.

    Each layer scans gp.runs: a run whose guard_pre the layer lacks is
    skipped whole, and an action that has fired leaves the scan, since its
    adds are in every later layer. *banned* is struck from every add. With
    *goal*, a mask, the layers stop at the first that holds it; they
    always stop at the fixpoint, which is never repeated.
    """
    keep = -1 if banned is None else ~(1 << banned)
    layers = [state]
    reached = state
    guarded = gp.runs  # runs whose guard_pre has not yet passed
    unfired: list[tuple] = []  # the other runs' unfired members
    while goal is None or reached & goal != goal:
        added = 0
        waiting = []
        for member in unfired:
            if reached & member[2] == member[2]:
                added |= member[4]
            else:
                waiting.append(member)
        still_guarded = []
        for run in guarded:
            guard = run[1]
            if reached & guard != guard:
                still_guarded.append(run)
                continue
            for member in run[2]:
                if reached & member[2] == member[2]:
                    added |= member[4]
                else:
                    waiting.append(member)
        grown = reached | added & keep
        if grown == reached:
            break
        reached = grown
        layers.append(reached)
        unfired = waiting
        guarded = still_guarded
    return layers


class _RelaxationHeuristic(Heuristic):
    """Memoised delete-relaxation estimate, computed once per state. The
    estimate is a pure function of (problem, state), so the table lives in
    *cache* under the heuristic's name and serves every episode sharing it."""

    def __init__(self, gp: GroundProblem, cache: dict | None = None):
        super().__init__(gp)
        self._cache: dict[State, float] = {} if cache is None else cache.setdefault(self.name, {})

    def evaluate(self, state, parent_ctx=None):
        h = self._cache.get(state)
        if h is None:
            goal = self.gp.goal
            h = 0.0 if state & goal == goal else self._estimate(state)
            self._cache[state] = h
        return h, None

    def _estimate(self, state: State) -> float:
        raise NotImplementedError


class MaxHeuristic(_RelaxationHeuristic):
    name = "hmax"

    def _estimate(self, state):
        goal = self.gp.goal
        layers = relaxed_layers(self.gp, state, goal=goal)
        return float(len(layers) - 1) if layers[-1] & goal == goal else INF


class AddHeuristic(_RelaxationHeuristic):
    """Sum of the goal atoms' additive costs, by a generalised Dijkstra
    (Knuth 1977) that settles atoms cheapest first and stops once every goal
    atom has settled.

    An atom costs 0 in *state*, else the least over its achievers of 1 plus
    the sum of the achiever's precondition costs. Each action counts its
    unsettled preconditions and keeps 1 plus the sum of the settled ones;
    when its last precondition settles, its adds are queued at that price.
    A price is at least 1 above the cost being settled, so under unit cost a
    bucket queue (cost -> atoms) pops in order without a heap. Only
    goal-relevant atoms are queued, in *state* and in adds alike.
    """

    name = "hadd"

    def _estimate(self, state):
        gp = self.gp
        adds = gp.relevant_adds
        consumers = gp.consumers
        goal = gp.goal
        waiting = list(gp.precondition_counts)
        price = [1] * len(waiting)
        buckets = {
            0: atom_indices(state & gp.goal_relevant),
            1: [f for idx in gp.precondition_free for f in adds[idx]],
        }
        settled: set[int] = set()
        unsettled_goals = goal.bit_count()
        total = 0
        while buckets:
            cost = min(buckets)
            for f in buckets.pop(cost):
                if f in settled:
                    continue
                settled.add(f)
                if goal >> f & 1:
                    total += cost
                    unsettled_goals -= 1
                    if not unsettled_goals:
                        return float(total)
                for idx in consumers[f]:
                    price[idx] += cost
                    waiting[idx] -= 1
                    if not waiting[idx]:
                        p = price[idx]
                        if p in buckets:
                            buckets[p].extend(adds[idx])
                        else:
                            buckets[p] = list(adds[idx])
        return INF


class FFHeuristic(_RelaxationHeuristic):
    """Length of a greedily extracted relaxed plan, or inf when the goal is
    unreachable even with deletes ignored."""

    name = "ff"

    def _estimate(self, state):
        gp = self.gp
        goal = gp.goal
        layers = relaxed_layers(gp, state, goal=goal)
        if layers[-1] & goal != goal:
            return INF
        actions = gp.actions
        achievers = gp.achievers
        # fresh[k]: the atoms of level k; needed[k]: those the plan needs
        fresh = [state] + [layers[k] & ~layers[k - 1] for k in range(1, len(layers))]
        needed = [goal & atoms for atoms in fresh]
        plan_length = 0
        for level in range(len(layers) - 1, 0, -1):
            # A supporter acts one layer below the facts it is chosen for, so
            # its add effects cover only needs at this level; a need at a
            # lower level gets its own supporter.
            below = layers[level - 1]
            covered = 0
            for fact in atom_indices(needed[level]):
                if covered >> fact & 1:
                    continue
                # The lowest-index achiever one level down; one exists
                # because the fact first appeared at this level.
                for idx in achievers[fact]:
                    act = actions[idx]
                    pre = act.pre
                    if pre & below == pre:
                        break
                plan_length += 1
                covered |= act.adds
                # file each precondition outside *state* under its own level
                pre &= ~state
                k = 1
                while pre:
                    part = pre & fresh[k]
                    needed[k] |= part
                    pre ^= part
                    k += 1
        return float(plan_length)


@dataclass(frozen=True)
class LandmarkSet:
    """The mask of the atoms every delete-relaxed plan must achieve
    (initial-state facts are excluded since they need no achieving), and of
    those among them that the goal requires."""

    landmarks: State
    goal_landmarks: State


def discover_landmarks(gp: GroundProblem) -> LandmarkSet:
    """Backchain from the goal: if every possible first achiever of a known
    landmark shares a precondition, that precondition is a landmark too."""
    init = gp.init
    actions = gp.actions
    landmarks = gp.goal & ~init
    queue = atom_indices(landmarks)
    while queue:
        lm = queue.pop(0)
        pres = [actions[idx].pre for idx in gp.achievers[lm]]
        # Exploring past the layer that holds every achiever precondition
        # cannot change which achievers are reachable.
        reached = relaxed_layers(gp, init, banned=lm, goal=reduce(or_, pres, 0))[-1]
        achiever_pres = [pre for pre in pres if pre & reached == pre]
        if not achiever_pres:
            continue
        fresh = reduce(and_, achiever_pres) & ~init & ~landmarks
        landmarks |= fresh
        queue += atom_indices(fresh)
    return LandmarkSet(landmarks, landmarks & gp.goal)


class LandmarkCountHeuristic(Heuristic):
    name = "landmarks"

    def __init__(self, gp: GroundProblem, cache: dict | None = None):
        super().__init__(gp)
        cache = {} if cache is None else cache
        if self.name not in cache:
            cache[self.name] = discover_landmarks(gp)
        self.landmark_set: LandmarkSet = cache[self.name]
        self._landmarks = self.landmark_set.landmarks
        self._count = self._landmarks.bit_count()
        self._goal_landmarks = self.landmark_set.goal_landmarks

    def evaluate(self, state, parent_ctx=None):
        achieved_now = self._landmarks & state
        accepted = achieved_now if parent_ctx is None else parent_ctx | achieved_now
        required_again = accepted & self._goal_landmarks & ~state
        h = self._count - accepted.bit_count() + required_again.bit_count()
        return float(h), accepted


_HEURISTICS = {
    "zero": ZeroHeuristic,
    "hmax": MaxHeuristic,
    "hadd": AddHeuristic,
    "ff": FFHeuristic,
    "landmarks": LandmarkCountHeuristic,
}

HEURISTIC_NAMES = tuple(sorted(_HEURISTICS))


def make_heuristic(name: str, gp: GroundProblem, cache: dict | None = None) -> Heuristic:
    """The heuristic *name* over *gp*. With *cache*, the dict that searches
    over *gp* share (see grounding.successors), h_max, h_add and FF keep
    their per-state values in it and the landmark heuristic its landmark
    set, so later episodes reuse them."""
    cls = _HEURISTICS.get(name)
    if cls is None:
        raise ConfigError(f"unknown heuristic '{name}' (choose from {', '.join(HEURISTIC_NAMES)})")
    return cls(gp, cache)
