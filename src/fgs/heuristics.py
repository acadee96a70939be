"""Domain-independent heuristics over the grounded model.

All estimates work on the delete relaxation: negative preconditions and
negative goal literals are treated as satisfied, which keeps h_max a lower
bound on true cost. Unit action costs throughout. One layered exploration,
relaxed_exploration, backs h_max, FF and landmark discovery; h_add settles
atom costs in one bucket-queue Dijkstra pass of its own.

The landmark heuristic counts discovered-but-unachieved landmarks plus goal
landmarks that were achieved and then undone (required again); landmark
bookkeeping travels along the search path via an opaque context value (the
bitset of accepted landmarks).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .grounding import GroundProblem, State, atom_indices, mask

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


def relaxed_exploration(
    gp: GroundProblem, state: State, banned: int | None = None, goal: frozenset[int] | None = None
) -> dict[int, int]:
    """Layered delete-relaxed reachability from *state*.

    Returns the first level of every reached atom (0 for atoms of *state*).
    An action fires in the layer after its last precondition is reached:
    each action counts its unreached preconditions, and only the consumers
    of newly reached atoms are counted down (semi-naive evaluation).
    *banned* is struck from every add list. With *goal*, exploration stops
    at the first layer holding every goal atom; otherwise it runs to the
    fixpoint. Under unit cost an atom's level is its h_max cost.
    """
    actions = gp.actions
    consumers = gp.consumers
    initial = atom_indices(state)
    level_of = dict.fromkeys(initial, 0)
    waiting = list(gp.precondition_counts)
    fire = list(gp.precondition_free)
    new = initial
    level = 0
    while True:
        for f in new:
            for idx in consumers[f]:
                waiting[idx] -= 1
                if not waiting[idx]:
                    fire.append(idx)
        if not fire or (goal is not None and goal <= level_of.keys()):
            return level_of
        level += 1
        new = []
        for idx in fire:
            for f in actions[idx].adds:
                if f not in level_of and f != banned:
                    level_of[f] = level
                    new.append(f)
        fire = []


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
            goal = self.gp.goal_mask
            h = 0.0 if state & goal == goal else self._estimate(state)
            self._cache[state] = h
        return h, None

    def _estimate(self, state: State) -> float:
        raise NotImplementedError


class MaxHeuristic(_RelaxationHeuristic):
    name = "hmax"

    def _estimate(self, state):
        goal = self.gp.goal_pos
        level_of = relaxed_exploration(self.gp, state, goal=goal)
        if not goal <= level_of.keys():
            return INF
        return float(max(level_of[g] for g in goal))


class AddHeuristic(_RelaxationHeuristic):
    """Sum of the goal atoms' additive costs, by a generalised Dijkstra
    (Knuth 1977) that settles atoms cheapest first and stops once every goal
    atom has settled.

    An atom costs 0 in *state*, else the least over its achievers of 1 plus
    the sum of the achiever's precondition costs. Each action counts its
    unsettled preconditions and keeps 1 plus the sum of the settled ones;
    when its last precondition settles, its adds are queued at that price.
    A price is at least 1 above the cost being settled, so under unit cost a
    bucket queue (cost -> atoms) pops in order without a heap.
    """

    name = "hadd"

    def _estimate(self, state):
        gp = self.gp
        actions = gp.actions
        consumers = gp.consumers
        goal = gp.goal_pos
        waiting = list(gp.precondition_counts)
        price = [1] * len(waiting)
        buckets = {
            0: atom_indices(state),
            1: [f for idx in gp.precondition_free for f in actions[idx].adds],
        }
        settled: set[int] = set()
        unsettled_goals = len(goal)
        total = 0
        while buckets:
            cost = min(buckets)
            for f in buckets.pop(cost):
                if f in settled:
                    continue
                settled.add(f)
                if f in goal:
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
                            buckets[p].extend(actions[idx].adds)
                        else:
                            buckets[p] = list(actions[idx].adds)
        return INF


class FFHeuristic(_RelaxationHeuristic):
    """Length of a greedily extracted relaxed plan, or inf when the goal is
    unreachable even with deletes ignored."""

    name = "ff"

    def _estimate(self, state):
        gp = self.gp
        actions = gp.actions
        level_of = relaxed_exploration(gp, state, goal=gp.goal_pos)
        if not gp.goal_pos <= level_of.keys():
            return INF
        max_level = max(level_of[g] for g in gp.goal_pos)
        needed: dict[int, set[int]] = {lv: set() for lv in range(max_level + 1)}
        for g in gp.goal_pos:
            needed[level_of[g]].add(g)
        plan_length = 0
        for level in range(max_level, 0, -1):
            # A supporter acts one layer below the facts it is chosen for, so
            # its add effects cover only needs at this level; a need at a
            # lower level gets its own supporter.
            covered: set[int] = set()
            for fact in sorted(needed[level]):
                if fact in covered:
                    continue
                # The lowest-index achiever one level down; one exists
                # because the fact first appeared at this level.
                supporter = next(
                    idx for idx in gp.achievers[fact]
                    if all(level_of.get(p, INF) < level for p in actions[idx].pre_pos)
                )
                plan_length += 1
                covered |= actions[supporter].adds
                for p in actions[supporter].pre_pos:
                    if level_of[p] > 0:
                        needed[level_of[p]].add(p)
        return float(plan_length)


@dataclass(frozen=True)
class LandmarkSet:
    """Atoms every delete-relaxed plan must achieve (initial-state facts are
    excluded since they need no achieving)."""

    landmarks: frozenset[int]
    goal_landmarks: frozenset[int]


def discover_landmarks(gp: GroundProblem) -> LandmarkSet:
    """Backchain from the goal: if every possible first achiever of a known
    landmark shares a precondition, that precondition is a landmark too."""
    init = gp.init
    landmarks: set[int] = set()
    queue = [g for g in sorted(gp.goal_pos) if not init >> g & 1]
    landmarks.update(queue)
    while queue:
        lm = queue.pop(0)
        pres = [gp.actions[idx].pre_pos for idx in gp.achievers[lm]]
        # Exploring past the layer that holds every achiever precondition
        # cannot change which achievers are reachable.
        level_of = relaxed_exploration(gp, init, banned=lm, goal=frozenset().union(*pres))
        achiever_pres = [pre for pre in pres if pre <= level_of.keys()]
        if not achiever_pres:
            continue
        common = frozenset.intersection(*achiever_pres)
        for p in sorted(common):
            if not init >> p & 1 and p not in landmarks:
                landmarks.add(p)
                queue.append(p)
    lm_frozen = frozenset(landmarks)
    return LandmarkSet(lm_frozen, lm_frozen & gp.goal_pos)


class LandmarkCountHeuristic(Heuristic):
    name = "landmarks"

    def __init__(self, gp: GroundProblem, cache: dict | None = None):
        super().__init__(gp)
        cache = {} if cache is None else cache
        if self.name not in cache:
            cache[self.name] = discover_landmarks(gp)
        self.landmark_set: LandmarkSet = cache[self.name]
        self._count = len(self.landmark_set.landmarks)
        self._mask = mask(self.landmark_set.landmarks)
        self._goal_mask = mask(self.landmark_set.goal_landmarks)

    def evaluate(self, state, parent_ctx=None):
        achieved_now = self._mask & state
        accepted = achieved_now if parent_ctx is None else parent_ctx | achieved_now
        required_again = accepted & self._goal_mask & ~state
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
