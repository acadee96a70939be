"""Domain-independent heuristics over the grounded model.

All estimates work on the delete relaxation: negative preconditions and
negative goal literals are treated as satisfied, which keeps h_max a lower
bound on true cost. Unit action costs throughout. Sets of atoms are the bit
masks of the grounded model (see grounding). One layered exploration,
relaxed_layers, backs h_max, FF and landmark discovery: its layers are
masks, grown by one mask test per action over the schema runs of
GroundProblem.runs, each tested on its guard_pre alone. Only goal-relevant
atoms (GroundProblem.goal_relevant) feed a goal atom's cost, so with a
goal, layer k holds the state plus exactly the goal-relevant atoms of level
at most k in the relaxed planning graph, and a run or action leaves the
scan once the goal-relevant atoms it adds are reached. h_max is the index
of the goal's layer and FF's plan is extracted from the masks. h_add
settles the goal-relevant atoms' costs in one bucket-queue Dijkstra pass
of its own, seeded with the atoms one layer of that scan adds.

The landmark heuristic counts discovered-but-unachieved landmarks plus goal
landmarks that were achieved and then undone (required again); landmark
bookkeeping travels along the search path via an opaque context value (the
bitset of accepted landmarks).
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .errors import ConfigError, InternalError
from .grounding import GroundProblem, State, atom_indices

INF = float("inf")


class Heuristic:
    """Estimate interface: evaluate(state, parent_ctx) -> (value, ctx).

    parent_ctx is None for a search root; stateless heuristics return None
    as their context.
    """

    name = "base"

    def __init__(self, gp: GroundProblem):
        self.gp = gp

    def evaluate(self, state: State, parent_ctx=None):
        raise NotImplementedError


class ZeroHeuristic(Heuristic):
    name = "zero"

    def evaluate(self, state, parent_ctx=None):
        return 0.0, None


def _next_layer(guarded, unfired, reached: State, missing: State):
    """One layer of the pruned scan: (added, guarded, unfired) after it.

    *added* is the OR of the adds of every action, among the runs in
    *guarded* and the members in *unfired*, that can still add an atom of
    *missing* and whose positive preconditions *reached* holds. A run
    whose union holds no atom of *missing* is dropped before its guard_pre
    is tested, and so is a member whose adds hold none, since *missing*
    only shrinks; a run's scan ends once the members fired so far cover
    its union's missing atoms. The runs whose guard_pre failed and the
    members that did not fire come back for the next layer."""
    added = 0
    waiting = []
    for member in unfired:
        adds = member[4]
        if adds & missing:
            if reached & member[2] == member[2]:
                added |= adds
            else:
                waiting.append(member)
    still_guarded = []
    for run in guarded:
        wanted = run[3] & missing
        if not wanted:
            continue
        guard = run[1]
        if reached & guard != guard:
            still_guarded.append(run)
            continue
        fired = 0
        for member in run[2]:
            adds = member[4]
            if reached & member[2] == member[2]:
                fired |= adds
                if fired & wanted == wanted:
                    break
            elif adds & missing:
                waiting.append(member)
        added |= fired
    return added, still_guarded, waiting


def relaxed_layers(
    gp: GroundProblem, state: State, banned: int | None = None, goal: State | None = None
) -> list[State]:
    """Layered delete-relaxed reachability from *state*: the masks
    L[0] = state, L[1], ..., each the one before plus the adds of every
    action whose positive preconditions it holds. An atom's level, the
    first layer holding it, is its h_max cost under unit cost.

    Each layer scans gp.runs: a run whose guard_pre the layer lacks is
    skipped whole, and an action leaves the scan once it has fired or its
    adds hold no atom still missing. *banned* is struck from every add.
    With *goal*, a mask of goal-relevant atoms (GroundProblem.goal_relevant),
    only goal-relevant atoms are added, so layer k holds *state* plus the
    goal-relevant atoms of level at most k; the layers stop at the first
    that holds *goal*. They always stop at the fixpoint, which is never
    repeated.
    """
    if goal is None:
        keep = -1
    else:
        keep = gp.goal_relevant
        if goal & ~keep:
            raise InternalError("relaxed_layers: goal holds atoms that are not goal-relevant")
    if banned is not None:
        keep &= ~(1 << banned)
    layers = [state]
    reached = state
    guarded, unfired = gp.runs, ()
    while goal is None or reached & goal != goal:
        added, guarded, unfired = _next_layer(guarded, unfired, reached, keep & ~reached)
        grown = reached | added & keep
        if grown == reached:
            break
        reached = grown
        layers.append(reached)
    return layers


class _RelaxationHeuristic(Heuristic):
    """Memoised delete-relaxation estimate, computed once per state. The
    estimate is a pure function of (problem, state), so the table serves
    every search that shares the heuristic (make_heuristic)."""

    def __init__(self, gp: GroundProblem):
        super().__init__(gp)
        self._cache: dict[State, float] = {}

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
    the sum of the achiever's precondition costs. Only goal-relevant atoms
    are priced: the atoms one action away from *state* cost 1 and come
    from one layer of the pruned scan behind relaxed_layers; after that,
    each settled atom visits its consumers (GroundProblem.consumers), which
    add its cost to their price and, once every precondition has settled,
    queue their relevant adds at that price. An atom outside *state* is
    queued only below its best queued price. A price is at least 1 above
    the cost being settled, so under unit cost a bucket queue (cost ->
    atoms) pops in order without a heap.
    """

    name = "hadd"

    def _estimate(self, state):
        gp = self.gp
        consumers = gp.consumers
        goal = gp.goal
        missing = gp.goal_relevant & ~state
        ones = atom_indices(_next_layer(gp.runs, (), state, missing)[0] & missing)
        best = dict.fromkeys(ones, 1)  # per queued atom, its lowest price
        buckets = {1: ones}
        price: dict[int, int] = {}
        settled = state
        unsettled_goals = (goal & ~state).bit_count()
        total = 0
        while buckets:
            cost = min(buckets)
            for f in buckets.pop(cost):
                if best[f] != cost:
                    continue  # superseded by a lower price
                settled |= 1 << f
                if goal >> f & 1:
                    total += cost
                    unsettled_goals -= 1
                    if not unsettled_goals:
                        return float(total)
                for idx, pre, adds in consumers[f]:
                    p = price.get(idx, 1) + cost
                    if settled & pre != pre:
                        price[idx] = p
                        continue
                    for a in adds:
                        if p < best.get(a, INF) and not state >> a & 1:
                            best[a] = p
                            if p in buckets:
                                buckets[p].append(a)
                            else:
                                buckets[p] = [a]
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


def discover_landmarks(gp: GroundProblem) -> State:
    """The mask of the atoms every delete-relaxed plan must achieve, bar the
    initial-state facts, which need no achieving. Backchain from the goal: if
    every possible first achiever of a known landmark shares a precondition,
    that precondition is a landmark too."""
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
    return landmarks


class LandmarkCountHeuristic(Heuristic):
    name = "landmarks"

    def __init__(self, gp: GroundProblem):
        super().__init__(gp)
        self.landmarks = discover_landmarks(gp)
        self._count = self.landmarks.bit_count()
        self._goal_landmarks = self.landmarks & gp.goal

    def evaluate(self, state, parent_ctx=None):
        achieved_now = self.landmarks & state
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
    over *gp* share (see grounding.successors), the heuristic is built on
    first use and kept in it under *name*, so every later search hands out
    the same object, with the per-state values or landmarks it holds."""
    cls = _HEURISTICS.get(name)
    if cls is None:
        raise ConfigError(f"unknown heuristic '{name}' (choose from {', '.join(HEURISTIC_NAMES)})")
    if cache is None:
        return cls(gp)
    if name not in cache:
        cache[name] = cls(gp)
    return cache[name]
