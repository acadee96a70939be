import random
from collections import deque
from dataclasses import replace
from itertools import chain

import pytest

from fgs.assets import TASKS, load_task
from fgs.errors import ConfigError, InternalError
from fgs.grounding import GroundProblem, apply_action, atom_indices, goal_satisfied, successors
from fgs.heuristics import (
    INF,
    FFHeuristic,
    LandmarkCountHeuristic,
    discover_landmarks,
    make_heuristic,
    relaxed_layers,
)
from fgs.search import SearchConfig, search

from .util import (
    bfs_optimal_length,
    chain_problem,
    decode,
    encode,
    grouped_random_model,
    make_ground_problem,
    random_model,
    reference_ff,
    reference_landmark_count,
    reference_landmarks,
    reference_reachable_without,
    reference_relaxed_cost,
)


def h(name, gp, state=None):
    value, _ = make_heuristic(name, gp).evaluate(state if state is not None else gp.init)
    return value


def test_unknown_heuristic_name():
    gp = chain_problem(1)
    with pytest.raises(ConfigError, match="nope"):
        make_heuristic("nope", gp)


@pytest.mark.parametrize("name", ["zero", "hmax", "hadd", "ff", "landmarks"])
def test_make_heuristic_builds_once_per_cache(name):
    gp = chain_problem(2)
    cache: dict = {}
    heuristic = make_heuristic(name, gp, cache)
    assert make_heuristic(name, gp, cache) is heuristic
    assert make_heuristic(name, gp, {}) is not heuristic
    assert make_heuristic(name, gp) is not heuristic


def test_zero_heuristic_everywhere():
    gp = chain_problem(3)
    assert h("zero", gp) == 0.0
    goal_state = encode(range(len(gp.atoms)))
    assert h("zero", gp, goal_state) == 0.0


def test_goal_state_scores_zero_for_all():
    gp = chain_problem(2)
    goal_state = encode(range(len(gp.atoms)))
    for name in ("ff", "hadd", "hmax", "zero"):
        assert h(name, gp, goal_state) == 0.0


def test_single_action_to_goal():
    gp = chain_problem(1)
    assert h("ff", gp) == 1.0
    assert h("hmax", gp) == 1.0
    assert h("hadd", gp) == 1.0


def test_serial_chain_ff_equals_optimal():
    gp = chain_problem(4)
    assert h("ff", gp) == 4.0  # delete-free: relaxed plan is the real plan
    assert bfs_optimal_length(gp) == 4


def test_hadd_sums_hmax_maxes():
    # two independent goals, one action each
    gp = make_ground_problem(
        ["start", "g1", "g2"],
        [("a1", ["start"], [], ["g1"], []), ("a2", ["start"], [], ["g2"], [])],
        ["start"],
        ["g1", "g2"],
    )
    assert h("hadd", gp) == 2.0
    assert h("hmax", gp) == 1.0


def test_unreachable_goal_is_inf():
    gp = make_ground_problem(
        ["p", "g"],
        [("a", ["p"], [], ["p"], [])],
        ["p"],
        ["g"],
    )
    assert h("ff", gp) == INF
    assert h("hmax", gp) == INF
    assert h("hadd", gp) == INF


def test_hadd_takes_cheaper_deeper_achiever():
    # g first appears at level 2 through `big`, whose three level-1
    # preconditions price it at 4; the level-3 chain prices it at 3. `use`
    # consumes g in the same layer as the chain's last step, so a single
    # sweep in layer order would price h at 1 + 4.
    def model(goal):
        return make_ground_problem(
            ["s", "p1", "p2", "p3", "q1", "q2", "g", "h"],
            [
                ("mk1", ["s"], [], ["p1"], []),
                ("mk2", ["s"], [], ["p2"], []),
                ("mk3", ["s"], [], ["p3"], []),
                ("big", ["p1", "p2", "p3"], [], ["g"], []),
                ("c1", ["s"], [], ["q1"], []),
                ("c2", ["q1"], [], ["q2"], []),
                ("use", ["g"], [], ["h"], []),
                ("c3", ["q2"], [], ["g"], []),
            ],
            ["s"],
            [goal],
        )

    gp = model("g")
    assert h("hmax", gp) == 2.0
    assert h("hadd", gp) == 3.0
    gp = model("h")
    assert h("hadd", gp) == 4.0
    assert reference_relaxed_cost(gp, gp.init, sum) == 4.0


def test_precondition_free_action_with_unreachable_goal_is_inf():
    # `free` fires from any state, but nothing reaches p, so g stays out of
    # reach. A goal atom that `free` adds costs 1.
    gp = make_ground_problem(
        ["p", "q", "g"],
        [("free", [], [], ["q"], []), ("needs_p", ["p", "q"], [], ["g"], [])],
        [],
        ["g"],
    )
    for name in ("hadd", "hmax", "ff"):
        assert h(name, gp) == INF
    reachable = make_ground_problem(["q", "g"], [("free", [], [], ["q"], [])], ["g"], ["g", "q"])
    assert h("hadd", reachable) == 1.0


def test_hmax_admissible_on_random_models():
    rng = random.Random(42)
    for _ in range(30):
        gp = random_model(rng)
        opt = bfs_optimal_length(gp)
        assert h("hmax", gp) <= opt


def test_ff_dominates_hmax_and_zero_iff_goal():
    rng = random.Random(7)
    for _ in range(20):
        gp = random_model(rng)
        ff = h("ff", gp)
        assert ff >= h("hmax", gp)
        assert (ff == 0.0) == goal_satisfied(gp.init, gp)


def test_rpg_layers_monotone():
    gp = chain_problem(5)
    layers = relaxed_layers(gp, gp.init)
    assert layers[0] == gp.init
    assert all(lower & upper == lower for lower, upper in zip(layers, layers[1:]))
    level_of = {
        atom: next(level for level, layer in enumerate(layers) if layer >> atom & 1)
        for atom in atom_indices(layers[-1])
    }
    assert [level_of[i] for i in range(6)] == [0, 1, 2, 3, 4, 5]

    def deepest_precondition(idx):
        return max((level_of.get(p, INF) for p in decode(gp.actions[idx].pre)), default=0)

    # an action fires one layer after its last precondition and gives each of
    # its new atoms the next level: an atom at level L has an achiever whose
    # deepest precondition is at L - 1, and none with all of them below L - 1
    for atom, level in level_of.items():
        if level:
            depths = [deepest_precondition(idx) for idx in gp.achievers[atom]]
            assert level - 1 in depths
            assert min(depths) >= level - 1
    # with a goal it stops at the goal's layer; a banned atom is never reached
    partial = relaxed_layers(gp, gp.init, goal=encode({2}))
    assert len(partial) - 1 == 2
    cut = relaxed_layers(gp, gp.init, banned=3)
    assert atom_indices(cut[-1]) == [0, 1, 2]


def test_ff_infinity_only_when_relaxed_unreachable():
    rng = random.Random(99)
    for _ in range(20):
        gp = random_model(rng)
        ff = FFHeuristic(gp)
        value, _ = ff.evaluate(gp.init)
        assert value < INF  # random_model guarantees real reachability


# -- landmarks -----------------------------------------------------------------


def test_chain_landmarks_and_countdown():
    gp = chain_problem(4)
    lms = discover_landmarks(gp)
    # every intermediate fact is needed; the initial fact is not a landmark
    assert len(decode(lms)) == 4
    heur = LandmarkCountHeuristic(gp)
    assert heur.landmarks == lms
    value, ctx = heur.evaluate(gp.init)
    assert value == 4.0
    state = gp.init
    expected = 4.0
    for act in gp.actions:  # adv0, adv1, ... in order: each achieves one landmark
        state = encode((decode(state) - decode(act.dels)) | decode(act.adds))
        expected -= 1.0
        value, ctx = heur.evaluate(state, ctx)
        assert value == expected
    assert goal_satisfied(state, gp)
    assert value == 0.0


def test_landmark_soundness_by_ablation():
    # striking any landmark from all add lists must break relaxed reachability
    rng = random.Random(5)
    for _ in range(10):
        gp = random_model(rng)
        lms = discover_landmarks(gp)
        for lm in decode(lms):
            facts = reference_reachable_without(gp, lm)
            assert not decode(gp.goal) <= facts, "landmark is not actually required"


def test_required_again_counts():
    # g1 is achieved, then destroyed by the action achieving g2
    gp = make_ground_problem(
        ["s", "g1", "g2"],
        [
            ("mk1", ["s"], [], ["g1"], []),
            ("mk2", ["g1"], [], ["g2"], ["g1"]),
            ("re1", ["g2"], [], ["g1"], []),
        ],
        ["s"],
        ["g1", "g2"],
    )
    heur = LandmarkCountHeuristic(gp)
    v0, ctx = heur.evaluate(gp.init)
    assert v0 == 2.0
    _, s1 = next(successors(gp, gp.init))  # after mk1
    v1, ctx = heur.evaluate(s1, ctx)
    assert v1 == 1.0
    s2 = [succ for idx, succ in successors(gp, s1) if gp.actions[idx].schema_name == "mk2"][0]
    v2, ctx = heur.evaluate(s2, ctx)
    assert v2 == 1.0  # g2 accepted, but g1 is a goal landmark required again
    s3 = [succ for idx, succ in successors(gp, s2) if gp.actions[idx].schema_name == "re1"][0]
    v3, _ = heur.evaluate(s3, ctx)
    assert v3 == 0.0


def _check_landmark_count_along_walks(gp, rng, walks, max_depth):
    """The bitset landmark count equals the frozenset reference, value and
    accepted set, along random paths that carry the context forward."""
    heur = LandmarkCountHeuristic(gp)
    lms = heur.landmarks
    for _ in range(walks):
        state = gp.init
        value, ctx = heur.evaluate(state)
        ref = reference_landmark_count(gp, lms, decode(state), None)
        for _ in range(rng.randint(1, max_depth)):
            assert (value, decode(ctx)) == ref
            succs = [succ for _, succ in successors(gp, state)]
            if not succs:
                break
            state = rng.choice(succs)
            value, ctx = heur.evaluate(state, ctx)
            ref = reference_landmark_count(gp, lms, decode(state), ref[1])


def test_landmark_count_matches_reference():
    rng = random.Random(8)
    for _ in range(30):
        _check_landmark_count_along_walks(random_model(rng), rng, walks=5, max_depth=8)
    for task_id in sorted(TASKS):
        _, _, gp = load_task(task_id)
        _check_landmark_count_along_walks(gp, rng, walks=5, max_depth=60)


# -- the shared exploration against the naive references ------------------------


def _random_walk_states(gp, rng, walks, max_depth):
    states = [gp.init]
    for _ in range(walks):
        state = gp.init
        for _ in range(rng.randint(1, max_depth)):
            succs = [succ for _, succ in successors(gp, state)]
            if not succs:
                break
            state = rng.choice(succs)
            states.append(state)
    return states


def _check_against_reference(gp, states):
    """Identical h_max, h_add and FF values; h_max <= h_add, h_max <= FF,
    and FF is inf exactly when h_max is."""
    hmax, hadd, ff = (make_heuristic(n, gp) for n in ("hmax", "hadd", "ff"))
    for state in states:
        vmax, vadd, vff = (hr.evaluate(state)[0] for hr in (hmax, hadd, ff))
        assert vmax == reference_relaxed_cost(gp, state, max)
        assert vadd == reference_relaxed_cost(gp, state, sum)
        assert vff == reference_ff(gp, state)
        assert vmax <= vadd and vmax <= vff
        assert (vff == INF) == (vmax == INF)


def _check_landmarks_on_optimal_plan(gp):
    lms = discover_landmarks(gp)
    assert decode(lms) == reference_landmarks(gp)
    plan = search(gp, SearchConfig(algorithm="ucs")).plan
    visited = set(decode(gp.init))
    state = gp.init
    for act in plan:
        state = apply_action(state, act)
        visited |= decode(state)
    assert decode(lms) <= visited


def test_exploration_matches_reference_on_random_models():
    rng = random.Random(2024)
    saw_dead_end = False
    for _ in range(40):
        gp = random_model(rng, n_atoms=rng.randint(5, 10), n_actions=rng.randint(6, 20))
        arbitrary = [
            encode(a for a in range(len(gp.atoms)) if rng.random() < 0.3) for _ in range(10)
        ]
        states = _random_walk_states(gp, rng, walks=3, max_depth=6) + arbitrary
        _check_against_reference(gp, states)
        _check_landmarks_on_optimal_plan(gp)
        saw_dead_end |= any(h("hmax", gp, s) == INF for s in arbitrary)
    assert saw_dead_end  # the inf cases were exercised


def test_exploration_matches_reference_on_grouped_models():
    # random_model gives every action its own schema; here runs of actions
    # share guards, and some of their actions can never apply, yet the
    # relaxation fires them
    rng = random.Random(61)
    shared = never = 0
    for _ in range(40):
        base = grouped_random_model(rng, n_atoms=rng.randint(5, 10), n_runs=rng.randint(2, 5))
        atoms = range(len(base.atoms))
        goal = encode(rng.sample(atoms, rng.randint(1, 3)))
        gp = GroundProblem(base.atoms, base.actions, base.init, goal)
        shared += sum(len(members) > 1 for _, _, members, _ in gp.runs)
        never += sum(1 for act in gp.actions if act.pre & act.neg)
        arbitrary = [encode(a for a in atoms if rng.random() < 0.3) for _ in range(10)]
        _check_against_reference(gp, _random_walk_states(gp, rng, walks=3, max_depth=6) + arbitrary)
        assert decode(discover_landmarks(gp)) == reference_landmarks(gp)
        for banned in atoms:
            reached = relaxed_layers(gp, gp.init, banned=banned)[-1]
            assert reached == encode(reference_reachable_without(gp, banned))
        _check_landmark_count_along_walks(gp, rng, walks=3, max_depth=6)
    assert shared > 100 and never > 50


@pytest.mark.parametrize("task_id", sorted(TASKS))
def test_exploration_matches_reference_on_bundled_tasks(task_id):
    _, _, gp = load_task(task_id)
    rng = random.Random(task_id)
    _check_against_reference(gp, _random_walk_states(gp, rng, walks=6, max_depth=40))
    _check_landmarks_on_optimal_plan(gp)


def _reachable_non_goal_states(gp):
    """Every state reachable from the initial state that misses the goal, in
    breadth-first order."""
    seen = {gp.init}
    order = [gp.init]
    frontier = deque(order)
    while frontier:
        for _, succ in successors(gp, frontier.popleft()):
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
                frontier.append(succ)
    return [state for state in order if not goal_satisfied(state, gp)]


@pytest.mark.parametrize("task_id", sorted(TASKS))
def test_hadd_matches_reference_on_reachable_states(task_id):
    # h_add, h_max and FF on every 16th reachable non-goal state, offset per
    # task: the references take about 1 ms a state, and all 50,880 would
    # add about a minute.
    _, _, gp = load_task(task_id)
    states = _reachable_non_goal_states(gp)
    checked = states[sorted(TASKS).index(task_id) % 16 :: 16]
    assert len(checked) > 50
    _check_against_reference(gp, checked)


@pytest.mark.parametrize("task_id", sorted(TASKS))
def test_shared_cache_matches_fresh_heuristics(task_id):
    # h_max, h_add and FF built on one cache, beside its successor table,
    # return what fresh heuristics return, whichever of them saw a state
    # first, and so they do on a second pass, when the cache hands back the
    # same heuristics with their stored values. The
    # cached successors equal the cold ones, and the cache holds them as
    # one flat tuple that ends with the state.
    _, _, gp = load_task(task_id)
    states = _reachable_non_goal_states(gp)[sorted(TASKS).index(task_id) % 16 :: 16]
    names = ("hmax", "hadd", "ff")
    fresh = {name: make_heuristic(name, gp) for name in names}
    cache: dict = {}
    for rerun in (False, True):
        shared = {name: make_heuristic(name, gp, cache) for name in names}
        for i, state in enumerate(states):
            cold = list(successors(gp, state))
            assert list(successors(gp, state, cache)) == cold
            assert cache[state] == (*chain.from_iterable(cold), state)
            for name in names[i % 3 :] + names[: i % 3]:
                assert shared[name].evaluate(state) == fresh[name].evaluate(state), (name, rerun)
    assert {name: len(cache[name]._cache) for name in names} == dict.fromkeys(names, len(states))


def test_ff_counts_supporter_of_own_add():
    # The goal g's only achiever also adds its own precondition p, which
    # still needs its own supporter one layer earlier.
    gp = make_ground_problem(
        ["s", "p", "g"],
        [("mk_p", ["s"], [], ["p"], []), ("mk_g", ["p", "s"], [], ["p", "g"], [])],
        ["s"],
        ["g"],
    )
    assert h("hmax", gp) == 2.0
    assert h("ff", gp) == 2.0


def test_relaxation_fires_actions_no_state_applies():
    # `clash` needs s both held and not held: no state applies it, so no
    # successor list holds it, but the relaxation ignores negative
    # preconditions and fires it. `free` has no precondition, and
    # nothing reaches w, so u is out of reach whatever the state.
    def model(goal):
        return make_ground_problem(
            ["s", "p", "q", "g", "u", "w"],
            [
                ("clash", ["s"], ["s"], ["p"], []),
                ("free", [], [], ["q"], []),
                ("finish", ["p", "q"], [], ["g"], ["s"]),
                ("stuck", ["w"], [], ["u"], []),
            ],
            ["s"],
            goal,
        )

    gp = model(["g"])
    clash = next(i for i, act in enumerate(gp.actions) if act.schema_name == "clash")
    every_state = [encode(a for a in range(6) if bits >> a & 1) for bits in range(64)]
    assert all(idx != clash for state in every_state for idx, _ in successors(gp, state))
    assert (h("hmax", gp), h("ff", gp), h("hadd", gp)) == (2.0, 3.0, 3.0)
    assert decode(discover_landmarks(gp)) == {gp.atoms.index((a,)) for a in ("p", "q", "g")}
    for goal in (["g"], ["g", "u"], ["u"]):
        gp = model(goal)
        _check_against_reference(gp, every_state)
        assert decode(discover_landmarks(gp)) == reference_landmarks(gp)
        for banned in range(len(gp.atoms)):
            reached = relaxed_layers(gp, gp.init, banned=banned)[-1]
            assert reached == encode(reference_reachable_without(gp, banned))
    assert h("hmax", gp) == h("ff", gp) == h("hadd", gp) == INF


# -- the goal-relevant pruning of the scan ---------------------------------------


def _check_pruned_scan(gp, states):
    """h_max, h_add and FF against the references on *states*; from each
    state as the initial one, the landmarks against the reference; and,
    with each atom of a run's union banned, the full layers against the
    reference and the goal-pruned layers against the full ones cut down to
    the state plus the goal-relevant atoms and stopped at the goal."""
    _check_against_reference(gp, states)
    relevant = gp.goal_relevant
    unions = 0
    for _, _, _, union in gp.runs:
        unions |= union
    for state in states:
        start = replace(gp, init=state)
        assert decode(discover_landmarks(start)) == reference_landmarks(start)
        for banned in [None, *atom_indices(unions)]:
            full = relaxed_layers(gp, state, banned=banned)
            if banned is not None:
                assert full[-1] == encode(reference_reachable_without(start, banned))
            expected = []
            for layer in full:
                layer &= state | relevant
                if expected and layer == expected[-1]:
                    break
                expected.append(layer)
                if layer & gp.goal == gp.goal:
                    break
            assert relaxed_layers(gp, state, banned=banned, goal=gp.goal) == expected


def _wide_run_model(goal):
    # Like a join-* schema: four members in one run, each adding the shared
    # goal-relevant has plus an atom of its own that no goal needs. Only
    # join0 adds bonus, and it needs p0, which needs has: the run's scan must
    # not end at the first has while bonus is still missing.
    parts = range(4)
    actions = [(f"get p{i}", ["s"], [], [f"p{i}"], []) for i in parts[1:]]
    actions.append(("make p0", ["has"], [], ["p0"], []))
    actions += [
        (f"join {i}", ["s", f"p{i}"], [], ["has", f"x{i}", *(["bonus"] if i == 0 else [])], [])
        for i in parts
    ]
    actions.append(("use", ["has", "bonus"], [], ["g"], ["has"]))
    atoms = ["s", "has", "bonus", "g", *(f"p{i}" for i in parts), *(f"x{i}" for i in parts)]
    return make_ground_problem(atoms, actions, ["s"], goal)


def test_pruned_scan_matches_reference_on_a_wide_run():
    # every state for the goal g; every fifth for two more goals
    for goal, step in ((["g"], 1), (["has"], 5), (["g", "x2"], 5)):
        gp = _wide_run_model(goal)
        width = max(len(members) for _, _, members, _ in gp.runs)
        assert width == 4 and gp.goal_relevant != (1 << len(gp.atoms)) - 1
        n = len(gp.atoms)
        states = [encode(a for a in range(n) if bits >> a & 1) for bits in range(0, 1 << n, step)]
        _check_pruned_scan(gp, states)
    # get p1, join 1, make p0, join 0, use: has costs 2, p0 3, bonus 4
    gp = _wide_run_model(["g"])
    assert (h("hmax", gp), h("hadd", gp), h("ff", gp)) == (5.0, 7.0, 5.0)


def test_pruned_scan_matches_reference_on_grouped_models():
    rng = random.Random(1616)
    for _ in range(40):
        base = grouped_random_model(rng, n_atoms=rng.randint(5, 10), n_runs=rng.randint(2, 5))
        atoms = range(len(base.atoms))
        goal = encode(rng.sample(atoms, rng.randint(1, 3)))
        gp = GroundProblem(base.atoms, base.actions, base.init, goal)
        arbitrary = [encode(a for a in atoms if rng.random() < 0.3) for _ in range(10)]
        _check_pruned_scan(gp, _random_walk_states(gp, rng, walks=3, max_depth=6) + arbitrary)


def test_relaxed_layers_rejects_a_goal_outside_the_relevant_atoms():
    gp = _wide_run_model(["g"])
    irrelevant = encode([gp.atoms.index(("x1",))])
    assert not irrelevant & gp.goal_relevant
    with pytest.raises(InternalError, match="not goal-relevant"):
        relaxed_layers(gp, gp.init, goal=gp.goal | irrelevant)
