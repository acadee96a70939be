import hashlib
import json
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fgs import grounding
from fgs.assets import TASKS, load_task
from fgs.errors import GroundingError
from fgs.grounding import (
    GroundProblem,
    applicable,
    apply_action,
    atom_indices,
    goal_satisfied,
    ground,
    successors,
)
from fgs.pddl import parse_domain, parse_problem

from .util import (
    decode,
    encode,
    reference_applicable,
    reference_apply,
    reference_goal_satisfied,
    reference_successors,
)

JOIN_DOMAIN = """
(define (domain ww)
  (:requirements :strips :typing :negative-preconditions)
  (:types tool-part)
  (:predicates (available ?o - tool-part) (has-tool))
  (:action join-rake
    :parameters (?head - tool-part ?grip - tool-part)
    :precondition (and (available ?head) (available ?grip) (not (has-tool)))
    :effect (and (has-tool) (not (available ?head)) (not (available ?grip))))
)
"""


def join_problem(n):
    objs = " ".join(f"obj{i}" for i in range(n))
    init = " ".join(f"(available obj{i})" for i in range(n))
    return f"""
    (define (problem join-{n})
      (:domain ww)
      (:objects {objs} - tool-part)
      (:init {init})
      (:goal (has-tool))
    )
    """


def grounded_join(n):
    domain = parse_domain(JOIN_DOMAIN)
    problem = parse_problem(join_problem(n), domain)
    return ground(domain, problem)


def test_two_distinct_object_params_over_ten_objects():
    gp = grounded_join(10)
    assert len(gp.actions) == 90  # ordered pairs of distinct objects
    pairs = {a.o_a for a in gp.actions}
    assert len(pairs) == 90
    assert all(a.o_a[0] != a.o_a[1] for a in gp.actions)
    # cross-check against brute-force enumeration
    objs = [f"obj{i}" for i in range(10)]
    brute = {(x, y) for x in objs for y in objs if x != y}
    assert pairs == brute


def test_one_param_schema_counts_objects():
    text = """
    (define (domain d)
      (:requirements :strips :typing)
      (:types thing)
      (:predicates (seen ?x - thing))
      (:action look :parameters (?x - thing) :precondition (and) :effect (seen ?x))
    )
    """
    domain = parse_domain(text)
    problem = parse_problem(
        "(define (problem p) (:domain d) (:objects a b c d2 e - thing) (:init) (:goal (and)))",
        domain,
    )
    gp = ground(domain, problem)
    assert len(gp.actions) == 5


def test_static_pruning_drops_impossible_actions():
    text = """
    (define (domain d)
      (:requirements :strips :typing :negative-preconditions)
      (:types loc)
      (:predicates (at ?l - loc) (road ?a - loc ?b - loc) (blocked ?a - loc ?b - loc))
      (:action go
        :parameters (?a - loc ?b - loc)
        :precondition (and (at ?a) (road ?a ?b) (not (blocked ?a ?b)))
        :effect (and (at ?b) (not (at ?a))))
    )
    """
    domain = parse_domain(text)
    problem = parse_problem(
        """
        (define (problem p) (:domain d)
          (:objects x y z - loc)
          (:init (at x) (road x y) (road y z) (road x z) (blocked x z))
          (:goal (at z)))
        """,
        domain,
    )
    gp = ground(domain, problem)
    names = {tuple(a.name[1:-1].split()[1:]) for a in gp.actions}  # the bound objects
    assert ("x", "y") in names and ("y", "z") in names
    assert ("x", "z") not in names  # blocked: negative static precondition false forever
    assert ("y", "x") not in names  # no road: positive static precondition false forever


def reachable_atom_states(gp: GroundProblem):
    seen = {gp.init}
    frontier = deque([gp.init])
    while frontier:
        state = frontier.popleft()
        for _, succ in successors(gp, state):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return {gp.state_atoms(s) for s in seen}


def test_pruning_preserves_reachable_state_space():
    domain = parse_domain(JOIN_DOMAIN)
    problem = parse_problem(join_problem(4), domain)
    pruned = ground(domain, problem, prune_static=True)
    unpruned = ground(domain, problem, prune_static=False)
    assert reachable_atom_states(pruned) == reachable_atom_states(unpruned)


def test_explosion_guard_names_worst_schema(monkeypatch):
    domain = parse_domain(JOIN_DOMAIN)
    problem = parse_problem(join_problem(10), domain)
    monkeypatch.setattr(grounding, "MAX_GROUND_ACTIONS", 50)
    with pytest.raises(GroundingError, match="join-rake"):
        ground(domain, problem)


def test_applicable_and_apply_semantics():
    gp = grounded_join(3)
    act = gp.actions[0]
    assert applicable(gp.init, act)
    succ = apply_action(gp.init, act)
    succ_ids, init_ids = decode(succ), decode(gp.init)
    adds, dels = decode(act.adds), decode(act.dels)
    assert adds <= succ_ids
    assert not dels & succ_ids
    # frame: untouched atoms persist
    assert succ_ids - adds == init_ids - dels - adds
    # has-tool now blocks every other join
    assert not any(applicable(succ, a) for a in gp.actions)
    with pytest.raises(GroundingError):
        apply_action(succ, act)


def test_empty_precondition_always_applicable():
    text = """
    (define (domain d)
      (:requirements :strips)
      (:predicates (p))
      (:action a :parameters () :precondition (and) :effect (p))
    )
    """
    domain = parse_domain(text)
    problem = parse_problem("(define (problem q) (:domain d) (:init) (:goal (p)))", domain)
    gp = ground(domain, problem)
    assert applicable(encode(()), gp.actions[0])


def test_goal_satisfied_cases():
    gp = grounded_join(2)
    assert not goal_satisfied(gp.init, gp)
    done = apply_action(gp.init, gp.actions[0])
    assert goal_satisfied(done, gp)
    empty_goal = GroundProblem(gp.atoms, gp.actions, gp.init)
    assert goal_satisfied(gp.init, empty_goal)


def test_negative_goal_literal():
    text = """
    (define (domain d)
      (:requirements :strips :negative-preconditions)
      (:predicates (p) (q))
      (:action a :parameters () :precondition (p) :effect (and (q) (not (p))))
    )
    """
    domain = parse_domain(text)
    problem = parse_problem(
        "(define (problem r) (:domain d) (:init (p)) (:goal (and (q) (not (p)))))", domain
    )
    gp = ground(domain, problem)
    assert not goal_satisfied(gp.init, gp)
    assert goal_satisfied(apply_action(gp.init, gp.actions[0]), gp)


def test_overlapping_effects_rejected():
    text = """
    (define (domain d)
      (:requirements :strips)
      (:predicates (p ?x) (q ?x ?y))
      (:action a
        :parameters (?x ?y)
        :precondition (q ?x ?y)
        :effect (and (p ?x) (not (p ?y))))
    )
    """
    domain = parse_domain(text)
    problem = parse_problem(
        "(define (problem s) (:domain d) (:objects o1 o2) (:init (q o1 o1) (q o1 o2)) (:goal (and)))",
        domain,
    )
    with pytest.raises(GroundingError, match="overlap"):
        ground(domain, problem)


def test_atom_indexing_deterministic():
    a = grounded_join(5)
    b = grounded_join(5)
    assert a.atoms == b.atoms
    assert a.init == b.init
    assert [act.name for act in a.actions] == [act.name for act in b.actions]


# sha256 of each bundled task's grounded model: its atoms, every ground
# action's name, schema, bound objects, permutation, positive and negative
# preconditions, adds and deletes, the initial state and the goals
GROUNDED_MODEL_DIGESTS = {
    "cleaning_either": "772275dcee6295b5ae71a18f42570cb8db6e88af0166c6dd6d7066502094b70f",
    "cleaning_rake": "1259be7bf48382ffe03216659a7fc99a1cac232b2c4c49a904c960cd505f4c13",
    "cleaning_squeegee": "c29aee93e057249c6dabf46419e8d6024f32485b32686deb13860af44fdfaabf",
    "cooking_either": "222bd34d2be94c87d7fd2492336d0702c661bf01eec6a3f598051ede9dda7aa7",
    "cooking_ladle": "a9cc3a01763664a4c396d34a7dcc7fd090e23f32f6b7f3ff71fef2104f3fbc9c",
    "cooking_spatula": "77434fa4c02e0cf909a08a1de4d628505e4bb7937075a903380447097ebc8ed5",
    "woodworking_either": "f9b2cd161d4b9aaea31f01af810589d0e7ad1e7e183c3dbf32df826e49e3299c",
    "woodworking_hammer": "f55e9220e68e4e499e2f0ef3053452e0405d220133ec249762720448b999e0f1",
    "woodworking_screwdriver": "834dfe715559739fb9f9c9c511fa546fdffcf44b5ee818c6692b3fb2c0df0f6b",
}


@pytest.mark.parametrize("task_id", sorted(TASKS))
def test_grounded_model_matches_pinned_digest(task_id):
    _, _, gp = load_task(task_id)
    payload = [
        gp.atoms,
        [
            [act.name, act.schema_name, act.name[1:-1].split()[1:], act.o_a]
            + [sorted(decode(m)) for m in (act.pre, act.neg, act.adds, act.dels)]
            for act in gp.actions
        ],
        gp.init,
        sorted(decode(gp.goal)),
        sorted(decode(gp.goal_neg)),
    ]
    # sets of atom indices are written as sorted lists
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert digest == GROUNDED_MODEL_DIGESTS[task_id]


def test_frame_semantics_on_random_models():
    # atoms outside an action's effects never change across a transition
    import random

    from .util import random_model

    rng = random.Random(31)
    for _ in range(20):
        gp = random_model(rng)
        seen = [gp.init]
        for _ in range(30):
            state = rng.choice(seen)
            succs = list(successors(gp, state))
            if not succs:
                continue
            idx, succ = rng.choice(succs)
            act = gp.actions[idx]
            adds, dels = decode(act.adds), decode(act.dels)
            touched = adds | dels
            succ_ids, state_ids = decode(succ), decode(state)
            assert succ_ids - touched == state_ids - touched
            assert adds <= succ_ids and not (dels & succ_ids)
            seen.append(succ)


# -- the bitset encoding against the naive frozenset references ------------------


@given(st.integers(min_value=0, max_value=2**700))
@example(0)
@example(1 << 0)
@example(1 << 7)
@example(1 << 8)
@example(1 << 699)
@example((1 << 160) - 1)
def test_atom_indices_lists_the_set_bits(state):
    assert atom_indices(state) == [i for i in range(state.bit_length()) if state >> i & 1]


def _check_state_against_reference(gp, state, ref_state, probe, cache=None):
    """Every transition function on the bitset *state* agrees with the
    frozenset reference on *ref_state*, the same state; *probe* picks the
    actions checked one by one with applicable and apply_action. With a
    successor *cache*, *state* must not be a key yet: the pairs it caches
    are checked, and so is each successor that was already a key, which
    must be stored as that key's own object. Returns the reference
    successors."""
    assert gp.state_atoms(state) == frozenset(gp.atoms[i] for i in ref_state)
    assert atom_indices(state) == sorted(ref_state)
    assert goal_satisfied(state, gp) == reference_goal_satisfied(ref_state, gp)
    want = reference_successors(gp, ref_state)
    pairs = [(idx, encode(succ)) for idx, succ in want]
    if cache is None:
        assert list(successors(gp, state)) == pairs
    else:
        assert state not in cache
        expanded = {succ: cache[succ][-1] for _, succ in pairs if succ in cache}
        for _ in range(2):  # the miss that caches the pairs, then a hit
            got = list(successors(gp, state, cache))
            assert got == pairs
            assert all(succ is expanded[succ] for _, succ in got if succ in expanded)
        assert cache[state][-1] is state
    for idx in probe:
        act = gp.actions[idx]
        ok = reference_applicable(ref_state, act)
        assert applicable(state, act) == ok
        if ok:
            assert apply_action(state, act) == encode(reference_apply(ref_state, act))
        else:
            with pytest.raises(GroundingError):
                apply_action(state, act)
    return want


def _walk_reachable_against_reference(gp, probe_stride):
    """Breadth-first over every reachable state, expanded by the frozenset
    reference, with one successor cache shared by the whole walk; returns
    the number of states checked. Each state probes every
    *probe_stride*-th action, offset by the state's index, so every action
    is probed on many states."""
    init = decode(gp.init)
    seen = {init}
    frontier = deque([init])
    n_actions = len(gp.actions)
    cache: dict = {}
    while frontier:
        ref_state = frontier.popleft()
        probe = range(len(seen) % probe_stride, n_actions, probe_stride)
        state = encode(ref_state)
        for _, succ in _check_state_against_reference(gp, state, ref_state, probe, cache):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return len(seen)


@pytest.mark.parametrize("task_id", sorted(TASKS))
def test_bitset_matches_reference_on_every_reachable_state(task_id):
    _, _, gp = load_task(task_id)
    assert _walk_reachable_against_reference(gp, probe_stride=16) > 1000


def test_bitset_matches_reference_on_random_models():
    import random

    from .util import random_model

    rng = random.Random(77)
    for _ in range(60):
        gp = random_model(rng, n_atoms=rng.randint(5, 10), n_actions=rng.randint(6, 20))
        _walk_reachable_against_reference(gp, probe_stride=1)
        # arbitrary states, and goals with negative literals
        atoms = range(len(gp.atoms))
        for _ in range(20):
            ref_state = frozenset(a for a in atoms if rng.random() < 0.4)
            goal_pos = frozenset(a for a in atoms if rng.random() < 0.2)
            goal_neg = frozenset(a for a in atoms if a not in goal_pos and rng.random() < 0.2)
            goal_gp = GroundProblem(gp.atoms, gp.actions, gp.init, encode(goal_pos), encode(goal_neg))
            _check_state_against_reference(goal_gp, encode(ref_state), ref_state, range(len(gp.actions)))


def test_guarded_scan_matches_reference_on_grouped_models():
    # random_model gives every action its own schema; here runs of actions
    # share guards, and some of their actions can never apply
    import random

    from .util import grouped_random_model

    rng = random.Random(53)
    shared = never = 0
    for _ in range(80):
        gp = grouped_random_model(rng, n_atoms=rng.randint(5, 10), n_runs=rng.randint(2, 5))
        shared += sum(len(members) > 1 for _, _, members, _ in gp.runs)
        never += sum(1 for act in gp.actions if act.pre & act.neg)
        _walk_reachable_against_reference(gp, probe_stride=1)
        atoms = range(len(gp.atoms))
        for _ in range(40):
            ref_state = frozenset(a for a in atoms if rng.random() < 0.4)
            _check_state_against_reference(gp, encode(ref_state), ref_state, range(len(gp.actions)))
    assert shared > 100 and never > 20


def test_successor_cache_footprint_per_edge():
    # The cache keeps one flat tuple (i0, s0, i1, s1, ..., state) per
    # expanded state and stores an edge into a state already expanded as
    # that state's own int: about 66 bytes per cached edge over the whole
    # reachable space of cooking_either on CPython 3.11, against 75 with
    # the flat tuple alone, 86 with two tuples (indices, states) and 127
    # with one (index, state) tuple per edge.
    _, _, gp = load_task("cooking_either")
    gp.runs  # built before tracing starts: the model is not the cache
    cache: dict = {}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seen = {gp.init}
        frontier = deque(seen)
        while frontier:
            for _, succ in successors(gp, frontier.popleft(), cache):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        del seen, frontier
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    edges = sum(len(entry) // 2 for entry in cache.values())
    assert (len(cache), edges) == (14_608, 115_407)
    assert used / edges <= 75, f"{used / edges:.1f} bytes per cached edge"
