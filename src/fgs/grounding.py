"""Grounding a typed STRIPS domain/problem into a propositional model.

A set of atoms is an int bit mask: bit i is set exactly when atom i is in
the set. A state is such a mask, and so are each ground action's
preconditions and effects and the goal; GroundProblem.state_atoms decodes a
state. Atom indexing is lexicographic over the atom tuples, so two runs
over the same inputs produce bit-identical models. Object parameters of
join actions must bind distinct objects (an ordered permutation); other
parameters may repeat freely.

successors yields (action index, successor) pairs. Its successor table, the
cache searches share, keeps one flat tuple per expanded state, the pairs
and then the state. An edge into a state already expanded is stored as
that state's own int, so it costs two tuple slots and no new int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby, product
from operator import and_, or_

from .errors import GroundingError
from .pddl import Atom, DomainDef, Literal, ProblemDef

State = int  # bit i set iff atom i holds

MAX_GROUND_ACTIONS = 200_000  # the explosion guard of ground()


def atom_indices(state: State) -> list[int]:
    """The indices of the atoms *state* holds, in ascending order, one set
    bit at a time. *state* must be nonnegative, or the loop never ends; the
    negative ``~dels`` masks of ``GroundProblem.runs`` are never decoded."""
    out: list[int] = []
    while state:
        low = state & -state
        out.append(low.bit_length() - 1)
        state ^= low
    return out


@dataclass(frozen=True)
class GroundAction:
    name: str  # pretty form: "(schema obj ...)"
    schema_name: str
    o_a: tuple[str, ...]  # ordered object permutation; empty for non-tool actions
    pre: State  # positive preconditions
    neg: State  # negative preconditions
    adds: State
    dels: State


@dataclass(frozen=True)
class GroundProblem:
    atoms: tuple[Atom, ...]
    actions: tuple[GroundAction, ...] = ()
    init: State = 0
    goal: State = 0  # atoms the goal requires
    goal_neg: State = 0  # atoms the goal forbids

    @cached_property
    def runs(self) -> tuple[tuple[State, State, tuple, State], ...]:
        """The one scan index over the actions: a (guard, guard_pre, members,
        union) per run of consecutive actions of one schema. Each member is
        (index, pre ^ neg, pre, ~dels, adds); the action applies exactly when
        state & (pre ^ neg) == pre, which no state passes when pre and neg
        overlap. guard_pre is the AND of the members' pre, and a state that
        applies a member passes state & guard == guard_pre, where the guard
        adds the negative preconditions all members share. successors tests
        the full guard; the delete relaxation, which ignores negative
        preconditions, tests state & guard_pre == guard_pre, and skips a run
        once its union, the OR of the members' adds, holds no atom it still
        needs."""
        runs = []
        for _, group in groupby(enumerate(self.actions), key=lambda item: item[1].schema_name):
            acts = list(group)
            members = tuple((idx, act.pre ^ act.neg, act.pre, ~act.dels, act.adds)
                            for idx, act in acts)
            guard_pre = reduce(and_, (act.pre for _, act in acts))
            guard_neg = reduce(and_, (act.neg for _, act in acts))
            union = reduce(or_, (act.adds for _, act in acts))
            runs.append((guard_pre | guard_neg, guard_pre, members, union))
        return tuple(runs)

    @cached_property
    def goal_relevant(self) -> State:
        """The mask of the goal-relevant atoms: the goal atoms closed
        backwards over the positive preconditions of their achievers. An
        action that adds a relevant atom has only relevant preconditions, so
        the additive cost of a goal atom never reads the cost of an
        irrelevant one."""
        relevant = self.goal
        stack = atom_indices(relevant)
        while stack:
            for idx in self.achievers[stack.pop()]:
                fresh = self.actions[idx].pre & ~relevant
                relevant |= fresh
                stack += atom_indices(fresh)
        return relevant

    @cached_property
    def joins(self) -> tuple[frozenset[str], frozenset[str]]:
        """The join schemas that have groundings, and every object some
        join binds."""
        schemas = frozenset(act.schema_name for act in self.actions if act.o_a)
        return schemas, frozenset(obj for act in self.actions for obj in act.o_a)

    @cached_property
    def consumers(self) -> tuple[tuple[tuple[int, State, tuple[int, ...]], ...], ...]:
        """Per atom, an (index, pre, relevant adds) for each action that has
        it as a positive precondition and adds a goal-relevant atom; the
        relevant adds are those atoms' indices in ascending order."""
        relevant = self.goal_relevant
        index: list[list[tuple]] = [[] for _ in self.atoms]
        for idx, act in enumerate(self.actions):
            adds = act.adds & relevant
            if adds:
                entry = (idx, act.pre, tuple(atom_indices(adds)))
                for atom in atom_indices(act.pre):
                    index[atom].append(entry)
        return tuple(map(tuple, index))

    @cached_property
    def achievers(self) -> tuple[tuple[int, ...], ...]:
        """Per atom, the indices of actions that add it, in ascending order."""
        index: list[list[int]] = [[] for _ in self.atoms]
        for idx, act in enumerate(self.actions):
            for atom in atom_indices(act.adds):
                index[atom].append(idx)
        return tuple(map(tuple, index))

    def state_atoms(self, state: State) -> frozenset[Atom]:
        return frozenset(self.atoms[i] for i in atom_indices(state))


def applicable(state: State, action: GroundAction) -> bool:
    return state & action.pre == action.pre and not state & action.neg


def apply_action(state: State, action: GroundAction) -> State:
    """Transition function: the successor of *state* under *action*.
    Raises GroundingError when *action* is not applicable in *state*."""
    if not applicable(state, action):
        raise GroundingError(f"action {action.name} is not applicable in this state")
    return state & ~action.dels | action.adds


def goal_satisfied(state: State, gp: GroundProblem) -> bool:
    return state & gp.goal == gp.goal and not state & gp.goal_neg


def successors(gp: GroundProblem, state: State, cache: dict | None = None):
    """The successors of *state*: an iterator of (action index, successor
    state) pairs in action-index order. The scan goes run by run through
    gp.runs and skips each run whose guard *state* fails.

    An optional cache dict may be shared by searches over the same problem.
    Under the integer state it stores one flat tuple (i0, s0, i1, s1, ...,
    state), the pairs with no search-specific filtering and then the state
    itself. A successor that is already a key when its edge is cached is
    stored as that key's own object, the last item of its entry, so such
    edges share one int instead of holding an equal copy each. The
    heuristics live in the same dict under their names
    (heuristics.make_heuristic).
    """
    if cache is None:
        cache = {}
    entry = cache.get(state)
    if entry is None:
        known = cache.get
        flat: list = []
        for guard, guard_pre, members, _ in gp.runs:
            if state & guard == guard_pre:
                for idx, test, pre, keep, adds in members:
                    if state & test == pre:
                        succ = state & keep | adds
                        hit = known(succ)
                        flat += idx, succ if hit is None else hit[-1]
        flat.append(state)
        entry = cache[state] = tuple(flat)
    it = iter(entry)
    return zip(it, it)  # stops before the trailing state


def _bind(lit: Literal, binding: dict[str, str]) -> Atom:
    return (lit.predicate, *(binding[a] for a in lit.args))


def ground(
    domain: DomainDef,
    problem: ProblemDef,
    *,
    prune_static: bool = True,
) -> GroundProblem:
    """Enumerate all type-consistent ground actions and index the atoms.

    One pass over each schema's groundings counts, guards, prunes and binds
    them. The explosion guard counts every type-consistent grounding, pruned
    or not, and raises once the total passes MAX_GROUND_ACTIONS, naming
    the schema with the most groundings. Static pruning drops actions whose
    static preconditions can never hold and strips always-satisfied static
    conditions; it never changes the reachable state space. A grounding
    whose add and delete effects overlap raises as soon as it is bound.
    """
    objects_by_type: dict[str, list[str]] = {"object": []}
    for obj, typ in problem.objects:
        if typ != "object":
            objects_by_type.setdefault(typ, []).append(obj)
        objects_by_type["object"].append(obj)

    fluent_preds = {
        lit.predicate
        for schema in domain.action_schemas
        for lit in (*schema.add_effects, *schema.del_effects)
    }

    init_atoms = set(problem.init)
    bound: list[tuple] = []  # (schema, combo, pre, neg, adds, dels), over atoms
    per_schema: dict[str, int] = {}
    total = 0
    for schema in domain.action_schemas:
        domains = [objects_by_type.get(typ, []) for _, typ in schema.params]
        variables = [var for var, _ in schema.params]
        count = 0
        for combo in product(*domains):
            if schema.object_param_indices:
                picked = [combo[i] for i in schema.object_param_indices]
                if len(set(picked)) != len(picked):
                    continue
            count += 1
            total += 1
            if total > MAX_GROUND_ACTIONS:
                worst = max(per_schema, key=per_schema.get, default=schema.name)
                if per_schema.get(worst, 0) < count:
                    worst = schema.name
                raise GroundingError(
                    f"ground action count exceeds {MAX_GROUND_ACTIONS}; "
                    f"worst schema: '{worst}'"
                )
            binding = dict(zip(variables, combo))
            pre, neg = [], []
            for lit in schema.preconditions:
                atom = _bind(lit, binding)
                if prune_static and lit.predicate not in fluent_preds:
                    # a static atom holds in every state exactly when it holds in init
                    if (atom in init_atoms) == lit.negated:
                        break  # statically false forever
                    continue  # statically true forever
                (neg if lit.negated else pre).append(atom)
            else:
                adds = {_bind(lit, binding) for lit in schema.add_effects}
                dels = {_bind(lit, binding) for lit in schema.del_effects}
                overlap = adds & dels
                if overlap:
                    raise GroundingError(
                        f"schema '{schema.name}' grounds to overlapping add/delete effects "
                        f"for {combo}: {sorted(overlap)}"
                    )
                bound.append((schema, combo, pre, neg, adds, dels))
        per_schema[schema.name] = count

    universe: set[Atom] = set(problem.init)
    universe.update(lit.atom() for lit in problem.goal)
    for _, _, *atom_lists in bound:
        for atom_list in atom_lists:
            universe.update(atom_list)
    atoms = tuple(sorted(universe))
    atom_ids = {atom: i for i, atom in enumerate(atoms)}

    def mask(atoms_iter) -> State:
        bits = 0
        for atom in atoms_iter:
            bits |= 1 << atom_ids[atom]
        return bits

    ground_actions = tuple(
        GroundAction(
            name="(" + " ".join((schema.name, *combo)) + ")",
            schema_name=schema.name,
            o_a=tuple(combo[i] for i in schema.object_param_indices),
            pre=mask(pre),
            neg=mask(neg),
            adds=mask(adds),
            dels=mask(dels),
        )
        for schema, combo, pre, neg, adds, dels in bound
    )
    return GroundProblem(
        atoms=atoms,
        actions=ground_actions,
        init=mask(problem.init),
        goal=mask(lit.atom() for lit in problem.goal if not lit.negated),
        goal_neg=mask(lit.atom() for lit in problem.goal if lit.negated),
    )
