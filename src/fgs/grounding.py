"""Grounding a typed STRIPS domain/problem into a propositional model.

A state is an int bitset over the atoms: bit i is set exactly when atom i
holds, and GroundProblem.state_atoms decodes it. Actions keep their
preconditions and effects as frozensets of atom indices; the problem derives
bit masks from them. Atom indexing is lexicographic over the atom tuples, so
two runs over the same inputs produce bit-identical models. Object
parameters of join actions must bind distinct objects (an ordered
permutation); other parameters may repeat freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import groupby, product
from operator import and_

from .errors import GroundingError
from .pddl import Atom, DomainDef, Literal, ProblemDef

State = int  # bit i set iff atom i holds

DEFAULT_MAX_GROUND_ACTIONS = 200_000


def mask(atoms) -> State:
    """The bitset of the atom indices in *atoms*."""
    bits = 0
    for atom in atoms:
        bits |= 1 << atom
    return bits


@cache
def _byte_atoms(position: int) -> tuple[tuple[int, ...], ...]:
    """Per byte value, the atom indices that byte sets at byte *position*."""
    base = 8 * position
    return tuple(tuple(base + i for i in range(8) if value >> i & 1) for value in range(256))


def atom_indices(state: State) -> list[int]:
    """The indices of the atoms *state* holds, in ascending order."""
    out: list[int] = []
    for position, byte in enumerate(state.to_bytes((state.bit_length() + 7) // 8, "little")):
        if byte:
            out.extend(_byte_atoms(position)[byte])
    return out


@dataclass(frozen=True)
class GroundAction:
    name: str  # pretty form: "(schema obj ...)"
    schema_name: str
    bound_objects: tuple[str, ...]
    o_a: tuple[str, ...]  # ordered object permutation; empty for non-tool actions
    pre_pos: frozenset[int]
    pre_neg: frozenset[int]
    adds: frozenset[int]
    dels: frozenset[int]


@dataclass(frozen=True)
class GroundProblem:
    atoms: tuple[Atom, ...]
    atom_ids: dict[Atom, int] = field(compare=False)
    actions: tuple[GroundAction, ...] = ()
    init: State = 0
    goal_pos: frozenset[int] = frozenset()
    goal_neg: frozenset[int] = frozenset()

    @cached_property
    def goal_mask(self) -> State:
        return mask(self.goal_pos)

    @cached_property
    def goal_neg_mask(self) -> State:
        return mask(self.goal_neg)

    @cached_property
    def successor_runs(self) -> tuple[tuple[State, State, tuple], ...]:
        """The actions as successors scans them: one (guard, guard_pre,
        members) per run of consecutive actions of one schema. A state
        passes the guard, state & guard == guard_pre, exactly when it holds
        every positive and no negative precondition that all the run's
        actions share. Each member is (index, pre | neg, pre, keep, adds):
        the action applies exactly when state & (pre | neg) == pre, and keep
        clears the atoms it deletes. An action whose positive and negative
        preconditions overlap never applies, so no run holds it."""
        masks = self.relaxed_masks
        runs = []
        for _, group in groupby(enumerate(self.actions), key=lambda item: item[1].schema_name):
            members = tuple(
                (idx, pre | mask(act.pre_neg), pre, ~mask(act.dels), adds)
                for idx, act in group
                if not act.pre_pos & act.pre_neg
                for pre, adds in (masks[idx],)
            )
            if members:
                guard_pre = reduce(and_, (pre for _, _, pre, _, _ in members))
                guard_neg = reduce(and_, (test ^ pre for _, test, pre, _, _ in members))
                runs.append((guard_pre | guard_neg, guard_pre, members))
        return tuple(runs)

    @cached_property
    def relaxed_masks(self) -> tuple[tuple[State, State], ...]:
        """Per action, (pre, adds): the masks of its positive preconditions
        and of its adds, all the delete relaxation reads of it.
        successor_runs holds these same int objects."""
        return tuple((mask(act.pre_pos), mask(act.adds)) for act in self.actions)

    @cached_property
    def relaxed_runs(self) -> tuple[tuple[State, tuple[tuple[State, State], ...]], ...]:
        """The actions as the relaxed exploration scans them: one (guard,
        members) per run of consecutive actions of one schema, where members
        are the actions' relaxed_masks and the guard is the AND of their
        pre masks. A state that fails the guard enables none of the run.
        Unlike successor_runs it keeps every action: the relaxation ignores
        negative preconditions, so overlapping ones do not stop an action."""
        masks = self.relaxed_masks
        runs = []
        for _, group in groupby(enumerate(self.actions), key=lambda item: item[1].schema_name):
            members = tuple(masks[idx] for idx, _ in group)
            runs.append((reduce(and_, (pre for pre, _ in members)), members))
        return tuple(runs)

    @cached_property
    def goal_relevant(self) -> State:
        """The mask of the goal-relevant atoms: the positive goal atoms
        closed backwards over the positive preconditions of their achievers.
        An action that adds a relevant atom has only relevant preconditions,
        so the additive cost of a goal atom never reads the cost of an
        irrelevant one."""
        relevant = set(self.goal_pos)
        stack = list(relevant)
        while stack:
            for idx in self.achievers[stack.pop()]:
                fresh = self.actions[idx].pre_pos - relevant
                relevant |= fresh
                stack += fresh
        return mask(relevant)

    @cached_property
    def relevant_adds(self) -> tuple[tuple[int, ...], ...]:
        """Per action, the goal-relevant atoms it adds, in ascending order."""
        relevant = self.goal_relevant
        return tuple(tuple(atom_indices(adds & relevant)) for _, adds in self.relaxed_masks)

    @cached_property
    def joins(self) -> tuple[dict[str, int], frozenset[str]]:
        """The join schemas, each with the number of tool parts its
        groundings bind, and every object some join binds."""
        parts = {act.schema_name: len(act.o_a) for act in self.actions if act.o_a}
        return parts, frozenset(obj for act in self.actions for obj in act.o_a)

    @cached_property
    def consumers(self) -> tuple[tuple[int, ...], ...]:
        """Per atom, the indices of actions with it as a positive precondition."""
        return self._index_by_atom(lambda act: act.pre_pos)

    @cached_property
    def achievers(self) -> tuple[tuple[int, ...], ...]:
        """Per atom, the indices of actions that add it, in ascending order."""
        return self._index_by_atom(lambda act: act.adds)

    @cached_property
    def precondition_free(self) -> tuple[int, ...]:
        """Indices of actions with no positive precondition."""
        return tuple(idx for idx, act in enumerate(self.actions) if not act.pre_pos)

    @cached_property
    def precondition_counts(self) -> tuple[int, ...]:
        """Per action, the number of its positive preconditions."""
        return tuple(len(act.pre_pos) for act in self.actions)

    def _index_by_atom(self, atoms_of) -> tuple[tuple[int, ...], ...]:
        index: list[list[int]] = [[] for _ in self.atoms]
        for idx, act in enumerate(self.actions):
            for atom in atoms_of(act):
                index[atom].append(idx)
        return tuple(map(tuple, index))

    def state_atoms(self, state: State) -> frozenset[Atom]:
        return frozenset(self.atoms[i] for i in atom_indices(state))


def applicable(state: State, action: GroundAction) -> bool:
    pre = mask(action.pre_pos)
    return state & pre == pre and not state & mask(action.pre_neg)


def apply_action(state: State, action: GroundAction) -> State:
    """Transition function; the caller must ensure applicability."""
    if not applicable(state, action):
        raise GroundingError(f"action {action.name} is not applicable in this state")
    return state & ~mask(action.dels) | mask(action.adds)


def goal_satisfied(state: State, gp: GroundProblem) -> bool:
    goal = gp.goal_mask
    return state & goal == goal and not state & gp.goal_neg_mask


def successors(gp: GroundProblem, state: State, cache: dict | None = None):
    """All (action_index, next_state) pairs, in action-index order. The
    scan goes run by run through gp.successor_runs and skips each run whose
    guard *state* fails.

    An optional cache dict may be shared by searches over the same problem;
    it stores raw successors with no search-specific filtering, under the
    integer state. The heuristics keep their tables in the same dict under
    string keys (heuristics.make_heuristic).
    """
    if cache is not None:
        hit = cache.get(state)
        if hit is not None:
            return hit
    out = []
    for guard, guard_pre, members in gp.successor_runs:
        if state & guard == guard_pre:
            out += [(idx, state & keep | adds)
                    for idx, test, pre, keep, adds in members if state & test == pre]
    if cache is not None:
        cache[state] = out
    return out


def _bind(lit: Literal, binding: dict[str, str]) -> Atom:
    return (lit.predicate, *(binding[a] for a in lit.args))


def ground(
    domain: DomainDef,
    problem: ProblemDef,
    *,
    prune_static: bool = True,
    max_ground_actions: int = DEFAULT_MAX_GROUND_ACTIONS,
) -> GroundProblem:
    """Enumerate all type-consistent ground actions and index the atoms.

    One pass over each schema's groundings counts, guards, prunes and binds
    them. The explosion guard counts every type-consistent grounding, pruned
    or not, and raises once the total passes *max_ground_actions*, naming
    the schema with the most groundings. Static pruning drops actions whose
    static preconditions can never hold and strips always-satisfied static
    conditions; it never changes the reachable state space. A grounding
    whose add and delete effects overlap raises as soon as it is bound.
    """
    objects_by_type: dict[str, list[str]] = {"object": []}
    for obj, typ in problem.objects:
        objects_by_type.setdefault(typ, []).append(obj)
        objects_by_type["object"].append(obj)

    fluent_preds = {
        lit.predicate
        for schema in domain.action_schemas
        for lit in (*schema.add_effects, *schema.del_effects)
    }

    init_atoms = set(problem.init)
    bound: list[tuple] = []  # (schema, combo, pre_pos, pre_neg, adds, dels), over atoms
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
            if total > max_ground_actions:
                worst = max(per_schema, key=per_schema.get, default=schema.name)
                if per_schema.get(worst, 0) < count:
                    worst = schema.name
                raise GroundingError(
                    f"ground action count exceeds {max_ground_actions}; "
                    f"worst schema: '{worst}'"
                )
            binding = dict(zip(variables, combo))
            pre_pos, pre_neg = [], []
            for lit in schema.preconditions:
                atom = _bind(lit, binding)
                if prune_static and lit.predicate not in fluent_preds:
                    # a static atom holds in every state exactly when it holds in init
                    if (atom in init_atoms) == lit.negated:
                        break  # statically false forever
                    continue  # statically true forever
                (pre_neg if lit.negated else pre_pos).append(atom)
            else:
                adds = {_bind(lit, binding) for lit in schema.add_effects}
                dels = {_bind(lit, binding) for lit in schema.del_effects}
                overlap = adds & dels
                if overlap:
                    raise GroundingError(
                        f"schema '{schema.name}' grounds to overlapping add/delete effects "
                        f"for {combo}: {sorted(overlap)}"
                    )
                bound.append((schema, combo, pre_pos, pre_neg, adds, dels))
        per_schema[schema.name] = count

    universe: set[Atom] = set(problem.init)
    universe.update(lit.atom() for lit in problem.goal)
    for _, _, *atom_lists in bound:
        for atom_list in atom_lists:
            universe.update(atom_list)
    atoms = tuple(sorted(universe))
    atom_ids = {atom: i for i, atom in enumerate(atoms)}

    def ids(atoms_iter) -> frozenset[int]:
        return frozenset(atom_ids[a] for a in atoms_iter)

    ground_actions = tuple(
        GroundAction(
            name="(" + " ".join((schema.name, *combo)) + ")",
            schema_name=schema.name,
            bound_objects=combo,
            o_a=tuple(combo[i] for i in schema.object_param_indices),
            pre_pos=ids(pre_pos),
            pre_neg=ids(pre_neg),
            adds=ids(adds),
            dels=ids(dels),
        )
        for schema, combo, pre_pos, pre_neg, adds, dels in bound
    )
    goal_pos = ids(lit.atom() for lit in problem.goal if not lit.negated)
    goal_neg = ids(lit.atom() for lit in problem.goal if lit.negated)
    return GroundProblem(
        atoms=atoms,
        atom_ids=atom_ids,
        actions=ground_actions,
        init=mask(ids(problem.init)),
        goal_pos=goal_pos,
        goal_neg=goal_neg,
    )
