"""STRIPS-subset PDDL: parsing and validation.

Supported requirements: :strips, :typing (flat type list, no hierarchy),
:negative-preconditions. Everything else (quantifiers, conditional effects,
disjunctions, numeric fluents, derived predicates) is rejected with an
explicit "unsupported feature" diagnostic carrying line/column.

Keywords are case-insensitive; identifiers are case-preserving and compared
exactly as written.

Schemas whose name starts with ``join-`` designate their ``tool-part``-typed
parameters, in declaration order, as the ordered object permutation the
action consumes (action part first, grasp part second).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import PddlParseError, ValidationError

# Type name that marks parameters eligible for object-permutation semantics.
OBJECT_PARAM_TYPE = "tool-part"
JOIN_SCHEMA_PREFIX = "join-"

SUPPORTED_REQUIREMENTS = (":strips", ":typing", ":negative-preconditions")

_UNSUPPORTED_HEADS = {
    "or": "disjunctive formulas",
    "imply": "implications",
    "when": "conditional effects",
    "forall": "universal quantification",
    "exists": "existential quantification",
    "increase": "numeric fluents",
    "decrease": "numeric fluents",
    "assign": "numeric fluents",
    "scale-up": "numeric fluents",
    "scale-down": "numeric fluents",
    "=": "equality/numeric fluents",
    ">": "numeric fluents",
    "<": "numeric fluents",
    ">=": "numeric fluents",
    "<=": "numeric fluents",
}

Atom = tuple[str, ...]  # (predicate, arg, ...)


def read_pddl(path) -> str:
    """The text of a PDDL file; bytes that are not UTF-8 are a parse error."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PddlParseError(f"{path.name}: not UTF-8 text: {exc}") from None


# -- s-expression layer -------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int
    col: int


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


def _read_sexprs(text: str) -> list:
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


def _head(node: SList) -> str:
    if not node.items or not isinstance(node.items[0], Symbol):
        return ""
    return node.items[0].text.lower()


def _expect_symbol(node, what: str) -> Symbol:
    if not isinstance(node, Symbol):
        pos = (node.line, node.col) if isinstance(node, SList) else (None, None)
        raise PddlParseError(f"expected {what}", *pos)
    return node


def _header_symbol(node: SList, what: str) -> Symbol:
    """The symbol after the keyword in a header form such as (domain <name>)."""
    if len(node.items) < 2:
        raise PddlParseError(f"missing {what}", node.line, node.col)
    return _expect_symbol(node.items[1], what)


def _define(text: str, kind: str) -> tuple[SList, str]:
    """The single (define (<kind> <name>) ...) form of *text* and its name;
    the sections follow the header at items[2:]."""
    forms = _read_sexprs(text)
    if len(forms) != 1 or not isinstance(forms[0], SList):
        raise PddlParseError("expected a single (define ...) form")
    define = forms[0]
    if _head(define) != "define":
        raise PddlParseError("expected (define ...)", define.line, define.col)
    body = define.items[1:]
    if not body or not isinstance(body[0], SList) or _head(body[0]) != kind:
        raise PddlParseError(f"expected ({kind} <name>)", define.line, define.col)
    return define, _header_symbol(body[0], f"{kind} name").text


# -- model types ---------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type)

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class Literal:
    predicate: str
    args: tuple[str, ...]
    negated: bool = False

    def atom(self) -> Atom:
        return (self.predicate, *self.args)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]  # ordered (variable, type)
    preconditions: tuple[Literal, ...]  # mixed positive/negative, over params
    add_effects: tuple[Literal, ...]
    del_effects: tuple[Literal, ...]
    object_param_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class DomainDef:
    name: str
    types: tuple[str, ...]
    predicates: tuple[Predicate, ...]
    action_schemas: tuple[ActionSchema, ...]

    def predicate(self, name: str) -> Predicate | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class ProblemDef:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # ordered (constant, type)
    init: frozenset[Atom]
    goal: tuple[Literal, ...]  # ground literals


# -- parsing: shared pieces ----------------------------------------------------


def _parse_typed_list(items, *, variables: bool, what: str) -> list[tuple[str, str]]:
    """Parse ``a b - t c d - u e`` into [(name, type), ...]; untyped -> object."""
    out: list[tuple[str, str]] = []
    pending: list[Symbol] = []
    i = 0
    items = list(items)
    while i < len(items):
        node = items[i]
        sym = _expect_symbol(node, f"identifier in {what}")
        if sym.text == "-":
            if not pending:
                raise PddlParseError(f"dangling '-' in {what}", sym.line, sym.col)
            if i + 1 >= len(items):
                raise PddlParseError(f"missing type after '-' in {what}", sym.line, sym.col)
            typ = _expect_symbol(items[i + 1], "type name")
            if typ.text.startswith("?"):
                raise PddlParseError("type name may not be a variable", typ.line, typ.col)
            for name in pending:
                out.append((name.text, typ.text))
            pending = []
            i += 2
            continue
        if variables and not sym.text.startswith("?"):
            raise PddlParseError(f"expected variable in {what}, got '{sym.text}'", sym.line, sym.col)
        if not variables and sym.text.startswith("?"):
            raise PddlParseError(f"unexpected variable in {what}", sym.line, sym.col)
        pending.append(sym)
        i += 1
    for name in pending:
        out.append((name.text, "object"))
    return out


def _parse_atom(node: SList, *, what: str) -> Literal:
    if not node.items:
        raise PddlParseError(f"empty atom in {what}", node.line, node.col)
    head = _expect_symbol(node.items[0], "predicate name")
    low = head.text.lower()
    if low in _UNSUPPORTED_HEADS:
        raise PddlParseError(
            f"unsupported feature: {_UNSUPPORTED_HEADS[low]} ('{head.text}')", head.line, head.col
        )
    args = []
    for arg in node.items[1:]:
        sym = _expect_symbol(arg, "atom argument")
        args.append(sym.text)
    return Literal(head.text, tuple(args))


def _parse_formula(node, *, what: str, allow_negation: bool) -> list[Literal]:
    """Flatten a conjunction into literals, left to right; reject unsupported
    constructs. Nested conjunctions are walked with an explicit stack, so
    nesting depth is not bounded by the interpreter's recursion limit."""
    out: list[Literal] = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Symbol):
            raise PddlParseError(f"expected formula in {what}", node.line, node.col)
        head = _head(node)
        if head == "and":
            stack.extend(reversed(node.items[1:]))
        elif head == "not":
            if not allow_negation:
                raise PddlParseError(f"negation not allowed in {what}", node.line, node.col)
            if len(node.items) != 2 or not isinstance(node.items[1], SList):
                raise PddlParseError("'not' takes exactly one atom", node.line, node.col)
            out.append(replace(_parse_atom(node.items[1], what=what), negated=True))
        elif head in _UNSUPPORTED_HEADS:
            raise PddlParseError(
                f"unsupported feature: {_UNSUPPORTED_HEADS[head]} ('{head}')", node.line, node.col
            )
        elif node.items:  # () and (and) both mean the empty conjunction
            out.append(_parse_atom(node, what=what))
    return out


# -- domain parsing ------------------------------------------------------------


def parse_domain(text: str) -> DomainDef:
    """Parse a PDDL domain file into a validated DomainDef."""
    define, name = _define(text, "domain")

    types: list[str] = []
    predicates: list[Predicate] = []
    schemas: list[ActionSchema] = []

    for section in define.items[2:]:
        if not isinstance(section, SList) or not section.items:
            raise PddlParseError("expected a (:section ...) form", define.line, define.col)
        kw = _head(section)
        if kw == ":requirements":
            for req in section.items[1:]:
                sym = _expect_symbol(req, "requirement flag")
                if sym.text.lower() not in SUPPORTED_REQUIREMENTS:
                    raise PddlParseError(
                        f"unsupported feature: requirement {sym.text}", sym.line, sym.col
                    )
        elif kw == ":types":
            for entry in _parse_typed_list(section.items[1:], variables=False, what=":types"):
                tname, parent = entry
                if parent != "object":
                    raise PddlParseError(
                        f"unsupported feature: type hierarchy ('{tname} - {parent}')",
                        section.line,
                        section.col,
                    )
                types.append(tname)
        elif kw == ":predicates":
            for pred in section.items[1:]:
                if not isinstance(pred, SList) or not pred.items:
                    raise PddlParseError("malformed predicate declaration", section.line, section.col)
                pname = _expect_symbol(pred.items[0], "predicate name").text
                params = _parse_typed_list(pred.items[1:], variables=True, what="predicate parameters")
                predicates.append(Predicate(pname, tuple(params)))
        elif kw == ":action":
            schemas.append(_parse_action(section))
        elif kw in (":constants", ":functions", ":derived", ":axiom"):
            raise PddlParseError(f"unsupported feature: {kw} section", section.line, section.col)
        else:
            raise PddlParseError(f"unknown domain section '{kw}'", section.line, section.col)

    domain = DomainDef(name, tuple(types), tuple(predicates), tuple(schemas))
    _validate_domain(domain)
    return _designate_join_schemas(domain)


def _parse_action(section: SList) -> ActionSchema:
    items = list(section.items[1:])
    if not items:
        raise PddlParseError("missing action name", section.line, section.col)
    name = _expect_symbol(items[0], "action name").text
    params: tuple[tuple[str, str], ...] = ()
    pre: list[Literal] = []
    add: list[Literal] = []
    dele: list[Literal] = []
    i = 1
    seen: set[str] = set()
    while i < len(items):
        kw = _expect_symbol(items[i], "action keyword")
        low = kw.text.lower()
        if low not in (":parameters", ":precondition", ":effect"):
            raise PddlParseError(f"unsupported feature: action keyword {kw.text}", kw.line, kw.col)
        if low in seen:
            raise PddlParseError(f"duplicate {kw.text} in action '{name}'", kw.line, kw.col)
        seen.add(low)
        if i + 1 >= len(items):
            raise PddlParseError(f"missing value after {kw.text}", kw.line, kw.col)
        value = items[i + 1]
        if low == ":parameters":
            if not isinstance(value, SList):
                raise PddlParseError(":parameters expects a list", kw.line, kw.col)
            params = tuple(_parse_typed_list(value.items, variables=True, what=":parameters"))
        elif low == ":precondition":
            pre = _parse_formula(value, what=":precondition", allow_negation=True)
        else:
            for lit in _parse_formula(value, what=":effect", allow_negation=True):
                (dele if lit.negated else add).append(replace(lit, negated=False))
        i += 2
    return ActionSchema(name, params, tuple(pre), tuple(add), tuple(dele))


def _validate_domain(domain: DomainDef) -> None:
    declared_types = set(domain.types) | {"object"}
    if len(set(domain.types)) != len(domain.types):
        raise ValidationError(f"duplicate type declarations in domain '{domain.name}'")
    pred_by_name: dict[str, Predicate] = {}
    for pred in domain.predicates:
        if pred.name in pred_by_name:
            raise ValidationError(f"duplicate predicate '{pred.name}'")
        pred_by_name[pred.name] = pred
        for var, typ in pred.params:
            if typ not in declared_types:
                raise ValidationError(f"predicate '{pred.name}': undeclared type '{typ}'")
    names = set()
    for schema in domain.action_schemas:
        if schema.name in names:
            raise ValidationError(f"duplicate action '{schema.name}'")
        names.add(schema.name)
        vars_seen = set()
        for var, typ in schema.params:
            if var in vars_seen:
                raise ValidationError(f"action '{schema.name}': duplicate parameter '{var}'")
            vars_seen.add(var)
            if typ not in declared_types:
                raise ValidationError(f"action '{schema.name}': undeclared type '{typ}'")
        for lit in (*schema.preconditions, *schema.add_effects, *schema.del_effects):
            pred = pred_by_name.get(lit.predicate)
            if pred is None:
                raise ValidationError(
                    f"action '{schema.name}' uses undeclared predicate '{lit.predicate}'"
                )
            if len(lit.args) != pred.arity:
                raise ValidationError(
                    f"action '{schema.name}': '{lit.predicate}' expects {pred.arity} args, "
                    f"got {len(lit.args)}"
                )
            for arg in lit.args:
                if not arg.startswith("?"):
                    raise ValidationError(
                        f"action '{schema.name}': constants in action bodies are not supported"
                    )
                if arg not in vars_seen:
                    raise ValidationError(
                        f"action '{schema.name}': unbound variable '{arg}'"
                    )


def _designate_join_schemas(domain: DomainDef) -> DomainDef:
    """Mark the tool-part parameters of every join schema as the ordered
    object permutation. Parameters keep declaration order (action part
    first, grasp part second)."""
    schemas = []
    for schema in domain.action_schemas:
        if schema.name.lower().startswith(JOIN_SCHEMA_PREFIX):
            idx = tuple(
                i for i, (_, typ) in enumerate(schema.params) if typ == OBJECT_PARAM_TYPE
            )
            if not idx:
                raise ValidationError(
                    f"action '{schema.name}' is a join action but has no "
                    f"'{OBJECT_PARAM_TYPE}' parameters"
                )
            schemas.append(replace(schema, object_param_indices=idx))
        else:
            schemas.append(schema)
    return replace(domain, action_schemas=tuple(schemas))


# -- problem parsing -----------------------------------------------------------


def parse_problem(text: str, domain: DomainDef) -> ProblemDef:
    """Parse a PDDL problem file and validate it against *domain*."""
    define, name = _define(text, "problem")

    domain_name = None
    objects: list[tuple[str, str]] = []
    init: list[Atom] = []
    goal: list[Literal] = []

    for section in define.items[2:]:
        if not isinstance(section, SList) or not section.items:
            raise PddlParseError("expected a (:section ...) form", define.line, define.col)
        kw = _head(section)
        if kw == ":domain":
            domain_name = _header_symbol(section, "domain name").text
        elif kw == ":objects":
            objects = _parse_typed_list(section.items[1:], variables=False, what=":objects")
        elif kw == ":init":
            for atom in section.items[1:]:
                if not isinstance(atom, SList):
                    raise PddlParseError("init entries must be atoms", section.line, section.col)
                if _head(atom) == "not":
                    raise PddlParseError(
                        "unsupported feature: negative init literal", atom.line, atom.col
                    )
                lit = _parse_atom(atom, what=":init")
                init.append(lit.atom())
        elif kw == ":goal":
            if len(section.items) != 2:
                raise PddlParseError(":goal expects one formula", section.line, section.col)
            goal = _parse_formula(section.items[1], what=":goal", allow_negation=True)
        elif kw in (":metric", ":constraints", ":length"):
            raise PddlParseError(f"unsupported feature: {kw} section", section.line, section.col)
        else:
            raise PddlParseError(f"unknown problem section '{kw}'", section.line, section.col)

    if domain_name is None:
        raise PddlParseError("problem is missing (:domain ...)")
    problem = ProblemDef(name, domain_name, tuple(objects), frozenset(init), tuple(goal))
    _validate_problem(problem, domain)
    return problem


def _validate_problem(problem: ProblemDef, domain: DomainDef) -> None:
    if problem.domain_name != domain.name:
        raise ValidationError(
            f"problem '{problem.name}' targets domain '{problem.domain_name}', "
            f"not '{domain.name}'"
        )
    declared_types = set(domain.types) | {"object"}
    type_of: dict[str, str] = {}
    for obj, typ in problem.objects:
        if obj in type_of:
            raise ValidationError(f"duplicate object '{obj}'")
        if typ not in declared_types:
            raise ValidationError(f"object '{obj}' has undeclared type '{typ}'")
        type_of[obj] = typ

    def check_ground(pred_name: str, args: tuple[str, ...], where: str) -> None:
        pred = domain.predicate(pred_name)
        if pred is None:
            raise ValidationError(f"{where} uses undeclared predicate '{pred_name}'")
        if len(args) != pred.arity:
            raise ValidationError(
                f"{where}: '{pred_name}' expects {pred.arity} args, got {len(args)}"
            )
        for arg, (_, want) in zip(args, pred.params):
            got = type_of.get(arg)
            if got is None:
                raise ValidationError(f"{where}: unknown object '{arg}'")
            if want != "object" and got != want:
                raise ValidationError(
                    f"{where}: object '{arg}' has type '{got}', expected '{want}'"
                )

    for atom in sorted(problem.init):
        check_ground(atom[0], atom[1:], "init")
    for lit in problem.goal:
        check_ground(lit.predicate, lit.args, "goal")
