"""STRIPS-subset PDDL: parsing and validation, in one pass over each file.

Supported requirements: :strips, :typing (flat type list, no hierarchy),
:negative-preconditions. A domain uses (:types ...) and ``- type`` in its
predicates and parameters only under :typing, and (not ...) in a
precondition only under :negative-preconditions; a negative effect is a
delete, and a problem is read against the domain's types and predicates
alone. Everything else (quantifiers, conditional effects, disjunctions,
numeric fluents, derived predicates) is rejected with an explicit
"unsupported feature" diagnostic carrying line/column.

Keywords are case-insensitive; identifiers are case-preserving and compared
exactly as written. Every section but ``:action`` appears at most once, and
the sections are read in a fixed order (requirements, types, predicates,
actions; domain, objects, init, goal), whatever their order in the file, so
each form is checked against what precedes it where it is read. A problem
needs ``:domain`` and ``:goal``. Every error about a form ends with its
``(line L, col C)``.

Schemas whose name starts with ``join-`` designate their ``tool-part``-typed
parameters, in declaration order, as the ordered object permutation the
action consumes (action part first, grasp part second); a join has exactly
two of them.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import FgsError, PddlParseError, ValidationError, placed

# Type name that marks parameters eligible for object-permutation semantics.
OBJECT_PARAM_TYPE = "tool-part"
JOIN_SCHEMA_PREFIX = "join-"

SUPPORTED_REQUIREMENTS = (":strips", ":typing", ":negative-preconditions")

# per file kind: the sections read, in reading order, and those rejected
_SECTIONS = {
    "domain": ((":requirements", ":types", ":predicates", ":action"),
               (":constants", ":functions", ":derived", ":axiom")),
    "problem": ((":domain", ":objects", ":init", ":goal"),
                (":metric", ":constraints", ":length")),
}
_ACTION_FIELDS = (":parameters", ":precondition", ":effect")

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


def parse_file(path, parse, *args):
    """*parse* applied to the text of the PDDL file *path* and to *args*.
    Every error, bytes that are not UTF-8 included, names the file."""
    path = Path(path)
    try:
        return parse(path.read_text(encoding="utf-8"), *args)
    except UnicodeDecodeError as exc:
        raise PddlParseError(f"{path.name}: not UTF-8 text: {exc}") from None
    except FgsError as exc:
        exc.args = (f"{path.name}: {exc}",)
        raise


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


# one match per token: a newline, blanks, a comment, a parenthesis, or a symbol
_TOKEN = re.compile(r"(?P<newline>\n)|[ \t\r]+|;[^\n]*"
                    r"|(?P<open>\()|(?P<close>\))|(?P<symbol>[^ \t\r\n();]+)")


def _read_sexprs(text: str) -> list:
    """The forms of *text*; a node's column is one more than its offset from
    the start of its line, so a tab counts as one column."""
    stack: list[tuple[list, int, int]] = []  # per open form: the enclosing items, its position
    top: list = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:  # blanks or a comment
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        col = match.start() - line_start + 1
        if kind == "symbol":
            top.append(Symbol(match.group(), line, col))
        elif kind == "open":
            stack.append((top, line, col))
            top = []
        else:
            if not stack:
                raise PddlParseError("unbalanced ')'", line, col)
            enclosing, open_line, open_col = stack.pop()
            enclosing.append(SList(tuple(top), open_line, open_col))
            top = enclosing
    if stack:
        raise PddlParseError("unclosed '('", *stack[-1][1:])
    return top


def _invalid(message: str, node) -> ValidationError:
    """A ValidationError about the form *node*, ending with its position."""
    return ValidationError(placed(message, node.line, node.col))


def _unsupported(feature: str, node) -> PddlParseError:
    """The error for *feature*, which the form *node* uses and the parser does not support."""
    return PddlParseError(f"unsupported feature: {feature}", node.line, node.col)


def _head(node: SList) -> str:
    if not node.items or not isinstance(node.items[0], Symbol):
        return ""
    return node.items[0].text.lower()


def _expect_symbol(node, what: str) -> Symbol:
    if not isinstance(node, Symbol):
        raise PddlParseError(f"expected {what}", node.line, node.col)
    return node


def _header_symbol(node: SList, what: str) -> Symbol:
    """The symbol after the keyword in a header form such as (domain <name>)."""
    if len(node.items) < 2:
        raise PddlParseError(f"missing {what}", node.line, node.col)
    return _expect_symbol(node.items[1], what)


def _define(text: str, kind: str) -> tuple[SList, str, dict[str, list[SList]]]:
    """The single (define (<kind> <name>) ...) form of *text*, its name, and
    its sections by keyword, in reading order. Each section but :action
    appears at most once."""
    forms = _read_sexprs(text)
    if len(forms) != 1 or not isinstance(forms[0], SList):
        raise PddlParseError("expected a single (define ...) form")
    define = forms[0]
    if _head(define) != "define":
        raise PddlParseError("expected (define ...)", define.line, define.col)
    body = define.items[1:]
    if not body or not isinstance(body[0], SList) or _head(body[0]) != kind:
        raise PddlParseError(f"expected ({kind} <name>)", define.line, define.col)
    name = _header_symbol(body[0], f"{kind} name").text
    known, unsupported = _SECTIONS[kind]
    sections: dict[str, list[SList]] = {kw: [] for kw in known}
    for section in body[1:]:
        if not isinstance(section, SList) or not section.items:
            raise PddlParseError("expected a (:section ...) form", section.line, section.col)
        kw = _head(section)
        if kw in unsupported:
            raise _unsupported(f"{kw} section", section)
        if kw not in sections:
            raise PddlParseError(f"unknown {kind} section '{kw}'", section.line, section.col)
        if sections[kw] and kw != ":action":
            raise PddlParseError(f"duplicate {kw} section", section.line, section.col)
        sections[kw].append(section)
    return define, name, sections


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


@dataclass(frozen=True)
class ProblemDef:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # ordered (constant, type)
    init: frozenset[Atom]
    goal: tuple[Literal, ...]  # ground literals


# -- parsing: shared pieces ----------------------------------------------------

# checks an atom's argument against the type of its parameter of the named
# predicate, or raises
ArgCheck = Callable[[Symbol, str, str], None]


def _parse_typed_list(items, *, variables: bool, what: str) -> list[tuple[Symbol, Symbol | None]]:
    """Parse ``a b - t c d - u e`` into [(name, type), ...]; an untyped name
    has type None, an object."""
    out: list[tuple[Symbol, Symbol | None]] = []
    pending: list[Symbol] = []
    nodes = iter(items)
    for node in nodes:
        sym = _expect_symbol(node, f"identifier in {what}")
        if sym.text == "-":
            if not pending:
                raise PddlParseError(f"dangling '-' in {what}", sym.line, sym.col)
            typ = next(nodes, None)
            if typ is None:
                raise PddlParseError(f"missing type after '-' in {what}", sym.line, sym.col)
            typ = _expect_symbol(typ, "type name")
            if typ.text.startswith("?"):
                raise PddlParseError("type name may not be a variable", typ.line, typ.col)
            out += ((name, typ) for name in pending)
            pending = []
        elif variables and not sym.text.startswith("?"):
            raise PddlParseError(f"expected variable in {what}, got '{sym.text}'", sym.line, sym.col)
        elif not variables and sym.text.startswith("?"):
            raise PddlParseError(f"unexpected variable in {what}", sym.line, sym.col)
        else:
            pending.append(sym)
    return out + [(name, None) for name in pending]


def _declared_type(typ: Symbol | None, types: set[str] | None, owner: str) -> str:
    """The name of the type *typ*, which *types* must declare; None is an
    object. *types* is None in a domain that does not declare :typing."""
    if typ is None:
        return "object"
    if types is None:
        raise PddlParseError(f"{owner}: '- {typ.text}' needs :requirements :typing",
                             typ.line, typ.col)
    if typ.text not in types:
        raise _invalid(f"{owner}: undeclared type '{typ.text}'", typ)
    return typ.text


def _parse_parameters(items, types: set[str] | None, owner: str, what: str) -> dict[str, str]:
    """A parameter list's variables and their types, by name: each variable
    once, each type declared in *types*."""
    params: dict[str, str] = {}
    for var, typ in _parse_typed_list(items, variables=True, what=what):
        if var.text in params:
            raise _invalid(f"{owner}: duplicate parameter '{var.text}'", var)
        params[var.text] = _declared_type(typ, types, owner)
    return params


def _parse_atom(node: SList, *, what: str, predicates: dict[str, Predicate],
                check_arg: ArgCheck) -> Literal:
    """A declared predicate over as many arguments as it has parameters;
    ``check_arg(arg, type, predicate)`` checks each argument against the
    type of its parameter."""
    if not node.items:
        raise PddlParseError(f"empty atom in {what}", node.line, node.col)
    head = _expect_symbol(node.items[0], "predicate name")
    low = head.text.lower()
    if low in _UNSUPPORTED_HEADS:
        raise _unsupported(f"{_UNSUPPORTED_HEADS[low]} ('{low}')", node)
    args = [_expect_symbol(arg, "atom argument") for arg in node.items[1:]]
    pred = predicates.get(head.text)
    if pred is None:
        raise _invalid(f"{what} uses undeclared predicate '{head.text}'", head)
    if len(args) != pred.arity:
        raise _invalid(f"{what}: '{head.text}' expects {pred.arity} args, got {len(args)}", node)
    for arg, (_, want) in zip(args, pred.params):
        check_arg(arg, want, pred.name)
    return Literal(head.text, tuple(arg.text for arg in args))


def _parse_formula(node, *, what: str, predicates: dict[str, Predicate],
                   check_arg: ArgCheck, negative: bool = True) -> list[Literal]:
    """Flatten a conjunction into literals, left to right, each read by
    _parse_atom, which rejects unsupported constructs; reject negative
    literals unless *negative*. Nested conjunctions are walked with an
    explicit stack, so nesting depth is not bounded by the interpreter's
    recursion limit."""
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
            if not negative:
                raise PddlParseError(f"{what}: (not ...) needs :requirements "
                                     ":negative-preconditions", node.line, node.col)
            if len(node.items) != 2 or not isinstance(node.items[1], SList):
                raise PddlParseError("'not' takes exactly one atom", node.line, node.col)
            atom = _parse_atom(node.items[1], what=what, predicates=predicates, check_arg=check_arg)
            out.append(replace(atom, negated=True))
        elif node.items:  # () and (and) both mean the empty conjunction
            out.append(_parse_atom(node, what=what, predicates=predicates, check_arg=check_arg))
    return out


# -- domain parsing ------------------------------------------------------------


def parse_domain(text: str) -> DomainDef:
    """Parse a PDDL domain file into a validated DomainDef."""
    _, name, sections = _define(text, "domain")

    requirements: set[str] = set()
    for section in sections[":requirements"]:
        for req in section.items[1:]:
            sym = _expect_symbol(req, "requirement flag")
            if sym.text.lower() not in SUPPORTED_REQUIREMENTS:
                raise _unsupported(f"requirement {sym.text}", sym)
            requirements.add(sym.text.lower())

    types: list[str] = []
    for section in sections[":types"]:
        if ":typing" not in requirements:
            raise PddlParseError("(:types ...) needs :requirements :typing",
                                 section.line, section.col)
        for tname, parent in _parse_typed_list(section.items[1:], variables=False, what=":types"):
            if parent is not None and parent.text != "object":
                raise _unsupported(f"type hierarchy ('{tname.text} - {parent.text}')", parent)
            if tname.text in types:
                raise _invalid(f"duplicate type '{tname.text}'", tname)
            types.append(tname.text)
    declared = {*types, "object"} if ":typing" in requirements else None

    predicates: dict[str, Predicate] = {}
    for section in sections[":predicates"]:
        for form in section.items[1:]:
            if not isinstance(form, SList) or not form.items:
                raise PddlParseError("malformed predicate declaration", form.line, form.col)
            head = _expect_symbol(form.items[0], "predicate name")
            if head.text in predicates:
                raise _invalid(f"duplicate predicate '{head.text}'", head)
            params = _parse_parameters(form.items[1:], declared, f"predicate '{head.text}'",
                                       "predicate parameters")
            predicates[head.text] = Predicate(head.text, tuple(params.items()))

    schemas: dict[str, ActionSchema] = {}
    for section in sections[":action"]:
        schema = _parse_action(section, declared, predicates,
                               ":negative-preconditions" in requirements)
        if schema.name in schemas:
            raise _invalid(f"duplicate action '{schema.name}'", section)
        schemas[schema.name] = schema
    return DomainDef(name, tuple(types), tuple(predicates.values()), tuple(schemas.values()))


def _parse_action(section: SList, types: set[str] | None, predicates: dict[str, Predicate],
                  negative_preconditions: bool) -> ActionSchema:
    """An action schema whose parameters have declared types and whose
    literals use declared predicates over its parameters, each parameter of
    the type the predicate expects there (any type where it expects an
    object). A negative precondition needs *negative_preconditions*; a
    negative effect is a delete. A join schema designates its two tool-part
    parameters as the ordered object permutation, in declaration order
    (action part first, grasp part second)."""
    items = section.items[1:]
    if not items:
        raise PddlParseError("missing action name", section.line, section.col)
    name_sym = _expect_symbol(items[0], "action name")
    name = name_sym.text
    owner = f"action '{name}'"
    fields: dict[str, object] = {}
    for i in range(1, len(items), 2):
        kw = _expect_symbol(items[i], "action keyword")
        low = kw.text.lower()
        if low not in _ACTION_FIELDS:
            raise _unsupported(f"action keyword {kw.text}", kw)
        if low in fields:
            raise PddlParseError(f"duplicate {kw.text} in action '{name}'", kw.line, kw.col)
        if i + 1 >= len(items):
            raise PddlParseError(f"missing value after {kw.text}", kw.line, kw.col)
        fields[low] = items[i + 1]

    value = fields.get(":parameters")
    if isinstance(value, Symbol):
        raise PddlParseError(":parameters expects a list", value.line, value.col)
    params = _parse_parameters(value.items if value else [], types, owner, ":parameters")

    def check_variable(arg: Symbol, want: str, predicate: str) -> None:
        if not arg.text.startswith("?"):
            raise _invalid(f"{owner}: constants in action bodies are not supported", arg)
        got = params.get(arg.text)
        if got is None:
            raise _invalid(f"{owner}: unbound variable '{arg.text}'", arg)
        if want != "object" and got != want:
            raise _invalid(f"{owner}: '{arg.text}' has type '{got}', but '{predicate}' "
                           f"expects '{want}'", arg)

    pre, effects = (
        _parse_formula(fields[kw], what=f"{kw} of {owner}", predicates=predicates,
                       check_arg=check_variable, negative=negative) if kw in fields else []
        for kw, negative in zip(_ACTION_FIELDS[1:], (negative_preconditions, True))
    )
    parts = ()
    if name.lower().startswith(JOIN_SCHEMA_PREFIX):
        parts = tuple(i for i, typ in enumerate(params.values()) if typ == OBJECT_PARAM_TYPE)
        if len(parts) != 2:
            raise _invalid(
                f"action '{name}' is a join action but has {len(parts) or 'no'} "
                f"'{OBJECT_PARAM_TYPE}' parameters; a join binds exactly two "
                "(action part, grasp part)",
                name_sym,
            )
    return ActionSchema(
        name,
        tuple(params.items()),
        tuple(pre),
        tuple(lit for lit in effects if not lit.negated),
        tuple(replace(lit, negated=False) for lit in effects if lit.negated),
        parts,
    )


# -- problem parsing -----------------------------------------------------------


def parse_problem(text: str, domain: DomainDef) -> ProblemDef:
    """Parse a PDDL problem file, checking each form against *domain*."""
    define, name, sections = _define(text, "problem")

    if not sections[":domain"]:
        raise PddlParseError("problem is missing (:domain ...)", define.line, define.col)
    domain_name = _header_symbol(sections[":domain"][0], "domain name")
    if domain_name.text != domain.name:
        raise _invalid(f"problem '{name}' targets domain '{domain_name.text}', "
                       f"not '{domain.name}'", domain_name)

    declared = {*domain.types, "object"}
    objects: dict[str, str] = {}
    for section in sections[":objects"]:
        for obj, typ in _parse_typed_list(section.items[1:], variables=False, what=":objects"):
            if obj.text in objects:
                raise _invalid(f"duplicate object '{obj.text}'", obj)
            objects[obj.text] = _declared_type(typ, declared, f"object '{obj.text}'")

    def check_object(arg: Symbol, want: str, _predicate: str) -> None:
        got = objects.get(arg.text)
        if got is None:
            raise _invalid(f"unknown object '{arg.text}'", arg)
        if want != "object" and got != want:
            raise _invalid(f"object '{arg.text}' has type '{got}', expected '{want}'", arg)

    predicates = {pred.name: pred for pred in domain.predicates}
    init: list[Atom] = []
    for section in sections[":init"]:
        for atom in section.items[1:]:
            if not isinstance(atom, SList):
                raise PddlParseError("init entries must be atoms", atom.line, atom.col)
            if _head(atom) == "not":
                raise _unsupported("negative init literal", atom)
            lit = _parse_atom(atom, what=":init", predicates=predicates, check_arg=check_object)
            init.append(lit.atom())

    if not sections[":goal"]:
        raise PddlParseError("problem is missing (:goal ...)", define.line, define.col)
    section = sections[":goal"][0]
    if len(section.items) != 2:
        raise PddlParseError(":goal expects one formula", section.line, section.col)
    goal = _parse_formula(section.items[1], what=":goal", predicates=predicates,
                          check_arg=check_object)

    return ProblemDef(name, domain_name.text, tuple(objects.items()), frozenset(init), tuple(goal))
