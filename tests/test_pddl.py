import hashlib
import json
import re
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgs.assets import TASKS, data_dir
from fgs.errors import FgsError, PddlParseError, ValidationError
from fgs.pddl import Literal, _read_sexprs, parse_domain, parse_problem

from .util import domain_to_pddl, problem_to_pddl, reference_read_sexprs

MINIMAL_DOMAIN = """
(define (domain tiny)
  (:requirements :strips)
  (:predicates (p ?x))
  (:action noop
    :parameters (?x)
    :precondition (p ?x)
    :effect (and))
)
"""

CHAIN_DOMAIN = """
(define (domain chain)
  (:requirements :strips :typing :negative-preconditions)
  (:types step)
  (:predicates (done ?s - step) (next ?a - step ?b - step))
  (:action advance
    :parameters (?a - step ?b - step)
    :precondition (and (done ?a) (next ?a ?b) (not (done ?b)))
    :effect (and (done ?b))
  )
)
"""

CHAIN_PROBLEM = """
(define (problem chain-3)
  (:domain chain)
  (:objects s0 s1 s2 s3 - step)
  (:init (done s0) (next s0 s1) (next s1 s2) (next s2 s3))
  (:goal (and (done s3)))
)
"""


def test_minimal_domain_parses():
    domain = parse_domain(MINIMAL_DOMAIN)
    assert domain.name == "tiny"
    assert len(domain.action_schemas) == 1
    schema = domain.action_schemas[0]
    assert schema.add_effects == () and schema.del_effects == ()
    assert schema.object_param_indices == ()


def test_chain_domain_and_problem():
    domain = parse_domain(CHAIN_DOMAIN)
    problem = parse_problem(CHAIN_PROBLEM, domain)
    assert len(problem.objects) == 4
    assert ("done", "s0") in problem.init
    assert problem.goal == (Literal("done", ("s3",)),)


def test_join_schema_object_params():
    text = """
    (define (domain ww)
      (:requirements :strips :typing)
      (:types tool-part piece)
      (:predicates (available ?o - tool-part) (has-tool) (ok ?p - piece))
      (:action join-hammer
        :parameters (?head - tool-part ?grip - tool-part)
        :precondition (and (available ?head) (available ?grip))
        :effect (and (has-tool) (not (available ?head)) (not (available ?grip))))
    )
    """
    domain = parse_domain(text)
    schema = domain.action_schemas[0]
    assert schema.object_param_indices == (0, 1)


def test_join_mixed_params_designate_tool_parts_only():
    text = """
    (define (domain ww)
      (:requirements :strips :typing)
      (:types tool-part fastener)
      (:predicates (available ?o - tool-part) (set ?f - fastener) (has-tool))
      (:action join-hammer
        :parameters (?head - tool-part ?f - fastener ?grip - tool-part)
        :precondition (and (available ?head) (set ?f) (available ?grip))
        :effect (has-tool))
    )
    """
    schema = parse_domain(text).action_schemas[0]
    assert schema.object_param_indices == (0, 2)


def test_join_schema_without_tool_parts_rejected():
    text = """
    (define (domain ww)
      (:requirements :strips :typing)
      (:types piece)
      (:predicates (ok ?p - piece) (has-tool))
      (:action join-hammer
        :parameters (?p - piece)
        :precondition (ok ?p)
        :effect (has-tool))
    )
    """
    with pytest.raises(ValidationError, match="'join-hammer' is a join action but has no 'tool-part'"):
        parse_domain(text)


def test_undeclared_predicate_is_named():
    text = """
    (define (domain bad)
      (:requirements :strips)
      (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (q ?x) :effect (p ?x))
    )
    """
    with pytest.raises(ValidationError, match="q"):
        parse_domain(text)


def test_empty_goal_accepts_every_state():
    domain = parse_domain(CHAIN_DOMAIN)
    text = """
    (define (problem empty-goal)
      (:domain chain)
      (:objects s0 - step)
      (:init (done s0))
      (:goal (and))
    )
    """
    problem = parse_problem(text, domain)
    assert problem.goal == ()


def test_goal_arity_mismatch():
    domain = parse_domain(CHAIN_DOMAIN)
    text = """
    (define (problem bad)
      (:domain chain)
      (:objects s0 - step)
      (:init (done s0))
      (:goal (done s0 s0))
    )
    """
    with pytest.raises(ValidationError, match="expects 1 args"):
        parse_problem(text, domain)


def test_domain_name_mismatch():
    domain = parse_domain(CHAIN_DOMAIN)
    text = """
    (define (problem bad)
      (:domain other)
      (:objects s0 - step)
      (:init)
      (:goal (and))
    )
    """
    with pytest.raises(ValidationError, match="other"):
        parse_problem(text, domain)


@pytest.mark.parametrize(
    "snippet,feature",
    [
        ("(:action a :parameters (?x) :precondition (forall (?y) (p ?y)) :effect (p ?x))", "universal"),
        ("(:action a :parameters (?x) :precondition (or (p ?x) (p ?x)) :effect (p ?x))", "disjunctive"),
        ("(:action a :parameters (?x) :precondition (p ?x) :effect (when (p ?x) (p ?x)))", "conditional"),
        ("(:functions (cost))", "unsupported feature"),
    ],
)
def test_unsupported_constructs_rejected(snippet, feature):
    text = f"""
    (define (domain bad)
      (:requirements :strips)
      (:predicates (p ?x))
      {snippet}
    )
    """
    with pytest.raises(PddlParseError, match="unsupported"):
        parse_domain(text)


@pytest.mark.parametrize(
    "parse,text,field",
    [
        ("domain", "(define (domain))", "domain name"),
        ("problem", "(define (problem))", "problem name"),
        ("problem", "(define (problem p) (:domain))", "domain name"),
    ],
)
def test_missing_header_name_is_parse_error(parse, text, field):
    with pytest.raises(PddlParseError, match=f"missing {field}"):
        if parse == "domain":
            parse_domain(text)
        else:
            parse_problem(text, parse_domain(CHAIN_DOMAIN))


def test_parse_error_carries_position():
    text = "(define (domain x) (:predicates (p ?x)) (:action a :parameters (?x) :precondition (or) :effect (p ?x)))"
    with pytest.raises(PddlParseError) as exc:
        parse_domain(text)
    assert str(exc.value).endswith(f" (line 1, col {text.index('(or)') + 1})")


def test_type_hierarchy_rejected():
    text = """
    (define (domain bad)
      (:requirements :strips :typing)
      (:types truck - vehicle)
      (:predicates (p ?x))
    )
    """
    with pytest.raises(PddlParseError, match="hierarchy"):
        parse_domain(text)


def test_keywords_case_insensitive_identifiers_preserved():
    text = """
    (DEFINE (DOMAIN MixedCase)
      (:REQUIREMENTS :STRIPS)
      (:PREDICATES (LoadedAt ?x))
      (:ACTION Drop
        :PARAMETERS (?x)
        :PRECONDITION (LoadedAt ?x)
        :EFFECT (NOT (LoadedAt ?x)))
    )
    """
    domain = parse_domain(text)
    assert domain.name == "MixedCase"
    assert domain.predicates[0].name == "LoadedAt"
    assert domain.action_schemas[0].name == "Drop"
    assert domain.action_schemas[0].del_effects[0].predicate == "LoadedAt"


def test_parse_serialize_parse_fixpoint():
    domain = parse_domain(CHAIN_DOMAIN)
    problem = parse_problem(CHAIN_PROBLEM, domain)
    domain2 = parse_domain(domain_to_pddl(domain))
    problem2 = parse_problem(problem_to_pddl(problem), domain2)
    assert domain2 == domain
    assert problem2 == problem


def test_fixpoint_on_join_domain():
    text = """
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
    domain = parse_domain(text)
    assert parse_domain(domain_to_pddl(domain)) == domain


# -- fuzzing: malformed text raises FgsError, never anything else ----------------

DOMAINS = data_dir() / "domains"
BUNDLED_DOMAIN = (DOMAINS / "woodworking_either.domain.pddl").read_text(encoding="utf-8")
BUNDLED_PROBLEM = (DOMAINS / "woodworking_either.problem.pddl").read_text(encoding="utf-8")
BUNDLED_DOMAIN_DEF = parse_domain(BUNDLED_DOMAIN)


def _tokens(text: str) -> list[str]:
    return re.findall(r"[()]|[^\s();]+", re.sub(r";[^\n]*", "", text))


# Vocabulary for random tokens: every token of the bundled files plus the
# keywords the parser treats specially.
VOCABULARY = sorted(
    set(_tokens(BUNDLED_DOMAIN) + _tokens(BUNDLED_PROBLEM))
    | {"-", "?", ":", "or", "forall", "=", ":constants", ":metric", "define", "domain", "problem"}
)


@st.composite
def mutated_tokens(draw, text: str):
    """The tokens of *text* with a few dropped, swapped or replaced."""
    tokens = _tokens(text)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if not tokens:
            break
        i = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        op = draw(st.sampled_from(("drop", "swap", "replace")))
        if op == "drop":
            del tokens[i]
        elif op == "swap":
            j = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(VOCABULARY))
    return " ".join(tokens)


def _parses_or_raises_fgs_error(parse, *args) -> None:
    try:
        parse(*args)
    except FgsError:
        pass


def test_bundled_tokens_round_trip():
    # the mutation strategy starts from text that parses
    domain = parse_domain(" ".join(_tokens(BUNDLED_DOMAIN)))
    assert parse_problem(" ".join(_tokens(BUNDLED_PROBLEM)), domain).name


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_parse_domain_arbitrary_text(text):
    _parses_or_raises_fgs_error(parse_domain, text)


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_parse_problem_arbitrary_text(text):
    _parses_or_raises_fgs_error(parse_problem, text, BUNDLED_DOMAIN_DEF)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(VOCABULARY), max_size=40).map(" ".join))
def test_parse_domain_random_tokens(text):
    _parses_or_raises_fgs_error(parse_domain, text)


@settings(max_examples=300, deadline=None)
@given(text=mutated_tokens(BUNDLED_DOMAIN))
def test_parse_domain_mutated_bundled_file(text):
    _parses_or_raises_fgs_error(parse_domain, text)


@settings(max_examples=300, deadline=None)
@given(text=mutated_tokens(BUNDLED_PROBLEM))
def test_parse_problem_mutated_bundled_file(text):
    _parses_or_raises_fgs_error(parse_problem, text, BUNDLED_DOMAIN_DEF)


# -- the regex reader against the character loop it replaced ---------------------


def _read_or_error(read, text: str):
    """The forms *read* gives for *text*, or the message of its PddlParseError."""
    try:
        return read(text)
    except PddlParseError as exc:
        return str(exc)


@pytest.mark.parametrize("path", sorted(DOMAINS.glob("*.pddl")), ids=lambda path: path.name)
def test_reader_matches_reference_on_bundled_files(path):
    # Symbol and SList compare their text, line and column, node for node
    text = path.read_text(encoding="utf-8")
    forms = _read_sexprs(text)
    assert forms and forms == reference_read_sexprs(text)


# \r\n line endings and a comment run are drawn as one piece each
READER_PIECES = [*"();-?aZé \t\r\n\f", "\r\n", "; c"]


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.sampled_from(READER_PIECES), max_size=60).map("".join))
@example(text="(a ; comment at the end of the file")
@example(text="(a b)\r\n; a comment at the end of the file")
@example(text="(a (b)) )")
@example(text="((a)\r\n  (b\t\fc)")
def test_reader_matches_reference_on_generated_text(text):
    assert _read_or_error(_read_sexprs, text) == _read_or_error(reference_read_sexprs, text)


@pytest.mark.parametrize("where", [":precondition", ":effect", ":goal"])
def test_deeply_nested_conjunction_parses(where):
    depth = 10_000  # ten times the default recursion limit
    nested = "(and " * depth + "(p ?x)" + ")" * depth
    if where == ":goal":
        nested = nested.replace("?x", "o1")
        domain = parse_domain(MINIMAL_DOMAIN)
        text = f"(define (problem q) (:domain tiny) (:objects o1) (:init) (:goal {nested}))"
        assert parse_problem(text, domain).goal == (Literal("p", ("o1",)),)
    else:
        other = ":effect (and)" if where == ":precondition" else ":precondition (and)"
        text = (
            "(define (domain tiny) (:requirements :strips) (:predicates (p ?x)) "
            f"(:action a :parameters (?x) {where} {nested} {other}))"
        )
        schema = parse_domain(text).action_schemas[0]
        literals = schema.preconditions if where == ":precondition" else schema.add_effects
        assert literals == (Literal("p", ("?x",)),)


# -- one pass: each section once, each form checked where it is read -------------

# (file kind, a section that may appear only once)
REPEATED_SECTIONS = [
    ("domain", "(:requirements :strips)"),
    ("domain", "(:types step)"),
    ("domain", "(:predicates (done ?s - step))"),
    ("problem", "(:domain chain)"),
    ("problem", "(:objects s4 - step)"),
    ("problem", "(:init (done s1))"),
    ("problem", "(:goal (done s2))"),
]


@pytest.mark.parametrize("kind,section", REPEATED_SECTIONS,
                         ids=[section.split()[0][1:] for _, section in REPEATED_SECTIONS])
def test_repeated_section_rejected(kind, section):
    # the repeat goes on its own line, just before the closing ')' of the define
    base = CHAIN_DOMAIN if kind == "domain" else CHAIN_PROBLEM
    head, tail = base.rsplit("\n)", 1)
    text = f"{head}\n  {section}\n){tail}"
    line = head.count("\n") + 2
    keyword = section.split()[0][1:]
    with pytest.raises(PddlParseError, match=re.escape(f"duplicate {keyword} section (line {line}, col 3)")):
        if kind == "domain":
            parse_domain(text)
        else:
            parse_problem(text, parse_domain(CHAIN_DOMAIN))


@pytest.mark.parametrize("params,count", [
    ("(?head - tool-part ?f - fastener)", 1),
    ("(?head - tool-part ?f - fastener ?grip - tool-part ?brace - tool-part)", 3),
])
def test_join_schema_needs_exactly_two_tool_parts(params, count):
    text = f"""
    (define (domain ww)
      (:requirements :strips :typing)
      (:types tool-part fastener)
      (:predicates (has-tool))
      (:action join-hammer
        :parameters {params}
        :effect (has-tool))
    )
    """
    with pytest.raises(ValidationError, match=re.escape(
            f"action 'join-hammer' is a join action but has {count} 'tool-part' parameters; "
            "a join binds exactly two (action part, grasp part) (line 6, col 16)")):
        parse_domain(text)


# Each row: a one-line file that is wrong at the form marked '^' (the marker
# is removed before parsing) and the message before its position. A problem
# is read against CHAIN_DOMAIN; a form with no finer node points at the
# define form.
POSITIONED_ERRORS = [
    ("domain", "(define (domain d) (:requirements :typing) (:types t ^t))", "duplicate type 't'"),
    ("domain", "(define (domain d) (:predicates (p) (^p)))", "duplicate predicate 'p'"),
    ("domain", "(define (domain d) (:requirements :typing) (:predicates (p ?x - ^u)))",
     "predicate 'p': undeclared type 'u'"),
    ("domain", "(define (domain d) (:action a) ^(:action a))", "duplicate action 'a'"),
    ("domain", "(define (domain d) (:action a :parameters (?x ^?x)))",
     "action 'a': duplicate parameter '?x'"),
    ("domain", "(define (domain d) (:requirements :typing) (:action a :parameters (?x - ^u)))",
     "action 'a': undeclared type 'u'"),
    ("domain", "(define (domain d) (:action a :precondition (^p)))",
     ":precondition of action 'a' uses undeclared predicate 'p'"),
    ("domain", "(define (domain d) (:predicates (p ?x)) (:action a :parameters (?x) :effect ^(p)))",
     ":effect of action 'a': 'p' expects 1 args, got 0"),
    ("domain", "(define (domain d) (:predicates (p ?x)) (:action a :effect (p ^c)))",
     "action 'a': constants in action bodies are not supported"),
    ("domain", "(define (domain d) (:predicates (p ?x)) (:action a :effect (not (p ^?y))))",
     "action 'a': unbound variable '?y'"),
    ("domain", "(define (domain d) (:requirements :typing) (:types part loc) "
     "(:predicates (avail ?o - part)) (:action a :parameters (?l - loc) :precondition (avail ^?l)))",
     "action 'a': '?l' has type 'loc', but 'avail' expects 'part'"),
    ("domain", "(define (domain d) (:requirements :typing) (:types part) "
     "(:predicates (avail ?o - part)) (:action a :parameters (?x) :effect (not (avail ^?x))))",
     "action 'a': '?x' has type 'object', but 'avail' expects 'part'"),
    ("domain", "(define (domain d) (:predicates (p ?x ^?x)))", "predicate 'p': duplicate parameter '?x'"),
    ("domain", "(define (domain d) (:requirements :typing) (:types tool-part) "
     "(:action ^join-x :parameters (?a - tool-part)))",
     "action 'join-x' is a join action but has 1 'tool-part' parameters"),
    ("domain", "(define (domain d) (:predicates) ^(:predicates))", "duplicate :predicates section"),
    # each feature only under the requirement flag that declares it
    ("domain", "(define (domain d) ^(:types t))", "(:types ...) needs :requirements :typing"),
    ("domain", "(define (domain d) (:requirements :strips :negative-preconditions) ^(:types t))",
     "(:types ...) needs :requirements :typing"),
    ("domain", "(define (domain d) (:predicates (p ?x - ^object)))",
     "predicate 'p': '- object' needs :requirements :typing"),
    ("domain", "(define (domain d) (:action a :parameters (?x - ^object)))",
     "action 'a': '- object' needs :requirements :typing"),
    ("domain", "(define (domain d) (:requirements :typing) (:predicates (p ?x)) "
     "(:action a :parameters (?x) :precondition (and (p ?x) ^(not (p ?x)))))",
     ":precondition of action 'a': (not ...) needs :requirements :negative-preconditions"),
    ("problem", "(define (problem p) (:domain ^other))", "problem 'p' targets domain 'other', not 'chain'"),
    ("problem", "^(define (problem p) (:objects s0 - step))", "problem is missing (:domain ...)"),
    ("problem", "^(define (problem p) (:domain chain) (:objects s0 - step) (:init (done s0)))",
     "problem is missing (:goal ...)"),
    ("problem", "(define (problem p) (:domain chain) (:objects s0 ^s0 - step))", "duplicate object 's0'"),
    ("problem", "(define (problem p) (:domain chain) (:objects s0 - ^thing))",
     "object 's0': undeclared type 'thing'"),
    ("problem", "(define (problem p) (:domain chain) (:objects s0 - step) (:init (done ^s9)))",
     "unknown object 's9'"),
    ("problem", "(define (problem p) (:domain chain) (:objects s0 - step x) (:init (done ^x)))",
     "object 'x' has type 'object', expected 'step'"),
    ("problem", "(define (problem p) (:domain chain) (:objects s0 - step) (:init (^gone s0)))",
     ":init uses undeclared predicate 'gone'"),
    ("problem", "(define (problem p) (:domain chain) (:objects s0 - step) (:goal ^(done s0 s0)))",
     ":goal: 'done' expects 1 args, got 2"),
    ("problem", "(define (problem p) (:goal (and)) (:domain chain) ^(:goal (and)))",
     "duplicate :goal section"),
    # an unsupported head is named in lower case at its form, wherever it is read
    ("problem", "(define (problem p) (:domain chain) (:objects s0 - step) (:init ^(OR (done s0))))",
     "unsupported feature: disjunctive formulas ('or')"),
    ("domain", "(define (domain d) (:requirements :strips :negative-preconditions) (:predicates (p ?x)) "
     "(:action a :parameters (?x) :precondition (not ^(Exists (?y) (p ?y)))))",
     "unsupported feature: existential quantification ('exists')"),
]


@pytest.mark.parametrize("kind,text,message", POSITIONED_ERRORS,
                         ids=[row[2] for row in POSITIONED_ERRORS])
def test_error_names_the_position_of_its_form(kind, text, message):
    col = text.index("^") + 1
    text = text.replace("^", "")
    with pytest.raises(FgsError) as exc:
        if kind == "domain":
            parse_domain(text)
        else:
            parse_problem(text, parse_domain(CHAIN_DOMAIN))
    assert str(exc.value).startswith(message)
    assert str(exc.value).endswith(f" (line 1, col {col})")


def test_negative_effect_and_goal_need_no_requirement():
    # a negative effect is a STRIPS delete; a problem is read against the
    # domain's predicates alone, whatever the domain declares
    domain = parse_domain("(define (domain d) (:predicates (p ?x)) "
                          "(:action a :parameters (?x) :effect (not (p ?x))))")
    assert domain.action_schemas[0].del_effects == (Literal("p", ("?x",)),)
    problem = parse_problem("(define (problem q) (:domain d) (:objects o) (:goal (not (p o))))", domain)
    assert problem.goal == (Literal("p", ("o",), negated=True),)


def test_requirement_flags_are_case_insensitive():
    domain = parse_domain("(define (domain d) (:requirements :TYPING :Negative-Preconditions) "
                          "(:types t) (:predicates (p ?x - t)) "
                          "(:action a :parameters (?x - t) :precondition (not (p ?x))))")
    assert domain.action_schemas[0].preconditions == (Literal("p", ("?x",), negated=True),)


def test_object_parameter_accepts_any_variable():
    domain = parse_domain("(define (domain d) (:requirements :typing) (:types loc) (:predicates (at ?x)) "
                          "(:action a :parameters (?l - loc) :precondition (at ?l)))")
    assert domain.action_schemas[0].preconditions == (Literal("at", ("?l",)),)


# sha256 of each bundled file's parse result: the DomainDef or ProblemDef as
# JSON with sorted keys, tuples as lists and the init atoms sorted
PARSE_DIGESTS = {
    "cleaning_either.domain.pddl": "115fa68b1bc157c2c2710418542f0c9382ee01817e4e8f01719fe2f2a48792ba",
    "cleaning_either.problem.pddl": "e48c72c692ed6767baf87874fe8e6d2d8425688b024100f04b3d16e7c5b60dd4",
    "cleaning_rake.domain.pddl": "243b9d809ebbaeb3320d229bc7b4c7a4732b2132f66de50612b88c519d3b533a",
    "cleaning_rake.problem.pddl": "3957d9c46a74849603fe103192f9513e5b941d694c1b4a8ae54eb4c71e7c26fd",
    "cleaning_squeegee.domain.pddl": "d84f7ef004745a0e203f8840b5d781531619953abadc896847e31aa3a727489a",
    "cleaning_squeegee.problem.pddl": "e25ecf8305909a8dbee604de6aac85fe4eec094c07ffd855f6cfbff6bcc85bbd",
    "cooking_either.domain.pddl": "3d5926a049f4d9911132c0aa7e16c59f0041da1991ed880d44b21e4777fd0ea4",
    "cooking_either.problem.pddl": "dc48ffd886877b2e49f1f40fbad97123f485526687e6e6a78f1e3a9b75acd2b9",
    "cooking_ladle.domain.pddl": "fb2d8cb2556ae8135b7498004107fc1d010d48601b08f7fbdc49b2d1584e27af",
    "cooking_ladle.problem.pddl": "3424694973892817f4ffd448ea4814599783f9cc355a01de9ea8961a239f00e6",
    "cooking_spatula.domain.pddl": "92cac01d974fd65dfd3ce22fac5a52f016988cea3094be512993d24514dd8045",
    "cooking_spatula.problem.pddl": "c4b64db1c638b34b00413c6bdab8f170e519c9d55f422e0932be2e744cd13b5b",
    "woodworking_either.domain.pddl": "d76cebf6447489838c76b46289b825f7cfa830aa14bc9a7b3509f16833bce331",
    "woodworking_either.problem.pddl": "398e2d1e84e8efabc3488056ab38363986b066fe4a0f3c3c7487e22d670f014e",
    "woodworking_hammer.domain.pddl": "f22ff1f0773afecd661c96aa118ff96b54b484b197821518be866f6a0c9f5556",
    "woodworking_hammer.problem.pddl": "f57dab6a9e54810381cb26da36d543341026aaaf20c9bb9b8bea5e30386afcc0",
    "woodworking_screwdriver.domain.pddl": "e3dddc56abb6e6aa7717fa121aed5fd23ad717a9c70ffe8946d7415427e50c96",
    "woodworking_screwdriver.problem.pddl": "9729f39ed4a3f3aae97fc21cf059ef21b672a4baf1d9b718590f1f4c483d311b",
}


@pytest.mark.parametrize("task_id", sorted(TASKS))
def test_bundled_parse_results_match_pinned_digests(task_id):
    task = TASKS[task_id]
    domain = parse_domain((DOMAINS / task.domain_file).read_text(encoding="utf-8"))
    problem = parse_problem((DOMAINS / task.problem_file).read_text(encoding="utf-8"), domain)
    for name, record in ((task.domain_file, asdict(domain)),
                         (task.problem_file, dict(asdict(problem), init=sorted(problem.init)))):
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert digest == PARSE_DIGESTS[name], name
