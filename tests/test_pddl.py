import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgs.assets import data_dir
from fgs.errors import FgsError, PddlParseError, ValidationError
from fgs.pddl import Literal, parse_domain, parse_problem

from .util import domain_to_pddl, problem_to_pddl

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
    with pytest.raises(PddlParseError) as exc:
        parse_domain("(define (domain x) (:predicates (p ?x)) (:action a :parameters (?x) :precondition (or) :effect (p ?x)))")
    assert exc.value.line == 1


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
