import itertools
import math
import random

import pytest

from fgs.assets import benchmark_dir, load_task, task_for_scenario
from fgs.errors import ConfigError
from fgs.grounding import GroundAction
from fgs.scenario import TOOL_TABLE, load_scenario, sense
from fgs.scoring import (
    ATTACH_GRASP,
    ATTACH_MAGNETIC,
    ATTACH_PIERCE,
    NEG_INF,
    JoinScorer,
    ObjectProfile,
    ToolSpec,
    can_attach,
    feature_score,
    material_fit,
    shape_fit,
)

from .util import ReferenceScorer, reference_material_fit

HAMMER = ToolSpec(
    tool="hammer",
    join_action_name="join-hammer",
    action_part_role="hammer_head",
    allowed_materials=frozenset({"metal", "wood"}),
    use_action="hit",
)
SQUEEGEE = ToolSpec(
    tool="squeegee",
    join_action_name="join-squeegee",
    action_part_role="squeegee_head",
    allowed_materials=frozenset({"foam"}),
    use_action="reach",
)


def profile(oid, head=0.0, handle=0.0, role="hammer_head", materials=None, **flags):
    shape = {role: head, "handle": handle}
    return ObjectProfile(oid, shape, materials or {}, **flags)


def pair(p1, p2):
    return {p1.object_id: p1, p2.object_id: p2}, (p1.object_id, p2.object_id)


def join(action_name, o_a):
    """The ground join action *action_name* on *o_a*, as a gate receives it."""
    return GroundAction(f"({action_name} {' '.join(o_a)})", action_name, o_a, 0, 0, 0, 0)


def phi_of(gate, act):
    """The gate's verdict as a score: a skipped join reads -inf."""
    phi = gate(act)
    return NEG_INF if phi is None else phi


def test_shape_fit_perfect_confidence():
    a = profile("a", head=1.0)
    b = profile("b", handle=1.0)
    profiles, o_a = pair(a, b)
    assert shape_fit(o_a, HAMMER, profiles) == 1.0


def test_shape_fit_product():
    a = profile("a", head=0.8)
    b = profile("b", handle=0.5)
    profiles, o_a = pair(a, b)
    assert shape_fit(o_a, HAMMER, profiles) == pytest.approx(0.4, abs=1e-12)


def test_shape_fit_zero_annihilates():
    a = profile("a", head=0.0)
    b = profile("b", handle=0.97)
    profiles, o_a = pair(a, b)
    assert shape_fit(o_a, HAMMER, profiles) == 0.0


def test_shape_fit_missing_role_is_zero(caplog):
    a = ObjectProfile("a", {"hammer_head": 0.9})
    b = ObjectProfile("b", {})  # no handle confidence at all
    profiles, o_a = pair(a, b)
    with caplog.at_level("WARNING"):
        assert shape_fit(o_a, HAMMER, profiles) == 0.0
    assert "handle" in caplog.text


def test_shape_fit_order_sensitive():
    a = profile("a", head=0.9, handle=0.2)
    b = profile("b", head=0.1, handle=0.8)
    profiles, o_a = pair(a, b)
    fwd = shape_fit(o_a, HAMMER, profiles)
    rev = shape_fit((o_a[1], o_a[0]), HAMMER, profiles)
    assert fwd == pytest.approx(0.72, abs=1e-12)
    assert rev == pytest.approx(0.02, abs=1e-12)


def test_material_fit_max_over_allowed():
    a = profile("a", materials={"metal": 0.9, "wood": 0.05})
    b = profile("b")
    profiles, o_a = pair(a, b)
    assert material_fit(o_a, HAMMER, profiles) == pytest.approx(0.9, abs=1e-12)


def test_material_fit_below_threshold():
    a = profile("a", materials={"metal": 0.5, "wood": 0.55})
    b = profile("b")
    profiles, o_a = pair(a, b)
    assert material_fit(o_a, HAMMER, profiles) == NEG_INF


def test_material_fit_no_allowed_mass():
    a = profile("a", materials={"plastic": 0.9})
    b = profile("b")
    profiles, o_a = pair(a, b)
    assert material_fit(o_a, HAMMER, profiles) == NEG_INF


def test_material_only_scores_action_part():
    a = profile("a", materials={"wood": 0.8})
    b = profile("b", materials={"plastic": 1.0})  # grasp part material is irrelevant
    profiles, o_a = pair(a, b)
    assert material_fit(o_a, HAMMER, profiles) == pytest.approx(0.8)


def test_attach_pierce_foam_with_rigid():
    foam = profile("foam", pierceable=True)
    driver = profile("driver", pierceable=False)
    profiles, o_a = pair(foam, driver)
    assert can_attach(o_a, profiles) == (True, ATTACH_PIERCE)


def test_attach_grasp_flat_piece_with_tongs():
    flat = profile("flat", can_be_grasped=True)
    tongs = profile("tongs", can_grasp_others=True)
    profiles, o_a = pair(flat, tongs)
    assert can_attach(o_a, profiles) == (True, ATTACH_GRASP)


def test_attach_magnetic_needs_both():
    a = profile("a", has_magnet=True)
    b = profile("b", has_magnet=True)
    profiles, o_a = pair(a, b)
    assert can_attach(o_a, profiles) == (True, ATTACH_MAGNETIC)
    c = profile("c", has_magnet=False)
    profiles2 = {"a": a, "c": c}
    assert can_attach(("a", "c"), profiles2) == (False, None)


def test_attach_two_rigid_plain_objects_fail():
    a = profile("a")
    b = profile("b")
    profiles, o_a = pair(a, b)
    assert can_attach(o_a, profiles) == (False, None)


def test_attach_two_pierceable_no_pierce():
    a = profile("a", pierceable=True)
    b = profile("b", pierceable=True)
    profiles, o_a = pair(a, b)
    assert can_attach(o_a, profiles) == (False, None)


REGISTRY = {"join-hammer": HAMMER, "join-squeegee": SQUEEGEE}


def scored(a, b, trust=True, reject=None):
    profiles, o_a = pair(a, b)
    return feature_score(HAMMER, o_a, profiles, None if trust else frozenset(reject or ()))


def test_feature_score_weighted_sum():
    a = profile("a", head=0.8, materials={"metal": 0.9}, has_magnet=True)
    b = profile("b", handle=0.5, has_magnet=True)
    assert scored(a, b) == pytest.approx(0.4 + 0.9, abs=1e-12)


def test_feature_score_attach_hard_constraint():
    a = profile("a", head=0.9, materials={"metal": 0.9})
    b = profile("b", handle=0.9)
    assert scored(a, b) == NEG_INF


def test_feature_score_material_absorbs():
    a = profile("a", head=0.9, materials={"metal": 0.2}, has_magnet=True)
    b = profile("b", handle=0.9, has_magnet=True)
    assert scored(a, b) == NEG_INF


def test_no_trust_requires_reject_membership():
    a = profile("a", head=0.6, materials={"metal": 0.9})
    b = profile("b", handle=0.5)
    reject = set()
    assert scored(a, b, trust=False, reject=reject) == NEG_INF
    reject.add((("a", "b"), "join-hammer"))
    assert scored(a, b, trust=False, reject=reject) == pytest.approx(0.3, abs=1e-12)


def test_no_trust_ignores_hard_constraints():
    # unattachable and wrong material, but previously rejected: shape only
    a = profile("a", head=0.9, materials={"plastic": 1.0})
    b = profile("b", handle=0.9)
    reject = frozenset([(("a", "b"), "join-hammer")])
    assert scored(a, b, trust=False, reject=reject) == pytest.approx(0.81, abs=1e-12)


def test_unregistered_join_action_is_config_error():
    a = profile("a")
    b = profile("b")
    profiles, o_a = pair(a, b)
    with pytest.raises(ConfigError, match="join-ladle"):
        JoinScorer(REGISTRY, profiles).gate(frozenset())(join("join-ladle", o_a))


# -- hand-computed fixture table (threshold t = 0.6, lambdas 1) ---------------

FIXTURES = [
    # head, handle, best allowed material conf, attach, trust, in_reject, expected
    (1.00, 1.00, 0.60, True, True, False, 1.60),
    (0.80, 0.50, 0.90, True, True, False, 1.30),
    (0.70, 0.70, 0.86, True, True, False, 1.35),
    (0.95, 0.95, 0.95, True, True, False, 1.8525),
    (0.00, 1.00, 1.00, True, True, False, 1.00),
    (0.33, 0.25, 0.77, True, True, False, 0.8525),
    (0.50, 0.50, 0.60, True, True, False, 0.85),
    (0.12, 0.34, 0.61, True, True, False, 0.6508),
    (0.90, 0.90, 0.59, True, True, False, NEG_INF),
    (0.90, 0.90, 0.00, True, True, False, NEG_INF),
    (0.90, 0.90, 0.90, False, True, False, NEG_INF),
    (0.25, 0.50, 0.95, False, True, False, NEG_INF),
    (1.00, 1.00, 1.00, False, True, False, NEG_INF),
    (0.80, 0.50, 0.90, True, False, True, 0.40),
    (0.90, 0.90, 0.00, True, False, True, 0.81),
    (0.90, 0.90, 0.00, False, False, True, 0.81),
    (1.00, 1.00, 1.00, True, False, False, NEG_INF),
    (0.10, 0.10, 0.90, True, False, False, NEG_INF),
    (0.60, 0.40, 0.60, True, True, False, 0.84),
    (0.75, 0.80, 0.66, True, True, False, 1.26),
    (0.00, 0.00, 0.60, True, True, False, 0.60),
    (0.55, 0.21, 0.74, True, False, True, 0.1155),
]


@pytest.mark.parametrize("head,handle,mat,attach,trust,in_reject,expected", FIXTURES)
def test_fixture_table(head, handle, mat, attach, trust, in_reject, expected):
    a = profile("a", head=head, materials={"metal": mat}, has_magnet=attach)
    b = profile("b", handle=handle, has_magnet=attach)
    reject = frozenset([(("a", "b"), "join-hammer")]) if in_reject else frozenset()
    got = scored(a, b, trust=trust, reject=reject)
    if expected == NEG_INF:
        assert got == NEG_INF
    else:
        assert got == pytest.approx(expected, abs=1e-12)


def test_range_invariant_under_uniform_weights():
    rng = random.Random(20240)
    reject = frozenset()
    spec_roles = ("hammer_head", "handle")
    for _ in range(2000):
        a = ObjectProfile(
            "a",
            {r: rng.random() for r in spec_roles},
            {"metal": rng.random()},
            pierceable=rng.random() < 0.5,
            can_grasp_others=rng.random() < 0.5,
            can_be_grasped=rng.random() < 0.5,
            has_magnet=rng.random() < 0.5,
        )
        b = ObjectProfile(
            "b",
            {r: rng.random() for r in spec_roles},
            {"metal": rng.random()},
            pierceable=rng.random() < 0.5,
            can_grasp_others=rng.random() < 0.5,
            can_be_grasped=rng.random() < 0.5,
            has_magnet=rng.random() < 0.5,
        )
        for trust in (True, False):
            got = scored(a, b, trust=trust, reject=reject)
            if not math.isinf(got):
                assert 0.0 <= got <= 2.0


def test_make_scorer_binds_whitelist():
    a = profile("a", head=0.7, materials={"plastic": 0.9})
    b = profile("b", handle=0.6)
    profiles = {"a": a, "b": b}
    whitelist = frozenset({(("a", "b"), "join-hammer")})
    trusted = JoinScorer(REGISTRY, profiles)
    assert phi_of(trusted.gate(frozenset()), join("join-hammer", ("a", "b"))) == NEG_INF
    assert trusted.rejected == whitelist
    untrusted = JoinScorer(REGISTRY, profiles, whitelist)
    gate = untrusted.gate(frozenset())
    assert phi_of(gate, join("join-hammer", ("a", "b"))) == pytest.approx(0.42, abs=1e-12)
    assert phi_of(gate, join("join-hammer", ("b", "a"))) == NEG_INF
    assert untrusted.rejected == set()


@pytest.mark.parametrize("noise_on", [False, True], ids=["noise-off", "noise-on"])
def test_join_scorer_matches_feature_score_on_bundled_scenarios(noise_on):
    """Both trust phases of JoinScorer's gate against direct feature_score
    calls on every join action x ordered object pair of every bundled
    scenario; the trusted scorer's rejects are exactly its -inf joins."""
    for path in sorted(benchmark_dir().glob("*.json")):
        scenario = load_scenario(path)
        registry = scenario.registry()
        profiles = sense(scenario, noise_on)
        joins = [(action, pair) for action in sorted(registry)
                 for pair in itertools.permutations(sorted(profiles), 2)]
        trusted = JoinScorer(registry, profiles)
        gate = trusted.gate(frozenset())
        direct = {}
        for action, pair in joins:
            direct[action, pair] = feature_score(registry[action], pair, profiles, None)
            assert phi_of(gate, join(action, pair)) == direct[action, pair], (path.name, action, pair)
        assert trusted.rejected == {
            (pair, action) for (action, pair), phi in direct.items() if phi == NEG_INF
        }
        whitelist = frozenset(trusted.rejected)
        untrusted = JoinScorer(registry, profiles, whitelist)
        gate = untrusted.gate(frozenset())
        for action, pair in joins:
            expected = feature_score(registry[action], pair, profiles, whitelist)
            assert phi_of(gate, join(action, pair)) == expected, (path.name, action, pair)
        assert untrusted.rejected == set()


@pytest.mark.parametrize("noise_on", [False, True], ids=["noise-off", "noise-on"])
def test_gate_matches_reference_scorer_on_bundled_scenarios(noise_on):
    """The gate against the scorer it replaced, on every ground join of every
    bundled scenario's task: trusted, then with the trusted rejects as
    whitelist. Each phi is the reference's, -inf read as None, and the two
    reject sets are equal."""
    joins_of = {}
    for path in sorted(benchmark_dir().glob("*.json")):
        scenario = load_scenario(path)
        task_id = task_for_scenario(scenario.task_type, scenario.tools).task_id
        if task_id not in joins_of:
            joins_of[task_id] = [act for act in load_task(task_id)[2].actions if act.o_a]
        registry = scenario.registry()
        profiles = sense(scenario, noise_on)
        whitelist = None
        for trusted in (True, False):
            scorer = JoinScorer(registry, profiles, whitelist)
            reference = ReferenceScorer(registry, profiles, whitelist)
            gate = scorer.gate(frozenset())
            for act in joins_of[task_id]:
                expected = reference.score(act.schema_name, act.o_a)
                assert gate(act) == (None if expected == NEG_INF else expected), (path.name, act.name)
            assert scorer.rejected == reference.rejected, path.name
            if trusted:
                whitelist = frozenset(reference.rejected)
                assert whitelist, path.name  # so the untrusted phase scores some join


@pytest.mark.parametrize("noise_on", [False, True], ids=["noise-off", "noise-on"])
def test_material_fit_matches_reference_bit_for_bit(noise_on):
    """material_fit against the max-over-map form it replaced, on every
    object of every bundled scenario and every tool spec."""
    for path in sorted(benchmark_dir().glob("*.json")):
        profiles = sense(load_scenario(path), noise_on)
        for oid in profiles:
            for spec in TOOL_TABLE.values():
                got = material_fit((oid,), spec, profiles)
                expected = reference_material_fit((oid,), spec, profiles)
                assert got.hex() == expected.hex(), (path.name, oid, spec.tool)


from hypothesis import given, settings
from hypothesis import strategies as st

confidence = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(head=confidence, handle=confidence, bump=st.floats(min_value=0.0, max_value=0.5))
def test_shape_fit_monotone_in_each_confidence(head, handle, bump):
    base = shape_fit(
        ("a", "b"),
        HAMMER,
        {"a": profile("a", head=head), "b": profile("b", handle=handle)},
    )
    raised_head = shape_fit(
        ("a", "b"),
        HAMMER,
        {"a": profile("a", head=min(1.0, head + bump)), "b": profile("b", handle=handle)},
    )
    raised_handle = shape_fit(
        ("a", "b"),
        HAMMER,
        {"a": profile("a", head=head), "b": profile("b", handle=min(1.0, handle + bump))},
    )
    assert raised_head >= base
    assert raised_handle >= base


@settings(max_examples=200, deadline=None)
@given(metal=confidence, wood=confidence, bump=st.floats(min_value=0.0, max_value=0.5))
def test_material_fit_monotone_in_allowed_confidences(metal, wood, bump):
    def fit(m, w):
        profiles = {
            "a": profile("a", materials={"metal": min(1.0, m), "wood": min(1.0, w)}),
            "b": profile("b"),
        }
        return material_fit(("a", "b"), HAMMER, profiles)

    base = fit(metal, wood)
    for raised in (fit(metal + bump, wood), fit(metal, wood + bump)):
        if base != NEG_INF:
            assert raised != NEG_INF and raised >= base
