import copy
import hashlib
import json
from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgs.assets import benchmark_dir, data_dir
from fgs.errors import FgsError, ValidationError
from fgs.scenario import (
    GT_SHAPE_RANGE,
    TASK_TOOLS,
    TOOL_TABLE,
    NoiseSpec,
    build_benchmark_suite,
    default_library,
    load_library,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    sense,
)
from fgs.scoring import (
    MATERIAL_CLASSES,
    NEG_INF,
    can_attach,
    feature_score,
    material_fit,
)

from .conftest import generate_data
from .util import drawn


@pytest.fixture(scope="module")
def squeegee_cases():
    return drawn(11, 4, ("squeegee",))


def test_library_composition():
    lib = default_library()
    assert len(lib) == 58
    counts = Counter(o.material for o in lib)
    assert counts == {"metal": 11, "wood": 12, "plastic": 19, "paper": 2, "foam": 14}
    for obj in lib:
        assert obj.pierceable == (obj.material in ("foam", "paper"))


LIBRARY_TEXT = (data_dir() / "library" / "objects.json").read_text(encoding="utf-8")


def _library_with(path, value):
    """The bundled library with the field at *path* set to *value*, or with
    the key removed when *value* is ``...``."""
    data = json.loads(LIBRARY_TEXT)
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is ...:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(data)


# (id, file text, expected message); each file is written to objects.json
MALFORMED_LIBRARIES = [
    ("pierceable-string", _library_with(("objects", 0, "pierceable"), "false"),
     r"objects\.json\.objects\[0\]\.pierceable: expected a boolean, got a string"),
    ("objects-missing", _library_with(("objects",), ...),
     r"objects\.json\.objects: missing required field"),
    ("objects-object", _library_with(("objects",), {}),
     r"objects\.json\.objects: expected a list, got an object"),
    ("entry-string", _library_with(("objects", 2), "metal_pipe"),
     r"objects\.json\.objects\[2\]: expected an object, got a string"),
    ("library-id-missing", _library_with(("objects", 1, "library_id"), ...),
     r"objects\.json\.objects\[1\]\.library_id: missing required field"),
    ("material-int", _library_with(("objects", 0, "material"), 3),
     r"objects\.json\.objects\[0\]\.material: expected a string, got an integer"),
    ("material-unknown", _library_with(("objects", 0, "material"), "glass"),
     r"objects\.json\.objects\[0\]\.material: unknown material 'glass'"),
    ("role-tags-string", _library_with(("objects", 0, "role_tags"), "handle"),
     r"objects\.json\.objects\[0\]\.role_tags: expected a list, got a string"),
    ("entry-misspelt-field", _library_with(("objects", 0, "pierceble"), True),
     r"objects\.json\.objects\[0\]\.pierceble: unknown field"),
    ("format-version-missing", _library_with(("format_version",), ...),
     r"objects\.json\.format_version: missing required field"),
    ("format-version-unsupported", _library_with(("format_version",), 2),
     r"objects\.json\.format_version: unsupported format_version 2"),
    ("format-version-string", _library_with(("format_version",), "1"),
     r"objects\.json\.format_version: expected an integer, got a string"),
    ("top-level-list", "[]", r"objects\.json: expected an object, got a list"),
    ("truncated-json", LIBRARY_TEXT[: len(LIBRARY_TEXT) // 2], r"objects\.json: invalid JSON"),
]


@pytest.mark.parametrize(
    "text,message", [row[1:] for row in MALFORMED_LIBRARIES], ids=[row[0] for row in MALFORMED_LIBRARIES]
)
def test_malformed_library_names_field(tmp_path, text, message):
    path = tmp_path / "objects.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_library(path)


def test_library_round_trips_through_checks(tmp_path):
    path = tmp_path / "objects.json"
    path.write_text(LIBRARY_TEXT, encoding="utf-8")
    assert load_library(path) == default_library()
    # absent optional fields take their defaults
    path.write_text(_library_with(("objects", 0, "role_tags"), ...), encoding="utf-8")
    assert load_library(path)[0].role_tags == ()


def test_generator_reads_grasp_role_from_spec(tmp_path, monkeypatch):
    # specs whose grasp part is a 'grip', over a library tagged to match
    for tool, spec in TOOL_TABLE.items():
        monkeypatch.setitem(TOOL_TABLE, tool, replace(spec, grasp_part_role="grip"))
    data = json.loads(LIBRARY_TEXT)
    for obj in data["objects"]:
        obj["role_tags"] = ["grip" if t == "handle" else t for t in obj["role_tags"]]
    (tmp_path / "library").mkdir()
    (tmp_path / "library" / "objects.json").write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setenv("FGS_DATA_DIR", str(tmp_path))
    cases = drawn(5, 3, ("hammer",))
    assert len(cases) == 3
    for sc in cases:
        assert sc.spec_for_tool("hammer").grasp_part_role == "grip"
        assert all(set(o.shape_conf) == {"hammer_head", "grip"} for o in sc.objects)
        grasp = sc.profiles()[sc.ground_truth.grasp_part]
        assert GT_SHAPE_RANGE[0] <= grasp.shape_conf["grip"] <= GT_SHAPE_RANGE[1]
        assert scenario_from_json(scenario_to_json(sc)) == sc


def test_generated_scenario_shape(squeegee_cases):
    sc = squeegee_cases[0]
    assert len(sc.objects) == 10
    assert {o.object_id for o in sc.objects} == {f"obj{i}" for i in range(10)}
    assert sc.tools == ("squeegee",)
    assert sc.ground_truth.tool == "squeegee"


def test_generation_deterministic(squeegee_cases):
    again = drawn(11, 4, ("squeegee",))
    assert [scenario_to_json(a) for a in again] == [scenario_to_json(b) for b in squeegee_cases]
    other = drawn(12, 4, ("squeegee",))
    assert scenario_to_json(other[0]) != scenario_to_json(squeegee_cases[0])


def test_zero_cases_is_empty():
    assert build_benchmark_suite(1, 0) == []


def test_ground_truth_uniquely_accepted(squeegee_cases):
    # among finite-score pairs, exactly one is the annotated (oracle) pair,
    # and it outranks every other permutation
    for sc in squeegee_cases:
        profiles = sc.profiles()
        ids = [o.object_id for o in sc.objects]
        gt = sc.ground_truth.pair
        spec = sc.spec_for_tool(sc.ground_truth.tool)
        best = feature_score(spec, gt, profiles, None)
        assert best > 0
        for a in ids:
            for b in ids:
                if a == b or (a, b) == gt:
                    continue
                phi = feature_score(spec, (a, b), profiles, None)
                assert phi < best


@pytest.mark.parametrize("seed, cases", [(1729, 10), (7, 2)])
def test_every_suite_scenario_round_trips(seed, cases):
    # the generator draws each value inside its field's range, so every
    # scenario it builds passes the file reader's checks unchanged
    for sc in build_benchmark_suite(seed, cases):
        assert scenario_from_json(scenario_to_json(sc), sc.scenario_id) == sc


def test_roundtrip_via_file(tmp_path, squeegee_cases):
    sc = squeegee_cases[0]
    path = tmp_path / "case.json"
    save_scenario(sc, path)
    loaded = load_scenario(path)
    assert loaded == sc


def test_two_ground_truths_rejected(squeegee_cases):
    data = scenario_to_json(squeegee_cases[0])
    data["ground_truth"] = [data["ground_truth"], data["ground_truth"]]
    with pytest.raises(ValidationError, match=r"ground_truth: expected an object, got a list"):
        scenario_from_json(data)


def test_tool_table_is_consistent():
    # the table is the one copy of every tool spec that scenarios name
    assert {t for tools in TASK_TOOLS.values() for t in tools} <= TOOL_TABLE.keys()
    joins = [spec.join_action_name for spec in TOOL_TABLE.values()]
    assert len(set(joins)) == len(joins)
    for name, spec in TOOL_TABLE.items():
        assert spec.tool == name
        assert spec.allowed_materials and spec.allowed_materials <= set(MATERIAL_CLASSES)
        # a material false negative moves the lost mass onto a class left out
        assert set(MATERIAL_CLASSES) - spec.allowed_materials


def test_bad_confidence_named_with_path(squeegee_cases):
    data = scenario_to_json(squeegee_cases[0])
    data["objects"][3]["shape_conf"]["handle"] = 1.7
    with pytest.raises(ValidationError, match=r"objects\[3\].shape_conf.handle"):
        scenario_from_json(data)


def test_gt_must_pass_hard_constraints(squeegee_cases):
    data = scenario_to_json(squeegee_cases[0])
    gt = data["ground_truth"]
    for entry in data["objects"]:
        if entry["object_id"] == gt["action_part"]:
            entry["material_conf"] = {"plastic": 0.9}
    with pytest.raises(ValidationError, match="material"):
        scenario_from_json(data)


def test_minimal_two_object_scenario():
    data = {
        "format_version": 2,
        "scenario_id": "tiny",
        "task_type": "cleaning",
        "objects": [
            {
                "object_id": "obj0",
                "shape_conf": {"squeegee_head": 0.9, "handle": 0.1},
                "material_conf": {"foam": 0.9},
                "pierceable": True,
            },
            {
                "object_id": "obj1",
                "shape_conf": {"squeegee_head": 0.1, "handle": 0.9},
                "material_conf": {"wood": 0.9},
            },
        ],
        "ground_truth": {"action_part": "obj0", "grasp_part": "obj1", "tool": "squeegee"},
        "tools": ["squeegee"],
        "noise": {"seed": 0},
    }
    sc = scenario_from_json(data)
    assert len(sc.objects) == 2
    assert sc.tools == ("squeegee",)


# -- sensing --------------------------------------------------------------------


def test_sense_noiseless_passthrough(squeegee_cases):
    sc = squeegee_cases[0]
    assert sense(sc, noise_on=False) == sc.profiles()


def test_sense_deterministic(squeegee_cases):
    sc = replace(
        squeegee_cases[0],
        noise=NoiseSpec(seed=77, material_fn_rate=0.5, attach_fn_rate=0.5, shape_jitter=0.1),
    )
    assert sense(sc, noise_on=True) == sense(sc, noise_on=True)
    different = replace(sc, noise=replace(sc.noise, seed=78))
    assert sense(different, noise_on=True) != sense(sc, noise_on=True)


def test_material_false_negative_blocks_ground_truth(squeegee_cases):
    sc = replace(squeegee_cases[0], noise=NoiseSpec(seed=5, material_fn_rate=1.0))
    profiles = sense(sc, noise_on=True)
    spec = sc.spec_for_tool(sc.ground_truth.tool)
    assert material_fit(sc.ground_truth.pair, spec, profiles) == NEG_INF
    # every confidence still a valid distribution
    for p in profiles.values():
        assert sum(p.material_conf.values()) <= 1.0 + 1e-9


def test_attach_false_negative_blocks_ground_truth(squeegee_cases):
    sc = replace(squeegee_cases[0], noise=NoiseSpec(seed=5, attach_fn_rate=1.0))
    profiles = sense(sc, noise_on=True)
    ok, _ = can_attach(sc.ground_truth.pair, profiles)
    assert not ok


def test_shape_jitter_clamped(squeegee_cases):
    sc = replace(squeegee_cases[0], noise=NoiseSpec(seed=5, shape_jitter=0.5))
    profiles = sense(sc, noise_on=True)
    for p in profiles.values():
        for conf in p.shape_conf.values():
            assert 0.0 <= conf <= 1.0


def test_noise_spec_validation(squeegee_cases):
    # each rate's range is its field's annotation, checked as the file is read
    for rate, value in (("material_fn_rate", 1.5), ("attach_fn_rate", -0.1), ("shape_jitter", 0.9)):
        data = scenario_to_json(squeegee_cases[0])
        data["noise"][rate] = value
        with pytest.raises(ValidationError, match=rate):
            scenario_from_json(data)


# -- adaptability generation -------------------------------------------------------


def test_adaptability_two_tools_alternating():
    cases = drawn(3, 4, TASK_TOOLS["woodworking"])
    assert [sc.ground_truth.tool for sc in cases] == ["hammer", "screwdriver"] * 2
    for sc in cases:
        assert sc.tools == TASK_TOOLS["woodworking"]


def test_benchmark_suite_matches_bundled(tmp_path):
    # byte for byte, so rerunning scripts/generate_data.py leaves the tree
    # unchanged; it deletes any other file, since `fgs bench` reads them all
    (tmp_path / "stray.json").write_text("{}", encoding="utf-8")
    assert generate_data.main(tmp_path) == 0
    bundled = sorted(p.name for p in benchmark_dir().iterdir())
    assert len(bundled) == 90
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (benchmark_dir() / name).read_bytes(), (
            f"{name} drifted from the generator")


def test_bundled_noise_arming_counts():
    suite = build_benchmark_suite()
    single = [sc for sc in suite if len(sc.tools) == 1]
    assert len(single) == 60
    material_armed = [sc for sc in single if sc.noise.material_fn_rate == 1.0]
    attach_armed = [sc for sc in single if sc.noise.attach_fn_rate == 1.0]
    assert len(material_armed) == 4
    assert len(attach_armed) == 4
    adapt = [sc for sc in suite if len(sc.tools) == 2]
    assert len(adapt) == 30
    assert all(sc.noise.shape_jitter > 0 for sc in adapt)


@pytest.mark.parametrize("cases, material, attach", [(1, 4, 2), (2, 4, 4)])
def test_generated_kinds_arm_at_most_four_and_four(cases, material, attach):
    # the arming draw spans every single-tool kind, for any number of cases
    suite = build_benchmark_suite(3, cases)
    single = [sc for sc in suite if len(sc.tools) == 1]
    assert sum(sc.noise.material_fn_rate == 1.0 for sc in single) == material
    assert sum(sc.noise.attach_fn_rate == 1.0 for sc in single) == attach
    assert all(sc.noise.shape_jitter > 0 for sc in suite if len(sc.tools) == 2)


# The suite at seeds other than 1729, whose suite the bundled files pin:
# perfbench times suites drawn at seeds derived from its own.
SUITE_DIGESTS = {
    0: "84926db455825960ca19b20afbf4e5e2b4c91ce1f6667f5d06dd1152f4f87500",
    7: "47b98a502e168a35c1687f099d598993ce0f1b1e7dcc6c99b81afd94c8905cef",
}


@pytest.mark.parametrize("seed", sorted(SUITE_DIGESTS))
def test_suite_at_other_seeds_is_pinned(seed):
    text = json.dumps([scenario_to_json(sc) for sc in build_benchmark_suite(seed)], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SUITE_DIGESTS[seed]


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, default=sorted)  # a frozenset as a sorted list
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SPEC_FIELDS = ("tool", "join_action_name", "action_part_role", "allowed_materials", "use_action",
               "grasp_part_role")


def test_bundled_scenarios_load_to_pinned_values():
    # every value the program reads for the bundled scenarios, pinned; the
    # specs come from TOOL_TABLE and equal those the version-1 files stored
    loaded = [
        {
            "scenario_id": sc.scenario_id,
            "task_type": sc.task_type,
            "tools": sc.tools,
            "objects": [asdict(o) for o in sc.objects],
            "ground_truth": asdict(sc.ground_truth),
            "tool_specs": [{name: getattr(sc.spec_for_tool(tool), name) for name in SPEC_FIELDS}
                           for tool in sc.tools],
            "noise": asdict(sc.noise),
        }
        for sc in map(load_scenario, sorted(benchmark_dir().glob("*.json")))
    ]
    assert len(loaded) == 90
    assert _sha256(loaded) == "6d670e0d4be2ea850dbf192447fe7c5bfb7b7f4893cb99316e7ae835397a7583"


def test_default_library_loads_to_pinned_values():
    assert (_sha256([asdict(o) for o in default_library()])
            == "2295b411cfd0e22c931a4694ac19def2f66b3a8b1331eca9490647cacfafe9a2")


# -- the JSON boundary ---------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)

BUNDLED_CASE = json.loads((benchmark_dir() / "woodworking_hammer_case00.json").read_text())
FIELD_PATHS = [
    ("format_version",),
    ("scenario_id",),
    ("task_type",),
    ("objects",),
    ("objects", 0),
    ("objects", 0, "object_id"),
    ("objects", 0, "shape_conf"),
    ("objects", 0, "shape_conf", "handle"),
    ("objects", 0, "material_conf"),
    ("objects", 0, "material_conf", "wood"),
    ("objects", 0, "pierceable"),
    ("objects", 0, "has_magnet"),
    ("ground_truth",),
    ("ground_truth", "action_part"),
    ("ground_truth", "grasp_part"),
    ("ground_truth", "tool"),
    ("tools",),
    ("tools", 0),
    ("noise",),
    ("noise", "seed"),
    ("noise", "shape_jitter"),
]


@settings(max_examples=300, deadline=None)
@given(data=json_values)
def test_scenario_from_json_arbitrary_values_raise_only_fgs_errors(data):
    with pytest.raises(FgsError):
        scenario_from_json(data)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=json_values)
def test_scenario_from_json_one_bad_field_raises_only_fgs_errors(path, value):
    data = copy.deepcopy(BUNDLED_CASE)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        scenario_from_json(data)
    except FgsError:
        pass
