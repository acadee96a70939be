"""File-driven stand-ins for perception: object profiles, scenarios, noise.

A scenario bundles the candidate objects' perception outputs (shape/material
confidences plus capability flags), the names of its candidate tools, the
annotated ground-truth pair, and a seeded noise spec. Profiles carry
network *outputs*, never raw features; noise is injected here so scoring
stays deterministic.

Scenario files are JSON with a format_version field. The record dataclasses
are the schema: each field is read through the check its annotation implies
(see the README for the field table). A tool's spec is domain knowledge,
not part of the file: every scenario reads it from TOOL_TABLE by name.

One generator draws every scenario: build_benchmark_suite(seed, cases)
is the suite, *cases* scenarios per tool and as many two-tool scenarios per
task type, whose noise arms a few single-tool cases with a sure false
negative. At BENCH_SEED and BENCH_CASES_PER_TOOL it is the bundled files;
`fgs bench --generate` draws it at any seed and number of cases. Only this
module knows the '<task>_<tool or either>_case<i>' scenario ids.
"""

from __future__ import annotations

import json
import random
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .assets import TASK_TOOLS, data_dir
from .errors import InternalError, ValidationError
from .scoring import (
    ATTACH_GRASP,
    ATTACH_PIERCE,
    MATERIAL_CLASSES,
    NEG_INF,
    ObjectProfile,
    ToolSpec,
    can_attach,
    feature_score,
    material_fit,
)

SCENARIO_FORMAT_VERSION = 2
LIBRARY_FORMAT_VERSION = 1

TOOL_TABLE: dict[str, ToolSpec] = {
    "hammer": ToolSpec(
        "hammer", "join-hammer", "hammer_head", frozenset({"metal", "wood"}), "hit"
    ),
    "screwdriver": ToolSpec(
        "screwdriver", "join-screwdriver", "screwdriver_tip", frozenset({"plastic", "metal"}), "tighten"
    ),
    "spatula": ToolSpec(
        "spatula", "join-spatula", "spatula_head", frozenset({"plastic", "wood", "metal"}), "flip"
    ),
    "ladle": ToolSpec(
        "ladle", "join-ladle", "ladle_bowl", frozenset({"plastic", "wood", "metal"}), "scoop"
    ),
    "rake": ToolSpec(
        "rake", "join-rake", "rake_head", frozenset({"plastic", "wood", "metal"}), "collect"
    ),
    "squeegee": ToolSpec(
        "squeegee", "join-squeegee", "squeegee_head", frozenset({"foam"}), "reach"
    ),
}

# Confidence ranges the generator draws from. Ground-truth parts score high
# on their own role and carry the strongest material read, so the true pair
# strictly outranks every distractor pair under noiseless scoring.
GT_SHAPE_RANGE = (0.70, 0.95)
DISTRACTOR_SHAPE_RANGE = (0.0, 0.49)
GT_MATERIAL_RANGE = (0.86, 0.95)
DISTRACTOR_MATERIAL_RANGE = (0.35, 0.72)
SCENARIO_OBJECTS = 10  # objects in every generated scenario


# -- the JSON boundary -----------------------------------------------------------
# Each check takes (value, field path) and returns the value or raises a
# ValidationError naming the path. A record field is read by the check its
# annotation implies, or by the one named in its metadata.

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def _typed(kind: str, *types):
    def check(value, where: str):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            got = _JSON_KINDS.get(type(value), type(value).__name__)
            raise ValidationError(f"{where}: expected {kind}, got {got}")
        return value

    return check


_as_object = _typed("an object", dict)
_as_list = _typed("a list", list)
_as_number = _typed("a number", int, float)


def _as_float(value, where: str) -> float:
    try:
        return float(_as_number(value, where))
    except OverflowError:
        raise ValidationError(f"{where}: number out of range") from None


_SCALARS = {str: _typed("a string", str), bool: _typed("a boolean", bool),
            int: _typed("an integer", int), float: _as_float}


def _as_material(value, where: str) -> str:
    if _SCALARS[str](value, where) not in MATERIAL_CLASSES:
        raise ValidationError(f"{where}: unknown material '{value}'")
    return value


def _format_version(supported: int):
    def check(value, where: str) -> int:
        if _SCALARS[int](value, where) != supported:
            raise ValidationError(f"{where}: unsupported format_version {value}")
        return value

    return check


@dataclass(frozen=True)
class NoiseSpec:
    seed: int = 0
    material_fn_rate: float = 0.0
    attach_fn_rate: float = 0.0
    shape_jitter: float = 0.0

    def validate(self, where: str = "noise") -> None:
        for name in ("material_fn_rate", "attach_fn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{where}.{name}: {v} not in [0, 1]")
        if not 0.0 <= self.shape_jitter <= 0.5:
            raise ValidationError(f"{where}.shape_jitter: {self.shape_jitter} not in [0, 0.5]")


@dataclass(frozen=True)
class GroundTruth:
    action_part: str
    grasp_part: str
    tool: str

    @property
    def pair(self) -> tuple[str, str]:
        return (self.action_part, self.grasp_part)


@dataclass(frozen=True)
class Scenario:
    # checked first, so a file of another version fails on its version alone
    format_version: int = field(metadata={"check": _format_version(SCENARIO_FORMAT_VERSION)})
    scenario_id: str
    task_type: str
    objects: tuple[ObjectProfile, ...]
    ground_truth: GroundTruth
    tools: tuple[str, ...]  # TOOL_TABLE names; one unless both can finish the task
    noise: NoiseSpec = NoiseSpec()

    def profiles(self) -> dict[str, ObjectProfile]:
        return {o.object_id: o for o in self.objects}

    def registry(self) -> dict[str, ToolSpec]:
        """The spec of each candidate tool, by its join action name."""
        return {TOOL_TABLE[t].join_action_name: TOOL_TABLE[t] for t in self.tools}

    def spec_for_tool(self, tool: str) -> ToolSpec:
        if tool not in self.tools:
            raise ValidationError(f"scenario '{self.scenario_id}' has no tool '{tool}'")
        return TOOL_TABLE[tool]


@dataclass(frozen=True)
class LibraryObject:
    library_id: str
    display_name: str
    material: str = field(metadata={"check": _as_material})
    role_tags: tuple[str, ...] = ()
    pierceable: bool = False
    can_grasp_others: bool = False
    can_be_grasped: bool = False
    has_magnet: bool = False


@dataclass(frozen=True)
class _LibraryFile:
    format_version: int = field(metadata={"check": _format_version(LIBRARY_FORMAT_VERSION)})
    objects: tuple[LibraryObject, ...]


def validate_scenario(sc: Scenario, where: str) -> None:
    """Check what the field types cannot; every message starts with *where*,
    the file name or scenario id, and names the field path."""
    if sc.task_type not in TASK_TOOLS:
        raise ValidationError(f"{where}.task_type: unknown task type '{sc.task_type}'")
    sc.noise.validate(f"{where}.noise")
    if not sc.tools:
        raise ValidationError(f"{where}.tools: no candidate tool")
    for i, tool in enumerate(sc.tools):
        if tool not in TOOL_TABLE:
            raise ValidationError(f"{where}.tools[{i}]: unknown tool '{tool}'")
        if tool not in TASK_TOOLS[sc.task_type]:
            raise ValidationError(f"{where}.tools[{i}]: tool '{tool}' is not registered "
                                  f"for task type '{sc.task_type}'")
        if tool in sc.tools[:i]:
            raise ValidationError(f"{where}.tools[{i}]: duplicate tool '{tool}'")
    known_roles = {role for spec in sc.registry().values()
                   for role in (spec.action_part_role, spec.grasp_part_role)}
    ids = set()
    for i, obj in enumerate(sc.objects):
        obj.validate(known_roles, f"{where}.objects[{i}]")
        if obj.object_id in ids:
            raise ValidationError(f"{where}.objects[{i}]: duplicate object_id '{obj.object_id}'")
        ids.add(obj.object_id)
    gt = sc.ground_truth
    if gt.tool not in sc.tools:
        raise ValidationError(f"{where}.ground_truth.tool: '{gt.tool}' not among candidate tools")
    for field_name, part in (("action_part", gt.action_part), ("grasp_part", gt.grasp_part)):
        if part not in ids:
            raise ValidationError(f"{where}.ground_truth.{field_name}: unknown object '{part}'")
    if gt.action_part == gt.grasp_part:
        raise ValidationError(f"{where}.ground_truth: action and grasp parts must differ")
    profiles = sc.profiles()
    spec = sc.spec_for_tool(gt.tool)
    attached, _ = can_attach(gt.pair, profiles)
    if not attached:
        raise ValidationError(f"{where}.ground_truth: pair fails attachment under noiseless profiles")
    if material_fit(gt.pair, spec, profiles) == NEG_INF:
        raise ValidationError(f"{where}.ground_truth: pair fails the material constraint")


# -- JSON round trip -----------------------------------------------------------


def _to_json(value):
    """The JSON form of a record: its dataclass fields in order, a tuple as
    a list, a dict with its keys sorted."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(value[k]) for k in sorted(value)}
    return value


def scenario_to_json(sc: Scenario) -> dict:
    return _to_json(sc)


@cache
def _field_checks(cls) -> dict:
    """The check of each field of the record type *cls*."""
    hints = get_type_hints(cls)
    return {f.name: f.metadata.get("check") or _check_for(hints[f.name])
            for f in fields(cls)}


def _check_for(tp):
    """The check for a field annotated *tp*: a scalar, dict[str, X],
    tuple[X, ...] read from a list, or a record."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if is_dataclass(tp):
        return partial(_record, tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin is dict:
        value_check = _check_for(args[1])
        return lambda value, where: {
            k: value_check(v, f"{where}.{k}") for k, v in _as_object(value, where).items()
        }
    if origin is tuple:
        item_check = _check_for(args[0])
        return lambda value, where: tuple(
            item_check(item, f"{where}[{i}]") for i, item in enumerate(_as_list(value, where))
        )
    raise InternalError(f"no JSON check for a field of type {tp}")


def _record(cls, data, where: str):
    """An instance of *cls* read from a JSON object: every field through its
    check, in field order; an absent field takes its dataclass default,
    and a key that names no field is an error."""
    data = _as_object(data, where)
    checks = _field_checks(cls)
    values = {}
    for f in fields(cls):
        if f.name in data:
            values[f.name] = checks[f.name](data[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{where}.{f.name}: missing required field")
    for key in data:
        if key not in checks:
            raise ValidationError(f"{where}.{key}: unknown field")
    return cls(**values)


def scenario_from_json(data, where: str = "scenario") -> Scenario:
    sc = _record(Scenario, data, where)
    validate_scenario(sc, where)
    return sc


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting too deep
            raise ValidationError(f"{path.name}: invalid JSON: {exc}") from None


def load_scenario(path) -> Scenario:
    path = Path(path)
    return scenario_from_json(_load_json(path), where=path.name)


def save_scenario(sc: Scenario, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_json(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- sensing (noise injection) ---------------------------------------------------


def sense(scenario: Scenario, noise_on: bool) -> dict[str, ObjectProfile]:
    """Effective profiles for one episode. A pure function of the scenario
    and its embedded noise seed: the same inputs always sense the same
    world."""
    profiles = scenario.profiles()
    if not noise_on:
        return profiles
    noise = scenario.noise
    rng = random.Random(f"sense:{noise.seed}")
    corrupt_material = rng.random() < noise.material_fn_rate
    corrupt_attach = rng.random() < noise.attach_fn_rate
    out = dict(profiles)
    gt = scenario.ground_truth
    if corrupt_material:
        spec = scenario.spec_for_tool(gt.tool)
        out[gt.action_part] = _misread_material(out[gt.action_part], spec)
    if corrupt_attach:
        _misread_attachment(out, gt)
    if noise.shape_jitter > 0.0:
        j = noise.shape_jitter
        for obj in scenario.objects:  # file order; role order sorted
            conf = dict(out[obj.object_id].shape_conf)
            for role in sorted(conf):
                conf[role] = min(1.0, max(0.0, conf[role] + rng.uniform(-j, j)))
            out[obj.object_id] = replace(out[obj.object_id], shape_conf=conf)
    return out


def _misread_material(profile: ObjectProfile, spec: ToolSpec) -> ObjectProfile:
    """Drop every allowed-material confidence below threshold, moving the
    lost mass onto a class the tool cannot use (every table tool leaves one
    out)."""
    conf = dict(profile.material_conf)
    sink = next(c for c in MATERIAL_CLASSES if c not in spec.allowed_materials)
    for cls in sorted(spec.allowed_materials):
        v = conf.get(cls, 0.0)
        if v > 0.3:
            conf[sink] = conf.get(sink, 0.0) + (v - 0.3)
            conf[cls] = 0.3
    return replace(profile, material_conf=conf)


def _misread_attachment(out: dict[str, ObjectProfile], gt: GroundTruth) -> None:
    """Clear the capability flag behind the attachment kind that can_attach
    reports for the pair, until the pair no longer attaches: pierceable on
    both parts, can_grasp_others on the grasp part, has_magnet on the action
    part."""
    while True:
        attachable, kind = can_attach(gt.pair, out)
        if not attachable:
            return
        if kind == ATTACH_PIERCE:
            for part in gt.pair:
                out[part] = replace(out[part], pierceable=False)
        elif kind == ATTACH_GRASP:
            out[gt.grasp_part] = replace(out[gt.grasp_part], can_grasp_others=False)
        else:
            out[gt.action_part] = replace(out[gt.action_part], has_magnet=False)


# -- object library --------------------------------------------------------------


def load_library(path) -> tuple[LibraryObject, ...]:
    path = Path(path)
    return _record(_LibraryFile, _load_json(path), path.name).objects


def default_library() -> tuple[LibraryObject, ...]:
    return load_library(data_dir() / "library" / "objects.json")


# -- scenario generation -----------------------------------------------------------


def _residual_materials(dominant: str, conf: float) -> dict[str, float]:
    order = [c for c in MATERIAL_CLASSES if c != dominant]
    rest = 1.0 - conf
    return {dominant: conf, order[0]: round(rest * 0.35, 6), order[1]: round(rest * 0.2, 6)}


def _build_scenario(scenario_id: str, task_type: str, tools: tuple[str, ...], gt_tool: str,
                    rng: random.Random, library, noise: NoiseSpec) -> Scenario:
    gt_spec = TOOL_TABLE[gt_tool]
    action_pool = [
        o
        for o in library
        if gt_spec.action_part_role in o.role_tags and o.material in gt_spec.allowed_materials
    ]
    grasp_role = gt_spec.grasp_part_role
    too_small = ValidationError(
        f"object library too small to build a '{gt_tool}' scenario with {SCENARIO_OBJECTS} objects"
    )
    if not action_pool or len(library) < SCENARIO_OBJECTS:
        raise too_small
    action_lib = rng.choice(action_pool)
    grasp_pool = [
        o for o in library if grasp_role in o.role_tags and o.library_id != action_lib.library_id
    ]
    if not grasp_pool:
        raise too_small
    grasp_lib = rng.choice(grasp_pool)
    rest = [o for o in library if o.library_id not in (action_lib.library_id, grasp_lib.library_id)]
    distractors = rng.sample(rest, SCENARIO_OBJECTS - 2)
    lineup = [action_lib, grasp_lib, *distractors]
    rng.shuffle(lineup)

    # can_attach reads only the capability flags, which library objects share
    attachable, _ = can_attach(("action", "grasp"), {"action": action_lib, "grasp": grasp_lib})
    magnet_override = not attachable
    roles = sorted({role for t in tools
                    for role in (TOOL_TABLE[t].action_part_role, TOOL_TABLE[t].grasp_part_role)})
    profiles = []
    for idx, lib in enumerate(lineup):
        oid = f"obj{idx}"
        shape = {}
        for role in roles:
            if lib is action_lib and role == gt_spec.action_part_role:
                shape[role] = round(rng.uniform(*GT_SHAPE_RANGE), 6)
            elif lib is grasp_lib and role == grasp_role:
                shape[role] = round(rng.uniform(*GT_SHAPE_RANGE), 6)
            else:
                shape[role] = round(rng.uniform(*DISTRACTOR_SHAPE_RANGE), 6)
        mat_range = GT_MATERIAL_RANGE if lib is action_lib else DISTRACTOR_MATERIAL_RANGE
        materials = _residual_materials(lib.material, round(rng.uniform(*mat_range), 6))
        profiles.append(
            ObjectProfile(
                object_id=oid,
                shape_conf=shape,
                material_conf=materials,
                pierceable=lib.pierceable,
                can_grasp_others=lib.can_grasp_others,
                can_be_grasped=lib.can_be_grasped,
                has_magnet=lib.has_magnet
                or (magnet_override and lib in (action_lib, grasp_lib)),
            )
        )
        if lib is action_lib:
            gt_action_id = oid
        if lib is grasp_lib:
            gt_grasp_id = oid

    sc = Scenario(
        format_version=SCENARIO_FORMAT_VERSION,
        scenario_id=scenario_id,
        task_type=task_type,
        objects=tuple(profiles),
        ground_truth=GroundTruth(gt_action_id, gt_grasp_id, gt_tool),
        tools=tools,
        noise=noise,
    )
    validate_scenario(sc, scenario_id)
    _check_ground_truth_ranks_first(sc)
    return sc


def _check_ground_truth_ranks_first(sc: Scenario) -> None:
    """Generator self-check: under noiseless trusted scoring, the annotated
    pair must strictly outrank every other (pair, join) combination."""
    registry, profiles = sc.registry(), sc.profiles()
    gt = sc.ground_truth
    gt_action = sc.spec_for_tool(gt.tool).join_action_name
    ids = [o.object_id for o in sc.objects]
    best = feature_score(registry[gt_action], gt.pair, profiles, None)
    if best == NEG_INF:
        raise InternalError(f"{sc.scenario_id}: ground-truth pair scores -inf")
    for join in registry:
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                if (a, b) == gt.pair and join == gt_action:
                    continue
                phi = feature_score(registry[join], (a, b), profiles, None)
                if phi >= best:
                    raise InternalError(
                        f"{sc.scenario_id}: pair ({a},{b}) via {join} "
                        f"scores {phi:.4f} >= ground truth {best:.4f}"
                    )


BENCH_SEED = 1729
BENCH_CASES_PER_TOOL = 10
BENCH_MATERIAL_ARMED = 4  # single-tool scenarios with a forced material false negative
BENCH_ATTACH_ARMED = 4  # and with a forced attachment false negative
ADAPT_NOISE = dict(material_fn_rate=0.05, attach_fn_rate=0.05, shape_jitter=0.02)


def build_benchmark_suite(seed: int = BENCH_SEED,
                          cases: int = BENCH_CASES_PER_TOOL) -> list[Scenario]:
    """The suite drawn at *seed* from the object library under data_dir():
    *cases* scenarios per tool plus as many two-tool scenarios per task
    type, sorted by id. At the defaults it is the bundled suite."""
    library = default_library()
    armed = _armed_noise(seed, cases)
    out = [sc for task in sorted(TASK_TOOLS) for label in (*TASK_TOOLS[task], "either")
           for sc in _generate(task, label, cases, seed, library, armed)]
    return sorted(out, key=lambda s: s.scenario_id)


def _armed_noise(seed: int, cases: int) -> dict[str, dict]:
    """Single-tool ids, drawn across every kind at *cases*, given a sure false
    negative: up to BENCH_MATERIAL_ARMED material, then BENCH_ATTACH_ARMED attachment."""
    single_ids = sorted(f"{task}_{tool}_case{i:02d}"
                        for task in TASK_TOOLS for tool in TASK_TOOLS[task] for i in range(cases))
    drawn = random.Random(f"bench-noise:{seed}").sample(
        single_ids, min(len(single_ids), BENCH_MATERIAL_ARMED + BENCH_ATTACH_ARMED))
    return {sid: dict(material_fn_rate=1.0) if k < BENCH_MATERIAL_ARMED
            else dict(attach_fn_rate=1.0) for k, sid in enumerate(drawn)}


def _generate(task_type: str, label: str, cases: int, seed: int, library, armed) -> list[Scenario]:
    """Case i is '<task_type>_<label>_case<i>', drawn from its own seeded rng.

    Single-tool cases hold SCENARIO_OBJECTS objects, one valid combination
    and the rest distractors failing at least one of shape, material and
    attachment; those named in *armed* (_armed_noise) carry its false
    negative on the ground-truth pair, which fires whenever an episode runs
    with noise on. Two-tool cases ('either') could be finished by either of
    the task's tools, but their objects afford only the ground-truth one,
    which alternates between the two; they carry the mild noise ADAPT_NOISE."""
    if label == "either":
        tools, rng_key = TASK_TOOLS[task_type], f"gen-adapt:{seed}:{task_type}"
    else:
        tools, rng_key = (label,), f"gen:{seed}:{task_type}:{label}"
    out = []
    for i in range(cases):
        sid = f"{task_type}_{label}_case{i:02d}"
        rng = random.Random(f"{rng_key}:{i}")
        rates = ADAPT_NOISE if label == "either" else armed.get(sid)
        if rates is None:  # an unarmed case draws its noise seed before its objects
            noise = NoiseSpec(seed=rng.randrange(2**31))
        else:
            noise = NoiseSpec(seed=random.Random(f"noise:{seed}:{sid}").randrange(2**31), **rates)
        out.append(_build_scenario(sid, task_type, tools, tools[i % len(tools)], rng, library,
                                   noise))
    return out
