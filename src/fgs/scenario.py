"""File-driven stand-ins for perception: object profiles, scenarios, noise.

A scenario bundles the candidate objects' perception outputs (shape/material
confidences plus capability flags), the tool specs its join actions need,
the annotated ground-truth pair, and a seeded noise spec. Profiles carry
network *outputs*, never raw features; noise is injected here so scoring
stays deterministic.

Scenario files are JSON with a format_version field; see the README for the
field table.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import InternalError, ValidationError
from .scoring import (
    MATERIAL_CLASSES,
    NEG_INF,
    ObjectProfile,
    ScoreParams,
    ToolSpec,
    can_attach,
    feature_score,
    material_fit,
)

FORMAT_VERSION = 1

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

TASK_TOOLS: dict[str, tuple[str, str]] = {
    "woodworking": ("hammer", "screwdriver"),
    "cooking": ("spatula", "ladle"),
    "cleaning": ("rake", "squeegee"),
}

# Confidence ranges the generator draws from. Ground-truth parts score high
# on their own role and carry the strongest material read, so the true pair
# strictly outranks every distractor pair under noiseless scoring.
GT_SHAPE_RANGE = (0.70, 0.95)
DISTRACTOR_SHAPE_RANGE = (0.0, 0.49)
GT_MATERIAL_RANGE = (0.86, 0.95)
DISTRACTOR_MATERIAL_RANGE = (0.35, 0.72)


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
    scenario_id: str
    task_type: str
    tools: tuple[str, ...]  # candidate tools; one entry unless both can finish the task
    n: int
    objects: tuple[ObjectProfile, ...]
    ground_truth: GroundTruth
    tool_specs: tuple[ToolSpec, ...]
    noise: NoiseSpec
    format_version: int = FORMAT_VERSION

    def profiles(self) -> dict[str, ObjectProfile]:
        return {o.object_id: o for o in self.objects}

    def registry(self) -> dict[str, ToolSpec]:
        return {spec.join_action_name: spec for spec in self.tool_specs}

    def spec_for_tool(self, tool: str) -> ToolSpec:
        for spec in self.tool_specs:
            if spec.tool == tool:
                return spec
        raise ValidationError(f"scenario '{self.scenario_id}' has no spec for tool '{tool}'")


def validate_scenario(sc: Scenario, params: ScoreParams | None = None) -> None:
    params = params or ScoreParams()
    where = f"scenario '{sc.scenario_id}'"
    sc.noise.validate()
    if sc.format_version != FORMAT_VERSION:
        raise ValidationError(f"{where}: unsupported format_version {sc.format_version}")
    if sc.n != len(sc.objects):
        raise ValidationError(f"{where}: n={sc.n} but {len(sc.objects)} objects listed")
    if not sc.tool_specs:
        raise ValidationError(f"{where}: tool_specs is empty")
    known_roles: set[str] = set()
    for spec in sc.tool_specs:
        spec.validate()
        known_roles.add(spec.action_part_role)
        known_roles.add(spec.grasp_part_role)
    spec_tools = tuple(spec.tool for spec in sc.tool_specs)
    if tuple(sc.tools) != spec_tools:
        raise ValidationError(f"{where}: tools {sc.tools} do not match tool_specs {spec_tools}")
    ids = set()
    for i, obj in enumerate(sc.objects):
        obj.validate(known_roles, where=f"objects[{i}]")
        if obj.object_id in ids:
            raise ValidationError(f"objects[{i}]: duplicate object_id '{obj.object_id}'")
        ids.add(obj.object_id)
    gt = sc.ground_truth
    if gt.tool not in sc.tools:
        raise ValidationError(f"ground_truth.tool: '{gt.tool}' not among candidate tools")
    for field_name, part in (("action_part", gt.action_part), ("grasp_part", gt.grasp_part)):
        if part not in ids:
            raise ValidationError(f"ground_truth.{field_name}: unknown object '{part}'")
    if gt.action_part == gt.grasp_part:
        raise ValidationError("ground_truth: action and grasp parts must differ")
    profiles = sc.profiles()
    spec = sc.spec_for_tool(gt.tool)
    attached, _ = can_attach(gt.pair, profiles)
    if not attached:
        raise ValidationError(f"{where}: ground-truth pair fails attachment under noiseless profiles")
    if material_fit(gt.pair, spec, profiles, params) == NEG_INF:
        raise ValidationError(f"{where}: ground-truth pair fails the material constraint")


# -- JSON round trip -----------------------------------------------------------


def _profile_to_json(p: ObjectProfile) -> dict:
    return {
        "object_id": p.object_id,
        "shape_conf": dict(sorted(p.shape_conf.items())),
        "material_conf": dict(sorted(p.material_conf.items())),
        "pierceable": p.pierceable,
        "can_grasp_others": p.can_grasp_others,
        "can_be_grasped": p.can_be_grasped,
        "has_magnet": p.has_magnet,
    }


def _spec_to_json(s: ToolSpec) -> dict:
    return {
        "tool": s.tool,
        "join_action_name": s.join_action_name,
        "action_part_role": s.action_part_role,
        "grasp_part_role": s.grasp_part_role,
        "allowed_materials": sorted(s.allowed_materials),
        "use_action": s.use_action,
        "num_parts": s.num_parts,
    }


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "format_version": sc.format_version,
        "scenario_id": sc.scenario_id,
        "task_type": sc.task_type,
        "tools": list(sc.tools),
        "n": sc.n,
        "objects": [_profile_to_json(o) for o in sc.objects],
        "ground_truth": {
            "action_part": sc.ground_truth.action_part,
            "grasp_part": sc.ground_truth.grasp_part,
            "tool": sc.ground_truth.tool,
        },
        "tool_specs": [_spec_to_json(s) for s in sc.tool_specs],
        "noise": {
            "seed": sc.noise.seed,
            "material_fn_rate": sc.noise.material_fn_rate,
            "attach_fn_rate": sc.noise.attach_fn_rate,
            "shape_jitter": sc.noise.shape_jitter,
        },
    }


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValidationError(f"{where}.{key}: missing required field")
    return data[key]


# Type checks at the JSON boundary: each takes (value, field path) and
# returns the value or raises a ValidationError naming the path.

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def _typed(kind: str, *types):
    def check(value, where: str):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            got = _JSON_KINDS.get(type(value), type(value).__name__)
            raise ValidationError(f"{where}: expected {kind}, got {got}")
        return value

    return check


_as_str = _typed("a string", str)
_as_bool = _typed("a boolean", bool)
_as_int = _typed("an integer", int)
_as_object = _typed("an object", dict)
_as_list = _typed("a list", list)
_as_number = _typed("a number", int, float)


def _as_float(value, where: str) -> float:
    try:
        return float(_as_number(value, where))
    except OverflowError:
        raise ValidationError(f"{where}: number out of range") from None


def _as_str_list(value, where: str) -> list[str]:
    return [_as_str(item, f"{where}[{i}]") for i, item in enumerate(_as_list(value, where))]


def _as_conf_map(value, where: str) -> dict[str, float]:
    return {k: _as_float(v, f"{where}.{k}") for k, v in _as_object(value, where).items()}


def _field(data: dict, key: str, where: str, check, default=None):
    """data[key] checked by *check*; *default* when the key is absent, and a
    ValidationError when it is absent and has no default."""
    if key not in data and default is not None:
        return default
    return check(_require(data, key, where), f"{where}.{key}")


def scenario_from_json(data, where: str = "scenario") -> Scenario:
    data = _as_object(data, where)
    gt_where = f"{where}.ground_truth"
    gt_data = _require(data, "ground_truth", where)
    if isinstance(gt_data, list):
        if len(gt_data) != 1:
            raise ValidationError(
                f"{gt_where}: exactly one ground-truth pair required, got {len(gt_data)}"
            )
        gt_data, gt_where = gt_data[0], f"{gt_where}[0]"
    gt_data = _as_object(gt_data, gt_where)
    objects = []
    for i, entry in enumerate(_field(data, "objects", where, _as_list)):
        w = f"{where}.objects[{i}]"
        entry = _as_object(entry, w)
        objects.append(
            ObjectProfile(
                object_id=_field(entry, "object_id", w, _as_str),
                shape_conf=_field(entry, "shape_conf", w, _as_conf_map, {}),
                material_conf=_field(entry, "material_conf", w, _as_conf_map, {}),
                pierceable=_field(entry, "pierceable", w, _as_bool, False),
                can_grasp_others=_field(entry, "can_grasp_others", w, _as_bool, False),
                can_be_grasped=_field(entry, "can_be_grasped", w, _as_bool, False),
                has_magnet=_field(entry, "has_magnet", w, _as_bool, False),
            )
        )
    specs = []
    for i, entry in enumerate(_field(data, "tool_specs", where, _as_list)):
        w = f"{where}.tool_specs[{i}]"
        entry = _as_object(entry, w)
        specs.append(
            ToolSpec(
                tool=_field(entry, "tool", w, _as_str),
                join_action_name=_field(entry, "join_action_name", w, _as_str),
                action_part_role=_field(entry, "action_part_role", w, _as_str),
                allowed_materials=frozenset(_field(entry, "allowed_materials", w, _as_str_list)),
                use_action=_field(entry, "use_action", w, _as_str),
                grasp_part_role=_field(entry, "grasp_part_role", w, _as_str, "handle"),
                num_parts=_field(entry, "num_parts", w, _as_int, 2),
            )
        )
    noise_data = _field(data, "noise", where, _as_object, {})
    nw = f"{where}.noise"
    sc = Scenario(
        scenario_id=_field(data, "scenario_id", where, _as_str),
        task_type=_field(data, "task_type", where, _as_str),
        tools=tuple(_field(data, "tools", where, _as_str_list)),
        n=_field(data, "n", where, _as_int),
        objects=tuple(objects),
        ground_truth=GroundTruth(
            action_part=_field(gt_data, "action_part", gt_where, _as_str),
            grasp_part=_field(gt_data, "grasp_part", gt_where, _as_str),
            tool=_field(gt_data, "tool", gt_where, _as_str),
        ),
        tool_specs=tuple(specs),
        noise=NoiseSpec(
            seed=_field(noise_data, "seed", nw, _as_int, 0),
            material_fn_rate=_field(noise_data, "material_fn_rate", nw, _as_float, 0.0),
            attach_fn_rate=_field(noise_data, "attach_fn_rate", nw, _as_float, 0.0),
            shape_jitter=_field(noise_data, "shape_jitter", nw, _as_float, 0.0),
        ),
        format_version=_field(data, "format_version", where, _as_int, -1),
    )
    validate_scenario(sc)
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
    lost mass onto a class the tool cannot use."""
    conf = dict(profile.material_conf)
    sink = next(c for c in MATERIAL_CLASSES if c not in spec.allowed_materials)
    for cls in sorted(spec.allowed_materials):
        v = conf.get(cls, 0.0)
        if v > 0.3:
            conf[sink] = conf.get(sink, 0.0) + (v - 0.3)
            conf[cls] = 0.3
    return replace(profile, material_conf=conf)


def _misread_attachment(out: dict[str, ObjectProfile], gt: GroundTruth) -> None:
    """Flip whichever capability flags currently let the pair attach."""
    action, grasp = out[gt.action_part], out[gt.grasp_part]
    if action.pierceable != grasp.pierceable:
        if action.pierceable:
            action = replace(action, pierceable=False)
        else:
            grasp = replace(grasp, pierceable=False)
    if grasp.can_grasp_others and action.can_be_grasped:
        grasp = replace(grasp, can_grasp_others=False)
    if action.has_magnet and grasp.has_magnet:
        action = replace(action, has_magnet=False)
    out[gt.action_part] = action
    out[gt.grasp_part] = grasp


# -- object library --------------------------------------------------------------


@dataclass(frozen=True)
class LibraryObject:
    library_id: str
    display_name: str
    material: str
    role_tags: tuple[str, ...]
    pierceable: bool = False
    can_grasp_others: bool = False
    can_be_grasped: bool = False
    has_magnet: bool = False


def load_library(path) -> tuple[LibraryObject, ...]:
    path = Path(path)
    where = path.name
    data = _as_object(_load_json(path), where)
    objects = []
    for i, entry in enumerate(_field(data, "objects", where, _as_list)):
        w = f"{where}.objects[{i}]"
        entry = _as_object(entry, w)
        obj = LibraryObject(
            library_id=_field(entry, "library_id", w, _as_str),
            display_name=_field(entry, "display_name", w, _as_str),
            material=_field(entry, "material", w, _as_str),
            role_tags=tuple(_field(entry, "role_tags", w, _as_str_list, [])),
            pierceable=_field(entry, "pierceable", w, _as_bool, False),
            can_grasp_others=_field(entry, "can_grasp_others", w, _as_bool, False),
            can_be_grasped=_field(entry, "can_be_grasped", w, _as_bool, False),
            has_magnet=_field(entry, "has_magnet", w, _as_bool, False),
        )
        if obj.material not in MATERIAL_CLASSES:
            raise ValidationError(f"{w}.material: unknown material '{obj.material}'")
        objects.append(obj)
    return tuple(objects)


def default_library() -> tuple[LibraryObject, ...]:
    from .assets import data_dir

    return load_library(data_dir() / "library" / "objects.json")


# -- scenario generation -----------------------------------------------------------


def _residual_materials(dominant: str, conf: float) -> dict[str, float]:
    order = [c for c in MATERIAL_CLASSES if c != dominant]
    rest = 1.0 - conf
    return {dominant: conf, order[0]: round(rest * 0.35, 6), order[1]: round(rest * 0.2, 6)}


def _build_scenario(
    scenario_id: str,
    task_type: str,
    specs: list[ToolSpec],
    gt_tool: str,
    rng: random.Random,
    library,
    n: int,
    noise: NoiseSpec,
) -> Scenario:
    gt_spec = next(s for s in specs if s.tool == gt_tool)
    action_pool = [
        o
        for o in library
        if gt_spec.action_part_role in o.role_tags and o.material in gt_spec.allowed_materials
    ]
    grasp_pool = [o for o in library if "handle" in o.role_tags]
    if not action_pool or len(grasp_pool) < 1 or len(library) < n:
        raise ValidationError(
            f"object library too small to build a '{gt_tool}' scenario with {n} objects"
        )
    action_lib = rng.choice(action_pool)
    grasp_lib = rng.choice([o for o in grasp_pool if o.library_id != action_lib.library_id])
    rest = [o for o in library if o.library_id not in (action_lib.library_id, grasp_lib.library_id)]
    distractors = rng.sample(rest, n - 2)
    lineup = [action_lib, grasp_lib, *distractors]
    rng.shuffle(lineup)

    # can_attach reads only the capability flags, which library objects share
    attachable, _ = can_attach(("action", "grasp"), {"action": action_lib, "grasp": grasp_lib})
    magnet_override = not attachable
    roles = sorted({s.action_part_role for s in specs} | {"handle"})
    profiles = []
    for idx, lib in enumerate(lineup):
        oid = f"obj{idx}"
        shape = {}
        for role in roles:
            if lib is action_lib and role == gt_spec.action_part_role:
                shape[role] = round(rng.uniform(*GT_SHAPE_RANGE), 6)
            elif lib is grasp_lib and role == "handle":
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
        scenario_id=scenario_id,
        task_type=task_type,
        tools=tuple(s.tool for s in specs),
        n=n,
        objects=tuple(profiles),
        ground_truth=GroundTruth(gt_action_id, gt_grasp_id, gt_tool),
        tool_specs=tuple(specs),
        noise=noise,
    )
    validate_scenario(sc)
    _check_ground_truth_ranks_first(sc)
    return sc


def _check_ground_truth_ranks_first(sc: Scenario) -> None:
    """Generator self-check: under noiseless trusted scoring, the annotated
    pair must strictly outrank every other (pair, join) combination."""
    profiles = sc.profiles()
    registry = sc.registry()
    params = ScoreParams()
    gt = sc.ground_truth
    gt_action = sc.spec_for_tool(gt.tool).join_action_name
    ids = [o.object_id for o in sc.objects]
    best = feature_score(gt_action, gt.pair, True, set(), registry, profiles, params)
    if best == NEG_INF:
        raise InternalError(f"{sc.scenario_id}: ground-truth pair scores -inf")
    for spec in sc.tool_specs:
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                if (a, b) == gt.pair and spec.join_action_name == gt_action:
                    continue
                phi = feature_score(
                    spec.join_action_name, (a, b), True, set(), registry, profiles, params
                )
                if phi >= best:
                    raise InternalError(
                        f"{sc.scenario_id}: pair ({a},{b}) via {spec.join_action_name} "
                        f"scores {phi:.4f} >= ground truth {best:.4f}"
                    )


def generate_benchmark(
    task_type: str,
    tool: str,
    cases: int,
    seed: int,
    *,
    library=None,
    n: int = 10,
    noise_overrides: dict[int, NoiseSpec] | None = None,
) -> list[Scenario]:
    """Seeded single-tool scenarios: 10 objects, one valid combination, the
    rest distractors failing at least one of shape/material/attachment."""
    if tool not in TOOL_TABLE:
        raise ValidationError(f"unknown tool '{tool}'")
    if tool not in TASK_TOOLS.get(task_type, ()):
        raise ValidationError(f"tool '{tool}' is not registered for task type '{task_type}'")
    library = library or default_library()
    out = []
    for i in range(cases):
        rng = random.Random(f"gen:{seed}:{task_type}:{tool}:{i}")
        noise = (noise_overrides or {}).get(i) or NoiseSpec(seed=rng.randrange(2**31))
        out.append(
            _build_scenario(
                scenario_id=f"{task_type}_{tool}_case{i:02d}",
                task_type=task_type,
                specs=[TOOL_TABLE[tool]],
                gt_tool=tool,
                rng=rng,
                library=library,
                n=n,
                noise=noise,
            )
        )
    return out


BENCH_SEED = 1729
BENCH_CASES_PER_TOOL = 10
BENCH_MATERIAL_ARMED = 4  # single-tool scenarios with a forced material false negative
BENCH_ATTACH_ARMED = 4  # and with a forced attachment false negative
ADAPT_NOISE = dict(material_fn_rate=0.05, attach_fn_rate=0.05, shape_jitter=0.02)


def _derived_noise_seed(seed: int, scenario_id: str) -> int:
    return random.Random(f"noise:{seed}:{scenario_id}").randrange(2**31)


def build_benchmark_suite(seed: int = BENCH_SEED, *, library=None) -> list[Scenario]:
    """The fixed regression suite: ten scenarios per tool plus ten two-tool
    scenarios per task type. A fixed subset of the single-tool scenarios
    carries always-firing sensor false negatives on the ground-truth pair
    (inactive until an episode runs with noise on); the two-tool scenarios
    carry mild probabilistic noise."""
    single_ids = [
        f"{task}_{tool}_case{i:02d}"
        for task in sorted(TASK_TOOLS)
        for tool in TASK_TOOLS[task]
        for i in range(BENCH_CASES_PER_TOOL)
    ]
    armed = random.Random(f"bench-noise:{seed}").sample(
        sorted(single_ids), BENCH_MATERIAL_ARMED + BENCH_ATTACH_ARMED
    )
    material_armed = set(armed[:BENCH_MATERIAL_ARMED])
    attach_armed = set(armed[BENCH_MATERIAL_ARMED:])

    out: list[Scenario] = []
    for task in sorted(TASK_TOOLS):
        for tool in TASK_TOOLS[task]:
            overrides = {}
            for i in range(BENCH_CASES_PER_TOOL):
                sid = f"{task}_{tool}_case{i:02d}"
                noise_seed = _derived_noise_seed(seed, sid)
                if sid in material_armed:
                    overrides[i] = NoiseSpec(seed=noise_seed, material_fn_rate=1.0)
                elif sid in attach_armed:
                    overrides[i] = NoiseSpec(seed=noise_seed, attach_fn_rate=1.0)
            out.extend(
                generate_benchmark(
                    task, tool, BENCH_CASES_PER_TOOL, seed,
                    library=library, noise_overrides=overrides,
                )
            )
        adapt_overrides = {
            i: NoiseSpec(
                seed=_derived_noise_seed(seed, f"{task}_either_case{i:02d}"), **ADAPT_NOISE
            )
            for i in range(BENCH_CASES_PER_TOOL)
        }
        out.extend(
            generate_adaptability(
                task, BENCH_CASES_PER_TOOL, seed,
                library=library, noise_overrides=adapt_overrides,
            )
        )
    return sorted(out, key=lambda s: s.scenario_id)


def generate_adaptability(
    task_type: str,
    cases: int,
    seed: int,
    *,
    library=None,
    n: int = 10,
    noise_overrides: dict[int, NoiseSpec] | None = None,
) -> list[Scenario]:
    """Two-tool scenarios: either tool's join could complete the task, but
    the objects only afford one of them. Ground truth alternates between the
    task's two tools."""
    tools = TASK_TOOLS.get(task_type)
    if tools is None:
        raise ValidationError(f"unknown task type '{task_type}'")
    library = library or default_library()
    specs = [TOOL_TABLE[t] for t in tools]
    out = []
    for i in range(cases):
        rng = random.Random(f"gen-adapt:{seed}:{task_type}:{i}")
        noise = (noise_overrides or {}).get(i) or NoiseSpec(seed=rng.randrange(2**31))
        out.append(
            _build_scenario(
                scenario_id=f"{task_type}_either_case{i:02d}",
                task_type=task_type,
                specs=specs,
                gt_tool=tools[i % 2],
                rng=rng,
                library=library,
                n=n,
                noise=noise,
            )
        )
    return out
