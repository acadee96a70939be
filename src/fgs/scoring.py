"""Object-fitness scoring for join actions.

A join action consumes an ordered pair of objects (action part, grasp part).
Its score combines shape fitness (soft, a product of per-role confidences),
material fitness (hard, thresholded on the action part), and attachment
feasibility (hard: pierce, grasp, or magnetic). Under full sensor trust all
three apply; with trust withdrawn, only previously rejected combinations are
re-scored, by shape alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ConfigError, ValidationError

log = logging.getLogger(__name__)

NEG_INF = float("-inf")

MATERIAL_CLASSES = ("metal", "wood", "plastic", "paper", "foam")

ATTACH_PIERCE = "pierce"
ATTACH_GRASP = "grasp"
ATTACH_MAGNETIC = "magnetic"


@dataclass(frozen=True)
class ObjectProfile:
    """Perception outputs for one candidate object.

    Confidences are network outputs in [0, 1]; the material distribution
    sums to at most 1. Capability flags stand in for the pierce / grasp /
    magnet predictors.
    """

    object_id: str
    shape_conf: dict[str, float] = field(default_factory=dict)
    material_conf: dict[str, float] = field(default_factory=dict)
    pierceable: bool = False
    can_grasp_others: bool = False
    can_be_grasped: bool = False
    has_magnet: bool = False

    def validate(self, known_roles: set[str], where: str) -> None:
        for role, conf in self.shape_conf.items():
            if not 0.0 <= conf <= 1.0:
                raise ValidationError(f"{where}.shape_conf.{role}: {conf} not in [0, 1]")
            if role not in known_roles:
                raise ValidationError(f"{where}.shape_conf: unknown part role '{role}'")
        total = 0.0
        for cls, conf in self.material_conf.items():
            if cls not in MATERIAL_CLASSES:
                raise ValidationError(f"{where}.material_conf: unknown material '{cls}'")
            if not 0.0 <= conf <= 1.0:
                raise ValidationError(f"{where}.material_conf.{cls}: {conf} not in [0, 1]")
            total += conf
        if total > 1.0 + 1e-9:
            raise ValidationError(f"{where}.material_conf sums to {total:.4f} > 1")


@dataclass(frozen=True)
class ToolSpec:
    """Declares how one join action maps onto part roles and materials."""

    tool: str
    join_action_name: str
    action_part_role: str
    allowed_materials: frozenset[str]
    use_action: str  # the task action this tool enables, e.g. "hit"
    grasp_part_role: str = "handle"


# The paper's weights and material threshold; every episode scores with them.
LAMBDA_SHAPE = 1.0
LAMBDA_MATERIAL = 1.0
MATERIAL_THRESHOLD = 0.6


def shape_fit(o_a, spec: ToolSpec, profiles: dict[str, ObjectProfile]) -> float:
    """Product of role confidences: action part against the tool's action
    role, grasp part against its grasp role. Missing confidences count
    as 0 and are logged."""
    action_obj, grasp_obj = profiles[o_a[0]], profiles[o_a[1]]
    score = 1.0
    for profile, role in ((action_obj, spec.action_part_role), (grasp_obj, spec.grasp_part_role)):
        conf = profile.shape_conf.get(role)
        if conf is None:
            log.warning(
                "object '%s' has no confidence for role '%s'; treating as 0",
                profile.object_id,
                role,
            )
            conf = 0.0
        score *= conf
    return score


def material_fit(o_a, spec: ToolSpec, profiles: dict[str, ObjectProfile]) -> float:
    """Hard material constraint on the action part: the best confidence over
    the tool's allowed materials, or -inf when it falls below threshold."""
    conf = profiles[o_a[0]].material_conf
    z = 0.0
    for material in spec.allowed_materials:
        c = conf.get(material, 0.0)
        if c > z:
            z = c
    if z >= MATERIAL_THRESHOLD:
        return z
    return NEG_INF


def can_attach(o_a, profiles: dict[str, ObjectProfile]) -> tuple[bool, str | None]:
    """Whether the ordered pair can be physically joined, and how.

    Pierce needs exactly one pierceable object (the rigid one pierces the
    soft one); grasp needs a grasp part that can hold things and an action
    part that can be held; magnetic needs magnets on both. The reported
    kind follows the fixed order pierce, grasp, magnetic."""
    action_obj, grasp_obj = profiles[o_a[0]], profiles[o_a[1]]
    if action_obj.pierceable != grasp_obj.pierceable:
        return True, ATTACH_PIERCE
    if grasp_obj.can_grasp_others and action_obj.can_be_grasped:
        return True, ATTACH_GRASP
    if action_obj.has_magnet and grasp_obj.has_magnet:
        return True, ATTACH_MAGNETIC
    return False, None


def feature_score(
    spec: ToolSpec,
    o_a: tuple[str, ...],
    profiles: dict[str, ObjectProfile],
    whitelist: frozenset | None,
) -> float:
    """phi of one join: *spec*'s join action on the ordered pair *o_a*.

    Trusted exactly when *whitelist* is None: attachment and material act as
    hard constraints around the weighted shape+material sum. Untrusted, only
    the (o_a, join action) pairs in *whitelist* are scored, by shape alone."""
    if whitelist is None:
        attachable, _ = can_attach(o_a, profiles)
        if not attachable:
            return NEG_INF
        material = material_fit(o_a, spec, profiles)
        if material == NEG_INF:
            return NEG_INF
        return LAMBDA_SHAPE * shape_fit(o_a, spec, profiles) + LAMBDA_MATERIAL * material
    if (o_a, spec.join_action_name) in whitelist:
        return shape_fit(o_a, spec, profiles)
    return NEG_INF


class JoinScorer:
    """Scores joins under one trust phase: trusted exactly when *whitelist*
    is None. The whitelist is the set of (o_a, join action) pairs that the
    trusted phase rejected. While trusted, every join scored -inf is
    recorded in *rejected*, the next phase's whitelist."""

    def __init__(self, registry: dict[str, ToolSpec], profiles: dict[str, ObjectProfile],
                 whitelist: frozenset | None = None):
        self.registry = registry
        self.profiles = profiles
        self.whitelist = whitelist
        self._rejected: dict = {}  # ground action name -> the rejected join action

    @property
    def rejected(self) -> set[tuple[tuple[str, ...], str]]:
        """The (o_a, join action) pairs this phase scored -inf while trusted."""
        return {(act.o_a, act.schema_name) for act in self._rejected.values()}

    def gate(self, exclusions: frozenset):
        """The join rule of the search loops: gate(act), for a ground join
        action *act*, is the phi of the edge it generates, or None when the
        edge is skipped: its o_a is in *exclusions* or it scores -inf. Each
        join not excluded costs one call of the module's feature_score,
        looked up when the gate runs, so a wrapper installed on it sees
        every call."""
        registry, profiles, whitelist = self.registry, self.profiles, self.whitelist
        rejected = self._rejected if whitelist is None else None

        def gate(act) -> float | None:
            o_a = act.o_a
            if o_a in exclusions:
                return None
            spec = registry.get(act.schema_name)
            if spec is None:
                raise ConfigError(f"no tool spec registered for join action '{act.schema_name}'")
            phi = feature_score(spec, o_a, profiles, whitelist)
            if phi == NEG_INF:
                if rejected is not None:
                    rejected[act.name] = act  # keyed by the name, whose str hash is cached
                return None
            return phi

        return gate
