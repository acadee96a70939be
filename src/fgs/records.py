"""The JSON boundary: record dataclasses read from and written to JSON.

read_record reads each field through the check its annotation implies: a
scalar, dict[str, X], tuple[X, ...] from a list, a record, or Annotated[X,
rule], which runs the Rule (say within(lo, hi)) on what X's check returns.
Each check takes (value, field path) and returns the value or raises a
ValidationError naming the path.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, partial
from pathlib import Path
from typing import Annotated, Any, Callable, get_args, get_origin, get_type_hints

from .errors import InternalError, ValidationError

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


@dataclass  # eq without frozen, so unhashable
class Rule:
    """A rule on one value, named in its field's annotation: a value failing
    *test* raises a ValidationError with the field path and *message*, {value}
    filled in. Unhashable, since typing keeps each hashable Annotated[...]
    form, and so the module that made its rule, for the life of the process."""

    test: Callable[[Any], bool]
    message: str

    def __call__(self, value, where: str):
        if not self.test(value):
            raise ValidationError(f"{where}: {self.message.format(value=value)}")
        return value


def within(lo: float, hi: float) -> Rule:
    return Rule(lambda value: lo <= value <= hi, f"{{value}} not in [{lo}, {hi}]")


def to_json(value):
    """The JSON form of a record: its dataclass fields in order, a tuple as
    a list, a dict with its keys sorted."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(value[k]) for k in sorted(value)}
    return value


@cache
def _field_checks(cls) -> dict:
    """The check of each field of the record type *cls*."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: _check_for(hints[f.name]) for f in fields(cls)}


def _check_for(tp):
    """The check for a field annotated *tp*; a form holding a Rule is unhashable."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        base_check, rule = _check_for(args[0]), args[1]
        return lambda value, where: rule(base_check(value, where), where)
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
    if is_dataclass(tp):
        return partial(read_record, tp)
    if tp in _SCALARS:
        return _SCALARS[tp]
    raise InternalError(f"no JSON check for a field of type {tp}")


def read_record(cls, data, where: str):
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


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting too deep
            raise ValidationError(f"{path.name}: invalid JSON: {exc}") from None
