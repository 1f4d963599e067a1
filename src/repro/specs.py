"""Spec round-trips: config dataclasses <-> canonical JSON fragments.

Every configuration dataclass in the stack (cache geometry, system
shape, DRAM timing, sweep parameters, ...) exposes ``to_spec()`` /
``from_spec()`` built on the helpers here, so one canonical, digestable
encoding exists for any assembled configuration. The scenario layer
(:mod:`repro.scenario`) composes these fragments into a complete run
description whose :func:`spec_digest` is the cache key for the runner.

Canonical form rules:

- mappings are plain dicts (key order irrelevant: digests sort keys);
- sequences are lists (tuples narrow back via the field annotation);
- nested dataclasses are nested spec dicts;
- unknown keys are configuration errors, not silently dropped —
  a typo in a scenario file must fail loudly, not change the digest;
- a float field holds a finite number: NaN and infinity are
  configuration errors, since no latency, rate or window is either.

Each class is resolved once. The first encode or decode of a class
builds its field plan (:func:`_plan`): the annotations resolved
and decomposed, field by field, in ``dataclasses.fields`` order. Every
later call runs from the plan, and an error label such as
``scenario.system.hierarchy.l1.ways`` is rendered only when an error
is raised.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import json
import math
import types
import typing
from typing import Any, Mapping, NamedTuple, TypeVar

from .errors import ConfigurationError, MessError

T = TypeVar("T")


def canonical_json(payload: object) -> str:
    """Canonical JSON encoding: sorted keys, compact, ``str`` fallback."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def spec_digest(payload: object) -> str:
    """Hex sha256 of the canonical JSON encoding of ``payload``.

    Key order never matters: two specs that compare equal as nested
    structures digest identically regardless of construction order.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: ``_Hint.kind`` values besides the scalar types themselves.
_TUPLE = "tuple"
_MAPPING = "mapping"
_DATACLASS = "dataclass"

#: Scalar hints, checked (and narrowed) value by value.
_SCALARS = (float, int, bool, str)


class _Hint(NamedTuple):
    """One annotation, decomposed once: what the decoder dispatches on."""

    #: The annotation with ``X | None`` stripped.
    hint: Any
    #: Whether the annotation was ``X | None``.
    optional: bool
    #: ``typing.get_args(hint)``; a tuple's element hints are decomposed
    #: in turn (a trailing ``...`` stays as is).
    args: tuple
    #: What ``typing.get_origin(hint)`` and the hint make of a value: a
    #: scalar type from ``_SCALARS``, ``_TUPLE``, ``_MAPPING``,
    #: ``_DATACLASS``, or None (the value passes through unchecked).
    kind: Any

    def item(self, index: int) -> _Hint:
        """The hint of element ``index`` of a tuple hint."""
        args = self.args
        if len(args) == 2 and args[1] is Ellipsis:
            return args[0]
        return args[index] if args else _ANY


#: An unannotated value (``Any``).
_ANY = _Hint(Any, False, (), None)


class _Field(NamedTuple):
    """One dataclass field, as its class plan holds it."""

    name: str
    hint: _Hint
    #: No default and no default factory: ``from_spec`` needs the key.
    required: bool


class _Plan(NamedTuple):
    """The fields of one config dataclass, resolved once."""

    #: Every field, in ``dataclasses.fields`` order: what ``to_spec``
    #: encodes.
    fields: tuple[_Field, ...]
    #: The constructor's fields, in the same order: what ``from_spec``
    #: decodes.
    init: tuple[_Field, ...]
    #: The names of ``init``, for the unknown-key check.
    names: frozenset[str]


def _strip_optional(hint: Any) -> tuple[Any, bool]:
    """``X | None`` -> (X, True); anything else -> (hint, False)."""
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        members = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(members) == 1 and len(typing.get_args(hint)) == 2:
            return members[0], True
    return hint, False


def _decompose(hint: Any) -> _Hint:
    hint, optional = _strip_optional(hint)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    kind: Any = None
    if origin is tuple:
        kind = _TUPLE
        args = tuple(arg if arg is Ellipsis else _decompose(arg) for arg in args)
    elif (origin or hint) in (dict, collections.abc.Mapping):
        kind = _MAPPING
    elif isinstance(hint, type) and dataclasses.is_dataclass(hint):
        kind = _DATACLASS
    elif hint in _SCALARS:
        kind = hint
    return _Hint(hint, optional, args, kind)


@functools.cache
def _plan(cls: type) -> _Plan:
    """The field plan of one config dataclass, built on first use.

    ``from __future__ import annotations`` stringifies every field
    annotation; ``typing.get_type_hints`` resolves them against the
    defining module's namespace, one ``compile()`` per annotation. The
    annotations of a class never change, so that runs once per class.
    """
    hints = typing.get_type_hints(cls)
    fields: list[_Field] = []
    init: list[_Field] = []
    for field in dataclasses.fields(cls):
        planned = _Field(
            field.name,
            _decompose(hints.get(field.name, Any)),
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING,
        )
        fields.append(planned)
        if field.init:
            init.append(planned)
    return _Plan(
        tuple(fields), tuple(init), frozenset(planned.name for planned in init)
    )


def _label(where: str | tuple) -> str:
    """Render an error label.

    Labels stay unrendered while nothing fails: ``where`` is the root
    string, or ``(parent, key)`` for ``parent.key`` (a field name) or
    ``parent[key]`` (a sequence index).
    """
    if isinstance(where, str):
        return where
    parent, key = where
    if isinstance(key, int):
        return f"{_label(parent)}[{key}]"
    return f"{_label(parent)}.{key}"


def to_spec(config: object) -> dict:
    """Encode one config dataclass instance as a canonical spec dict.

    Values are coerced through the field annotations first, so an int
    assigned to a float field encodes as a float — construction-time
    sloppiness must not leak into the canonical form (or the digest).
    """
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise ConfigurationError(
            f"to_spec needs a dataclass instance, got {type(config).__name__}"
        )
    cls = type(config)
    where = cls.__name__
    return {
        field.name: _encode(
            _coerce(getattr(config, field.name), field.hint, (where, field.name)),
            field.hint,
        )
        for field in _plan(cls).fields
    }


def _encode(value: object, hint: _Hint) -> object:
    """The JSON form of a value :func:`_coerce` accepted for ``hint``.

    Scalars are already canonical and a typed tuple encodes item by
    item through its element hints; untyped values (``Any``, mapping
    members) encode by their own type.
    """
    kind = hint.kind
    if value is None or kind in _SCALARS:
        return value
    if kind is _TUPLE and isinstance(value, tuple):
        return [_encode(item, hint.item(i)) for i, item in enumerate(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_spec(value)
    if isinstance(value, (list, tuple)):
        return [_encode(item, _ANY) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _encode(item, _ANY) for key, item in value.items()}
    return value


def _coerce(value: object, hint: _Hint, where: str | tuple) -> object:
    if value is None:
        if hint.optional:
            return None
        raise ConfigurationError(f"{_label(where)}: must not be null")
    kind = hint.kind
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"{_label(where)}: expected a number, got {value!r}"
            )
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigurationError(
                f"{_label(where)} must be finite, got {number!r}"
            )
        return number
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"{_label(where)}: expected an integer, got {value!r}"
            )
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigurationError(
                f"{_label(where)}: expected true/false, got {value!r}"
            )
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigurationError(
                f"{_label(where)}: expected a string, got {value!r}"
            )
        return value
    if kind is _TUPLE:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"{_label(where)}: expected a list, got {type(value).__name__}"
            )
        args = hint.args
        variadic = len(args) == 2 and args[1] is Ellipsis
        if args and not variadic and len(args) != len(value):
            raise ConfigurationError(
                f"{_label(where)}: expected {len(args)} items, got {len(value)}"
            )
        return tuple(
            _coerce(item, hint.item(i), (where, i)) for i, item in enumerate(value)
        )
    if kind is _MAPPING:
        if not isinstance(value, Mapping):
            raise ConfigurationError(
                f"{_label(where)}: expected an object, got {type(value).__name__}"
            )
        return dict(value)
    if kind is _DATACLASS:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return value
        return _decode(hint.hint, value, where)
    return value


def from_spec(cls: type[T], payload: Mapping, where: str = "") -> T:
    """Build a config dataclass from a spec dict, strictly validated.

    Unknown keys, wrong-typed values and missing required fields all
    raise :class:`ConfigurationError` naming the offending key, so a
    scenario author sees ``system.mshrs: expected an integer`` rather
    than a bare ``TypeError`` from deep inside a constructor. A value
    the constructor's own checks reject is a ``ConfigurationError``
    too, whatever :class:`~repro.errors.MessError` the check raises.
    """
    where = where or cls.__name__
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise ConfigurationError(f"{where}: not a config dataclass")
    return _decode(cls, payload, where)


def _decode(cls: type[T], payload: object, where: str | tuple) -> T:
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"{_label(where)}: expected an object, got {type(payload).__name__}"
        )
    plan = _plan(cls)
    unknown = payload.keys() - plan.names
    if unknown:
        raise ConfigurationError(
            f"{_label(where)}: unknown key(s) {sorted(unknown)}; "
            f"known: {sorted(plan.names)}"
        )
    kwargs: dict[str, object] = {}
    missing: list[str] = []
    for field in plan.init:
        if field.name in payload:
            kwargs[field.name] = _coerce(
                payload[field.name], field.hint, (where, field.name)
            )
        elif field.required:
            missing.append(field.name)
    if missing:
        raise ConfigurationError(
            f"{_label(where)}: missing required key(s) {missing}"
        )
    try:
        return cls(**kwargs)
    except ConfigurationError:
        raise
    except MessError as exc:
        raise ConfigurationError(f"{_label(where)}: {exc}") from exc


class SpecConvertible:
    """Mixin giving a config dataclass the spec round-trip surface.

    ``to_spec()`` / ``from_spec()`` / ``digest()`` delegate to the
    module-level helpers; mixing this into a dataclass is the whole
    opt-in.
    """

    def to_spec(self) -> dict:
        return to_spec(self)

    @classmethod
    def from_spec(cls: type[T], payload: Mapping, where: str = "") -> T:
        return from_spec(cls, payload, where)

    def digest(self) -> str:
        return spec_digest(to_spec(self))
