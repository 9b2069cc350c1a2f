"""The one declaration format of parameters: each one a Key, checked by _walk.

A Key gives a value's type, its default and its bound. The config schema
(presets.SCHEMA, presets.SYSTEMS) declares every config key this way, and the
law table (distributions.LAWS) and the polynomial families declare their
parameters the same way, so one walk checks them all and fills in defaults.
"""

from __future__ import annotations

from numbers import Real
from typing import NamedTuple

from .errors import ConfigError, ParameterError


class Unset(str):
    """The default of a key that stays unset when left out; the text says what stands in."""


REQUIRED = Unset("required")


class Key(NamedTuple):
    """One config key or parameter: its type (an entry of _TYPES), its default and its bound.

    default is filled in when the key is left out, unless it is an Unset.
    bound = (test, text) holds for the value, or for each number in a list.
    choices are the allowed strings, length is a list's fixed length, keys are
    a block's own keys, and a nullable key also takes null.
    """

    type: str
    default: object = REQUIRED
    bound: tuple | None = None
    choices: tuple | None = None
    length: int | None = None
    keys: dict | None = None
    nullable: bool = False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_list(value, entry) -> bool:
    return isinstance(value, (list, tuple)) and all(map(entry, value))


# type -> (test of a value, what a value of the type is called)
_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_real, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "numbers": (lambda v: _is_list(v, _is_real), "a list of numbers"),
    "integers": (lambda v: _is_list(v, _is_int), "a list of integers"),
    "names": (lambda v: _is_list(v, lambda x: isinstance(x, str)), "a list of names"),
    "pairs": (
        lambda v: _is_list(v, lambda p: _is_list(p, _is_int) and len(p) == 2),
        "a list of [degree, max_delay] pairs",
    ),
    # a mixture's bound holds for each component
    "components": (
        lambda v: _is_list(v, lambda c: _is_list(c, _is_real) and len(c) == 3) and len(v) > 0,
        "a non-empty list of [weight, mean, sd] lists",
    ),
    **dict.fromkeys(("mapping", "system", "block"), (lambda v: isinstance(v, dict), "a mapping")),
}


def _at_least(low: int) -> tuple:
    return (lambda x: x >= low, f">= {low}")


def _between(low: float, high: float) -> tuple:
    """The open interval (low, high); with high = inf it takes finite values only."""
    return (lambda x: low < x < high, f"in ({low}, {high})")


_POSITIVE = _at_least(1)
_UNIT = _between(0, 1)


def _value(where: str, key: Key, value):
    """The value checked against its key, as the config holds it: reals as floats."""
    if value is None and key.nullable:
        return None
    test, called = _TYPES[key.type]
    if not test(value):
        raise ConfigError(f"{where}: expected {called}, got {value!r}")
    if key.type == "block":
        return _walk(where, key.keys, value)
    entries = value if isinstance(value, (list, tuple)) else [value]
    if key.length is not None and len(value) != key.length:
        raise ConfigError(f"{where}: expected {key.length} values, got {len(value)}")
    if key.choices is not None and not all(v in key.choices for v in entries):
        raise ConfigError(f"{where}: must be one of {list(key.choices)}, got {value!r}")
    numbers = [x for v in entries for x in (v if key.type == "pairs" else [v])]
    if key.bound is not None and not all(map(key.bound[0], numbers)):
        raise ConfigError(f"{where}: must be {key.bound[1]}, got {value!r}")
    if key.type == "float":
        return float(value)
    if key.type == "numbers":
        return [float(v) for v in value]
    return dict(value) if isinstance(value, dict) else value


def _walk(path: str, keys: dict, given: dict) -> dict:
    """A block checked against its keys, with every default that is not Unset filled in."""
    for name in given:
        if name not in keys:
            raise ConfigError(f"{path + '.' if path else ''}{name}: unknown key, expected one of {list(keys)}")
    block = {}
    for name, key in keys.items():
        where = f"{path}.{name}" if path else name
        if name in given:
            block[name] = _value(where, key, given[name])
        elif key.default is REQUIRED:
            raise ConfigError(f"{where}: required")
        elif not isinstance(key.default, Unset):
            block[name] = _value(where, key, key.default)
    return block


def parameters(keys: dict, given) -> dict:
    """A law's or a family's params checked against its keys, defaults filled in.

    The ParameterError names params.<name>, so a config that wraps it under
    its block's path names the key.
    """
    try:
        return _value("params", Key("block", keys=keys), given)
    except ConfigError as exc:
        raise ParameterError(str(exc)) from None
