"""Exception types shared across the package, and the JSON config field readers.

Every config parser reads its objects with config_object and its values
with config_number, config_integer, config_dimension and config_choice,
so a malformed field always raises a ConfigError naming it.
"""

from __future__ import annotations

import sys


class ConfigError(ValueError):
    """A configuration object is malformed; `field` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")


def config_object(obj, where: str, required=(), optional=()) -> dict:
    """obj, once it is a JSON object with every required key and no other
    key than those in required and optional.

    where names the object ("" for a file's top level); an offending key
    is reported as where.key.
    """
    if not isinstance(obj, dict):
        kind = "null" if obj is None else type(obj).__name__
        raise ConfigError(where or "config", f"expected a JSON object, got {kind}")
    prefix = f"{where}." if where else ""
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(prefix + key, "unknown field")
    for key in required:
        if key not in obj:
            raise ConfigError(prefix + key, "missing")
    return obj


def config_number(value, field: str) -> float:
    """A finite JSON number as a float.

    A bool, a string (even a numeric one), null, a list, NaN or an
    infinity raises a ConfigError naming field.
    """
    if (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max  # False for NaN
    ):
        return float(value)
    raise ConfigError(field, f"expected a finite number, got {value!r}")


def config_integer(value, field: str, least: int | None = None) -> int:
    """A JSON integer, or a float with an integral value, as an int.

    A bool, a fractional or nonfinite number, any other type, or a value
    below least (when given) raises a ConfigError naming field, where
    int() would truncate or convert it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(field, f"must be at least {least}, got {int(value)}")
    return int(value)


# A row of d float64 coordinates takes 8 d bytes, so no array holds a
# row past this dimension.
MAX_DIMENSION = sys.maxsize // 8


def config_dimension(value, field: str) -> int:
    """A dimension as config_integer reads it, at most MAX_DIMENSION.

    A larger d is refused naming field here, before a sampler or an
    array shape fails on it with an error that names no field.
    """
    d = config_integer(value, field)
    if d > MAX_DIMENSION:
        raise ConfigError(
            field, f"must be at most {MAX_DIMENSION}, the longest addressable row of floats"
        )
    return d


def config_choice(value, field: str, choices) -> str:
    """value, once it is one of the strings in choices."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(field, f"expected one of {', '.join(choices)}; got {value!r}")
    return value


class NumericError(RuntimeError):
    """A numeric procedure failed without a fallback (e.g. divergence)."""


class NoClosedFormError(ValueError):
    """The requested pair has no known closed-form transferability indices."""


class RadiusSearchError(NumericError):
    """The ball-radius search exceeded its bracket cap before reaching h."""
