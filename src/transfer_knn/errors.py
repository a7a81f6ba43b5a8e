"""Exception types shared across the package, and the config integer check."""


class ConfigError(ValueError):
    """A configuration object is malformed; `field` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def config_integer(value, field: str) -> int:
    """A JSON integer, or a float with an integral value, as an int.

    A bool, a fractional or nonfinite number, or any other type raises a
    ConfigError naming field, where int() would truncate or convert it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return int(value)


class NumericError(RuntimeError):
    """A numeric procedure failed without a fallback (e.g. divergence)."""


class NoClosedFormError(ValueError):
    """The requested pair has no known closed-form transferability indices."""


class RadiusSearchError(NumericError):
    """The ball-radius search exceeded its bracket cap before reaching h."""
