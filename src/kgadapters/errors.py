"""Exception taxonomy mapped to CLI exit codes (1/2/3); the config field check.

`check_fields` is the one place that checks a config field's type and lower
bound: each config dataclass calls it first with its table of bounds, and
keeps in its own `__post_init__` only the checks that are not lower bounds.
"""

import dataclasses


class ConfigError(ValueError):
    """Invalid configuration or input data (exit code 1)."""


class DataError(ConfigError):
    """Malformed or inconsistent data file; message carries the location."""


class ContractViolation(RuntimeError):
    """A frozen parameter group changed during a stage (exit code 3)."""


# annotation -> (the types its JSON value may load as, what the message calls it)
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "str": (str, "a string"), "dict": (dict, "an object")}


def check_fields(config, least: dict) -> None:
    """Every field of the dataclass `config` annotated `int`, `float`, `str`
    or `dict` holds that JSON type, never a bool for a number (JSON's true and
    false load as bools), and every field named in `least` is at least its
    bound there."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        allowed, what = _TYPES.get(getattr(f.type, "__name__", f.type), (object, None))
        if what and (isinstance(value, bool) or not isinstance(value, allowed)):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if f.name in least and value < least[f.name]:
            raise ConfigError(f"{f.name} must be >= {least[f.name]}, got {value}")
