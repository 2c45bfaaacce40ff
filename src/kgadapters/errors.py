"""Exception taxonomy mapped to CLI exit codes (1/2/3); the config field check.

`check_fields` is the one place that checks a field's type and lower bound:
each config dataclass, and each dataclass a stored report is read into,
calls it first with its table of bounds, and keeps in its own
`__post_init__` only the checks that are not lower bounds.
`check_type` types one value; `PipelineConfig.from_json` calls it on the
`synthetic` object before that becomes a `SyntheticConfig`.
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
          "str": (str, "a string"), "dict": (dict, "an object"),
          "list[str]": (list, "a list")}


def check_type(name: str, value, annotation: str):
    """`value` of the field `name`, if it holds the JSON type of its
    `annotation` (`int`, `float`, `str`, `dict` or `list[str]`; any other
    holds anything), never a bool for a number (JSON's true and false load as
    bools)."""
    allowed, what = _TYPES.get(annotation, (object, None))
    if what and (isinstance(value, bool) or not isinstance(value, allowed)):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def check_fields(config, least: dict) -> None:
    """Every field of the dataclass `config` holds the JSON type of its
    annotation (`check_type`), and every field named in `least` is at least
    its bound there."""
    for f in dataclasses.fields(config):
        value = check_type(f.name, getattr(config, f.name), getattr(f.type, "__name__", f.type))
        if f.name in least and value < least[f.name]:
            raise ConfigError(f"{f.name} must be >= {least[f.name]}, got {value}")
