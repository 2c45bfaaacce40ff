"""Exception taxonomy mapped to CLI exit codes (1/2/3); the config number check."""

import dataclasses


class ConfigError(ValueError):
    """Invalid configuration or input data (exit code 1)."""


class DataError(ConfigError):
    """Malformed or inconsistent data file; message carries the location."""


class ContractViolation(RuntimeError):
    """A frozen parameter group changed during a stage (exit code 3)."""


def check_number_fields(config) -> None:
    """Every field of the dataclass `config` annotated `int` holds an int and
    every field annotated `float` an int or a float, never a bool (which
    JSON's true and false load as)."""
    for f in dataclasses.fields(config):
        kind = getattr(f.type, "__name__", f.type)
        allowed = {"int": int, "float": (int, float)}.get(kind)
        value = getattr(config, f.name)
        if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
            what = "an integer" if kind == "int" else "a number"
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")
