"""Exception taxonomy mapped to CLI exit codes (1/2/3); the config int check."""

import dataclasses


class ConfigError(ValueError):
    """Invalid configuration or input data (exit code 1)."""


class DataError(ConfigError):
    """Malformed or inconsistent data file; message carries the location."""


class ContractViolation(RuntimeError):
    """A frozen parameter group changed during a stage (exit code 3)."""


def check_int_fields(config) -> None:
    """Every field of the dataclass `config` annotated `int` holds an int
    (not a bool, which JSON's true and false load as)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int) and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
