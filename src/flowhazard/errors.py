"""Exception types shared across the package.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes: 2 for input problems, 3 for numerical failures,
4 for a failed training-accuracy gate.  The config checks import
``dataclasses`` when they run, so importing this module does not.
"""

import math
import numbers

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_GATE = 4


class FlowHazardError(Exception):
    """Base class for all errors raised by flowhazard."""

    exit_code = EXIT_INPUT

    @property
    def kind(self) -> str:
        return type(self).__name__


class MissingInput(FlowHazardError):
    """A referenced input path does not exist."""


class UnusablePath(FlowHazardError):
    """An input could not be opened or an output could not be created."""


class MissingColumn(FlowHazardError):
    """A schema column is absent from a CSV header."""


class EmptyInput(FlowHazardError):
    """No usable rows remain after parsing or filtering."""


class SchemaMismatch(FlowHazardError):
    """Two datasets or a model and a flow disagree on the feature layout."""


class LengthMismatch(FlowHazardError):
    """Vector lengths disagree."""


class InvalidValue(FlowHazardError, ValueError):
    """A value in the input data is malformed or outside its allowed range."""


class InvalidSpec(FlowHazardError):
    """A synthetic-data spec or configuration value is invalid."""


class DegenerateData(FlowHazardError):
    """Training data lacks both target classes."""


class NonFinite(FlowHazardError):
    """A non-finite value appeared where finiteness is guaranteed."""

    exit_code = EXIT_NUMERIC


class NoEvents(FlowHazardError):
    """A survival fit was requested on records with no observed events."""

    exit_code = EXIT_NUMERIC


class SingularHessian(FlowHazardError):
    """The penalized Hessian could not be inverted."""

    exit_code = EXIT_NUMERIC


class AllIterationsFailed(FlowHazardError):
    """Every experiment iteration failed before producing survival records."""

    exit_code = EXIT_NUMERIC


class AccuracyGateFailed(FlowHazardError):
    """The holdout accuracy check before sequence injection failed."""

    exit_code = EXIT_GATE

    def __init__(self, achieved: float, required: float):
        super().__init__(
            f"holdout accuracy {achieved:.4f} below required gate {required:.4f}"
        )
        self.achieved = achieved
        self.required = required


# annotation -> (accepted type, stored type, what the error asks for)
_TYPES = {
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number that fits a float, not NaN"),
    "bool": (bool, bool, "true or false"),
    "str": (str, str, "a string"),
    "tuple[str, ...]": ((list, tuple), tuple, "a list of strings"),
}


def check_fields(obj) -> None:
    """Type-check each field of the dataclass ``obj`` annotated ``int``,
    ``float``, ``bool``, ``str`` or ``tuple[str, ...]`` (``X | None``
    also takes None), and store numbers as plain ints and floats and
    lists of strings as tuples.  No bool passes as a number, and no NaN
    or integer too large for a float as a ``float``.  The annotations
    must be strings (``from __future__ import annotations``).  Raises
    :class:`InvalidValue` naming the field."""
    import dataclasses

    for field in dataclasses.fields(obj):
        kind, _, none = field.type.partition(" | ")
        value = getattr(obj, field.name)
        if kind not in _TYPES or (value is None and none == "None"):
            continue
        accepted, stored, wanted = _TYPES[kind]
        if (isinstance(value, accepted)
                and (stored is bool) == isinstance(value, bool)
                and (stored is not tuple
                     or all(isinstance(v, str) for v in value))):
            try:
                typed = stored(value)
            except OverflowError:  # an integer too large for a float
                typed = math.nan
            if typed == typed:  # not NaN
                object.__setattr__(obj, field.name, typed)
                continue
        raise InvalidValue(f"{field.name} must be {wanted}, got {value!r}")


def read_config(raw, config, name: str, read=None, renamed=()):
    """The config dataclass ``config`` (or a copy of the instance
    ``config``) read from ``raw``, the JSON object of config section
    ``name``; an absent key takes its field's default.  ``read`` gets a
    copy of ``raw``, pops the keys it reads itself (nested sections and
    the ``renamed`` keys, which name no field) and returns the fields
    they give; any other key must name a field ``read`` did not give.
    A non-object, an unknown key, an absent key of a field with no
    default and an :class:`InvalidValue` from the dataclass raise
    :class:`InvalidSpec` naming the key."""
    import dataclasses

    if not isinstance(raw, dict):
        raise InvalidSpec(f"{name!r} must be an object, got {raw!r}")
    fields = dataclasses.fields(config)
    names = {f.name for f in fields}
    rest = dict(raw)
    # a misspelt key is named before ``read`` reads what is inside
    unknown = sorted(set(rest) - names - set(renamed))
    if not unknown:
        given = read(rest) if read else {}
        unknown = sorted(set(rest) - (names - set(given)))
    if unknown:
        raise InvalidSpec(f"unknown key {unknown[0]!r} in {name!r}")
    values = {**rest, **given}
    if isinstance(config, type):  # a copy keeps the instance's values
        for f in fields:
            if (f.name not in values and f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise InvalidSpec(f"missing key {f.name!r} in {name!r}")
    try:
        if isinstance(config, type):
            return config(**values)
        return dataclasses.replace(config, **values)
    except InvalidValue as err:
        raise InvalidSpec(f"{name}: {err}") from None
