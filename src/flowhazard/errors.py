"""Exception types shared across the package.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes: 2 for input problems, 3 for numerical failures,
4 for a failed training-accuracy gate.
"""

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
