"""Exception types shared across the package, and the dataclass field-type check."""

import numbers
from dataclasses import fields


class ParamLossError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ParamLossError):
    """An argument violates a structural precondition (degenerate box,
    wrong parameter count, dimension mismatch, ...)."""


class ConstraintViolationError(ParamLossError):
    """A searched parameter falls outside its admissible open interval."""


class DomainError(ParamLossError):
    """A function was evaluated outside its [0, 1] domain."""


class EmptyPositiveError(ParamLossError):
    """A loss was requested for a batch containing no positive predictions.

    Raised as a distinct signal so trainers can skip the batch instead of
    silently producing a zero loss that would hide assignment bugs.
    """


class TrainingDivergedError(ParamLossError):
    """Inner training produced a non-finite loss or gradient.

    Carries the step index at which divergence was detected.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"training diverged at step {step}")


class ConfigError(ParamLossError):
    """A configuration value or file is invalid."""


# the values a dataclass field of each annotated type takes; bool is an
# Integral, so it is taken only where the annotation is bool
_FIELD_KINDS = {int: (numbers.Integral, "an integer"),
                float: (numbers.Real, "a real number"),
                bool: (bool, "true or false"),
                str | None: ((str, type(None)), "a string or null")}


def check_field_types(obj, error) -> None:
    """Check every int, float, bool and str | None field of a dataclass instance.

    Raises:
        error: a field holds a value of another kind, such as true for an
            int, "0.2" for a float, "false" for a bool, or 0 for a str | None.
    """
    for f in fields(obj):
        check_value_type(f.name, f.type, getattr(obj, f.name), error)


def check_value_type(name: str, annotation, value, error) -> None:
    """The field check of check_field_types, for one value annotated as `annotation`."""
    kind, noun = _FIELD_KINDS.get(annotation, (None, None))
    if kind and (not isinstance(value, kind)
                 or (isinstance(value, bool) and annotation is not bool)):
        raise error(f"{name} must be {noun}, got {value!r}")
