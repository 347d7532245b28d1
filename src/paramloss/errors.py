"""Exception types shared across the package."""


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
