"""Exception types shared across the workbench."""


class LogcavityError(Exception):
    """Base class for all workbench errors."""


class NonSquare(LogcavityError):
    pass


class NotSymmetric(LogcavityError):
    pass


class LoopEdge(LogcavityError):
    pass


class Disconnected(LogcavityError):
    pass


class TooLarge(LogcavityError):
    """An enumeration would exceed the configured cap."""


class InvalidPoset(LogcavityError):
    """Relations violate reflexivity / antisymmetry / transitivity."""


class InvalidMarks(LogcavityError):
    pass


class ZeroAtIndex(LogcavityError):
    """A sequence value required to be positive is zero."""


class ExchangeViolation(LogcavityError):
    pass


class EmptyBases(LogcavityError):
    pass


class UnequalSizes(LogcavityError):
    pass


class UnknownElement(LogcavityError):
    pass


class DimensionMismatch(LogcavityError):
    pass


class SingularSystem(DimensionMismatch):
    """A linear system has no unique solution."""


class IndexOutOfRange(LogcavityError):
    pass


class DegreeMismatch(LogcavityError):
    pass


class MixedDegrees(LogcavityError):
    pass


class NegativeCoefficient(LogcavityError):
    pass


class BadMultiplicities(LogcavityError):
    pass


class LoopPresent(LogcavityError):
    pass


class NotPSD(LogcavityError):
    pass


class DegreeTooHigh(LogcavityError):
    pass


class NonpositiveValue(LogcavityError):
    pass


class RankTooLow(LogcavityError):
    pass


class RankBoundViolated(LogcavityError):
    pass


class ColoopElement(LogcavityError):
    pass


class UsageError(LogcavityError):
    pass


class MalformedInput(UsageError):
    """A JSON input value has the wrong type or shape."""
