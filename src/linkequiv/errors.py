"""Exception hierarchy shared by every module in the package, and the
checks of count and interval arguments that raise one of them."""

import math
import operator


class LinkEquivError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LinkEquivError, ValueError):
    """A numeric argument lies outside the mathematical domain."""


class ArgumentError(LinkEquivError, ValueError):
    """Arguments violate a structural contract (shapes, sizes, ranges)."""


class DegenerateSampleError(LinkEquivError, ValueError):
    """The sample carries no usable signal (all-zero x, zero variance)."""


class SeparationError(LinkEquivError, RuntimeError):
    """The response is perfectly separable, so the MLE diverges."""


class NumericalError(LinkEquivError, ArithmeticError):
    """A matrix operation failed beyond what ridge damping can repair."""


class ExperimentError(LinkEquivError, RuntimeError):
    """A replication experiment produced no usable replicates."""


def _check_count(value, name: str, minimum: int) -> None:
    """Raise ``ArgumentError`` unless ``value`` is an integer of at least
    ``minimum``."""
    try:
        operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer") from None
    if value < minimum:
        raise ArgumentError(f"{name} must be at least {minimum}")


def _check_interval(a, b, name: str) -> None:
    """Raise ``ArgumentError`` unless a < b and the width b - a of the
    interval ``name`` is finite."""
    if not a < b:
        raise ArgumentError(f"{name} must satisfy a < b")
    if not math.isfinite(float(b) - float(a)):
        raise ArgumentError(f"{name} width must be finite")
