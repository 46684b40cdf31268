"""Exception types shared across the package, and its argument checks.

Every numeric argument and sweep-config field goes through ``_integer``,
``_real`` or ``_seed``: bools are rejected, numpy scalars are accepted, the
result is a Python ``int`` or ``float``, and a value of the wrong kind or
out of bounds raises ``InvalidParameter`` naming the argument and bound.
"""

import numbers
import operator


class MorsegraphError(Exception):
    """Base class for every error raised by this package."""


class InvalidEdge(MorsegraphError):
    """An edge is a self-loop or otherwise not a valid unordered pair."""


class VertexOutOfRange(MorsegraphError):
    """A vertex id is not in 0..n-1 for the graph at hand."""


class InvalidParameter(MorsegraphError):
    """A numeric or structural argument is outside its allowed range."""


class InvalidWitness(MorsegraphError):
    """A purported cycle witness does not verify against its host graph."""


class OutOfDomain(MorsegraphError):
    """A closed-form formula was evaluated outside its domain of validity."""


class CapacityExceeded(MorsegraphError):
    """A structure grew past its configured cap; the result was not degraded."""


class SearchBudgetExceeded(MorsegraphError):
    """A search exhausted its node-expansion budget before reaching an answer."""


class TooLarge(MorsegraphError):
    """An exhaustive computation was requested beyond its feasible size."""


class ConfigError(MorsegraphError):
    """A sweep configuration document is malformed; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


class EdgeListFormatError(MorsegraphError):
    """An edge-list text stream does not follow the documented format."""


class TrialErrorRateExceeded(MorsegraphError):
    """More than the tolerated fraction of trials in a sweep cell errored."""


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int (numpy integers included) with ``low <= value
    <= high``, either bound optional; bools and floats are rejected."""
    try:
        x = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        x = None
    if x is None:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if low is not None and x < low:
        raise InvalidParameter(f"{name} must be >= {low}, got {x}")
    if high is not None and x > high:
        raise InvalidParameter(f"{name} must be <= {high}, got {x}")
    return x


def _real(name: str, value, high: float) -> float:
    """``value`` as a float in [0, high] (numpy reals included, bools rejected)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if 0.0 <= (x := float(value)) <= high:
                return x
        except OverflowError:  # an int past the float range
            pass
    raise InvalidParameter(f"{name} must be a real number in [0, {high:g}], got {value!r}")


def _seed(name: str, value) -> int:
    """``value`` as a seed in [0, 2**64); one outside is not wrapped onto another seed."""
    return _integer(name, value, 0, 2**64 - 1)
