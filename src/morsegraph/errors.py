"""Exception types shared across the package."""


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
