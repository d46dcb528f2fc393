"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: malformed inputs (GraphFormatError,
ConfigError) are usage errors, NumericError subclasses signal a numeric
failure in a fitting or estimation step.  ``read_utf8`` turns an input
file that is not UTF-8 text into one of these errors.  An ``OSError`` is
not wrapped: ``cli.main`` maps an absent path to exit 3 and any other OS
failure, naming its path, to exit 2.
"""

from pathlib import Path


class FrontdoorLabError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- graphs


class GraphError(FrontdoorLabError):
    pass


class CycleDetected(GraphError):
    """The edge set contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class UnknownNode(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class OverlappingSets(GraphError):
    """Query sets passed to a separation test are not disjoint."""


class NodeNotObserved(GraphError):
    pass


class GraphFormatError(GraphError):
    """A graph text file could not be parsed."""


# ---------------------------------------------------------------- data


class InvalidCount(FrontdoorLabError):
    pass


class AllMissingColumn(FrontdoorLabError):
    pass


class NothingToImpute(FrontdoorLabError):
    pass


class ConfigError(FrontdoorLabError):
    """A run configuration file or value could not be parsed."""


# ---------------------------------------------------------------- numerics


class NumericError(FrontdoorLabError):
    pass


class SingularSystem(NumericError):
    """The penalized normal equations are numerically singular."""


class TooFewDistinctValues(NumericError):
    pass


class TooFewCompleteRows(NumericError):
    pass


class EmptyResidualPool(NumericError):
    pass


# ---------------------------------------------------------------- input text


def read_utf8(path, error: type[FrontdoorLabError] = FrontdoorLabError) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises ``error`` naming its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{path} line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text"
        ) from None
