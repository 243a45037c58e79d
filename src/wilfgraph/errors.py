"""Exception types shared across the package."""


class WilfgraphError(Exception):
    """Base class for all package-specific errors.

    exit_code is the CLI's exit status: 1 for bad or oversized input, 2 for
    an invariant failure (a bug, or a Wilf counterexample).
    """

    exit_code = 1


class EmptyGenerators(WilfgraphError):
    """A semigroup construction received no positive generators."""


class NonCoprimeGenerators(WilfgraphError):
    """gcd of the generators exceeds 1, so the complement is infinite."""


class InvalidTruncation(WilfgraphError):
    """Truncation point of a truncated semigroup must be positive."""


class NotAMember(WilfgraphError):
    """An operation requiring a semigroup element was given a non-member."""


class InconsistentDepths(WilfgraphError):
    """An edge of an associated graph violates the depth-sum lower bound."""

    exit_code = 2


class NotEdgeMaximal(WilfgraphError):
    """A graph assumed edge-maximal for its matching number is not."""


class Infeasible(WilfgraphError):
    """No loopy graph exists with the requested parameters."""


class TooLarge(WilfgraphError):
    """Input exceeds a supported size: a sieve table or a labeled graph."""


class WindowTooSmall(WilfgraphError):
    """No Sidon offset sequence of the requested length fits the window."""


class RealizationFailed(WilfgraphError):
    """A realization plan failed its post-construction verification."""

    exit_code = 2


class InvariantViolation(WilfgraphError):
    """A provable identity or bound failed: an implementation bug."""

    exit_code = 2


class WilfCounterexample(WilfgraphError):
    """|P||L| < c was observed; carries a full dump of the offending semigroup."""

    exit_code = 2
