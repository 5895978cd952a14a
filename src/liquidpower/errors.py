"""Exception types shared across the package.

All semantic failures raise a subclass of :class:`LiquidPowerError` so callers
(and the CLI) can distinguish bad input from bugs.
"""


class LiquidPowerError(Exception):
    """Base class for all errors raised by this package."""


class CycleInDelegations(LiquidPowerError):
    """A delegation profile contains a cycle.

    The offending cycle is stored in :attr:`cycle` as a list of voter ids
    (0-based, in delegation order, first voter repeated implicitly).
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"delegations contain a cycle: {' -> '.join(map(str, self.cycle))}")


class ArcNotInNetwork(LiquidPowerError):
    """A delegation (or redirect) uses an arc the social network does not have."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        super().__init__(f"no arc from voter {source} to voter {target} in the network")


class QuotaOutOfRange(LiquidPowerError):
    """The quota must satisfy 1 <= quota <= total weight."""


class NonPositiveWeight(LiquidPowerError):
    """Voter weights must be positive integers."""


class IncompatibleOverlap(LiquidPowerError):
    """Two elections cannot be composed because their shared voters disagree."""


class InstanceTooLargeForEnumeration(LiquidPowerError):
    """An exhaustive solver was asked to enumerate beyond its configured limit."""


class ParameterTooLarge(LiquidPowerError):
    """A parameterized solver was invoked outside its configured parameter guard."""


class NoFeasibleProfile(LiquidPowerError):
    """No delegation profile with the requested structure exists."""


class MeasureNotSupported(LiquidPowerError):
    """The requested power measure is not supported by this operation."""


class InvariantViolated(LiquidPowerError, RuntimeError):
    """A runtime self-check failed: two routes disagree, which is a bug here."""
