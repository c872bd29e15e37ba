"""Exception types shared across the package."""


class ShintaniError(Exception):
    """Base class for all package errors."""


class ZeroInversion(ShintaniError):
    """Attempted to invert the zero element."""


class NotTotallyReal(ShintaniError):
    """Defining polynomial does not have three distinct real roots."""


class NotTotallyPositive(ShintaniError):
    """Element required to be totally positive is not."""


class DegenerateGeometry(ShintaniError):
    """Cone construction or canonicalization failed."""


class SignConditionFailed(ShintaniError):
    """A delta sign hypothesis of a domain construction is violated."""


class EmptySet(ShintaniError):
    """Requested a point of an empty Shintani set."""


class WindowExceeded(ShintaniError):
    """`cones.WINDOW` cut the certified k range of a translate search."""


class InclusionViolated(ShintaniError):
    """A translate cover exceeds the box the construction guarantees."""


class FixgiViolated(ShintaniError):
    """Unit pair fails the embedding inequality chains of the construction."""


class DegenerateBasis(ShintaniError):
    """Log images of the projection basis are linearly dependent."""


class Inconclusive(ShintaniError):
    """An interval check straddles its bound at maximal precision."""


class PrecisionExhausted(Inconclusive):
    """A certified sign could not be decided within the precision cap."""


class Exhausted(ShintaniError):
    """A bounded search ran out of budget."""

    def __init__(self, what, budget):
        super().__init__(f"{what} exhausted at {budget}")
        self.what = what
        self.budget = budget


class ParseError(ShintaniError):
    """Element expression could not be parsed."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownName(ShintaniError):
    """Element expression references an unknown name."""


class UnknownScenario(ShintaniError):
    """Scenario id not present in the configuration."""
