"""Exception types shared across the library.

Everything raised deliberately by this package derives from ChorddivError so
callers (and the CLI) can distinguish data/parameter problems from genuine
bugs.
"""


class ChorddivError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ChorddivError):
    """A point lies outside (or too close to the boundary of) a domain."""


class ShapeError(ChorddivError):
    """Vector arguments have mismatched or invalid shapes."""


class ParameterError(ChorddivError):
    """A scalar parameter (skew, anchor, dimension, count) is invalid."""


class GradientRequiredError(ChorddivError):
    """The operation needs a gradient the generator does not define."""


class UnsupportedGeneratorError(ChorddivError):
    """Requested built-in generator name is not known."""


class UnknownDivergenceError(ChorddivError):
    """A divergence identifier could not be resolved."""


class BracketError(ChorddivError):
    """A bracketing search was started without a valid bracket."""


class DegenerateRestrictionError(ChorddivError):
    """Line restriction endpoints coincide."""


class InfeasibleError(ChorddivError):
    """Clustering constraints cannot be satisfied by the data."""


class ParseError(ChorddivError):
    """A data file could not be parsed."""
