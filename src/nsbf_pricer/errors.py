"""Exception types shared across the solver stages."""


class NSBFError(Exception):
    """Base class for solver failures."""


class ConvergenceError(NSBFError):
    """A truncated series or iteration failed to reach its tolerance."""


class PositivityError(NSBFError):
    """A quantity required to be positive (coefficient, particular solution) is not."""


class BoundaryViolation(NSBFError):
    """An assembled eigenfunction does not vanish at a barrier within tolerance."""


class VegaUndefined(NSBFError):
    """Vega via the chain rule needs sigma'(y0) != 0 (constant-volatility models have none)."""


class InstabilityError(NSBFError):
    """The finite-difference oracle produced values far outside the payoff range."""


class ConfigError(NSBFError):
    """A run configuration is missing fields or holds inconsistent values."""


class NonFiniteParameter(ConfigError, ValueError):
    """A model parameter or a barrier level is NaN or infinite."""


class ParameterOutOfRange(ConfigError, ValueError):
    """A model parameter lies outside its domain, such as a non-positive spot volatility."""


class InvalidQuoteInput(NSBFError, ValueError):
    """A quote request lies outside the domain the solved basis covers."""


class NonFiniteSpot(InvalidQuoteInput):
    """The spot y0 is NaN or infinite."""


class SpotOutsideBarriers(InvalidQuoteInput):
    """The spot y0 lies outside the barrier interval [L, U]."""


class TimeOutsideHorizon(InvalidQuoteInput):
    """The evaluation time t lies outside [0, T]."""
