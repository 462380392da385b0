"""Double-barrier knock-out option pricing under one-dimensional diffusions.

The pipeline maps a diffusion to its Sturm-Liouville form, represents the
eigenfunctions as a sine term plus a Neumann series of spherical Bessel
functions with omega-independent coefficients, and prices knock-out
contracts (with Greeks and rebates) by the truncated eigenfunction
expansion.  A Crank-Nicolson solver provides an independent check.

The package exports what a user prices with; each pipeline stage is
imported from its own module (nsbf_pricer.mesh, .model, .spps,
.coefficients, .bessel, .spectrum, .pricing, .fd).
"""

from .engine import DoubleBarrierSolver, NumericsConfig
from .errors import (
    BoundaryViolation,
    ConfigError,
    ConvergenceError,
    InstabilityError,
    InvalidQuoteInput,
    NonFiniteParameter,
    NonFiniteSpot,
    NSBFError,
    ParameterOutOfRange,
    PositivityError,
    SpotOutsideBarriers,
    TimeOutsideHorizon,
    VegaUndefined,
)
from .fd import FDGrid, fd_price
from .mesh import GridFunction
from .model import DiffusionSpec, EJDCEVParams, ejdcev_spec
from .pricing import ContributionReport, OptionContract, PricingResult

__all__ = [
    "BoundaryViolation", "ConfigError", "ContributionReport", "ConvergenceError", "DiffusionSpec",
    "DoubleBarrierSolver", "EJDCEVParams", "FDGrid", "GridFunction", "InstabilityError",
    "InvalidQuoteInput", "NSBFError", "NonFiniteParameter", "NonFiniteSpot", "NumericsConfig",
    "OptionContract", "ParameterOutOfRange", "PositivityError", "PricingResult",
    "SpotOutsideBarriers", "TimeOutsideHorizon", "VegaUndefined", "ejdcev_spec", "fd_price",
]
__version__ = "0.1.0"
