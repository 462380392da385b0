"""Double-barrier knock-out option pricing under one-dimensional diffusions.

The pipeline maps a diffusion to its Sturm-Liouville form, represents the
eigenfunctions as a sine term plus a Neumann series of spherical Bessel
functions with omega-independent coefficients, and prices knock-out
contracts (with Greeks and rebates) by the truncated eigenfunction
expansion.  A Crank-Nicolson solver provides an independent check.
"""

from .coefficients import NSBFCoefficients, build_nsbf_coefficients
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
from .fd import FDGrid, FDSolution, fd_price, solve_pde
from .mesh import GridFunction, Mesh, build_mesh, inner_product
from .model import (
    DiffusionSpec,
    EJDCEVParams,
    SLCoefficients,
    build_sl_coefficients,
    calibrate_delta,
    drift_of,
    ejdcev_spec,
)
from .pricing import (
    ContributionReport,
    OptionContract,
    PricingResult,
    contribution,
    decay_factors,
    delta,
    fourier_coefficients,
    rows_at,
    theta,
    value,
    value_surface,
    vega,
)
from .spectrum import (
    EigenBasis,
    EigenPair,
    assemble_pairs,
    characteristic,
    find_eigenvalues,
)
from .spps import ParticularSolution, build_formal_powers, solve_particular
from .bessel import spherical_jn_block

__all__ = [
    "BoundaryViolation", "ConfigError", "ContributionReport", "ConvergenceError", "DiffusionSpec",
    "DoubleBarrierSolver", "EJDCEVParams", "EigenBasis", "EigenPair", "FDGrid", "FDSolution",
    "GridFunction", "InstabilityError", "InvalidQuoteInput", "Mesh", "NSBFCoefficients",
    "NSBFError", "NonFiniteParameter", "NonFiniteSpot", "NumericsConfig", "OptionContract",
    "ParameterOutOfRange", "ParticularSolution", "PositivityError", "PricingResult",
    "SLCoefficients", "SpotOutsideBarriers", "TimeOutsideHorizon", "VegaUndefined",
    "assemble_pairs", "build_formal_powers", "build_mesh", "build_nsbf_coefficients",
    "build_sl_coefficients", "calibrate_delta", "characteristic", "contribution",
    "decay_factors", "delta", "drift_of", "ejdcev_spec", "fd_price", "find_eigenvalues",
    "fourier_coefficients", "inner_product", "rows_at", "solve_particular", "solve_pde",
    "spherical_jn_block", "theta", "value", "value_surface", "vega",
]
__version__ = "0.1.0"
