"""Double-barrier knock-out option pricing under one-dimensional diffusions.

The pipeline maps a diffusion to its Sturm-Liouville form, represents the
eigenfunctions as a sine term plus a Neumann series of spherical Bessel
functions with omega-independent coefficients, and prices knock-out
contracts (with Greeks and rebates) by the truncated eigenfunction
expansion.  A Crank-Nicolson solver provides an independent check.
"""

from .coefficients import (
    NSBFCoefficients,
    build_nsbf_coefficients,
    check_identities,
    compute_G2,
    compute_h_tilde,
    initial_coefficients,
    recover_alpha_beta,
    recurrence_step,
)
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
from .mesh import (
    GridFunction,
    Mesh,
    antiderivative,
    build_mesh,
    derivative,
    inner_product,
    interpolate,
)
from .model import (
    DiffusionSpec,
    EJDCEVParams,
    SLCoefficients,
    build_sl_coefficients,
    calibrate_delta,
    drift_of,
    ejdcev_spec,
    scale_gauge,
)
from .pricing import (
    ContributionReport,
    OptionContract,
    PricingResult,
    contribution,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
