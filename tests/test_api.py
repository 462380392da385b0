"""The package exports what a user prices with; every stage stays in its module."""

import importlib

import nsbf_pricer as nb

EXPORTS = [
    "BoundaryViolation", "ConfigError", "ContributionReport", "ConvergenceError",
    "DiffusionSpec", "DoubleBarrierSolver", "EJDCEVParams", "FDGrid", "GridFunction",
    "InstabilityError", "InvalidQuoteInput", "NSBFError", "NonFiniteParameter", "NonFiniteSpot",
    "NumericsConfig", "OptionContract", "ParameterOutOfRange", "PositivityError",
    "PricingResult", "SpotOutsideBarriers", "TimeOutsideHorizon", "VegaUndefined",
    "ejdcev_spec", "fd_price",
]

# stage names the package no longer exports, by the module that holds each
STAGES = {
    "bessel": ["spherical_jn_block"],
    "coefficients": ["NSBFCoefficients", "build_nsbf_coefficients"],
    "fd": ["FDSolution", "solve_pde"],
    "mesh": ["Mesh", "build_mesh", "inner_product"],
    "model": ["SLCoefficients", "build_sl_coefficients", "sample"],
    "pricing": ["contribution", "decay_factors", "delta", "fourier_coefficients", "rows_at",
                "theta", "value", "vega"],
    "spectrum": ["EigenBasis", "EigenPair", "assemble_pairs", "characteristic",
                 "find_eigenvalues"],
    "spps": ["ParticularSolution", "build_formal_powers", "solve_particular"],
}


def test_exports_are_the_written_list():
    assert sorted(nb.__all__) == sorted(EXPORTS)
    assert all(hasattr(nb, name) for name in nb.__all__)


def test_stages_import_from_their_modules_only():
    for module, names in STAGES.items():
        mod = importlib.import_module(f"nsbf_pricer.{module}")
        for name in names:
            assert hasattr(mod, name), f"nsbf_pricer.{module}.{name}"
            assert not hasattr(nb, name), name
