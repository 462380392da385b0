"""End-to-end solver: model -> coefficients -> spectrum -> prices.

One DoubleBarrierSolver instance owns the spectral data for a (model,
barrier interval, numerics) triple and prices any number of contracts
against it.  The price-only reduced path skips the beta family and the
eigenfunction derivatives; asking for Greeks builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import pricing
from .coefficients import (
    DEFAULT_EDGE_FRACTION,
    DEFAULT_ORDER_CAP,
    NSBFCoefficients,
    build_nsbf_coefficients,
)
from .errors import NonFiniteSpot, SpotOutsideBarriers, TimeOutsideHorizon, VegaUndefined
from .mesh import Mesh, build_mesh
from .model import DiffusionSpec, SLCoefficients, build_sl_coefficients
from .pricing import ContributionReport, OptionContract, PricingResult
from .spectrum import EigenPair, assemble_pairs, find_eigenvalues
from .spps import ParticularSolution, build_formal_powers, solve_particular, steady_state


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization and truncation knobs; defaults match the reference tables."""

    mesh_points: int = 10001
    nsbf_order: Optional[int] = None  # None: choose by identity-residual plateau
    nsbf_order_cap: int = DEFAULT_ORDER_CAP
    omega_max: float = 15.0
    omega_grid_count: int = 100
    refine_tol: float = 1e-12
    lambda_decay_cap: float = 35.0  # keep lambda_n * T <= cap
    lambda_cutoff: Optional[float] = None  # absolute cutoff lambda_n <= X, overrides the decay rule
    n_max: Optional[int] = None  # explicit eigenterm count override
    spps_tol: float = 1e-14
    spps_max_terms: int = 64
    edge_fraction: float = DEFAULT_EDGE_FRACTION


def solve_from_sl(
    sl: SLCoefficients, config: NumericsConfig, with_derivatives: bool = True
) -> tuple[SLCoefficients, ParticularSolution, NSBFCoefficients, list[EigenPair]]:
    """Coefficient and spectral stages for pre-built Sturm-Liouville data.

    Returns sl with its steady state attached (pricing needs it), the
    particular solution, the coefficients and the eigenpairs.  Entry point
    for synthetic problems and gauge-invariance checks that construct or
    rescale the coefficients directly.
    """
    particular = solve_particular(sl, tol=config.spps_tol, max_terms=config.spps_max_terms)
    powers = build_formal_powers(particular, sl, K=1)
    steady, steady_prime = steady_state(particular, powers, sl)
    sl = replace(sl, steady=steady, steady_prime=steady_prime)
    coeffs = build_nsbf_coefficients(
        sl,
        particular,
        powers,
        order=config.nsbf_order,
        order_cap=config.nsbf_order_cap,
        edge_fraction=config.edge_fraction,
        with_beta=with_derivatives,
    )
    skeletons = find_eigenvalues(
        coeffs, sl, config.omega_max, config.omega_grid_count, config.refine_tol
    )
    pairs = assemble_pairs(skeletons, coeffs, sl, with_derivatives)
    return sl, particular, coeffs, pairs


class DoubleBarrierSolver:
    """Spectral pricer for one diffusion on one barrier interval."""

    def __init__(
        self,
        spec: DiffusionSpec,
        L: float,
        U: float,
        config: NumericsConfig = NumericsConfig(),
    ):
        self.spec = spec
        self.L = float(L)
        self.U = float(U)
        self.config = config
        self.mesh: Optional[Mesh] = None
        self.sl: Optional[SLCoefficients] = None
        self.particular: Optional[ParticularSolution] = None
        self.coeffs: Optional[NSBFCoefficients] = None
        self.pairs: Optional[list[EigenPair]] = None
        self._has_derivatives = False
        self._diagnostics: Optional[dict] = None

    def solve(self, with_derivatives: bool = True) -> "DoubleBarrierSolver":
        """Build coefficients, locate the spectrum, assemble eigenfunctions."""
        self.mesh = build_mesh(self.L, self.U, self.config.mesh_points)
        sl = build_sl_coefficients(self.spec, self.mesh)
        self.sl, self.particular, self.coeffs, self.pairs = solve_from_sl(
            sl, self.config, with_derivatives
        )
        self._has_derivatives = with_derivatives
        self._diagnostics = self._solve_report()
        return self

    def _ensure_solved(self, with_derivatives: bool):
        if self.pairs is None or (with_derivatives and not self._has_derivatives):
            self.solve(with_derivatives=with_derivatives)

    def eigenvalues(self) -> np.ndarray:
        self._ensure_solved(False)
        return np.array([p.lam for p in self.pairs])

    def retained_pairs(self, contract: OptionContract) -> list[EigenPair]:
        """The pairs the truncation rule keeps, with the contract's coefficients attached."""
        kept = pricing.select_pairs(self.pairs, contract.T, self.config)
        return pricing.fourier_coefficients(contract, kept, self.sl)

    def _check_contract(self, contract: OptionContract):
        if not (contract.L == self.L and contract.U == self.U):
            raise ValueError("contract barriers differ from the solved interval")

    def price(
        self,
        contract: OptionContract,
        y0: float,
        greeks: bool = False,
        bands: Optional[list[tuple]] = None,
        t: float = 0.0,
    ) -> PricingResult:
        """Price (and optionally Greeks / band contributions) at (y0, t).

        y0 must be finite and in [L, U], and t in [0, T]; each violation
        raises its own InvalidQuoteInput subclass before any work is done.
        """
        self._check_contract(contract)
        if not np.isfinite(y0):
            raise NonFiniteSpot(f"spot y0 = {y0} is not finite")
        if not self.L <= y0 <= self.U:
            raise SpotOutsideBarriers(f"spot y0 = {y0} lies outside [{self.L}, {self.U}]")
        if not 0.0 <= t <= contract.T:
            raise TimeOutsideHorizon(f"time t = {t} lies outside [0, {contract.T}]")
        self._ensure_solved(greeks)
        pairs = self.retained_pairs(contract)
        px = pricing.value(y0, t, contract, pairs, self.sl)

        d = v = th = None
        if greeks:
            d = pricing.delta(y0, contract, pairs, self.sl)
            th = pricing.theta(y0, contract, pairs, self.sl)
            try:
                v = pricing.vega(y0, d, self.spec)
            except VegaUndefined:
                v = None
        report: Optional[ContributionReport] = None
        if bands is not None:
            report = pricing.contribution_report(bands, y0, t, contract, pairs, self.sl)

        return PricingResult(
            price=px,
            delta=d,
            vega=v,
            theta=th,
            N_used=len(pairs),
            M_used=self.coeffs.M_trunc,
            contributions=report,
            diagnostics=self.diagnostics(),
        )

    def surface(self, contract: OptionContract, t_count: int = 101, y_count: int = 101):
        self._check_contract(contract)
        self._ensure_solved(False)
        pairs = self.retained_pairs(contract)
        return pricing.value_surface(contract, pairs, self.sl, t_count, y_count)

    def diagnostics(self) -> dict:
        """Facts about the current solve; computed once per solve, copied per call."""
        return dict(self._diagnostics)

    def _solve_report(self) -> dict:
        res = self.coeffs.check_residuals
        out = {
            "mesh_points": self.mesh.M,
            "nsbf_order": self.coeffs.M_trunc,
            "nsbf_suggested_order": self.coeffs.suggested_order,
            "nsbf_orders_built": int(self.coeffs.residual_by_order.shape[0]),
            "nsbf_order_stop": self.coeffs.order_stop,
            "nsbf_plateau_residual": float(self.coeffs.plateau_residual),
            "identity_residual_alpha_sum": float(np.max(res[0])),
            "identity_residual_alpha_alt": float(np.max(res[1])),
            "eigenvalues_found": len(self.pairs),
            "max_boundary_residual": max(p.boundary_residual for p in self.pairs),
            "spps_terms": self.particular.series_order,
        }
        if res[2] is not None:
            out["identity_residual_beta_sum"] = float(np.max(res[2]))
            out["identity_residual_beta_alt"] = float(np.max(res[3]))
        return out
