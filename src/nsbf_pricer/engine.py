"""End-to-end solver: model -> coefficients -> spectrum -> prices.

One DoubleBarrierSolver instance owns the spectral data for a (model,
barrier interval, numerics) triple and prices any number of contracts
against it.  Every solve builds both coefficient families, each truncated
at its own order, and assembles the eigenfunctions with their derivatives,
so a price and its Greeks come from one solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import pricing
from .coefficients import NSBFCoefficients, build_nsbf_coefficients
from .errors import ConfigError, VegaUndefined
from .mesh import Mesh, build_mesh
from .model import DiffusionSpec, SLCoefficients, build_sl_coefficients, is_number
from .pricing import ContributionReport, OptionContract, PricingResult
from .spectrum import EigenBasis, assemble_pairs, find_eigenvalues, norm_identity_residuals
from .spps import ParticularSolution, build_formal_powers, solve_particular, steady_state


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization knobs; defaults match the reference tables.

    The series is cut by one rule, the same for every contract and not a
    knob: a quote at remaining time T - t keeps the pairs with
    lambda_n (T - t) <= lambda_decay_cap, a class constant.
    """

    mesh_points: int = 10001
    nsbf_order: Optional[int] = None  # None: choose by identity-residual plateau
    omega_max: float = 15.0
    lambda_decay_cap: ClassVar[float] = 35.0

    def __post_init__(self):
        def check(ok: bool, name: str, rule: str):
            if not ok:
                raise ConfigError(f"numerics.{name} must be {rule}, got {getattr(self, name)!r}")

        def integer(value) -> bool:
            return is_number(value, numbers.Integral)

        m = self.mesh_points
        check(integer(m) and m >= 6 and m % 5 == 1, "mesh_points", "an integer >= 6 and 1 mod 5")
        order = self.nsbf_order
        check(order is None or (integer(order) and order >= 0), "nsbf_order",
              "None or a non-negative integer")
        w = self.omega_max
        check(is_number(w) and math.isfinite(w) and w > 0, "omega_max", "finite and positive")


def solve_from_sl(
    sl: SLCoefficients, config: NumericsConfig
) -> tuple[ParticularSolution, NSBFCoefficients, EigenBasis]:
    """Coefficient and spectral stages for pre-built Sturm-Liouville data.

    Returns the particular solution, the coefficients and the stacked
    eigenbasis, which carries the steady state that pricing needs.  Entry
    point for synthetic problems and gauge-invariance checks that construct
    or rescale the coefficients directly.
    """
    particular = solve_particular(sl)
    powers = build_formal_powers(particular, sl)
    h, dh = steady_state(powers)
    coeffs = build_nsbf_coefficients(sl, particular, powers, order=config.nsbf_order)
    omega = find_eigenvalues(coeffs, sl, config.omega_max)
    return particular, coeffs, assemble_pairs(omega, coeffs, sl, h, dh)


class DoubleBarrierSolver:
    """Spectral pricer for one diffusion on one barrier interval."""

    def __init__(
        self,
        spec: DiffusionSpec,
        L: float,
        U: float,
        config: NumericsConfig = NumericsConfig(),
    ):
        if not isinstance(spec, DiffusionSpec):
            raise TypeError(f"spec must be a DiffusionSpec, got {type(spec).__name__}")
        if not isinstance(config, NumericsConfig):
            raise TypeError(f"config must be a NumericsConfig, got {type(config).__name__}")
        pricing.check_barriers(L, U)
        self.spec = spec
        self.L = float(L)
        self.U = float(U)
        self.config = config
        self.mesh: Optional[Mesh] = None
        self.sl: Optional[SLCoefficients] = None
        self.particular: Optional[ParticularSolution] = None
        self.coeffs: Optional[NSBFCoefficients] = None
        self.pairs: Optional[EigenBasis] = None
        self._diagnostics: Optional[dict] = None

    def solve(self, with_derivatives: bool = True) -> "DoubleBarrierSolver":
        """Build coefficients, locate the spectrum, assemble eigenfunctions and derivatives.

        with_derivatives is accepted and ignored: every solve builds the
        derivatives.  It stays for callers that still pass it (the benchmark
        harness does).
        """
        self.mesh = build_mesh(self.L, self.U, self.config.mesh_points)
        self.sl = build_sl_coefficients(self.spec, self.mesh)
        self.particular, self.coeffs, self.pairs = solve_from_sl(self.sl, self.config)
        self._diagnostics = self._solve_report()
        return self

    def _ensure_solved(self):
        if self.pairs is None:
            self.solve()

    def eigenvalues(self) -> np.ndarray:
        self._ensure_solved()
        return self.pairs.lam.copy()

    def retained_pairs(self, contract: OptionContract, t: float = 0.0) -> EigenBasis:
        """The leading slice of the basis that the truncation rule keeps at time t.

        The rule reads the remaining time T - t.  Solves first; a contract on
        other barriers raises ValueError, a t outside [0, T] TimeOutsideHorizon.
        """
        self._check_contract(contract)
        pricing.check_time(t, contract.T)
        self._ensure_solved()
        return pricing.select_pairs(self.pairs, contract.T - t, self.config)

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

        y0 must be finite and in [L, U], and t in [0, T]; each violation raises its
        own InvalidQuoteInput subclass, and a bool TypeError, before any work is done.
        So does a band that pricing.is_band refuses, with a ValueError naming it.
        """
        pricing.check_quote_point(y0, t, self.L, self.U, contract.T)
        bad = [band for band in bands or () if not pricing.is_band(band)]
        if bad:
            raise ValueError(f"band {bad[0]!r} must be (n1, n2), integers 1 <= n1 <= n2 or n2 None")
        pairs = self.retained_pairs(contract, t)
        g = pricing.fourier_coefficients(contract, pairs)
        at = pricing.rows_at(y0, pairs)
        decay = pricing.decay_factors(pairs, contract, t)
        px = pricing.value(at, contract, g, decay)

        d = v = th = None
        if greeks:
            d = pricing.delta(at, contract, g, decay)
            th = pricing.theta(at, pairs, g, decay)
            try:
                v = pricing.vega(y0, d, self.spec)
            except VegaUndefined:
                v = None
        report: Optional[ContributionReport] = None
        if bands is not None:
            report = pricing.contribution_report(bands, at, contract, g, decay)
        diagnostics = self.diagnostics()
        diagnostics["truncation"] = pricing.truncation(
            len(pairs), len(self.pairs), contract.T - t, self.config
        )

        return PricingResult(
            price=px,
            delta=d,
            vega=v,
            theta=th,
            N_used=len(pairs),
            M_used=self.coeffs.M_trunc,
            contributions=report,
            diagnostics=diagnostics,
        )

    def surface(self, contract: OptionContract, t_count: int = 101, y_count: int = 101):
        """(t_grid, y_grid, values) on a t_count x y_count grid from t = 0 to T, L to U.

        Rows of values are times, columns prices.  Each count must be an
        integer >= 1, not a bool.  Every row reads the pairs that its last
        row, at t = T, keeps.
        """
        for name, count in (("t_count", t_count), ("y_count", y_count)):
            if not (is_number(count, numbers.Integral) and count >= 1):
                raise ValueError(f"surface {name} must be an integer >= 1, got {count!r}")
        pairs = self.retained_pairs(contract, contract.T)
        g = pricing.fourier_coefficients(contract, pairs)
        t_grid = np.linspace(0.0, contract.T, t_count)
        y_grid = np.linspace(contract.L, contract.U, y_count)
        at = pricing.rows_at(y_grid, pairs)
        decay = pricing.decay_factors(pairs, contract, t_grid)
        return t_grid, y_grid, pricing.value(at, contract, g, decay)

    def diagnostics(self) -> dict:
        """Facts about the solve (solving first); computed once per solve, copied per call."""
        self._ensure_solved()
        return dict(self._diagnostics)

    def _solve_report(self) -> dict:
        res = self.coeffs.check_residuals
        return {
            "mesh_points": self.mesh.M,
            "nsbf_order": self.coeffs.M_trunc,
            "nsbf_beta_order": self.coeffs.M_beta,
            "nsbf_suggested_order": self.coeffs.suggested_order,
            "nsbf_orders_built": int(self.coeffs.residual_by_order.shape[0]),
            "nsbf_order_stop": self.coeffs.order_stop,
            "nsbf_plateau_residual": float(self.coeffs.plateau_residual),
            "identity_residual_alpha_sum": float(np.max(res[0])),
            "identity_residual_alpha_alt": float(np.max(res[1])),
            "identity_residual_beta_sum": float(np.max(res[2])),
            "identity_residual_beta_alt": float(np.max(res[3])),
            "eigenvalues_found": len(self.pairs),
            "max_boundary_residual": float(np.max(self.pairs.boundary_residual)),
            "max_norm_identity_residual": float(
                np.max(norm_identity_residuals(self.pairs, self.sl))
            ),
            "spps_terms": self.particular.series_order,
        }
