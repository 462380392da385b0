"""Diffusion models and their Sturm-Liouville coefficients.

A model is a set of callables (volatility, rate, dividend yield, hazard)
for the price process dY = mu(Y) Y dt + sigma(Y) Y dB killed at the
barriers and at default.  Martingale pricing fixes the drift as
mu = rbar - qbar + h.  The associated self-adjoint form uses

    p(y) = exp( int_L^y 2 mu / (s sigma^2) ds ),
    w(y) = 2 p / (sigma^2 y^2),
    q(y) = (rbar + h) w,

together with the Liouville variable l(y) = sqrt(2) int_L^y ds/(s sigma)
and rho = (p w)^(1/4).  The lower integration limit of p is fixed at L;
any other choice rescales (p, w, q) by a constant the spectrum and prices
are invariant under.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteParameter, ParameterOutOfRange, PositivityError
from .mesh import GridFunction, Mesh, cumulative_integral, derivative_values


@dataclass(frozen=True)
class DiffusionSpec:
    """Callables defining a time-homogeneous diffusion on [L, U].

    All callables must accept numpy arrays.  sigma must be positive and C^1
    on the barrier interval; hazard must be non-negative.  sigma_prime is
    optional; when absent, rho' falls back to numerical differentiation and
    vega to a numerical sigma'(y0).
    """

    sigma: Callable[[np.ndarray], np.ndarray]
    rbar: Callable[[np.ndarray], np.ndarray]
    qbar: Callable[[np.ndarray], np.ndarray]
    hazard: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"


def is_number(value, kind=numbers.Real) -> bool:
    """value is a kind (a real number by default) and not a bool, which JSON true would give."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class EJDCEVParams:
    """Jump-to-default CEV with volatility delta*y^beta and hazard b + c*sigma^gamma."""

    beta: float
    gamma: float
    b: float = 0.02
    c: float = 0.5
    rbar: float = 0.1
    qbar: float = 0.0
    sigma0: float = 0.25
    y0: float = 100.0

    def __post_init__(self):
        bad = [name for name, v in vars(self).items() if not is_number(v)]
        if bad:
            raise TypeError(f"EJDCEV parameters must be real numbers: {', '.join(bad)}")
        bad = [f"{name}={v}" for name, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise NonFiniteParameter(f"EJDCEV parameters must be finite: {', '.join(bad)}")
        domain = {"sigma0": self.sigma0 > 0, "y0": self.y0 > 0, "b": self.b >= 0, "c": self.c >= 0}
        bad = [f"{name}={getattr(self, name)}" for name, ok in domain.items() if not ok]
        if bad:
            raise ParameterOutOfRange(f"EJDCEV needs sigma0, y0 > 0, b, c >= 0: {', '.join(bad)}")

    @property
    def delta(self) -> float:
        """Scale with delta * y0^beta = sigma0 (spot volatility pinned)."""
        return self.sigma0 * self.y0 ** (-self.beta)


@dataclass(frozen=True)
class SLCoefficients:
    """Sturm-Liouville data p, q, w plus the Liouville transform l, rho on a mesh.

    Built once from a diffusion (build_sl_coefficients) and never changed;
    what a solve derives from it, the steady state included, lives on the
    eigenbasis (spectrum.EigenBasis).
    """

    mesh: Mesh
    p: GridFunction
    q: GridFunction
    w: GridFunction
    l: GridFunction
    rho: GridFunction
    rho_prime: GridFunction


def ejdcev_spec(params: EJDCEVParams) -> DiffusionSpec:
    """DiffusionSpec for the extended jump-to-default CEV model."""
    delta, beta, gamma = params.delta, params.beta, params.gamma
    b, c = params.b, params.c
    rbar, qbar = params.rbar, params.qbar

    def sigma(y):
        return delta * np.asarray(y, dtype=float) ** beta

    def sigma_prime(y):
        return delta * beta * np.asarray(y, dtype=float) ** (beta - 1.0)

    def hazard(y):
        return b + c * sigma(y) ** gamma

    return DiffusionSpec(
        sigma=sigma,
        rbar=lambda y: np.full_like(np.asarray(y, dtype=float), rbar),
        qbar=lambda y: np.full_like(np.asarray(y, dtype=float), qbar),
        hazard=hazard,
        sigma_prime=sigma_prime,
        name=f"ejdcev(beta={beta}, gamma={gamma})",
    )


def drift_of(spec: DiffusionSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Martingale drift mu = rbar - qbar + hazard."""

    def mu(y):
        y = np.asarray(y, dtype=float)
        return spec.rbar(y) - spec.qbar(y) + spec.hazard(y)

    return mu


def build_sl_coefficients(spec: DiffusionSpec, mesh: Mesh) -> SLCoefficients:
    """Sample p, q, w, l, rho, rho' for a diffusion on a mesh."""
    y = mesh.points
    sig = np.asarray(spec.sigma(y), dtype=float)
    if np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
        raise PositivityError("sigma must be positive and finite on [L, U]")
    haz = np.asarray(spec.hazard(y), dtype=float)
    if np.any(haz < 0.0):
        raise PositivityError("hazard rate must be non-negative on [L, U]")
    mu = np.asarray(spec.rbar(y), dtype=float) - np.asarray(spec.qbar(y), dtype=float) + haz

    log_p_slope = 2.0 * mu / (y * sig**2)
    p = np.exp(cumulative_integral(mesh, log_p_slope))
    w = 2.0 * p / (sig**2 * y**2)
    if np.any(w <= 0.0):
        raise PositivityError("weight w must be positive on [L, U]")
    q = (np.asarray(spec.rbar(y), dtype=float) + haz) * w
    l = math.sqrt(2.0) * cumulative_integral(mesh, 1.0 / (y * sig))
    rho = (p * w) ** 0.25
    if spec.sigma_prime is not None:
        sig_p = np.asarray(spec.sigma_prime(y), dtype=float)
        # rho'/rho = (log rho)' = (1/2)(p'/p - sigma'/sigma - 1/y)
        rho_prime = rho * 0.5 * (log_p_slope - sig_p / sig - 1.0 / y)
    else:
        rho_prime = derivative_values(mesh, rho)

    return SLCoefficients(
        mesh=mesh,
        p=GridFunction(mesh, p),
        q=GridFunction(mesh, q),
        w=GridFunction(mesh, w),
        l=GridFunction(mesh, l),
        rho=GridFunction(mesh, rho),
        rho_prime=GridFunction(mesh, rho_prime),
    )

