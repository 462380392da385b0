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
from .mesh import Mesh, cumulative_integral, derivative_values


@dataclass(frozen=True)
class DiffusionSpec:
    """Callables defining a time-homogeneous diffusion on [L, U].

    Each callable takes a float array of prices and returns values of its
    shape, or a scalar, which is broadcast to it.  The solve, the oracle and
    Vega read them only through sample(), which refuses a non-finite value,
    a sigma that is not positive and a negative hazard.  sigma should be C^1
    on the barrier interval.  sigma_prime is optional; when absent, rho'
    falls back to numerical differentiation and vega to a numerical sigma'(y0).
    """

    sigma: Callable[[np.ndarray], np.ndarray]
    rbar: Callable[[np.ndarray], np.ndarray]
    qbar: Callable[[np.ndarray], np.ndarray]
    hazard: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"


# the lower bound each callable with one must exceed (sigma) or reach (hazard) on [L, U]
_FLOORS = {"sigma": (np.greater, "positive"), "hazard": (np.greater_equal, "non-negative")}


def sample(spec: DiffusionSpec, name: str, y: np.ndarray) -> np.ndarray:
    """The callable spec.<name> at the float array y, as floats of y's shape.

    A scalar return is broadcast.  A NaN or infinite value raises
    NonFiniteParameter naming the callable and the first bad y; a sigma that
    is not positive or a negative hazard raises PositivityError the same way.
    """
    values = np.asarray(getattr(spec, name)(y), dtype=float)
    if values.shape != y.shape:
        values = np.broadcast_to(values, y.shape)
    ok, error, rule = np.isfinite(values), NonFiniteParameter, "finite"
    if ok.all():
        if name not in _FLOORS:
            return values
        above, rule = _FLOORS[name]
        ok, error = above(values, 0.0), PositivityError
        if ok.all():
            return values
    i = np.flatnonzero(~ok)[0]
    raise error(f"{name}(y) = {values.flat[i]} at y = {y.flat[i]} in model {spec.name!r}: "
                f"{name} must be {rule} on [L, U]")


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

    Each field is a float array of the mesh's values, finite on every node
    when build_sl_coefficients made it.  Built once from a diffusion and
    never changed; what a solve derives from it, the steady state included,
    lives on the eigenbasis (spectrum.EigenBasis).
    """

    mesh: Mesh
    p: np.ndarray
    q: np.ndarray
    w: np.ndarray
    l: np.ndarray
    rho: np.ndarray
    rho_prime: np.ndarray


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


def build_sl_coefficients(spec: DiffusionSpec, mesh: Mesh) -> SLCoefficients:
    """Sample p, q, w, l, rho, rho' for a diffusion on a mesh.

    The model is read through sample().  A derived array that is not finite
    (p overflows when the drift is large against sigma^2) or a weight w that
    is not positive raises PositivityError naming the array.
    """
    y = mesh.points
    sig = sample(spec, "sigma", y)
    haz = sample(spec, "hazard", y)
    rbar = sample(spec, "rbar", y)
    mu = rbar - sample(spec, "qbar", y) + haz

    # an overflow is caught by the finiteness check below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        log_p_slope = 2.0 * mu / (y * sig**2)
        p = np.exp(cumulative_integral(mesh, log_p_slope))
        w = 2.0 * p / (sig**2 * y**2)
        q = (rbar + haz) * w
        l = math.sqrt(2.0) * cumulative_integral(mesh, 1.0 / (y * sig))
        rho = (p * w) ** 0.25
        if spec.sigma_prime is not None:
            sig_p = sample(spec, "sigma_prime", y)
            # rho'/rho = (log rho)' = (1/2)(p'/p - sigma'/sigma - 1/y)
            rho_prime = rho * 0.5 * (log_p_slope - sig_p / sig - 1.0 / y)
        else:
            rho_prime = derivative_values(mesh, rho)
    derived = {"p": p, "q": q, "w": w, "l": l, "rho": rho, "rho'": rho_prime}
    for name, values in derived.items():
        bad = ~np.isfinite(values)
        if bad.any():
            raise PositivityError(f"{name} is not finite from y = {y[bad][0]} on: the model "
                                  "overflows on [L, U]")
    if np.any(w <= 0.0):
        raise PositivityError("weight w must be positive on [L, U]")
    return SLCoefficients(mesh, p, q, w, l, rho, rho_prime)
