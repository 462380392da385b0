"""Particular solution g of (p g')' = q g and the first formal power Phi_1.

g is built with the spectral parameter power series at zero spectral
parameter: iterated integrals X0 = 1, X_odd = int X_prev q, X_even =
int X_prev / p give g = (1/rho(L)) sum X_even with g(L) = 1/rho(L) and
g'(L) = 0.  For q >= 0 every even iterate is non-negative, so g can
never vanish.  Of the formal powers Phi_k, which generalize (y-L)^k, a
solve needs only Phi_1 = g Y_1, the lambda = 0 solution vanishing at L:
it seeds the coefficient recurrence and gives the steady state that
carries a rebate's boundary value (Kravchenko & Porter 2010).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PositivityError
from .mesh import cumulative_integral
from .model import SLCoefficients

SPPS_TOL = 1e-14  # stop once the last even iterate is this small relative to the sum
SPPS_MAX_TERMS = 64


@dataclass(frozen=True)
class ParticularSolution:
    """g and g' as float arrays on the mesh of the Sturm-Liouville data, and the terms summed."""

    g: np.ndarray
    g_prime: np.ndarray
    series_order: int


@dataclass(frozen=True)
class FirstFormalPower:
    """Phi_1 = g Y_1 with Y_1 = int_L^y ds / (p g^2), and Phi_1' = g' Y_1 + 1 / (p g)."""

    Y1: np.ndarray
    Phi1: np.ndarray
    Phi1_prime: np.ndarray


def solve_particular(
    c: SLCoefficients, tol: float = SPPS_TOL, max_terms: int = SPPS_MAX_TERMS
) -> ParticularSolution:
    """Non-vanishing solution of (p g')' = q g with g(L) = 1/rho(L), g'(L) = 0."""
    mesh = c.mesh
    p, q = c.p, c.q
    rho_l = c.rho[0]

    x_even = np.ones(mesh.M)
    g_sum = np.ones(mesh.M)
    odd_sum = np.zeros(mesh.M)
    tail = 0.0
    order = 0
    for k in range(1, max_terms + 1):
        x_odd = cumulative_integral(mesh, x_even * q)
        x_even = cumulative_integral(mesh, x_odd / p)
        odd_sum += x_odd
        g_sum += x_even
        tail = float(np.max(np.abs(x_even))) / float(np.max(np.abs(g_sum)))
        order = k
        if tail < tol:
            break
    else:
        raise ConvergenceError(
            f"particular solution did not converge in {max_terms} terms (tail {tail:.3e})"
        )

    g = g_sum / rho_l
    if np.any(g <= 0.0):
        raise PositivityError("series solution is not positive; model has q < 0 somewhere")
    g_prime = odd_sum / (p * rho_l)
    return ParticularSolution(g=g, g_prime=g_prime, series_order=order)


def build_formal_powers(sol: ParticularSolution, c: SLCoefficients) -> FirstFormalPower:
    """The first formal power Phi_1, the one a solve reads, with Y_1 and Phi_1'."""
    g, p = sol.g, c.p
    Y1 = cumulative_integral(c.mesh, 1.0 / (g**2 * p))
    return FirstFormalPower(Y1=Y1, Phi1=Y1 * g, Phi1_prime=sol.g_prime * Y1 + 1.0 / (p * g))


def steady_state(powers: FirstFormalPower) -> tuple[np.ndarray, np.ndarray]:
    """h = Phi_1 / Phi_1(U), the solution of (p h')' = q h with h(L) = 0, h(U) = 1, and h'."""
    scale = powers.Phi1[-1]
    return powers.Phi1 / scale, powers.Phi1_prime / scale
