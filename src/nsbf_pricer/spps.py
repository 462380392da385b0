"""Particular solution g of (p g')' = q g and the associated formal powers.

g is built with the spectral parameter power series at zero spectral
parameter: iterated integrals X0 = 1, X_odd = int X_prev q, X_even =
int X_prev / p give g = (1/rho(L)) sum X_even with g(L) = 1/rho(L) and
g'(L) = 0.  For q >= 0 every even iterate is non-negative, so g can
never vanish.  The formal powers Phi_k generalize (y-L)^k and feed both
the coefficient recurrences and the direct-formula cross-check; Phi_1,
the lambda = 0 solution vanishing at L, also gives the steady state that
carries a rebate's boundary value (Kravchenko & Porter 2010).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PositivityError
from .mesh import GridFunction, cumulative_integral
from .model import SLCoefficients

SPPS_TOL = 1e-14  # stop once the last even iterate is this small relative to the sum
SPPS_MAX_TERMS = 64


@dataclass(frozen=True)
class ParticularSolution:
    g: GridFunction
    g_prime: GridFunction
    series_order: int


@dataclass(frozen=True)
class FormalPowerTable:
    """Phi_0..Phi_K with the auxiliary families Y (odd seed) and Ytilde (even seed).

    Rows of each array are indexed by the power k; Y[0] = Ytilde[0] = 1.
    """

    Phi: np.ndarray
    Y: np.ndarray
    Ytilde: np.ndarray
    K: int


def solve_particular(
    c: SLCoefficients, tol: float = SPPS_TOL, max_terms: int = SPPS_MAX_TERMS
) -> ParticularSolution:
    """Non-vanishing solution of (p g')' = q g with g(L) = 1/rho(L), g'(L) = 0."""
    mesh = c.mesh
    p, q = c.p.values, c.q.values
    rho_l = c.rho.values[0]

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
    return ParticularSolution(
        g=GridFunction(mesh, g),
        g_prime=GridFunction(mesh, g_prime),
        series_order=order,
    )


def build_formal_powers(
    sol: ParticularSolution, c: SLCoefficients, K: int
) -> FormalPowerTable:
    """Formal powers Phi_k = g * Y^(k) (k odd) or g * Ytilde^(k) (k even).

    The two step weights are 1/(g^2 p) and g^2 w; their product w/p makes
    each pair of integrations gain a factor ~ l^2, so Phi_k ~ l^k / rho,
    which the coefficient formulas rely on.
    """
    mesh = c.mesh
    g = sol.g.values
    g2w = g**2 * c.w.values
    inv_g2p = 1.0 / (g**2 * c.p.values)

    Y = np.empty((K + 1, mesh.M))
    Yt = np.empty((K + 1, mesh.M))
    Y[0] = 1.0
    Yt[0] = 1.0
    for k in range(1, K + 1):
        if k % 2 == 1:
            Y[k] = k * cumulative_integral(mesh, Y[k - 1] * inv_g2p)
            Yt[k] = k * cumulative_integral(mesh, Yt[k - 1] * g2w)
        else:
            Y[k] = k * cumulative_integral(mesh, Y[k - 1] * g2w)
            Yt[k] = k * cumulative_integral(mesh, Yt[k - 1] * inv_g2p)

    Phi = np.where((np.arange(K + 1) % 2 == 1)[:, None], Y, Yt) * g[None, :]
    return FormalPowerTable(Phi=Phi, Y=Y, Ytilde=Yt, K=K)


def steady_state(
    sol: ParticularSolution, powers: FormalPowerTable, c: SLCoefficients
) -> tuple[GridFunction, GridFunction]:
    """h = Phi_1 / Phi_1(U), the solution of (p h')' = q h with h(L) = 0, h(U) = 1, and h'.

    Phi_1 = g Y_1 with Y_1 = int_L^y ds / (p g^2), so Phi_1' = g' Y_1 + 1 / (p g).
    """
    scale = powers.Phi[1, -1]
    h = powers.Phi[1] / scale
    h_prime = (sol.g_prime.values * powers.Y[1] + 1.0 / (c.p.values * sol.g.values)) / scale
    return GridFunction(c.mesh, h), GridFunction(c.mesh, h_prime)
