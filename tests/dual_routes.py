"""Second routes to quantities the program computes, for cross-checks only.

Each helper recomputes something src builds another way: alpha_n from the
Legendre/formal-power formula, G2 with the nested derivative, and the
pointwise identities that define w and q.  Nothing in src calls them.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nsbf_pricer.mesh import GridFunction, cumulative_integral, derivative_values
from nsbf_pricer.model import DiffusionSpec, SLCoefficients
from nsbf_pricer.spps import FormalPowerTable


def legendre_coefficient_table(n_max: int) -> np.ndarray:
    """table[k, n] = coefficient of x^k in the Legendre polynomial P_n (exact)."""
    rows = [[Fraction(1)]]
    if n_max >= 1:
        rows.append([Fraction(0), Fraction(1)])
    for n in range(1, n_max):
        pn, pm = rows[n], rows[n - 1]
        new = [Fraction(0)] * (n + 2)
        for k, coeff in enumerate(pn):
            new[k + 1] += Fraction(2 * n + 1, n + 1) * coeff
        for k, coeff in enumerate(pm):
            new[k] -= Fraction(n, n + 1) * coeff
        rows.append(new)
    table = np.zeros((n_max + 1, n_max + 1))
    for n, row in enumerate(rows):
        for k, coeff in enumerate(row):
            table[k, n] = float(coeff)
    return table


@dataclass(frozen=True)
class LegendreTable:
    """Power-basis coefficients of Legendre polynomials, l_coeffs[k, n]."""

    l_coeffs: np.ndarray

    @classmethod
    def build(cls, n_max: int) -> "LegendreTable":
        return cls(l_coeffs=legendre_coefficient_table(n_max))


DIRECT_ALPHA_MAX_ORDER = 8


def direct_alpha(
    n: int,
    table: LegendreTable,
    powers: FormalPowerTable,
    c: SLCoefficients,
) -> GridFunction:
    """alpha_n from the direct Legendre/formal-power formula.

    Only meaningful for small n (the Legendre coefficients grow fast and
    wipe out the significand); serves as an independent cross-check of the
    recurrence away from the left endpoint.
    """
    if n > DIRECT_ALPHA_MAX_ORDER:
        raise ValueError(f"direct formula is numerically meaningless for n > {DIRECT_ALPHA_MAX_ORDER}")
    if n > powers.K or n >= table.l_coeffs.shape[1]:
        raise ValueError("formal powers or Legendre table too short for requested order")
    l, rho = c.l.values, c.rho.values
    l_safe = np.where(l > 0.0, l, 1.0)
    acc = np.zeros(c.mesh.M)
    for k in range(n + 1):
        coeff = table.l_coeffs[k, n]
        if coeff == 0.0:
            continue
        acc += coeff * powers.Phi[k] / l_safe**k
    out = (2.0 * n + 1.0) / 2.0 * (acc - 1.0 / rho)
    if n >= 1:
        out[0] = 0.0  # l(L) = 0; the limit vanishes
    return GridFunction(c.mesh, out)


def compute_G2_unintegrated(c: SLCoefficients) -> GridFunction:
    """Direct form of G2 with the nested derivative; dual route for testing."""
    rho, p = c.rho.values, c.p.values
    inner = derivative_values(c.mesh, 1.0 / rho)
    bracket = derivative_values(c.mesh, p * inner)
    integrand = (c.q.values / rho - bracket) / rho
    return GridFunction(c.mesh, 0.5 * cumulative_integral(c.mesh, integrand))


@dataclass(frozen=True)
class ConsistencyReport:
    """Max relative residuals of the defining identities for w and q."""

    w_residual: float
    q_residual: float


def identity_p_w_q_consistency(c: SLCoefficients, spec: DiffusionSpec) -> ConsistencyReport:
    """Self-test: w = 2p/(sigma^2 y^2) and q = (rbar + h) w pointwise."""
    y = c.mesh.points
    sig = np.asarray(spec.sigma(y), dtype=float)
    w_ref = 2.0 * c.p.values / (sig**2 * y**2)
    q_ref = (np.asarray(spec.rbar(y), dtype=float) + np.asarray(spec.hazard(y), dtype=float)) * c.w.values
    w_res = float(np.max(np.abs(c.w.values - w_ref) / np.maximum(np.abs(w_ref), 1e-300)))
    q_scale = np.maximum(np.abs(q_ref), np.max(np.abs(q_ref)) * 1e-12 + 1e-300)
    q_res = float(np.max(np.abs(c.q.values - q_ref) / q_scale))
    return ConsistencyReport(w_residual=w_res, q_residual=q_res)
