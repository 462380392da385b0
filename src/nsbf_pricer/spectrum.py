"""Eigenvalues and eigenfunctions of the barrier Sturm-Liouville problem.

The characteristic function is the Bessel-series eigenfunction evaluated
at the upper barrier; its positive roots omega_n give the eigenvalues
lambda_n = omega_n^2.  Roots are bracketed on a uniform omega grid and
refined by bisection, then each eigenfunction (and optionally its
derivative) is assembled on the mesh from one shared Bessel block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bessel import spherical_jn_block
from .coefficients import NSBFCoefficients
from .errors import BoundaryViolation
from .mesh import GridFunction, inner_product
from .model import SLCoefficients

BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class EigenPair:
    """One term of the pricing series.

    lam is the eigenvalue (lambda_n = omega_n^2); phi is not normalized,
    norm_sq carries the normalization, and boundary_residual is
    |phi(U)| / sup |phi|.  f_n is the modal coefficient of the contract
    currently under consideration (set by the pricing stage).
    """

    n: int
    omega: float
    lam: float
    phi: Optional[GridFunction] = None
    phi_prime: Optional[GridFunction] = None
    norm_sq: Optional[float] = None
    boundary_residual: Optional[float] = None
    f_n: Optional[float] = None


def _odd_block(x: np.ndarray, n_orders: int) -> np.ndarray:
    """Rows j_1(x), j_3(x), ... for the odd orders among coefficient rows 0..n_orders-1."""
    n_odd = n_orders // 2
    if n_odd == 0:
        return np.zeros((0,) + np.shape(x))
    return spherical_jn_block(x, 2 * n_odd - 1)[1::2]


def _odd_bessel_sum(coeff_rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """2 sum_m (-1)^m c_{2m+1} j_{2m+1}(x) for coefficient rows indexed by order."""
    odd = coeff_rows[1::2]
    if odd.shape[0] == 0:
        return np.zeros(block.shape[1:])
    signs = np.where(np.arange(odd.shape[0]) % 2 == 0, 1.0, -1.0)
    if odd.ndim == 1:
        # coefficients fixed at one point (the upper barrier), x varies
        return 2.0 * np.tensordot(signs * odd, block, axes=(0, 0))
    # coefficient rows sampled on the mesh, x = omega * l on the same mesh
    return 2.0 * np.sum(signs[:, None] * odd * block, axis=0)


def eigenfunction_block(omega: float, coeffs: NSBFCoefficients, c: SLCoefficients) -> np.ndarray:
    """Odd-order Bessel rows at omega * l on the mesh, shared by phi_n and phi_n'."""
    return _odd_block(omega * c.l.values, coeffs.alpha.shape[0])


def characteristic(omega, coeffs: NSBFCoefficients, c: SLCoefficients):
    """Eigenfunction value at the upper barrier as a function of omega."""
    l_u = c.l.values[-1]
    rho_u = c.rho.values[-1]
    alpha_u = coeffs.alpha[:, -1]
    om = np.asarray(omega, dtype=float)
    x = om * l_u
    val = np.sin(x) / rho_u + _odd_bessel_sum(alpha_u, _odd_block(x, alpha_u.shape[0]))
    return val if np.ndim(omega) else float(val)


def find_eigenvalues(
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    omega_max: float,
    grid_count: int,
    refine_tol: float = 1e-12,
) -> list[EigenPair]:
    """Bracket roots of the characteristic on a grid and bisect each one.

    omega = 0 is a trivial root and is excluded; roots are returned in
    increasing order as EigenPair skeletons (no eigenfunction yet).
    """
    if omega_max <= 0 or grid_count < 2:
        raise ValueError("need omega_max > 0 and at least two grid points")
    grid = np.linspace(0.0, omega_max, grid_count + 1)[1:]
    step = grid[1] - grid[0]
    vals = characteristic(grid, coeffs, c)

    spacing = np.pi / c.l.values[-1]
    if spacing < 2.0 * step:
        warnings.warn(
            f"omega grid step {step:.4g} may skip roots spaced ~{spacing:.4g}; "
            "increase the grid count",
            stacklevel=2,
        )

    lo_list, hi_list = [], []
    exact = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            exact.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            lo_list.append(grid[i])
            hi_list.append(grid[i + 1])
    if vals[-1] == 0.0:
        exact.append(grid[-1])

    lo = np.array(lo_list)
    hi = np.array(hi_list)
    if lo.size:
        f_lo = characteristic(lo, coeffs, c)
        while np.max(hi - lo) > refine_tol:
            mid = 0.5 * (lo + hi)
            f_mid = characteristic(mid, coeffs, c)
            go_right = f_lo * f_mid > 0.0
            lo = np.where(go_right, mid, lo)
            f_lo = np.where(go_right, f_mid, f_lo)
            hi = np.where(go_right, hi, mid)
    roots = np.sort(np.concatenate([0.5 * (lo + hi), np.array(exact)]))
    if roots.size == 0:
        raise ValueError(
            f"no eigenvalues found in (0, {omega_max}); widen the omega window"
        )
    return [
        EigenPair(n=i + 1, omega=float(om), lam=float(om * om))
        for i, om in enumerate(roots)
    ]


def build_eigenfunction(
    pair: EigenPair,
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    block: Optional[np.ndarray] = None,
) -> EigenPair:
    """Assemble phi_n on the mesh and attach its squared norm.

    block is eigenfunction_block(pair.omega, coeffs, c); it is computed
    here when the caller does not pass it.
    """
    if block is None:
        block = eigenfunction_block(pair.omega, coeffs, c)
    x = pair.omega * c.l.values
    phi_vals = np.sin(x) / c.rho.values + _odd_bessel_sum(coeffs.alpha, block)
    sup = float(np.max(np.abs(phi_vals)))
    if abs(phi_vals[-1]) > BOUNDARY_TOL * sup:
        raise BoundaryViolation(
            f"phi_{pair.n}(U) = {phi_vals[-1]:.3e} exceeds {BOUNDARY_TOL:g} x sup |phi|"
        )
    phi = GridFunction(c.mesh, phi_vals)
    norm_sq = inner_product(phi, phi, c.w)
    return replace(
        pair, phi=phi, norm_sq=norm_sq, boundary_residual=float(abs(phi_vals[-1]) / sup)
    )


def build_eigenfunction_derivative(
    pair: EigenPair,
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    block: Optional[np.ndarray] = None,
) -> GridFunction:
    """phi_n' from the beta-coefficient representation (no differencing).

    block is the same Bessel block phi_n was assembled from; it is
    computed here when the caller does not pass it.
    """
    if coeffs.beta is None:
        raise ValueError("beta coefficients were not built (price-only reduced path)")
    if pair.phi is None:
        raise ValueError("build the eigenfunction before its derivative")
    if block is None:
        block = eigenfunction_block(pair.omega, coeffs, c)
    l, rho, rho_p = c.l.values, c.rho.values, c.rho_prime.values
    sqrt_wp = np.sqrt(c.w.values / c.p.values)
    x = pair.omega * l
    g2 = coeffs.G2.values
    inner = (g2 * np.sin(x) + pair.omega * np.cos(x)) / rho + _odd_bessel_sum(coeffs.beta, block)
    vals = sqrt_wp * inner - rho_p / rho * pair.phi.values
    return GridFunction(c.mesh, vals)


def assemble_pairs(
    skeletons: list[EigenPair],
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    with_derivatives: bool = False,
) -> list[EigenPair]:
    """Eigenfunctions (and derivatives) for every located root.

    Each root's Bessel block is computed once and serves phi_n and phi_n'.
    """
    out = []
    for sk in skeletons:
        block = eigenfunction_block(sk.omega, coeffs, c)
        pair = build_eigenfunction(sk, coeffs, c, block)
        if with_derivatives:
            dphi = build_eigenfunction_derivative(pair, coeffs, c, block)
            pair = replace(pair, phi_prime=dphi)
        out.append(pair)
    return out
