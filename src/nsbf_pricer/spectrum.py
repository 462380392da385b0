"""Eigenvalues and eigenfunctions of the barrier Sturm-Liouville problem.

The characteristic function is the Bessel-series eigenfunction evaluated
at the upper barrier; its positive roots omega_n give the eigenvalues
lambda_n = omega_n^2.  Roots are bracketed on a uniform omega grid and
refined by bisection, then each eigenfunction (and optionally its
derivative) is assembled on the mesh from one evaluation of sin(omega l)
and cos(omega l) and one shared block of the odd Bessel orders, the only
ones the series uses.  The assembled basis is stacked (EigenBasis): phi_n
and phi_n' are rows of (BLOCK_ROWS, M) arrays, and each EigenPair's
functions are views of its rows, so the basis is held once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# spherical_jn_block is not called here; the name stays importable from this
# module because perfbench/tracing.py wraps spectrum.spherical_jn_block by name.
from .bessel import _jn_block, spherical_jn_block  # noqa: F401
from .coefficients import NSBFCoefficients
from .errors import BoundaryViolation
from .mesh import GridFunction, integrate
from .model import SLCoefficients

BOUNDARY_TOL = 1e-6
REFINE_TOL = 1e-12  # bisection stops once every root bracket is this narrow
# Rows per basis array; a quote projects half a block at a time
# (pricing.PROJECT_ROWS).  Blocks, not one (N, M) array per basis, because a
# multi-megabyte array freed with an old solve leaves a hole that glibc's heap
# rarely refills: with one array per basis, one-day sweeps that solve a model
# per item peaked at about 5 MB more resident memory.
BLOCK_ROWS = 8


@dataclass(frozen=True)
class EigenPair:
    """One term of the pricing series.

    lam is the eigenvalue (lambda_n = omega_n^2); phi is not normalized,
    norm_sq carries the normalization, and boundary_residual is
    |phi(U)| / sup |phi|.
    """

    n: int
    omega: float
    lam: float
    phi: Optional[GridFunction] = None
    phi_prime: Optional[GridFunction] = None
    norm_sq: Optional[float] = None
    boundary_residual: Optional[float] = None


@dataclass(frozen=True)
class EigenBasis:
    """The eigenpairs of one solve, stacked in row blocks.

    phi (dphi) is a tuple of 2-D arrays whose rows, block after block, are
    phi_1, phi_2, ... (phi_1', ...) on the mesh; dphi is None when
    derivatives were not assembled.  Indexing gives the EigenPair of one
    row, whose phi and phi_prime are GridFunction views of its rows; a
    contiguous slice gives the basis of those rows, again as views.
    """

    pairs: tuple
    phi: tuple
    dphi: Optional[tuple]
    lam: np.ndarray
    norm_sq: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self.pairs[index]
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("a basis slice must be contiguous")
        phi = _row_views(self.phi, start, stop)
        dphi = None if self.dphi is None else _row_views(self.dphi, start, stop)
        return EigenBasis(self.pairs[index], phi, dphi, self.lam[index], self.norm_sq[index])


def _row_views(blocks: tuple, start: int, stop: int) -> tuple:
    """Views of rows start..stop-1 of a sequence of row blocks."""
    out, lo = [], 0
    for b in blocks:
        if lo < stop and lo + len(b) > start:
            out.append(b[max(start - lo, 0) : stop - lo])
        lo += len(b)
    return tuple(out)


def _odd_block(x: np.ndarray, n_orders: int, trig: tuple) -> np.ndarray:
    """Rows j_1(x), j_3(x), ... for the odd orders among coefficient rows 0..n_orders-1.

    trig is (sin x, cos x); the block is built for the odd orders alone.
    """
    n_odd = n_orders // 2
    if n_odd == 0:
        return np.zeros((0,) + np.shape(x))
    return _jn_block(x, 2 * n_odd - 1, trig, odd=True)


def _signed_odd(coeff_rows: np.ndarray) -> np.ndarray:
    """(-1)^m c_{2m+1}: the odd coefficient rows with alternating signs."""
    odd = coeff_rows[1::2]
    signs = np.where(np.arange(odd.shape[0]) % 2 == 0, 1.0, -1.0)
    return signs.reshape((-1,) + (1,) * (odd.ndim - 1)) * odd


def _odd_bessel_sum(signed: np.ndarray, block: np.ndarray) -> np.ndarray:
    """2 sum_m (-1)^m c_{2m+1} j_{2m+1}(x) from the rows of _signed_odd."""
    if signed.ndim == 1:
        # coefficients fixed at one point (the upper barrier), x varies
        return 2.0 * np.tensordot(signed, block, axes=(0, 0))
    # coefficient rows sampled on the mesh, x = omega * l on the same mesh
    return 2.0 * np.sum(signed * block, axis=0)


def characteristic(omega, coeffs: NSBFCoefficients, c: SLCoefficients):
    """Eigenfunction value at the upper barrier as a function of omega."""
    l_u = c.l.values[-1]
    rho_u = c.rho.values[-1]
    alpha_u = coeffs.alpha[:, -1]
    x = np.asarray(omega, dtype=float) * l_u
    trig = np.sin(x), np.cos(x)
    block = _odd_block(x, len(alpha_u), trig)
    val = trig[0] / rho_u + _odd_bessel_sum(_signed_odd(alpha_u), block)
    return val if np.ndim(omega) else float(val)


def find_eigenvalues(
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    omega_max: float,
    grid_count: int,
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
        while np.max(hi - lo) > REFINE_TOL:
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


def assemble_pairs(
    skeletons: list[EigenPair],
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    with_derivatives: bool = False,
) -> EigenBasis:
    """Eigenfunctions (and derivatives) for every located root, stacked.

    phi_n and phi_n' are written straight into row n-1 of the basis's row
    blocks.  Each root evaluates sin(omega l) and cos(omega l) once on the
    mesh, and one block of the odd Bessel orders built from them serves
    phi_n and phi_n'.  Norms are taken per row block after the loop.
    """
    if with_derivatives and coeffs.beta is None:
        raise ValueError("beta coefficients were not built (price-only reduced path)")
    n, l, rho = len(skeletons), c.l.values, c.rho.values
    phi = tuple(np.empty((min(BLOCK_ROWS, n - i), c.mesh.M)) for i in range(0, n, BLOCK_ROWS))
    dphi = tuple(np.empty_like(b) for b in phi) if with_derivatives else None
    rows = [r for b in phi for r in b]
    drows = [r for b in dphi for r in b] if with_derivatives else [None] * n
    alpha = _signed_odd(coeffs.alpha)
    if with_derivatives:
        beta = _signed_odd(coeffs.beta)
        sqrt_wp = np.sqrt(c.w.values / c.p.values)
        rho_ratio = c.rho_prime.values / rho
    residuals = []
    for sk, row, drow in zip(skeletons, rows, drows):
        x = sk.omega * l
        trig = np.sin(x), np.cos(x)
        block = _odd_block(x, coeffs.alpha.shape[0], trig)
        np.add(trig[0] / rho, _odd_bessel_sum(alpha, block), out=row)
        sup = float(np.max(np.abs(row)))
        if abs(row[-1]) > BOUNDARY_TOL * sup:
            raise BoundaryViolation(
                f"phi_{sk.n}(U) = {row[-1]:.3e} exceeds {BOUNDARY_TOL:g} x sup |phi|"
            )
        residuals.append(float(abs(row[-1]) / sup))
        if with_derivatives:
            inner = (coeffs.G2.values * trig[0] + sk.omega * trig[1]) / rho
            inner += _odd_bessel_sum(beta, block)
            np.subtract(sqrt_wp * inner, rho_ratio * row, out=drow)
    norm_sq = np.concatenate([integrate(c.mesh, b * b * c.w.values) for b in phi] or [np.empty(0)])
    pairs = tuple(
        replace(sk, phi=GridFunction(c.mesh, row), norm_sq=float(norm), boundary_residual=res,
                phi_prime=None if drow is None else GridFunction(c.mesh, drow))
        for sk, row, drow, norm, res in zip(skeletons, rows, drows, norm_sq, residuals)
    )
    return EigenBasis(pairs, phi, dphi, np.array([sk.lam for sk in skeletons]), norm_sq)
