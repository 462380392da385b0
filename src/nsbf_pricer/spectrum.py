"""Eigenvalues and eigenfunctions of the barrier Sturm-Liouville problem.

The characteristic function is the Bessel-series eigenfunction evaluated
at the upper barrier; its positive roots omega_n give the eigenvalues
lambda_n = omega_n^2.  Roots are bracketed on a uniform omega grid and
refined by safeguarded Newton steps on the analytic omega-slope (the
series coefficients at U do not depend on omega, so the slope comes from
the same Bessel block), then each eigenfunction (and optionally its
derivative) is assembled on the mesh from one evaluation of sin(omega l)
and cos(omega l) and one shared block of the odd Bessel orders, the only
ones the series uses.  The assembled basis is stacked (EigenBasis): phi_n
and phi_n' are rows of (BLOCK_ROWS, M) arrays, and each EigenPair's
functions are views of its rows, so the basis is held once.  The slope
at each root also checks each norm through the Sturm-Liouville identity
(norm_identity_residuals).
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
from .errors import BoundaryViolation, ConvergenceError
from .mesh import GridFunction, integrate
from .model import SLCoefficients

BOUNDARY_TOL = 1e-6
# A root is refined until its Newton step is at most half of REFINE_TOL, or
# its bracket at most REFINE_TOL wide; REFINE_MAX_STEPS caps the steps.
REFINE_TOL = 1e-12
REFINE_MAX_STEPS = 60
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
    norm_sq carries the normalization, boundary_residual is
    |phi(U)| / sup |phi|, and slope is d phi(U, omega) / d omega at the root.
    """

    n: int
    omega: float
    lam: float
    phi: Optional[GridFunction] = None
    phi_prime: Optional[GridFunction] = None
    norm_sq: Optional[float] = None
    boundary_residual: Optional[float] = None
    slope: Optional[float] = None


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


def characteristic(omega, coeffs: NSBFCoefficients, c: SLCoefficients, with_slope: bool = False):
    """Eigenfunction value at the upper barrier as a function of omega.

    With with_slope, returns (value, d value / d omega).  The coefficients at
    U do not depend on omega, so the slope is l(U) times the series with
    cos x for sin x and j_n' for j_n, where j_n' = (n j_{n-1} - (n+1) j_{n+1})
    / (2n+1) reads the even orders of one all-orders block; that form has no
    1/x and holds at omega = 0.  The value is summed from the same block.
    """
    l_u = c.l.values[-1]
    rho_u = c.rho.values[-1]
    alpha_u = coeffs.alpha[:, -1]
    x = np.asarray(omega, dtype=float) * l_u
    trig = np.sin(x), np.cos(x)
    signed = _signed_odd(alpha_u)
    if not with_slope:
        block = _odd_block(x, len(alpha_u), trig)
        val = trig[0] / rho_u + _odd_bessel_sum(signed, block)
        return val if np.ndim(omega) else float(val)
    n_odd = signed.shape[0]
    block = _jn_block(x, 2 * n_odd, trig)
    even = block[0::2]
    n = np.arange(1, 2 * n_odd, 2, dtype=float).reshape((-1,) + (1,) * np.ndim(x))
    dj = (n * even[:-1] - (n + 1.0) * even[1:]) / (2.0 * n + 1.0)
    val = trig[0] / rho_u + _odd_bessel_sum(signed, block[1::2])
    slope = l_u * (trig[1] / rho_u + _odd_bessel_sum(signed, dj))
    return (val, slope) if np.ndim(omega) else (float(val), float(slope))


def find_eigenvalues(
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    omega_max: float,
    grid_count: int,
) -> list[EigenPair]:
    """Bracket roots of the characteristic on a grid and refine each by safeguarded Newton.

    Each root starts at the regula-falsi point of its scan bracket.  A step
    evaluates the characteristic and its analytic omega-slope at the roots
    still moving, tightens each bracket from the sign of the value, and takes
    the Newton step, or bisects where that step would leave the bracket.  A
    root is frozen on its own once its Newton step is at most REFINE_TOL / 2
    (it then takes that step) or its bracket is at most REFINE_TOL wide (it
    takes the midpoint).  Each EigenPair keeps the slope of its last step.

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

    # a sign change between neighbours, or a grid point that is a root (a
    # zero-width bracket, frozen at its first step)
    cross = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    exact = np.flatnonzero(vals == 0.0)
    if cross.size + exact.size == 0:
        raise ValueError(
            f"no eigenvalues found in (0, {omega_max}); widen the omega window"
        )
    lo = np.concatenate([grid[cross], grid[exact]])
    hi = np.concatenate([grid[cross + 1], grid[exact]])
    f_lo = np.concatenate([vals[cross], vals[exact]])
    regula_falsi = grid[cross] + step * vals[cross] / (vals[cross] - vals[cross + 1])
    x = np.concatenate([regula_falsi, grid[exact]])
    roots, slopes = np.empty_like(x), np.empty_like(x)
    active = np.arange(x.size)
    for _ in range(REFINE_MAX_STEPS):
        f, df = characteristic(x, coeffs, c, with_slope=True)
        left = np.sign(f) == np.sign(f_lo)  # the root lies right of x
        lo, f_lo = np.where(left, x, lo), np.where(left, f, f_lo)
        hi = np.where(left, hi, x)
        usable = np.isfinite(df) & (df != 0.0)  # else bisect, without dividing by it
        newton = np.where(usable, f / np.where(usable, df, 1.0), np.inf)
        close = np.abs(newton) <= 0.5 * REFINE_TOL
        done = close | (hi - lo <= REFINE_TOL)
        final = np.where(close, np.clip(x - newton, lo, hi), 0.5 * (lo + hi))
        roots[active[done]], slopes[active[done]] = final[done], df[done]
        x = x - newton
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        keep = ~done
        if not keep.any():
            break
        active, x, lo, hi, f_lo = active[keep], x[keep], lo[keep], hi[keep], f_lo[keep]
    else:
        raise ConvergenceError(
            f"{active.size} eigenvalue(s) not refined to {REFINE_TOL:g} "
            f"in {REFINE_MAX_STEPS} Newton steps"
        )
    order = np.argsort(roots)
    return [
        EigenPair(n=i + 1, omega=float(om), lam=float(om * om), slope=float(d))
        for i, (om, d) in enumerate(zip(roots[order], slopes[order]))
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


def norm_identity_residuals(basis: EigenBasis, c: SLCoefficients) -> np.ndarray:
    """|p(U) phi_n'(U) d_omega phi(U, omega_n) / (2 omega_n) - norm_sq| / norm_sq per pair.

    phi(y, omega) vanishes at L for every omega, so the Sturm-Liouville
    identity int_L^U w phi_n^2 = p(U) phi_n'(U) d_lambda phi(U, lambda_n)
    holds, with d_lambda = d_omega / (2 omega).  It checks each mesh norm
    against the series at U alone, using the slope of the root's last
    Newton step.  Needs the derivatives (basis.dphi).
    """
    dphi_u = np.concatenate([b[:, -1] for b in basis.dphi])
    slope = np.array([p.slope for p in basis])
    omega = np.array([p.omega for p in basis])
    identity = c.p.values[-1] * dphi_u * slope / (2.0 * omega)
    return np.abs(identity - basis.norm_sq) / basis.norm_sq
