"""Eigenvalues and eigenfunctions of the barrier Sturm-Liouville problem.

The characteristic function is the Bessel-series eigenfunction evaluated
at the upper barrier; its positive roots omega_n give the eigenvalues
lambda_n = omega_n^2.  The roots lie about pi / l(U) apart, so they are
bracketed on a uniform omega grid of SCAN_PER_SPACING points per spacing
and refined by safeguarded Newton steps on the analytic omega-slope (the
series coefficients at U do not depend on omega, so value and slope come
from one Bessel block); a window implying more roots than the mesh can
show is refused before the scan.  The eigenfunctions are smooth in y, so
they are evaluated for all roots at once at the Gauss-Legendre nodes and
ends of equal panels (mesh.gauss_panels) sized to the top root's
half-waves, from one shared block of the odd Bessel orders; the top
Legendre coefficients of phi_N on each panel check that the panels resolve
it.  The assembled basis (EigenBasis) is all a quote reads, held once as
arrays at the panel points only: phi_n and phi_n' as one (2, N, points)
array, h and h' beside it, and a point reads their panel interpolant.  An
EigenPair holds one entry's scalars.  Sturm's oscillation theorem checks
that the scan skipped no root, and the slope at each root checks each
Gauss norm through the Sturm-Liouville identity (norm_identity_residuals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# spherical_jn_block is not called here; the name stays importable from this
# module because perfbench/tracing.py wraps spectrum.spherical_jn_block by name.
from .bessel import _jn_block, spherical_jn_block  # noqa: F401
from .coefficients import NSBFCoefficients
from .errors import BoundaryViolation, ConvergenceError
from .mesh import GaussPanels, Mesh, Stencil, gauss_panels, stencil
from .model import SLCoefficients

BOUNDARY_TOL = 1e-6
# Scan points per expected root spacing pi / l(U) of the characteristic.
SCAN_PER_SPACING = 20
# A root is refined until its Newton step is at most half of REFINE_TOL, or
# its bracket at most REFINE_TOL wide; REFINE_MAX_STEPS caps the steps.
REFINE_TOL = 1e-12
REFINE_MAX_STEPS = 60
# Half-waves of the top eigenfunction per Gauss-Legendre panel of
# assemble_pairs, and the largest top Legendre coefficient on a panel,
# relative to sup |phi_N|, that it accepts as resolved.  On the 24 grid bases
# (both presets) 4 half-waves per panel read every row within 7.7e-13 of its
# sup from the direct mesh series, and the top coefficients reach 5.1e-11;
# at 6 the one-day rows miss by up to 2e-7 and the coefficients reach 7.8e-6.
# The top coefficients run 20-70 times the rows' own error.
PANEL_HALF_WAVES = 4.0
RESOLVED_TAIL = 1e-9


@dataclass(frozen=True)
class EigenPair:
    """One term of the pricing series, read from one entry of an EigenBasis.

    lam is the eigenvalue (lambda_n = omega_n^2); phi_n is not normalized,
    norm_sq carries the normalization, boundary_residual is
    |phi(U)| / max |phi| over the panel points, and slope is
    d phi(U, omega) / d omega at the root.
    """

    n: int
    omega: float
    lam: float
    norm_sq: float
    boundary_residual: float
    slope: float


@dataclass(frozen=True)
class EigenBasis:
    """The eigenpairs of one solve and the steady state, held once as arrays.

    omega, lam, slope, norm_sq, boundary_residual and h_inner hold one entry
    per pair; nodes[0] (nodes[1]) has rows phi_1, ... (phi_1', ...) and steady
    h and h' at panels.points.  With ww, w times the mesh's quadrature weights,
    the mesh rule <f, phi_n>_w is sum(nodes[0, n-1] * panels.restrict(f * ww));
    h_inner is its <h, phi_n>_w.  Indexing or iterating builds the EigenPair
    of an entry; a leading slice gives the basis of the first pairs, as views.
    """

    mesh: Mesh
    panels: GaussPanels
    omega: np.ndarray
    lam: np.ndarray
    slope: np.ndarray
    norm_sq: np.ndarray
    boundary_residual: np.ndarray
    nodes: np.ndarray
    steady: np.ndarray
    h_inner: np.ndarray
    ww: np.ndarray

    def __len__(self) -> int:
        return len(self.omega)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if start != 0 or step != 1:
                raise ValueError("a basis slice must be leading: basis[:stop]")
            return EigenBasis(self.mesh, self.panels, self.omega[:stop], self.lam[:stop],
                              self.slope[:stop], self.norm_sq[:stop],
                              self.boundary_residual[:stop], self.nodes[:, :stop],
                              self.steady, self.h_inner[:stop], self.ww)
        i = range(len(self))[index]
        return EigenPair(
            n=i + 1, omega=float(self.omega[i]), lam=float(self.lam[i]),
            norm_sq=float(self.norm_sq[i]), boundary_residual=float(self.boundary_residual[i]),
            slope=float(self.slope[i]),
        )


def _signed_odd(coeff_rows: np.ndarray) -> np.ndarray:
    """(-1)^m c_{2m+1}: the odd coefficient rows with alternating signs."""
    odd = coeff_rows[1::2]
    signs = np.where(np.arange(odd.shape[0]) % 2 == 0, 1.0, -1.0)
    return signs.reshape((-1,) + (1,) * (odd.ndim - 1)) * odd


def characteristic(omega, coeffs: NSBFCoefficients, c: SLCoefficients):
    """Eigenfunction value at the upper barrier and its omega-slope, (value, d value / d omega).

    The coefficients at U do not depend on omega, so the slope is l(U) times
    the series with cos x for sin x and j_n' for j_n, where j_n' = (n j_{n-1}
    - (n+1) j_{n+1}) / (2n+1) reads the even orders of one all-orders block;
    that form has no 1/x and holds at omega = 0.  The value is summed from
    the odd orders of the same block.
    """
    l_u, rho_u = c.l[-1], c.rho[-1]
    x = np.asarray(omega, dtype=float) * l_u
    trig = np.sin(x), np.cos(x)
    signed = _signed_odd(coeffs.alpha[:, -1])
    n_odd = signed.shape[0]
    block = _jn_block(x, 2 * n_odd, trig)
    even = block[0::2]
    n = np.arange(1, 2 * n_odd, 2, dtype=float).reshape((-1,) + (1,) * np.ndim(x))
    dj = (n * even[:-1] - (n + 1.0) * even[1:]) / (2.0 * n + 1.0)
    val = trig[0] / rho_u + 2.0 * np.tensordot(signed, block[1::2], axes=(0, 0))
    slope = l_u * (trig[1] / rho_u + 2.0 * np.tensordot(signed, dj, axes=(0, 0)))
    return (val, slope) if np.ndim(omega) else (float(val), float(slope))


def find_eigenvalues(
    coeffs: NSBFCoefficients,
    c: SLCoefficients,
    omega_max: float,
) -> np.ndarray:
    """Bracket roots of the characteristic on a scan and refine each by safeguarded Newton.

    The scan holds ceil(SCAN_PER_SPACING * omega_max * l(U) / pi) points,
    SCAN_PER_SPACING per expected root spacing; assemble_pairs checks by
    Sturm's zero count that it skipped none.  A window implying more roots,
    omega_max l(U) / pi, than that count can see on the mesh (M - 2) raises
    ValueError before anything is allocated.  Each root starts at the
    regula-falsi point of its scan bracket.  A step evaluates the
    characteristic and its analytic omega-slope at the roots still moving,
    tightens each bracket from the sign of the value, and takes the Newton
    step, or bisects where that step would leave the bracket.  A root is
    frozen on its own once its Newton step is at most REFINE_TOL / 2 (it then
    takes that step) or its bracket is at most REFINE_TOL wide (it takes the
    midpoint).

    omega = 0 is a trivial root and is excluded; the roots omega_n are
    returned as an array in increasing order.
    """
    if not omega_max > 0:
        raise ValueError(f"need omega_max > 0, got {omega_max}")
    # phi_N has N - 1 interior zeros, and the M - 2 interior mesh nodes show
    # at most M - 3 sign changes, so Sturm's check passes no more than M - 2 roots
    roots, limit = omega_max * c.l[-1] / math.pi, c.mesh.M - 2
    if not roots <= limit:
        raise ValueError(
            f"omega_max = {omega_max:g} implies about {roots:.3g} roots (omega_max l(U) / pi), "
            f"more than the {limit} a {c.mesh.M}-point mesh can resolve"
        )
    count = math.ceil(SCAN_PER_SPACING * roots)
    grid = np.linspace(0.0, omega_max, count + 1)[1:]
    step = omega_max / count
    vals, _ = characteristic(grid, coeffs, c)

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
    roots = np.empty_like(x)
    active = np.arange(x.size)
    for _ in range(REFINE_MAX_STEPS):
        f, df = characteristic(x, coeffs, c)
        left = np.sign(f) == np.sign(f_lo)  # the root lies right of x
        lo, f_lo = np.where(left, x, lo), np.where(left, f, f_lo)
        hi = np.where(left, hi, x)
        usable = np.isfinite(df) & (df != 0.0)  # else bisect, without dividing by it
        newton = np.where(usable, f / np.where(usable, df, 1.0), np.inf)
        close = np.abs(newton) <= 0.5 * REFINE_TOL
        done = close | (hi - lo <= REFINE_TOL)
        roots[active[done]] = np.where(close, np.clip(x - newton, lo, hi), 0.5 * (lo + hi))[done]
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
    return np.sort(roots)


def _series_at(omega, coeffs: NSBFCoefficients, c: SLCoefficients, at: Stencil):
    """phi and phi' of every root at the stencil's points, stacked (2, N, points), and w there.

    The series data are read at the points, and one block of the odd Bessel
    orders on the (N, points) arguments serves both; beta, truncated no
    higher than alpha, reads its leading rows.
    """
    l, rho, rho_prime, w, p, G2 = (at(a) for a in (c.l, c.rho, c.rho_prime, c.w, c.p, coeffs.G2))
    alpha, beta = _signed_odd(at(coeffs.alpha)), _signed_odd(at(coeffs.beta))
    x = omega[:, None] * l
    trig = np.sin(x), np.cos(x)
    # j_1, j_3, ... up to alpha's top odd order (no rows if it has none)
    block = _jn_block(x, max(2 * len(alpha) - 1, 0), trig, odd=True)
    # the series 2 sum_m (-1)^m c_{2m+1} j_{2m+1}
    f = trig[0] / rho + 2.0 * np.sum(alpha[:, None] * block, axis=0)
    inner = (G2 * trig[0] + omega[:, None] * trig[1]) / rho
    inner += 2.0 * np.sum(beta[:, None] * block[: len(beta)], axis=0)
    return np.stack((f, np.sqrt(w / p) * inner - rho_prime / rho * f)), w


def assemble_pairs(omega, coeffs: NSBFCoefficients, c: SLCoefficients, h, dh) -> EigenBasis:
    """The basis of the roots omega: eigenfunctions and their derivatives, stacked.

    phi and phi' are evaluated for every root at once (_series_at) at the
    points of mesh.gauss_panels, and the basis keeps them there.  The panels
    hold at most PANEL_HALF_WAVES half-waves of the top root each, counted as
    omega_N l(U) / pi at l's steepest mesh step.  The checks read the same
    points, each norm is their Gauss sum of w phi_n^2, and one
    characteristic call at the roots gives their slopes.  h and h' on the
    mesh are read at the points too, and <h, phi_n>_w taken by the mesh rule.

    If the top two Legendre coefficients of phi_N on any panel exceed
    RESOLVED_TAIL * sup |phi_N| the panels are too coarse, and
    ConvergenceError is raised.  A non-finite value raises ConvergenceError,
    and an eigenfunction whose |phi(U)| exceeds BOUNDARY_TOL times its
    largest |phi| over the points raises BoundaryViolation.  By Sturm's
    oscillation theorem phi_N, the top row of N roots, changes sign N - 1
    times over the interior points exactly when the roots are the first N
    eigenvalues; any other count raises ConvergenceError.
    """
    omega = np.asarray(omega, dtype=float)
    n, mesh = omega.size, c.mesh
    # the top root's half-wave count omega_N l(U) / pi, at l's steepest mesh step
    half_waves = omega[-1] * np.max(np.diff(c.l)) * (mesh.M - 1) / math.pi if n else 0.0
    panels = gauss_panels(mesh, math.ceil(half_waves / PANEL_HALF_WAVES))
    at = stencil(mesh, panels.points)
    nodes, w = _series_at(omega, coeffs, c, at)
    phi = nodes[0]  # the points run in y order, L first and U last
    if n:
        tail = np.max(panels.legendre_tail(phi[-1])) / np.max(np.abs(phi[-1]))
        if tail > RESOLVED_TAIL:  # NaN passes on to the finite check
            raise ConvergenceError(
                f"phi_{n} is not resolved on {panels.count} Gauss-Legendre panels: its top "
                f"Legendre coefficients reach {tail:.1e} x sup |phi|, above {RESOLVED_TAIL:g}"
            )
    if not np.isfinite(nodes).all():
        raise ConvergenceError("an assembled eigenfunction or derivative is not finite")
    residual = np.abs(phi[:, -1]) / np.max(np.abs(phi), axis=1)
    (bad,) = np.nonzero(residual > BOUNDARY_TOL)
    if bad.size:
        i = bad[0]
        raise BoundaryViolation(
            f"phi_{i + 1}(U) = {phi[i, -1]:.3e} exceeds {BOUNDARY_TOL:g} x sup |phi|"
        )
    if n:
        interior = np.signbit(phi[-1, 1:-1])
        changes = int(np.count_nonzero(interior[1:] != interior[:-1]))
        if changes != n - 1:
            raise ConvergenceError(
                f"phi_{n} changes sign {changes} times inside (L, U), not {n - 1}: "
                "the omega scan skipped a root or found a spurious one"
            )
    norm_sq = np.sum(phi * (phi * (w * panels.weights)), axis=-1)
    _, slope = characteristic(omega, coeffs, c)
    ww = c.w * mesh.weights
    return EigenBasis(mesh, panels, omega, omega * omega, slope, norm_sq, residual, nodes,
                      at(np.stack((h, dh))), np.sum(phi * panels.restrict(h * ww), axis=-1), ww)


def norm_identity_residuals(basis: EigenBasis, c: SLCoefficients) -> np.ndarray:
    """|p(U) phi_n'(U) d_omega phi(U, omega_n) / (2 omega_n) - norm_sq| / norm_sq per pair.

    phi(y, omega) vanishes at L for every omega, so the Sturm-Liouville
    identity int_L^U w phi_n^2 = p(U) phi_n'(U) d_lambda phi(U, lambda_n)
    holds, with d_lambda = d_omega / (2 omega).  It checks each Gauss norm
    against the series at U alone, using the slope at each root.
    """
    identity = c.p[-1] * basis.nodes[1, :, -1] * basis.slope / (2.0 * basis.omega)
    return np.abs(identity - basis.norm_sq) / basis.norm_sq
