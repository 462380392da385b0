"""Second routes to quantities the program computes, for cross-checks only.

Each helper recomputes something src builds another way: alpha_n from the
Legendre/formal-power formula, G2 with the nested derivative, the
pointwise identities that define w and q, the integrals inside one
recurrence step, Bessel blocks and eigenbases by the earlier masked,
per-pair route, and eigenvalues by the earlier bisection sweeps.  Nothing in
src calls them.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nsbf_pricer.bessel import (
    _BUCKET_EDGES,
    _RESCALE_HEADROOM,
    _RESCALE_LIMIT,
    _SEED,
    _SERIES_CUTOFF,
    _SERIES_TERMS,
)
from nsbf_pricer.mesh import GridFunction, cumulative_integral, derivative_values, inner_product
from nsbf_pricer.model import DiffusionSpec, SLCoefficients
from nsbf_pricer.spectrum import REFINE_TOL, characteristic
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


def recurrence_reference(n: int, A_prev: np.ndarray, B_prev: np.ndarray, c: SLCoefficients, sol):
    """One recurrence step with every factor formed inside the step.

    Returns (A_n, B_n, theta~, eta~): the two cumulative integrals behind
    A_n and B_n come back too.
    """
    l, rho, rho_p = c.l.values, c.rho.values, c.rho_prime.values
    g, g_p = sol.g.values, sol.g_prime.values
    sqrt_wp = np.sqrt(c.w.values / c.p.values)
    gp_rho = g_p * rho + g * rho_p
    eta = cumulative_integral(
        c.mesh, (l * gp_rho + (n - 1.0) * rho * g * sqrt_wp) * rho * A_prev
    )
    theta = cumulative_integral(c.mesh, (eta / (rho**2 * g**2) - l * A_prev / g) * sqrt_wp)
    front = (2.0 * n + 1.0) / (2.0 * n - 3.0)
    A_n = front * (l**2 * A_prev + 2.0 * (2.0 * n - 1.0) * g * theta)
    sqrt_pw = 1.0 / sqrt_wp
    B_n = front * (
        l**2 * B_prev
        + 2.0 * (2.0 * n - 1.0) * (sqrt_pw * gp_rho * theta / rho + eta / (rho**2 * g))
        - (2.0 * n - 1.0) * l * A_prev
    )
    return A_n, B_n, theta, eta


# Spherical Bessel blocks as built before the regimes became slices of the
# sorted argument: one boolean mask per regime, every order computed, a new
# array at every step.  The block arithmetic must match it bit for bit.


def _masked_series(x, m_max):
    m = np.arange(m_max + 1, dtype=float)[:, None]
    x_sq = x * x
    acc = np.ones((m_max + 1, x.size))
    for k in range(_SERIES_TERMS, 0, -1):
        acc = 1.0 - x_sq / (2.0 * k * (2.0 * (m + k) + 1.0)) * acc
    lead = np.empty_like(acc)
    lead[0] = 1.0
    lead[1:] = x / (2.0 * m[1:] + 1.0)
    return np.cumprod(lead, axis=0) * acc


def _masked_upward(x, m_max, sin_x, cos_x):
    out = np.empty((m_max + 1, x.size))
    inv_x = 1.0 / x
    np.multiply(sin_x, inv_x, out=out[0])
    if m_max >= 1:
        np.subtract(out[0], cos_x, out=out[1])
        out[1] *= inv_x
    for m in range(1, m_max):
        nxt = out[m + 1]
        np.multiply(out[m], inv_x, out=nxt)
        nxt *= 2.0 * m + 1.0
        nxt -= out[m - 1]
    return out


def _masked_miller(x, m_max, sin_x, cos_x):
    extra = max(20, int(np.ceil(1.2 * float(np.max(x)))))
    m_top = m_max + extra
    growth = 1.0 + (2.0 * m_top + 1.0) / float(np.min(x))
    check_every = max(1, int(_RESCALE_HEADROOM / np.log10(growth)))
    out = np.zeros((m_max + 1, x.size))
    jp2 = np.zeros_like(x)
    jp1 = np.full_like(x, _SEED)
    for m in range(m_top - 1, -1, -1):
        jm = (2.0 * m + 3.0) / x * jp1 - jp2
        jp2, jp1 = jp1, jm
        if m <= m_max:
            out[m] = jm
        if m % check_every == 0 and max(np.max(np.abs(jp1)), np.max(np.abs(jp2))) > _RESCALE_LIMIT:
            jp1 *= 1.0 / _RESCALE_LIMIT
            jp2 *= 1.0 / _RESCALE_LIMIT
            out *= 1.0 / _RESCALE_LIMIT
    j0 = sin_x / x
    j1 = j0 / x - cos_x / x
    use_j0 = np.abs(j0) >= np.abs(j1)
    out *= np.where(use_j0, j0, j1) / np.where(use_j0, out[0], out[1])
    return out


def masked_jn_block(x, m_max: int, trig=None) -> np.ndarray:
    """j_0..j_m_max(x), each regime picked by a mask over the unsorted argument."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    flat = x_arr.ravel()
    sin_x, cos_x = (np.sin(flat), np.cos(flat)) if trig is None else map(np.ravel, trig)
    out = np.empty((m_max + 1, flat.size))
    small = flat < _SERIES_CUTOFF
    if np.any(small):
        out[:, small] = _masked_series(flat[small], m_max)
    upward_from = max(float(m_max), _SERIES_CUTOFF)
    up = flat >= upward_from
    if np.any(up):
        out[:, up] = _masked_upward(flat[up], m_max, sin_x[up], cos_x[up])
    lo = _SERIES_CUTOFF
    for hi in _BUCKET_EDGES[1:]:
        sel = (flat >= lo) & (flat < min(hi, upward_from))
        if np.any(sel):
            out[:, sel] = _masked_miller(flat[sel], m_max, sin_x[sel], cos_x[sel])
        lo = hi
    out = out.reshape((m_max + 1,) + x_arr.shape)
    return out if np.ndim(x) else out[:, 0]


def per_pair_basis(skeletons, coeffs, c: SLCoefficients, with_derivatives: bool) -> dict:
    """phi, phi', lam, norm_sq and boundary residuals assembled one pair at a time.

    Every order of a masked Bessel block, the signed odd coefficients formed
    again for each pair, and one inner product per norm.
    """

    def odd_sum(coeff_rows, block):
        odd = coeff_rows[1::2]
        if odd.shape[0] == 0:
            return np.zeros(block.shape[1:])
        signs = np.where(np.arange(odd.shape[0]) % 2 == 0, 1.0, -1.0)
        return 2.0 * np.sum(signs[:, None] * odd * block, axis=0)

    l, rho = c.l.values, c.rho.values
    sqrt_wp = np.sqrt(c.w.values / c.p.values)
    rho_ratio = c.rho_prime.values / rho
    n_odd = coeffs.alpha.shape[0] // 2
    out = {"phi": [], "dphi": [], "norm_sq": [], "boundary_residual": []}
    for sk in skeletons:
        x = sk.omega * l
        trig = np.sin(x), np.cos(x)
        if n_odd:
            block = masked_jn_block(x, 2 * n_odd - 1, trig)[1::2]
        else:
            block = np.zeros((0, x.size))
        phi = trig[0] / rho + odd_sum(coeffs.alpha, block)
        gf = GridFunction(c.mesh, phi)
        out["phi"].append(phi)
        out["norm_sq"].append(inner_product(gf, gf, c.w))
        out["boundary_residual"].append(float(abs(phi[-1]) / float(np.max(np.abs(phi)))))
        if with_derivatives:
            inner = (coeffs.G2.values * trig[0] + sk.omega * trig[1]) / rho
            inner += odd_sum(coeffs.beta, block)
            out["dphi"].append(sqrt_wp * inner - rho_ratio * phi)
    out["lam"] = [sk.lam for sk in skeletons]
    return {k: np.array(v) for k, v in out.items()}


def bisection_eigenvalues(coeffs, c: SLCoefficients, omega_max: float, grid_count: int) -> np.ndarray:
    """Roots of the characteristic from the same scan, by vectorised bisection.

    The refinement loop spectrum.find_eigenvalues ran before it took Newton
    steps: every bracket is halved until all are REFINE_TOL wide, and each
    root is its bracket's midpoint.
    """
    grid = np.linspace(0.0, omega_max, grid_count + 1)[1:]
    vals = characteristic(grid, coeffs, c)
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
    return np.sort(np.concatenate([0.5 * (lo + hi), np.array(exact)]))
