"""Coefficient functions alpha_n, beta_n of the Bessel-series representation.

The eigenfunctions are sin(omega l)/rho plus a series of spherical Bessel
terms whose y-dependent coefficients alpha_n do not depend on omega; the
derivative representation uses companions beta_n.  Both are computed in
the scaled form A_n = l^n alpha_n, B_n = l^n beta_n by a two-step integral
recurrence, then divided back with near-left-endpoint cleanup (the raw
quotient is dominated by quadrature noise where l^n is tiny).  Four
closed-form sum identities serve as a self-test and pick the truncation
orders, one per family: the alpha pair picks alpha's order and the beta
pair beta's, each where its partial-sum residual stops improving because
the retained orders exhaust the representation's accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .mesh import cumulative_integral, derivative_values
from .model import SLCoefficients
from .spps import FirstFormalPower, ParticularSolution

ORDER_CAP = 60  # safety limit of the order search
PLATEAU_PATIENCE = 3  # orders without a new best identity residual before a family stops
# Largest alpha plateau residual the order search accepts.  On the EJDCEV
# models good plateaus sit at 1.5e-6 or below from 1001 mesh nodes up; a
# plateau near 10 is an order-0 "plateau" of a series that never converged,
# and its basis prices nonsense.
PLATEAU_RESIDUAL_MAX = 1e-3
EDGE_FRACTION = 0.01  # Remark-style cleanup neighborhood, as a fraction of U-L


@dataclass(frozen=True)
class NSBFCoefficients:
    """alpha/beta families, rows indexed by order.

    alpha has rows for orders 0..M_trunc, beta for orders 0..M_beta, with
    M_beta <= M_trunc; G2 is compute_G2's array on the mesh.  The identities
    are: sum alpha, alternating sum alpha, sum beta, alternating sum beta.
    check_residuals holds their pointwise residuals, the alpha pair at
    M_trunc and the beta pair at M_beta; residual_by_order[m, i] is the sup-norm residual of
    identity i with the sums truncated at order m, one row per alpha order
    built (beta columns NaN past the last beta order built).
    suggested_order is alpha's order by the plateau rule, order_stop says
    why the build stopped ("plateau", "cap" or "fixed"), and
    plateau_residual is alpha's best worst-identity residual over the built
    orders, against which M_trunc was chosen.
    """

    alpha: np.ndarray
    beta: np.ndarray
    G2: np.ndarray
    M_trunc: int
    M_beta: int
    check_residuals: tuple
    residual_by_order: np.ndarray
    suggested_order: int
    order_stop: str
    plateau_residual: float


def compute_G2(c: SLCoefficients) -> np.ndarray:
    """G2 in the integrated-by-parts form (no second derivative of rho)."""
    rho, rho_p, w, q = c.rho, c.rho_prime, c.w, c.q
    boundary = rho * rho_p / (2.0 * w)
    tail = 0.5 * cumulative_integral(c.mesh, q / rho**2 + rho_p**2 / w)
    return boundary - boundary[0] + tail


def compute_h_tilde(sol: ParticularSolution, c: SLCoefficients) -> float:
    """h-tilde = sqrt(p(L)/w(L)) (g'(L)/g(L) + rho'(L)/rho(L)).

    This is the slope at zero of the transmuted particular solution
    rho*g in the Liouville variable; the alternating coefficient-sum
    identity pins it unambiguously.
    """
    p0, w0, rho0 = c.p[0], c.w[0], c.rho[0]
    g0, gp0 = sol.g[0], sol.g_prime[0]
    return float(np.sqrt(p0 / w0) * (gp0 / g0 + c.rho_prime[0] / rho0))


def recover_row(A_row: np.ndarray, l: np.ndarray, n: int, n_edge: int) -> np.ndarray:
    """alpha_n = A_n / l^n with the near-L cleanup.

    The first node (l = 0) is zero by continuity.  Within the first n_edge
    nodes the quotient is set to zero up to the argmin of its magnitude:
    values before the crescent region are numerical noise amplified by the
    division.
    """
    if n == 0:
        return A_row.copy()
    out = np.zeros_like(A_row)
    ln = l[1:] ** n
    safe = ln > 1e-300
    out[1:] = np.where(safe, A_row[1:] / np.where(safe, ln, 1.0), 0.0)
    if n_edge >= 2:
        k0 = 1 + int(np.argmin(np.abs(out[1:n_edge])))
        out[:k0] = 0.0
    return out


def initial_coefficients(
    sol: ParticularSolution,
    c: SLCoefficients,
    powers: FirstFormalPower,
    G2: np.ndarray,
    h_tilde: float,
    n_edge: int,
) -> tuple:
    """Seed histories of the recurrence, ((A0, A1), (B0, B1)), scaled (A0 = alpha0, B0 = beta0).

    alpha0 = (g - 1/rho)/2 and A1 = (3/2)(Phi1 - l/rho) need no division;
    B1 needs alpha1, which comes from the machine-safe recovery.  B1 is
    assembled in a form with the near-L cancellations done symbolically
    (the raw beta1 display divides 0/0 quantities at the left endpoint).
    """
    l, rho, rho_p = c.l, c.rho, c.rho_prime
    g, g_p = sol.g, sol.g_prime
    sqrt_pw = np.sqrt(c.p / c.w)
    sqrt_wp = 1.0 / sqrt_pw

    A0 = 0.5 * (g - 1.0 / rho)
    alpha0_prime = 0.5 * (g_p + rho_p / rho**2)
    A1 = 1.5 * (powers.Phi1 - l / rho)

    alpha1 = recover_row(A1, l, 1, n_edge)
    G1 = h_tilde + G2
    B0 = sqrt_pw * (alpha0_prime + rho_p / rho * A0) - G1 / (2.0 * rho)
    l_alpha1_prime = (
        1.5 * (powers.Phi1_prime - sqrt_wp * (2.0 * alpha1 / 3.0 + 1.0 / rho))
        + 1.5 * rho_p * l / rho**2
    )
    B1 = alpha1 + sqrt_pw * (l_alpha1_prime + rho_p / rho * A1) - 1.5 * l * G2 / rho

    return (A0, A1), (B0, B1)


class _Recurrence:
    """The order-raising recurrence of one solve, its order-free factors formed once."""

    def __init__(self, c: SLCoefficients, sol: ParticularSolution):
        self.mesh = c.mesh
        l, rho, g = self.l, self.rho, self.g = c.l, c.rho, sol.g
        self.sqrt_wp = np.sqrt(c.w / c.p)
        gp_rho = sol.g_prime * rho + g * c.rho_prime
        self.l_gp_rho, self.sqrt_pw_gp_rho = l * gp_rho, 1.0 / self.sqrt_wp * gp_rho
        self.rho2_g2, self.rho2_g, self.l2 = rho**2 * g**2, rho**2 * g, l**2

    def step(self, n: int, A_prev: np.ndarray, B_prev: Optional[np.ndarray]) -> tuple:
        """A_n (and B_n when B_prev is given) from order n-2, n >= 2."""
        l, rho, g, sqrt_wp = self.l, self.rho, self.g, self.sqrt_wp
        eta = cumulative_integral(
            self.mesh, (self.l_gp_rho + (n - 1.0) * rho * g * sqrt_wp) * rho * A_prev
        )
        theta = cumulative_integral(self.mesh, (eta / self.rho2_g2 - l * A_prev / g) * sqrt_wp)
        front = (2.0 * n + 1.0) / (2.0 * n - 3.0)
        A_n = front * (self.l2 * A_prev + 2.0 * (2.0 * n - 1.0) * g * theta)
        B_n = None
        if B_prev is not None:
            B_n = front * (
                self.l2 * B_prev
                + 2.0 * (2.0 * n - 1.0) * (self.sqrt_pw_gp_rho * theta / rho + eta / self.rho2_g)
                - (2.0 * n - 1.0) * l * A_prev
            )
        return A_n, B_n


def _identity_targets(c: SLCoefficients, h_tilde: float, G2: np.ndarray) -> tuple:
    """Right-hand sides of the four sum identities, in residual_by_order column order."""
    l, rho, w, q, p, rho_p = c.l, c.rho, c.w, c.q, c.p, c.rho_prime
    bracket = derivative_values(c.mesh, p * (-rho_p / rho**2))

    rhs_a_sum = (2.0 * G2 + h_tilde) * l / (2.0 * rho)
    rhs_a_alt = h_tilde * l / (2.0 * rho)
    rhs_b_sum = l * (
        q / (4.0 * rho * w) - bracket / (4.0 * w) + (h_tilde * G2 + G2**2) / (2.0 * rho)
    )
    rhs_b_alt = l * (
        (q[0] / w[0] - rho[0] / w[0] * bracket[0]) / (4.0 * rho) + h_tilde * G2 / (2.0 * rho)
    )
    return rhs_a_sum, rhs_a_alt, rhs_b_sum, rhs_b_alt


class _Family:
    """One coefficient family fed one order at a time, with its plateau search.

    Each order's recovered row is kept and added to the running sum and
    alternating sum whose targets are the family's two identities; sup[n]
    holds their sup-norm residuals at order n, residuals_at their pointwise ones.
    """

    def __init__(self, targets: tuple):
        self.targets = targets
        self.sums = [np.zeros_like(t) for t in targets]
        self.rows, self.sup = [], []
        self.best, self.best_at = np.inf, 0

    def add(self, n: int, row: np.ndarray) -> bool:
        """Record order n; True once PLATEAU_PATIENCE orders passed without a new best."""
        self.rows.append(row)
        _accumulate(self.sums, n, row)
        self.sup.append([float(np.max(np.abs(s - t))) for s, t in zip(self.sums, self.targets)])
        if max(self.sup[n]) < self.best:
            self.best, self.best_at = max(self.sup[n]), n
            return False
        return n - self.best_at >= PLATEAU_PATIENCE

    def suggested_order(self) -> int:
        """Earliest order whose worst residual is within a factor two of the best."""
        return int(np.argmax(np.max(self.sup, axis=1) <= 2.0 * self.best))

    def residuals_at(self, m: int) -> list:
        """Both pointwise residuals at order m, the partial sums replayed in build order."""
        sums = [np.zeros_like(t) for t in self.targets]
        for n, row in enumerate(self.rows[: m + 1]):
            _accumulate(sums, n, row)
        return [np.abs(s - t) for s, t in zip(sums, self.targets)]


def _accumulate(sums: list, n: int, row: np.ndarray):
    """Add order n's row to the running sum and alternating sum, in place."""
    sums[0] += row
    sums[1] += -row if n % 2 else row


def build_nsbf_coefficients(
    c: SLCoefficients,
    sol: ParticularSolution,
    powers: FirstFormalPower,
    order: Optional[int] = None,
    order_cap: int = ORDER_CAP,
) -> NSBFCoefficients:
    """Run the full coefficient pipeline and pick each family's truncation order.

    With order=None the orders are built one at a time, and each family's
    worst identity residual (the larger of its two) is tracked through
    running partial sums.  A family has plateaued once that residual has
    not improved on its best for PLATEAU_PATIENCE orders.  Beta's rows stop
    when beta has plateaued, and the build ends when alpha has (order_stop
    "plateau"), or at order_cap, a safety limit that warns when reached
    (order_stop "cap").  Each family's order is then the earliest built
    order whose residual is within a factor two of its best, and beta's is
    capped at alpha's.  On every reference model, for both families, a
    patience of two already picks the order a full run to order 60 picks;
    one does not (alpha's curve on (beta, gamma) = (-2, 0) fails to
    improve from order 0 to order 1), and three leaves an order of margin.
    Alpha's rows, and with them the eigenvalues and eigenfunctions, do not
    depend on beta's.  A search whose alpha plateau residual exceeds
    PLATEAU_RESIDUAL_MAX raises ConvergenceError.  An explicit order builds
    exactly orders 0..order of both families and skips the search (order_stop
    "fixed").  The loop carries the scaled rows of orders n-2 and n-1 only, and
    each family keeps one recovered row and one sup pair per order built.
    """
    l = c.l
    G2 = compute_G2(c)
    h_t = compute_h_tilde(sol, c)
    n_edge = int(round(EDGE_FRACTION * (c.mesh.M - 1))) + 1
    A_hist, B_hist = initial_coefficients(sol, c, powers, G2, h_t, n_edge)

    targets = _identity_targets(c, h_t, G2)
    alpha, beta = _Family(targets[:2]), _Family(targets[2:])
    recurrence = _Recurrence(c, sol)
    search = order is None
    stop = "cap" if search else "fixed"
    beta_open = True
    for n in range((order_cap if search else order) + 1):
        if n < 2:
            A_n, B_n = A_hist[n], B_hist[n]
        else:
            A_n, B_n = recurrence.step(n, A_hist[0], B_hist[0] if beta_open else None)
            A_hist, B_hist = (A_hist[1], A_n), (B_hist[1], B_n)
        if beta_open:
            beta_open = not (beta.add(n, recover_row(B_n, l, n, n_edge)) and search)
        if alpha.add(n, recover_row(A_n, l, n, n_edge)) and search:
            stop = "plateau"
            break

    if search and alpha.best > PLATEAU_RESIDUAL_MAX:
        raise ConvergenceError(
            f"the alpha identity residual plateaued at {alpha.best:.3e} (order {alpha.best_at}), "
            f"above {PLATEAU_RESIDUAL_MAX:g}: the coefficient series does not converge on "
            "this model and interval"
        )
    if stop == "cap":
        warnings.warn(
            f"coefficient order search reached the cap {order_cap} before the alpha identity "
            f"residual plateaued; best residual {alpha.best:.3e} at order {alpha.best_at}",
            stacklevel=2,
        )
    suggested = alpha.suggested_order()
    m_alpha = suggested if search else order
    m_beta = min(beta.suggested_order(), m_alpha) if search else order
    residual_by_order = np.full((len(alpha.sup), 4), np.nan)
    residual_by_order[:, :2] = alpha.sup
    residual_by_order[: len(beta.sup), 2:] = beta.sup

    return NSBFCoefficients(
        alpha=np.array(alpha.rows[: m_alpha + 1]),
        beta=np.array(beta.rows[: m_beta + 1]),
        G2=G2,
        M_trunc=m_alpha,
        M_beta=m_beta,
        check_residuals=(*alpha.residuals_at(m_alpha), *beta.residuals_at(m_beta)),
        residual_by_order=residual_by_order,
        suggested_order=suggested,
        order_stop=stop,
        plateau_residual=alpha.best,
    )
