"""Coefficient functions alpha_n, beta_n of the Bessel-series representation.

The eigenfunctions are sin(omega l)/rho plus a series of spherical Bessel
terms whose y-dependent coefficients alpha_n do not depend on omega; the
derivative representation uses companions beta_n.  Both are computed in
the scaled form A_n = l^n alpha_n, B_n = l^n beta_n by a two-step integral
recurrence, then divided back with near-left-endpoint cleanup (the raw
quotient is dominated by quadrature noise where l^n is tiny).  Four
closed-form sum identities serve as a self-test and pick the truncation
order: the partial-sum residual stops improving once the retained orders
exhaust the representation's accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import GridFunction, Mesh, cumulative_integral, derivative_values
from .model import SLCoefficients
from .spps import FormalPowerTable, ParticularSolution

DEFAULT_ORDER_CAP = 60
PLATEAU_PATIENCE = 3  # orders without a new best identity residual before the search stops
DEFAULT_EDGE_FRACTION = 0.01  # Remark-style cleanup neighborhood, as a fraction of U-L


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the four coefficient-sum identities.

    residual_by_order[m, i] is the sup-norm residual of identity i when the
    sums are truncated at coefficient order m.  Identities are ordered:
    sum alpha, alternating sum alpha, sum beta, alternating sum beta (the
    beta columns are NaN when beta coefficients were not built).
    """

    residual_by_order: np.ndarray
    pointwise: tuple
    suggested_order: int


@dataclass(frozen=True)
class NSBFCoefficients:
    """alpha/beta families (rows indexed by order) with their scaled forms.

    Rows run over orders 0..M_trunc.  check_residuals holds the pointwise
    residuals of the four identities at M_trunc (beta entries None on the
    price-only path); residual_by_order has one row per order built.
    order_stop says why the build stopped ("plateau", "cap" or "fixed"),
    and plateau_residual is the best worst-identity residual over the
    built orders, against which the order was chosen.
    """

    mesh: Mesh
    alpha: np.ndarray
    A: np.ndarray
    G1: GridFunction
    G2: GridFunction
    h_tilde: float
    M_trunc: int
    beta: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    check_residuals: Optional[tuple] = None
    residual_by_order: Optional[np.ndarray] = None
    suggested_order: Optional[int] = None
    order_stop: Optional[str] = None
    plateau_residual: Optional[float] = None

    @property
    def max_residual(self) -> float:
        if self.check_residuals is None:
            return float("nan")
        return float(max(np.max(r) for r in self.check_residuals if r is not None))


def compute_G2(c: SLCoefficients) -> GridFunction:
    """G2 in the integrated-by-parts form (no second derivative of rho)."""
    rho, rho_p, w, q = c.rho.values, c.rho_prime.values, c.w.values, c.q.values
    boundary = rho * rho_p / (2.0 * w)
    tail = 0.5 * cumulative_integral(c.mesh, q / rho**2 + rho_p**2 / w)
    return GridFunction(c.mesh, boundary - boundary[0] + tail)


def compute_h_tilde(sol: ParticularSolution, c: SLCoefficients) -> float:
    """h-tilde = sqrt(p(L)/w(L)) (g'(L)/g(L) + rho'(L)/rho(L)).

    This is the slope at zero of the transmuted particular solution
    rho*g in the Liouville variable; the alternating coefficient-sum
    identity pins it unambiguously.
    """
    p0, w0 = c.p.values[0], c.w.values[0]
    rho0 = c.rho.values[0]
    g0, gp0 = sol.g.values[0], sol.g_prime.values[0]
    return float(np.sqrt(p0 / w0) * (gp0 / g0 + c.rho_prime.values[0] / rho0))


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


def recover_alpha_beta(
    A: np.ndarray, B: Optional[np.ndarray], l: np.ndarray, n_edge: int
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Divide the scaled families by l^n row-wise with the cleanup rule."""
    alpha = np.empty_like(A)
    for n in range(A.shape[0]):
        alpha[n] = recover_row(A[n], l, n, n_edge)
    beta = None
    if B is not None:
        beta = np.empty_like(B)
        for n in range(B.shape[0]):
            beta[n] = recover_row(B[n], l, n, n_edge)
    return alpha, beta


@dataclass(frozen=True)
class InitialCoefficients:
    """Orders 0 and 1 of both families, in plain and scaled form."""

    alpha0: np.ndarray
    alpha1: np.ndarray
    beta0: Optional[np.ndarray]
    beta1: Optional[np.ndarray]
    A0: np.ndarray
    A1: np.ndarray
    B0: Optional[np.ndarray]
    B1: Optional[np.ndarray]


def initial_coefficients(
    sol: ParticularSolution,
    c: SLCoefficients,
    powers: FormalPowerTable,
    G2: np.ndarray,
    h_tilde: float,
    n_edge: int,
    with_beta: bool = True,
) -> InitialCoefficients:
    """Seed values for the recurrence.

    alpha0 = (g - 1/rho)/2 and A1 = (3/2)(Phi1 - l/rho) need no division;
    alpha1 and beta1 come from the machine-safe recovery.  B1 is assembled
    in a form with the near-L cancellations done symbolically (the raw
    beta1 display divides 0/0 quantities at the left endpoint).
    """
    l, rho, rho_p = c.l.values, c.rho.values, c.rho_prime.values
    p, w = c.p.values, c.w.values
    g, g_p = sol.g.values, sol.g_prime.values
    sqrt_pw = np.sqrt(p / w)
    sqrt_wp = 1.0 / sqrt_pw

    A0 = 0.5 * (g - 1.0 / rho)
    alpha0_prime = 0.5 * (g_p + rho_p / rho**2)
    A1 = 1.5 * (powers.Phi[1] - l / rho)
    alpha1 = recover_row(A1, l, 1, n_edge)

    B0 = B1 = beta1 = None
    if with_beta:
        G1 = h_tilde + G2
        B0 = sqrt_pw * (alpha0_prime + rho_p / rho * A0) - G1 / (2.0 * rho)
        phi1_prime = g_p * powers.Y[1] + 1.0 / (g * p)
        l_alpha1_prime = (
            1.5 * (phi1_prime - sqrt_wp * (2.0 * alpha1 / 3.0 + 1.0 / rho))
            + 1.5 * rho_p * l / rho**2
        )
        B1 = alpha1 + sqrt_pw * (l_alpha1_prime + rho_p / rho * A1) - 1.5 * l * G2 / rho
        beta1 = recover_row(B1, l, 1, n_edge)

    return InitialCoefficients(
        alpha0=A0, alpha1=alpha1, beta0=B0, beta1=beta1, A0=A0, A1=A1, B0=B0, B1=B1
    )


class _Recurrence:
    """The order-raising recurrence of one solve, its order-free factors formed once."""

    def __init__(self, c: SLCoefficients, sol: ParticularSolution):
        self.mesh = c.mesh
        l, rho, g = self.l, self.rho, self.g = c.l.values, c.rho.values, sol.g.values
        self.sqrt_wp = np.sqrt(c.w.values / c.p.values)
        gp_rho = sol.g_prime.values * rho + g * c.rho_prime.values
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


def recurrence_step(
    n: int,
    A_prev: np.ndarray,
    B_prev: Optional[np.ndarray],
    c: SLCoefficients,
    sol: ParticularSolution,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One step of the order-raising recurrence (n >= 2), from order n-2."""
    if n < 2:
        raise ValueError("recurrence starts at n = 2")
    return _Recurrence(c, sol).step(n, A_prev, B_prev)


def _identity_targets(c: SLCoefficients, h_tilde: float, G2: np.ndarray) -> tuple:
    """Right-hand sides of the four sum identities, in IdentityReport order."""
    l, rho, w, q, p = (
        c.l.values,
        c.rho.values,
        c.w.values,
        c.q.values,
        c.p.values,
    )
    rho_p = c.rho_prime.values
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


def _suggested_order(worst: np.ndarray) -> int:
    """Earliest order whose worst residual is within a factor two of the best."""
    return int(np.argmax(worst <= 2.0 * float(np.min(worst))))


class _IdentitySums:
    """Running partial sums of the four identities, fed one order at a time."""

    def __init__(self, c: SLCoefficients, h_tilde: float, G2: np.ndarray, with_beta: bool):
        self._targets = _identity_targets(c, h_tilde, G2)
        self._sums = [np.zeros(c.mesh.M) for _ in range(4 if with_beta else 2)]
        self._sign = 1.0

    def add(self, alpha_n: np.ndarray, beta_n: Optional[np.ndarray]) -> tuple:
        """Pointwise residuals with the sums truncated at this order.

        The beta entries are None on the price-only path.
        """
        for k, row in enumerate((alpha_n,) if beta_n is None else (alpha_n, beta_n)):
            self._sums[2 * k] += row
            self._sums[2 * k + 1] += self._sign * row
        self._sign = -self._sign
        pointwise = [np.abs(s - t) for s, t in zip(self._sums, self._targets)]
        return tuple(pointwise + [None] * (4 - len(pointwise)))


def _residual_row(pointwise: tuple) -> np.ndarray:
    """Sup-norm residual of each identity (NaN where beta was not built)."""
    return np.array([np.nan if r is None else float(np.max(r)) for r in pointwise])


def check_identities(
    alpha: np.ndarray,
    beta: Optional[np.ndarray],
    c: SLCoefficients,
    h_tilde: float,
    G2: np.ndarray,
) -> IdentityReport:
    """Residuals of the four sum identities for every truncation order.

    Also suggests the truncation: the earliest order whose max residual is
    within a factor two of the best achieved (the curves plateau once the
    retained orders exhaust the attainable accuracy).
    """
    sums = _IdentitySums(c, h_tilde, G2, beta is not None)
    pointwise = [
        sums.add(alpha[n], None if beta is None else beta[n]) for n in range(alpha.shape[0])
    ]
    res = np.array([_residual_row(pw) for pw in pointwise])
    suggested = _suggested_order(np.nanmax(res, axis=1))
    return IdentityReport(
        residual_by_order=res,
        pointwise=pointwise[suggested],
        suggested_order=suggested,
    )


def build_nsbf_coefficients(
    c: SLCoefficients,
    sol: ParticularSolution,
    powers: FormalPowerTable,
    order: Optional[int] = None,
    order_cap: int = DEFAULT_ORDER_CAP,
    edge_fraction: float = DEFAULT_EDGE_FRACTION,
    with_beta: bool = True,
) -> NSBFCoefficients:
    """Run the full coefficient pipeline and pick the truncation order.

    With order=None the orders are built one at a time while the worst of
    the identity residuals is tracked through running partial sums.  The
    search stops once that residual has not improved on its best for
    PLATEAU_PATIENCE orders (order_stop "plateau"), or at order_cap, a
    safety limit that warns when reached (order_stop "cap").  The
    truncation is then the earliest built order whose residual is within a
    factor two of the best.  On every reference model, with and without
    beta, a patience of two already picks the order a full run to order 60
    picks; one does not (the price-only curve of (beta, gamma) = (-2, 0)
    fails to improve from order 0 to order 1), and three leaves an order of
    margin.  An explicit order builds exactly orders 0..order and skips the
    search (order_stop "fixed").  with_beta=False runs the price-only
    reduced path (no beta family, no derivative representation).
    """
    mesh = c.mesh
    l = c.l.values

    G2 = compute_G2(c)
    h_t = compute_h_tilde(sol, c)
    G1 = GridFunction(mesh, h_t + G2.values)
    n_edge = int(round(edge_fraction * (mesh.M - 1))) + 1
    init = initial_coefficients(sol, c, powers, G2.values, h_t, n_edge, with_beta)

    sums = _IdentitySums(c, h_t, G2.values, with_beta)
    recurrence = _Recurrence(c, sol)
    last = order if order is not None else order_cap
    A_rows, B_rows, alpha_rows, beta_rows, pointwise, residual_rows = [], [], [], [], [], []
    best, best_at = np.inf, 0
    stop = "fixed" if order is not None else "cap"
    for n in range(last + 1):
        if n < 2:
            A_n, B_n = (init.A0, init.B0) if n == 0 else (init.A1, init.B1)
        else:
            B_prev = B_rows[n - 2] if with_beta else None
            A_n, B_n = recurrence.step(n, A_rows[n - 2], B_prev)
        A_rows.append(A_n)
        alpha_rows.append(recover_row(A_n, l, n, n_edge))
        if with_beta:
            B_rows.append(B_n)
            beta_rows.append(recover_row(B_n, l, n, n_edge))
        pointwise.append(sums.add(alpha_rows[n], beta_rows[n] if with_beta else None))
        residual_rows.append(_residual_row(pointwise[n]))

        worst = float(np.nanmax(residual_rows[n]))
        if worst < best:
            best, best_at = worst, n
        elif order is None and n - best_at >= PLATEAU_PATIENCE:
            stop = "plateau"
            break

    residual_by_order = np.array(residual_rows)
    suggested = _suggested_order(np.nanmax(residual_by_order, axis=1))
    if stop == "cap":
        warnings.warn(
            f"coefficient order search reached the cap {order_cap} before the identity "
            f"residual plateaued; best residual {best:.3e} at order {best_at}",
            stacklevel=2,
        )
    m_trunc = order if order is not None else suggested
    m_keep = m_trunc + 1

    return NSBFCoefficients(
        mesh=mesh,
        alpha=np.array(alpha_rows[:m_keep]),
        A=np.array(A_rows[:m_keep]),
        beta=np.array(beta_rows[:m_keep]) if with_beta else None,
        B=np.array(B_rows[:m_keep]) if with_beta else None,
        G1=G1,
        G2=G2,
        h_tilde=h_t,
        M_trunc=m_trunc,
        check_residuals=pointwise[m_trunc],
        residual_by_order=residual_by_order,
        suggested_order=suggested,
        order_stop=stop,
        plateau_residual=best,
    )
