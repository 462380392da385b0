"""Payoff projection, the truncated pricing series, Greeks and band reports.

Every contract is priced from one series.  With R >= 0 the rebate paid on
knock-out at the upper barrier (R = 0 for a plain contract),

    v(y, t) = R h(y) + sum_n g_n phi_n(y) exp(-lambda_n (T - t)),
    g_n = <f - R h, phi_n>_w / <phi_n, phi_n>_w,

where f is the payoff and h the steady state: the lambda = 0 solution of
the Sturm-Liouville equation with h(L) = 0 and h(U) = 1, which the solve
keeps on its Sturm-Liouville data (spps.steady_state).  R h carries the
boundary values, so every modal weight decays like exp(-lambda_n (T - t))
and the same truncation rule serves every contract.  Greeks reuse the
eigendata: Delta sums g_n phi_n'(y0) and adds R h'(y0), Theta sums
g_n lambda_n phi_n(y0) (the steady part does not depend on time), and
Vega is Delta / sigma'(y0) by the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import VegaUndefined
from .mesh import GridFunction, Mesh, inner_product, interpolate_values
from .model import DiffusionSpec, SLCoefficients
from .spectrum import EigenPair

if TYPE_CHECKING:
    from .engine import NumericsConfig


@dataclass(frozen=True)
class OptionContract:
    """Double-barrier knock-out contract on (L, U) with maturity T years.

    style is "call", "put" or "custom" (payoff sampled on the pricing mesh);
    rebate R >= 0 is paid on knock-out at the upper barrier.
    """

    style: str
    L: float
    U: float
    T: float
    K: Optional[float] = None
    rebate: float = 0.0
    payoff: Optional[GridFunction] = None

    def __post_init__(self):
        if self.style not in ("call", "put", "custom"):
            raise ValueError(f"unknown option style {self.style!r}")
        if self.T <= 0.0:
            raise ValueError("maturity must be positive")
        if self.rebate < 0.0:
            raise ValueError("rebate must be non-negative")
        if self.style == "custom":
            if self.payoff is None:
                raise ValueError("custom style needs a sampled payoff")
        else:
            if self.K is None or not (self.L < self.K < self.U):
                raise ValueError("strike must satisfy L < K < U")


@dataclass(frozen=True)
class ContributionReport:
    """Band partial sums of the modal terms at (y0, t) and the steady part R h(y0).

    total is steady plus the band sums: the price when the bands cover
    every retained pair.
    """

    bands: tuple
    total: float
    steady: float = 0.0


@dataclass(frozen=True)
class PricingResult:
    price: float
    delta: Optional[float] = None
    vega: Optional[float] = None
    theta: Optional[float] = None
    N_used: int = 0
    M_used: int = 0
    contributions: Optional[ContributionReport] = None
    diagnostics: dict = field(default_factory=dict)


def payoff_grid(contract: OptionContract, mesh: Mesh) -> GridFunction:
    y = mesh.points
    if contract.style == "call":
        vals = np.maximum(y - contract.K, 0.0)
    elif contract.style == "put":
        vals = np.maximum(contract.K - y, 0.0)
    else:
        if contract.payoff.mesh.M != mesh.M:
            raise ValueError("custom payoff sampled on a different mesh")
        vals = contract.payoff.values
    return GridFunction(mesh, vals)


def fourier_coefficients(
    contract: OptionContract, pairs: list[EigenPair], c: SLCoefficients
) -> list[EigenPair]:
    """Attach g_n = <f - R h, phi_n> / <phi_n, phi_n> to every pair (f_n when R = 0)."""
    f = payoff_grid(contract, c.mesh)
    d = GridFunction(c.mesh, f.values - contract.rebate * c.steady.values)
    return [replace(p, f_n=inner_product(d, p.phi, c.w) / p.norm_sq) for p in pairs]


def select_pairs(pairs: list[EigenPair], T: float, config: "NumericsConfig") -> list[EigenPair]:
    """Truncation rule, the same for every contract.

    Keep lambda_n <= config.lambda_cutoff when it is set, otherwise
    lambda_n T <= config.lambda_decay_cap; at least the first pair, and
    at most config.n_max pairs.
    """
    if config.lambda_cutoff is None:
        kept = [p for p in pairs if p.lam * T <= config.lambda_decay_cap]
    else:
        kept = [p for p in pairs if p.lam <= config.lambda_cutoff]
    return (kept or pairs[:1])[: config.n_max]


def _phi_at(pairs: list[EigenPair], y, mesh: Mesh, prime: bool = False) -> np.ndarray:
    rows = []
    for p in pairs:
        gf = p.phi_prime if prime else p.phi
        rows.append(interpolate_values(mesh, gf.values, y))
    return np.array(rows)


def _steady_at(contract: OptionContract, c: SLCoefficients, y, prime: bool = False):
    """R h(y), or R h'(y) with prime."""
    gf = c.steady_prime if prime else c.steady
    return contract.rebate * interpolate_values(c.mesh, gf.values, y)


def value(y, t: float, contract: OptionContract, pairs: list[EigenPair], c: SLCoefficients):
    """Truncated series value at price(s) y and calendar time t <= T."""
    if t > contract.T:
        raise ValueError("evaluation time beyond maturity")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    fn = np.array([p.f_n for p in pairs])
    lam = np.array([p.lam for p in pairs])
    phis = _phi_at(pairs, y_arr, c.mesh)
    out = np.tensordot(fn * np.exp(-lam * (contract.T - t)), phis, axes=(0, 0))
    out = out + _steady_at(contract, c, y_arr)
    return out if np.ndim(y) else float(out[0])


def value_surface(
    contract: OptionContract,
    pairs: list[EigenPair],
    c: SLCoefficients,
    t_count: int = 101,
    y_count: int = 101,
):
    """Value on a (t, y) grid; rows are times from 0 to T, columns prices."""
    t_grid = np.linspace(0.0, contract.T, t_count)
    y_grid = np.linspace(contract.L, contract.U, y_count)
    fn = np.array([p.f_n for p in pairs])
    lam = np.array([p.lam for p in pairs])
    phis = _phi_at(pairs, y_grid, c.mesh)  # (N, y_count)
    tau = (contract.T - t_grid)[:, None]
    surface = (fn * np.exp(-lam * tau)) @ phis + _steady_at(contract, c, y_grid)
    return t_grid, y_grid, surface


def delta(y0: float, contract: OptionContract, pairs: list[EigenPair], c: SLCoefficients) -> float:
    """Series Delta at (y0, 0); needs eigenfunction derivatives on the pairs."""
    if any(p.phi_prime is None for p in pairs):
        raise ValueError("eigenfunction derivatives were not assembled")
    fn = np.array([p.f_n for p in pairs])
    lam = np.array([p.lam for p in pairs])
    dphis = _phi_at(pairs, np.array([y0]), c.mesh, prime=True)[:, 0]
    modes = float(np.sum(fn * dphis * np.exp(-lam * contract.T)))
    return modes + _steady_at(contract, c, y0, prime=True)


def vega(y0: float, delta_value: float, spec: DiffusionSpec) -> float:
    """Vega by the chain rule, Delta / sigma'(y0); undefined for flat sigma."""
    if spec.sigma_prime is not None:
        sp = float(spec.sigma_prime(np.array([y0]))[0])
    else:
        h = 1e-4 * y0
        sp = float((spec.sigma(np.array([y0 + h])) - spec.sigma(np.array([y0 - h])))[0] / (2 * h))
    scale = float(spec.sigma(np.array([y0]))[0]) / y0
    if abs(sp) < 1e-12 * scale:
        raise VegaUndefined("sigma'(y0) = 0; vega via the chain rule does not exist")
    return delta_value / sp


def theta(y0: float, contract: OptionContract, pairs: list[EigenPair], c: SLCoefficients) -> float:
    """Series Theta (calendar-time derivative) at (y0, 0)."""
    fn = np.array([p.f_n for p in pairs])
    lam = np.array([p.lam for p in pairs])
    phis = _phi_at(pairs, np.array([y0]), c.mesh)[:, 0]
    return float(np.sum(fn * lam * phis * np.exp(-lam * contract.T)))


def contribution(
    n1: int,
    n2: int,
    y0: float,
    t: float,
    contract: OptionContract,
    pairs: list[EigenPair],
    c: SLCoefficients,
) -> float:
    """Partial sum of the modal terms over eigenindices n1..n2 at (y0, t)."""
    if not (1 <= n1 <= n2 <= len(pairs)):
        raise ValueError(f"band {n1}-{n2} outside the retained 1..{len(pairs)} pairs")
    sel = pairs[n1 - 1 : n2]
    fn = np.array([p.f_n for p in sel])
    lam = np.array([p.lam for p in sel])
    phis = _phi_at(sel, np.array([y0]), c.mesh)[:, 0]
    return float(np.sum(fn * phis * np.exp(-lam * (contract.T - t))))


def contribution_report(
    bands: list[tuple],
    y0: float,
    t: float,
    contract: OptionContract,
    pairs: list[EigenPair],
    c: SLCoefficients,
) -> ContributionReport:
    """Contributions for explicit (n1, n2) bands; n2 = None runs to the last pair."""
    steady = _steady_at(contract, c, y0)
    rows = []
    total = steady
    for n1, n2 in bands:
        hi = len(pairs) if n2 is None else min(n2, len(pairs))
        if n1 > len(pairs):
            rows.append((n1, n2, 0.0))
            continue
        val = contribution(n1, hi, y0, t, contract, pairs, c)
        rows.append((n1, n2, val))
        total += val
    return ContributionReport(bands=tuple(rows), total=total, steady=steady)
