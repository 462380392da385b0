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

A quote touches the stacked basis (spectrum.EigenBasis) twice.  The
coefficients g travel as one array: d = f - R h is built once and projected
onto one row block of the basis at a time with the panel arithmetic of
mesh.inner_product.  Then one interpolation stencil at y0 reads phi, phi',
h and h' (Rows), and value, Delta, Theta and the band report all use those
rows; a surface does the same with one stencil on its price grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import NonFiniteParameter, VegaUndefined

# inner_product is not called here; the name stays importable from this
# module because perfbench/tracing.py wraps pricing.inner_product by name.
from .mesh import GridFunction, Mesh, inner_product, integrate, stencil  # noqa: F401
from .model import DiffusionSpec, SLCoefficients
from .spectrum import BLOCK_ROWS, EigenBasis

if TYPE_CHECKING:
    from .engine import NumericsConfig

# Rows projected at once, through one product buffer per call: half a block.
# A solve's block-sized temporaries set glibc's heap-trim threshold to two
# blocks, which a whole block's projection (three blocks of temporaries)
# exceeded, re-faulting ~1400 pages per one-day quote.
PROJECT_ROWS = BLOCK_ROWS // 2


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
        for name in ("T", "rebate"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteParameter(f"contract {name} must be finite, got {getattr(self, name)}")
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
    contract: OptionContract, pairs: EigenBasis, c: SLCoefficients
) -> np.ndarray:
    """g_n = <f - R h, phi_n>_w / <phi_n, phi_n>_w for every pair, as one array.

    The payoff part d = f - R h is built once and projected onto
    PROJECT_ROWS rows of the basis at a time, through one product buffer
    and with inner_product's panel arithmetic, so each g_n equals the
    single-pair quadrature bit for bit while the temporaries stay small.
    """
    d = payoff_grid(contract, c.mesh).values - contract.rebate * c.steady.values
    rows = [b[i : i + PROJECT_ROWS] for b in pairs.phi for i in range(0, len(b), PROJECT_ROWS)]
    buf = np.empty((PROJECT_ROWS, c.mesh.M))
    ip = []
    for r in rows:
        prod = np.multiply(d, r, out=buf[: len(r)])
        prod *= c.w.values
        ip.append(integrate(c.mesh, prod))
    return (np.concatenate(ip) if ip else np.empty(0)) / pairs.norm_sq


def select_pairs(pairs: EigenBasis, T: float, config: "NumericsConfig") -> EigenBasis:
    """Truncation rule, the same for every contract.

    Keep lambda_n <= config.lambda_cutoff when it is set, otherwise
    lambda_n T <= config.lambda_decay_cap, and at least the first pair.
    Eigenvalues increase, so the kept pairs are a leading slice of the
    basis.
    """
    if config.lambda_cutoff is None:
        kept = np.count_nonzero(pairs.lam * T <= config.lambda_decay_cap)
    else:
        kept = np.count_nonzero(pairs.lam <= config.lambda_cutoff)
    return pairs[: max(kept, 1)]


@dataclass(frozen=True)
class Rows:
    """phi_n, phi_n', h and h' at points y, from one interpolation stencil.

    The points run along the last axis; dphi is None when the basis has no
    derivatives.  Every evaluation below reads these rows.
    """

    y: object
    phi: np.ndarray
    dphi: Optional[np.ndarray]
    h: np.ndarray
    dh: np.ndarray


def rows_at(y, pairs: EigenBasis, c: SLCoefficients) -> Rows:
    """The basis and the steady state at price(s) y inside [L, U]."""
    at = stencil(c.mesh, y)

    def stacked(blocks):
        return np.concatenate([at(b) for b in blocks]) if blocks else np.empty((0, len(at.den)))

    dphi = None if pairs.dphi is None else stacked(pairs.dphi)
    return Rows(y, stacked(pairs.phi), dphi, at(c.steady.values), at(c.steady_prime.values))


def value(at: Rows, t: float, contract: OptionContract, pairs: EigenBasis, g: np.ndarray):
    """Truncated series value at the points of at and calendar time t <= T."""
    if t > contract.T:
        raise ValueError("evaluation time beyond maturity")
    out = np.tensordot(g * np.exp(-pairs.lam * (contract.T - t)), at.phi, axes=(0, 0))
    out = out + contract.rebate * at.h
    return out if np.ndim(at.y) else float(out[0])


def value_surface(
    contract: OptionContract,
    pairs: EigenBasis,
    g: np.ndarray,
    c: SLCoefficients,
    t_count: int = 101,
    y_count: int = 101,
):
    """Value on a (t, y) grid; rows are times from 0 to T, columns prices."""
    t_grid = np.linspace(0.0, contract.T, t_count)
    y_grid = np.linspace(contract.L, contract.U, y_count)
    at = rows_at(y_grid, pairs, c)
    tau = (contract.T - t_grid)[:, None]
    surface = (g * np.exp(-pairs.lam * tau)) @ at.phi + contract.rebate * at.h
    return t_grid, y_grid, surface


def delta(at: Rows, contract: OptionContract, pairs: EigenBasis, g: np.ndarray) -> float:
    """Series Delta at (y0, 0) for a one-point at; needs eigenfunction derivatives."""
    if at.dphi is None:
        raise ValueError("eigenfunction derivatives were not assembled")
    modes = float(np.sum(g * at.dphi[:, 0] * np.exp(-pairs.lam * contract.T)))
    return modes + contract.rebate * float(at.dh[0])


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


def theta(at: Rows, contract: OptionContract, pairs: EigenBasis, g: np.ndarray) -> float:
    """Series Theta (calendar-time derivative) at (y0, 0) for a one-point at."""
    lam = pairs.lam
    return float(np.sum(g * lam * at.phi[:, 0] * np.exp(-lam * contract.T)))


def contribution(
    n1: int, n2: int, at: Rows, t: float, contract: OptionContract, pairs: EigenBasis, g: np.ndarray
) -> float:
    """Partial sum of the modal terms over eigenindices n1..n2 at (y0, t)."""
    if not (1 <= n1 <= n2 <= len(pairs)):
        raise ValueError(f"band {n1}-{n2} outside the retained 1..{len(pairs)} pairs")
    sel = slice(n1 - 1, n2)
    return float(np.sum(g[sel] * at.phi[sel, 0] * np.exp(-pairs.lam[sel] * (contract.T - t))))


def contribution_report(
    bands: list[tuple],
    at: Rows,
    t: float,
    contract: OptionContract,
    pairs: EigenBasis,
    g: np.ndarray,
) -> ContributionReport:
    """Contributions for explicit (n1, n2) bands; n2 = None runs to the last pair."""
    steady = contract.rebate * float(at.h[0])
    rows = []
    total = steady
    for n1, n2 in bands:
        hi = len(pairs) if n2 is None else min(n2, len(pairs))
        if n1 > len(pairs):
            rows.append((n1, n2, 0.0))
            continue
        val = contribution(n1, hi, at, t, contract, pairs, g)
        rows.append((n1, n2, val))
        total += val
    return ContributionReport(bands=tuple(rows), total=total, steady=steady)
