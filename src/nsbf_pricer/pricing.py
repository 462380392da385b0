"""Payoff projection, the truncated pricing series, Greeks and band reports.

Every contract is priced from one series.  With R >= 0 the rebate paid on
knock-out at the upper barrier (R = 0 for a plain contract),

    v(y, t) = R h(y) + sum_n g_n phi_n(y) exp(-lambda_n (T - t)),
    g_n = <f - R h, phi_n>_w / <phi_n, phi_n>_w,

where f is the payoff and h the steady state: the lambda = 0 solution with
h(L) = 0 and h(U) = 1 (spps.steady_state).  R h carries the boundary
values, so every modal weight decays like exp(-lambda_n (T - t)) and one
truncation rule serves every contract.  Delta sums g_n phi_n'(y0)
exp(-lambda_n (T - t)) and adds R h'(y0), Theta sums g_n lambda_n phi_n(y0)
exp(-lambda_n (T - t)), and Vega is Delta / sigma'(y0) by the chain rule.

A quote reads one solved basis (spectrum.EigenBasis) twice.  g is one
array: f times the basis's w weights is restricted to the panel points and
summed against the phi rows there, less R times the solve's <h, phi_n>_w.
Then one read of the panel interpolant at y0 gives phi, phi', h and h'
(Rows), which value, Delta, Theta and the band report all use; a surface
reads its price grid the same way, with one row of time factors per time.
The time factors are formed once per quote, so the series and its Greeks
are taken at the same t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (
    NonFiniteParameter, NonFiniteSpot, ParameterOutOfRange, SpotOutsideBarriers,
    TimeOutsideHorizon, VegaUndefined,
)

# inner_product is not called here; the name stays importable from this
# module because perfbench/tracing.py wraps pricing.inner_product by name.
from .mesh import GridFunction, Mesh, _same_mesh, inner_product  # noqa: F401
from .model import DiffusionSpec, is_number, sample
from .spectrum import EigenBasis

if TYPE_CHECKING:
    from .engine import NumericsConfig


def check_barriers(L: float, U: float):
    """Barrier levels must be finite real numbers (not bools), with 0 < L < U."""
    if not (is_number(L) and is_number(U)):
        raise TypeError(f"barriers must be real numbers, got L={L!r}, U={U!r}")
    if not (math.isfinite(L) and math.isfinite(U)):
        raise NonFiniteParameter(f"barriers must be finite, got L={L}, U={U}")
    if not 0.0 < L < U:
        raise ParameterOutOfRange(f"barriers need 0 < L < U, got L={L}, U={U}")


def check_time(t, T: float):
    """Every evaluation time in t, a number or an array, must lie in [0, T].

    Else TimeOutsideHorizon, naming a time outside.
    """
    for s in (t,) if is_number(t) else (np.min(t), np.max(t)):
        if not 0.0 <= s <= T:
            raise TimeOutsideHorizon(f"time t = {s} lies outside [0, {T}]")


def check_quote_point(y0: float, t: float, L: float, U: float, T: float):
    """A quote at (y0, t) needs y0 finite and in [L, U], and t in [0, T].

    Each violation raises its own InvalidQuoteInput subclass, and a
    non-number or a bool a TypeError.
    """
    if not (is_number(y0) and is_number(t)):
        raise TypeError(f"spot y0 and time t must be real numbers, got y0={y0!r}, t={t!r}")
    if not np.isfinite(y0):
        raise NonFiniteSpot(f"spot y0 = {y0} is not finite")
    if not L <= y0 <= U:
        raise SpotOutsideBarriers(f"spot y0 = {y0} lies outside [{L}, {U}]")
    check_time(t, T)


@dataclass(frozen=True)
class OptionContract:
    """Double-barrier knock-out contract on (L, U), 0 < L < U, with maturity T years.

    style is "call" or "put" (strike K, no payoff) or "custom" (payoff sampled on
    the pricing mesh, no K); rebate R >= 0 is paid on knock-out at the upper barrier.
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
        levels = {"L": self.L, "U": self.U, "T": self.T, "K": self.K, "rebate": self.rebate}
        bad = [k for k, v in levels.items() if v is not None and not is_number(v)]
        if bad:
            raise TypeError(f"contract {', '.join(bad)} must be real numbers")
        check_barriers(self.L, self.U)
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
            if self.K is not None:
                raise ValueError("a custom contract takes no strike K; its payoff is sampled")
        else:
            if self.payoff is not None:
                raise ValueError(f"a {self.style} takes no payoff; a sampled payoff is custom")
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


def payoff_grid(contract: OptionContract, mesh: Mesh) -> np.ndarray:
    """The payoff sampled on the mesh; a custom payoff was checked when it was sampled."""
    y = mesh.points
    if contract.style == "call":
        return np.maximum(y - contract.K, 0.0)
    if contract.style == "put":
        return np.maximum(contract.K - y, 0.0)
    if not _same_mesh(contract.payoff.mesh, mesh):
        raise ValueError("custom payoff sampled on a different mesh")
    return contract.payoff.values


def fourier_coefficients(contract: OptionContract, pairs: EigenBasis) -> np.ndarray:
    """g_n = <f - R h, phi_n>_w / <phi_n, phi_n>_w for every pair, as one array.

    The payoff is weighted once, fw = f (w weights), and the mesh rule
    sum(phi_n * fw) is taken on the basis's panel points, against fw
    restricted there; the solve took the same rule's <h, phi_n>_w.  numpy's
    pairwise sum along each row gives every g_n the same bits for any
    leading slice and BLAS thread count.
    """
    fw = pairs.panels.restrict(payoff_grid(contract, pairs.mesh) * pairs.ww)
    modes = np.sum(pairs.nodes[0] * fw, axis=-1)
    return (modes - contract.rebate * pairs.h_inner) / pairs.norm_sq


def is_band(band) -> bool:
    """(n1, n2) with integers 1 <= n1 <= n2, or n2 None: to the last pair; bools refused."""
    if not (isinstance(band, (tuple, list)) and len(band) == 2):
        return False
    n1, n2 = band
    if not (is_number(n1, numbers.Integral) and n1 >= 1):
        return False
    return n2 is None or (is_number(n2, numbers.Integral) and n2 >= n1)


def select_pairs(pairs: EigenBasis, tau: float, config: "NumericsConfig") -> EigenBasis:
    """Truncation rule, the same for every contract, at remaining time tau = T - t.

    Keep lambda_n tau <= config.lambda_decay_cap, and at least the first
    pair.  Eigenvalues increase, so the kept pairs are a leading slice of
    the basis.
    """
    kept = np.count_nonzero(pairs.lam * tau <= config.lambda_decay_cap)
    return pairs[: max(kept, 1)]


def truncation(kept: int, found: int, tau: float, config: "NumericsConfig") -> str:
    """What cut the series off at remaining time tau = T - t: "window" when every found
    pair is kept and omega_max**2 tau < lambda_decay_cap (roots above the omega window,
    which the decay rule would keep, were never searched for), "lambda_decay_cap" otherwise.
    """
    if kept == found and config.omega_max**2 * tau < config.lambda_decay_cap:
        return "window"
    return "lambda_decay_cap"


@dataclass(frozen=True)
class Rows:
    """phi_n, phi_n', h and h' at points y (the last axis), from one read of the panels."""

    y: object
    phi: np.ndarray
    dphi: np.ndarray
    h: np.ndarray
    dh: np.ndarray


def rows_at(y, pairs: EigenBasis) -> Rows:
    """The basis and the steady state at price(s) y inside [L, U]."""
    rows, steady = pairs.panels.read(y, pairs.nodes, pairs.steady)
    return Rows(y, *rows, *steady)


def decay_factors(pairs: EigenBasis, contract: OptionContract, t) -> np.ndarray:
    """exp(-lambda_n (T - t)) for every pair at calendar time(s) t, shape(t) + (pairs,).

    Every time must lie in [0, T]; else TimeOutsideHorizon.  A quote forms
    them once, for one t; value, delta, theta and the band report read them.
    A surface forms one row per time.
    """
    check_time(t, contract.T)
    return np.exp(-pairs.lam * (contract.T - np.asarray(t))[..., None])


def value(at: Rows, contract: OptionContract, g: np.ndarray, decay: np.ndarray):
    """Truncated series value at the points of at, at the time(s) of decay.

    The result has shape(t) + shape(y), or is a float for one time and one
    point: decay keeps the pairs axis last, so a surface is one product of
    its (times, pairs) factors and the (pairs, points) phi rows.
    """
    out = (g * decay) @ at.phi + contract.rebate * at.h
    if not np.ndim(at.y):
        out = out[..., 0]
    return out if out.ndim else float(out)


def delta(at: Rows, contract: OptionContract, g: np.ndarray, decay: np.ndarray) -> float:
    """Series Delta at y0, at the time of decay, for a one-point at."""
    modes = float(np.sum(g * at.dphi[:, 0] * decay))
    return modes + contract.rebate * float(at.dh[0])


def vega(y0: float, delta_value: float, spec: DiffusionSpec) -> float:
    """Vega by the chain rule, Delta / sigma'(y0); undefined for flat sigma."""
    y = np.array([y0])
    if spec.sigma_prime is not None:
        sp = float(sample(spec, "sigma_prime", y)[0])
    else:
        h = 1e-4 * y0
        sp = float((sample(spec, "sigma", y + h) - sample(spec, "sigma", y - h))[0] / (2 * h))
    scale = float(sample(spec, "sigma", y)[0]) / y0
    if abs(sp) < 1e-12 * scale:
        raise VegaUndefined("sigma'(y0) = 0; vega via the chain rule does not exist")
    return delta_value / sp


def theta(at: Rows, pairs: EigenBasis, g: np.ndarray, decay: np.ndarray) -> float:
    """Series Theta (calendar-time derivative) at y0, at the time of decay, for a one-point at."""
    return float(np.sum(g * pairs.lam * at.phi[:, 0] * decay))


def contribution(n1: int, n2: int, at: Rows, g: np.ndarray, decay: np.ndarray) -> float:
    """Partial sum of the modal terms over eigenindices n1..n2 at y0, at the time of decay."""
    if not (1 <= n1 <= n2 <= len(g)):
        raise ValueError(f"band {n1}-{n2} outside the retained 1..{len(g)} pairs")
    sel = slice(n1 - 1, n2)
    return float(np.sum(g[sel] * at.phi[sel, 0] * decay[sel]))


def contribution_report(
    bands: list[tuple], at: Rows, contract: OptionContract, g: np.ndarray, decay: np.ndarray
) -> ContributionReport:
    """Contributions for explicit (n1, n2) bands; n2 = None runs to the last pair.

    Each band is reported over the retained pairs it summed: an n2 past the
    last pair reads as that pair, and a band that starts past it is left out.
    """
    steady = contract.rebate * float(at.h[0])
    rows = []
    total = steady
    for n1, n2 in bands:
        if n1 > len(g):
            continue
        hi = len(g) if n2 is None else int(min(n2, len(g)))
        val = contribution(n1, hi, at, g, decay)
        rows.append((int(n1), None if n2 is None else hi, val))
        total += val
    return ContributionReport(bands=tuple(rows), total=total, steady=steady)
