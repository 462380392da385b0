"""Seeded inputs and the closed-loop execution of the benchmark workloads.

Every workload drives the public ``nsbf_pricer`` API with one client that
waits for each result.  Inputs come only from the seed: the same seed gives
the same sequence of items, and a run consumes a prefix of that sequence
until its time is up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

import nsbf_pricer as nb
from nsbf_pricer.presets import preset

_MEDIUM = preset("table1-medium")
_SHORT = preset("table3-short")

L = _MEDIUM["contract"]["L"]
U = _MEDIUM["contract"]["U"]
MEDIUM_T = _MEDIUM["contract"]["T"]
SHORT_T = _SHORT["contract"]["T"]
MEDIUM_NUMERICS = nb.NumericsConfig(**_MEDIUM["numerics"])
SHORT_NUMERICS = nb.NumericsConfig(**_SHORT["numerics"])
NUMERICS = {MEDIUM_T: MEDIUM_NUMERICS, SHORT_T: SHORT_NUMERICS}
BANDS = [tuple(b) for b in _SHORT["bands"]]


# Both sweeps visit this grid over the published ranges (beta in [-2, 1],
# gamma in [0, 3]) in a seeded order, a fresh permutation per pass, and a run
# ends on a whole pass.  So a run's solve-time median, throughput, worst
# identity residual and worst reference-cell gap describe the same models on
# every seed.  Solve time follows beta; with three betas the median falls
# inside the middle beta's cluster, not in the gap between two clusters.
GRID = tuple((b, g) for b in (-2.0, -0.5, 1.0) for g in (0.0, 1.0, 2.0, 3.0))
SPOT_RANGE = (97.0, 103.0)
REBATE_RANGE = (1.0, 10.0)
# Seconds one pass takes at the seed commit, at the nominal machine speed;
# a run is --seconds over this, rounded, whole passes.
PASS_SECONDS = {"medium-sweep": 3.3, "short-sweep": 13.0, "quote-book": 0.18}
# Share of quotes drawn into the seeded oracle sample, per workload.
CHECK_SHARE = {"medium-sweep": 0.02, "short-sweep": 0.1, "quote-book": 0.01}
# quote-book cycles through this pattern of (basis, has rebate) slots.  The
# mix is chosen for steady medians, not taken from any traffic: a one-day
# quote costs several times a six-month one, so plain quotes sit two to one
# on the six-month basis and the plain median lies inside the six-month
# latency cluster instead of between the two.  Rebate quotes go only on the
# one-day basis: six-month rebate prices are a known defect (see
# checks.known_defect), measured on the reference cells instead.
BOOK_PATTERN = (
    ("six-month", False), ("one-day", False), ("six-month", False), ("one-day", True),
    ("six-month", False), ("one-day", False), ("six-month", False), ("one-day", True),
)


@dataclass(frozen=True)
class Model:
    """One EJDCEV parameter set; the other parameters are the presets'."""

    beta: float
    gamma: float

    def spec(self) -> nb.DiffusionSpec:
        base = {k: v for k, v in _MEDIUM["model"].items() if k != "type"}
        base.update(beta=self.beta, gamma=self.gamma)
        return nb.ejdcev_spec(nb.EJDCEVParams(**base))


@dataclass(frozen=True)
class Quote:
    """One price-with-Greeks request against a named solved basis.

    basis "model" is the item's own freshly solved model; any other name is
    a basis solved during set-up.
    """

    basis: str
    style: str
    K: float
    y0: float
    T: float
    rebate: float = 0.0
    bands: bool = False
    check: bool = False  # drawn into the seeded oracle sample

    def contract(self) -> nb.OptionContract:
        return nb.OptionContract(self.style, L, U, self.T, self.K, rebate=self.rebate)


@dataclass(frozen=True)
class Item:
    """One unit of closed-loop work: an optional solve, then its quotes."""

    model: Optional[Model]
    quotes: tuple
    numerics: Optional[nb.NumericsConfig] = None
    ends_pass: bool = False  # last item of a pass over the grid or book pattern


def reference_cells(T: float) -> list:
    """Fixed cells priced on every basis a run solves, for the accuracy figure.

    Table cells at spot 100 and criterion 9's rebate cell.  They are the
    same on every seed, so max_oracle_gap moves only when the program's
    accuracy does.
    """
    return [Quote("", "call", 95.0, 100.0, T), Quote("", "put", 105.0, 100.0, T),
            Quote("", "call", 100.0, 100.0, T, rebate=5.0)]


def preset_model(name: str) -> Model:
    m = preset(name)["model"]
    return Model(beta=m["beta"], gamma=m["gamma"])


def fixed_bases(workload: str) -> dict:
    """Bases solved during set-up, with their preset's numerics: name -> (model, horizon).

    medium-sweep quotes its rebate contracts on a one-day basis, the only
    horizon at which the presets' numerics price rebates correctly.
    """
    one_day = {"one-day": (preset_model("table3-short"), SHORT_T)}
    if workload == "medium-sweep":
        return one_day
    if workload == "quote-book":
        return dict({"six-month": (preset_model("table1-medium"), MEDIUM_T)}, **one_day)
    return {}


def _grid_models(rng: np.random.Generator) -> Iterator[tuple]:
    """(model, ends a pass) in a fresh seeded permutation per pass."""
    while True:
        order = rng.permutation(len(GRID))
        for k, i in enumerate(order):
            yield Model(*GRID[i]), k == len(order) - 1


def _book_quote(rng, basis: str, T: float, rebate: bool, share: float) -> Quote:
    return Quote(
        basis=basis,
        style="call" if rng.random() < 0.5 else "put",
        K=float(rng.uniform(L + 3.0, U - 3.0)),
        y0=float(rng.uniform(L + 1.0, U - 1.0)),
        T=T,
        rebate=float(rng.uniform(*REBATE_RANGE)) if rebate else 0.0,
        check=bool(rng.random() < share),
    )


def _rebate_quote(rng, basis: str, spot: float, T: float, share: float) -> Quote:
    """One seeded rebate contract near spot."""
    return Quote(basis, "call" if rng.random() < 0.5 else "put",
                 float(spot + rng.uniform(-5.0, 5.0)), spot, T,
                 rebate=float(rng.uniform(*REBATE_RANGE)), check=bool(rng.random() < share))


def _medium_sweep(rng: np.random.Generator) -> Iterator[Item]:
    share = CHECK_SHARE["medium-sweep"]
    for model, ends_pass in _grid_models(rng):
        # three strikes around spot, call and put at each, as the table does
        spot = float(rng.uniform(*SPOT_RANGE))
        strikes = spot + np.array([-5.0, 0.0, 5.0]) + rng.uniform(-1.0, 1.0, 3)
        quotes = [
            Quote("model", style, float(K), spot, MEDIUM_T, check=bool(rng.random() < share))
            for K in strikes
            for style in ("call", "put")
        ]
        # one rebate contract on the fixed one-day basis, so that this
        # workload has a rebate latency too
        quotes.append(_rebate_quote(rng, "one-day", spot, SHORT_T, share))
        yield Item(model, tuple(quotes), MEDIUM_NUMERICS, ends_pass)


def _short_sweep(rng: np.random.Generator) -> Iterator[Item]:
    share = CHECK_SHARE["short-sweep"]
    for model, ends_pass in _grid_models(rng):
        spot = float(rng.uniform(*SPOT_RANGE))
        strikes = spot + rng.uniform(-3.0, 3.0, 2)
        quotes = [
            Quote("model", style, float(K), spot, SHORT_T, bands=True,
                  check=bool(rng.random() < share))
            for K in strikes
            for style in ("call", "put")
        ]
        # two rebate quotes, as a pass of 12 models gives few samples
        quotes += [_rebate_quote(rng, "model", spot, SHORT_T, share) for _ in range(2)]
        yield Item(model, tuple(quotes), SHORT_NUMERICS, ends_pass)


def _quote_book(rng: np.random.Generator) -> Iterator[Item]:
    share = CHECK_SHARE["quote-book"]
    horizon = {"six-month": MEDIUM_T, "one-day": SHORT_T}
    while True:
        for k, (basis, rebate) in enumerate(BOOK_PATTERN):
            quote = _book_quote(rng, basis, horizon[basis], rebate, share)
            yield Item(None, (quote,), ends_pass=k == len(BOOK_PATTERN) - 1)


def items(workload: str, seed: int) -> Iterator[Item]:
    """The seeded, unbounded item sequence of a workload."""
    rng = np.random.default_rng(seed)
    return {"medium-sweep": _medium_sweep, "short-sweep": _short_sweep,
            "quote-book": _quote_book}[workload](rng)


@dataclass
class Cell:
    """A priced quote kept for the oracle check."""

    quote: Quote
    model: Model
    price: float


@dataclass
class Record:
    """What a run measured and what failed.

    Latency samples are (start, end, ms) so they can be scaled by the
    machine-speed marks that bracket them.
    """

    solve_ms: list = field(default_factory=list)
    resolve_ms: list = field(default_factory=list)  # quote-book's re-solves after the loop
    quote_ms: list = field(default_factory=list)
    rebate_ms: list = field(default_factory=list)
    sample: list = field(default_factory=list)  # seeded oracle sample
    reference: list = field(default_factory=list)  # fixed reference cells
    referenced: set = field(default_factory=set)  # bases whose reference cells are in
    attempted: int = 0
    failures: list = field(default_factory=list)
    max_residual: float = 0.0
    min_price_margin: float = math.inf  # price minus the lower payoff bound
    defect_gaps: list = field(default_factory=list)  # (gap, cell) of known-defect cells

    def fail(self, what: str):
        self.failures.append(what)


def _sample(samples: list, t0: float):
    t1 = time.perf_counter()
    samples.append((t0, t1, 1e3 * (t1 - t0)))


def identity_residual(solver: nb.DoubleBarrierSolver) -> float:
    """Worst of the four coefficient-identity residuals, as diagnostics reports them."""
    return max(float(np.max(r)) for r in solver.coeffs.check_residuals if r is not None)


def _no_mark():
    pass


def solve(model: Model, numerics: nb.NumericsConfig, rec: Record, samples: list,
          mark=_no_mark):
    """Solve one basis with derivatives, appending its latency to samples.

    mark runs right before the timed call.  Returns None when the solve raised.
    """
    solver = nb.DoubleBarrierSolver(model.spec(), L, U, numerics)
    rec.attempted += 1
    mark()
    t0 = time.perf_counter()
    try:
        solver.solve(with_derivatives=True)
    except (nb.NSBFError, ValueError) as exc:
        rec.fail(f"solve {model}: {type(exc).__name__}: {exc}")
        return None
    _sample(samples, t0)
    rec.max_residual = max(rec.max_residual, identity_residual(solver))
    return solver


def price_reference(solver, model: Model, T: float, rec: Record):
    """Price a basis's reference cells, once per basis and outside any timing."""
    if (model, T) in rec.referenced:
        return
    rec.referenced.add((model, T))
    for q in reference_cells(T):
        rec.attempted += 1
        try:
            price = solver.price(q.contract(), q.y0).price
        except (nb.NSBFError, ValueError) as exc:
            rec.fail(f"reference {q} on {model}: {type(exc).__name__}: {exc}")
            continue
        rec.reference.append(Cell(q, model, price))


def run_item(item: Item, bases: dict, rec: Record, check_bounds, mark=_no_mark) -> tuple:
    """Execute one item against the solved bases.

    mark runs right before each timed call.  Returns the quotes priced and
    the item's own solved basis (None when it has none).
    """
    own = None
    if item.model is not None:
        own = solve(item.model, item.numerics, rec, rec.solve_ms, mark)
        if own is None:
            return 0, None
        bases = dict(bases, model=(item.model, own))
    priced = 0
    for q in item.quotes:
        model, solver = bases[q.basis]
        contract = q.contract()
        bands = BANDS if q.bands else None
        rec.attempted += 1
        mark()
        t0 = time.perf_counter()
        try:
            result = solver.price(contract, q.y0, greeks=True, bands=bands)
        except (nb.NSBFError, ValueError) as exc:
            rec.fail(f"quote {q} on {model}: {type(exc).__name__}: {exc}")
            continue
        _sample(rec.rebate_ms if q.rebate else rec.quote_ms, t0)
        priced += 1
        check_bounds(q, model, result, rec)
        if q.check:
            rec.sample.append(Cell(q, model, result.price))
    return priced, own
