"""Property tests of the pricing series on one six-month and one one-day solve.

Prices are linear in the rebate R, with R h(y) carrying the boundary value
at U, so a price must not fall as R grows and must stay inside
[0, max payoff + R] up to the truncation error.  At R = 0 the series is the
plain eigenfunction expansion, summed here from its parts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsbf_pricer as nb
from nsbf_pricer import pricing

L, U = 90.0, 120.0
HORIZONS = {"six-month": (0.5, -1.0, 2.0), "one-day": (1.0 / 360.0, -2.0, 3.0)}
# slack for truncation and quadrature error.  On 3001 spots and 60 calls and
# puts per solve the lowest price was -6.4e-12 and the lowest slope in R
# -1.7e-13 per unit of rebate (one day); six-month values stayed >= 0
TOL = 1e-9

spots = st.floats(L, U)
strikes = st.floats(L + 0.5, U - 0.5)
rebates = st.floats(0.0, 20.0)
styles = st.sampled_from(["call", "put"])
PROPERTY = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module", params=sorted(HORIZONS))
def solved(request, medium, short):
    T, beta, gamma = HORIZONS[request.param]
    return (medium if T == 0.5 else short)(beta, gamma), T


def _price(solver, T, style, K, R, y0):
    return solver.price(nb.OptionContract(style, L, U, T, K, rebate=R), y0).price


@PROPERTY
@given(style=styles, K=strikes, y0=spots, r1=rebates, r2=rebates)
def test_price_does_not_fall_as_rebate_grows(solved, style, K, y0, r1, r2):
    solver, T = solved
    lo, hi = sorted((r1, r2))
    assert _price(solver, T, style, K, lo, y0) <= _price(solver, T, style, K, hi, y0) + TOL


@PROPERTY
@given(style=styles, K=strikes, y0=spots, R=rebates)
def test_price_inside_payoff_range(solved, style, K, y0, R):
    solver, T = solved
    top = U - K if style == "call" else K - L
    assert -TOL <= _price(solver, T, style, K, R, y0) <= top + R + TOL


@PROPERTY
@given(style=styles, K=strikes, y0=spots, t_share=st.floats(0.0, 1.0))
def test_zero_rebate_is_the_plain_series(solved, style, K, y0, t_share):
    solver, T = solved
    c = nb.OptionContract(style, L, U, T, K)
    t = t_share * T
    f = pricing.payoff_grid(c, solver.mesh)
    expected = sum(
        nb.inner_product(f, p.phi, solver.sl.w) / p.norm_sq
        * nb.interpolate(p.phi, y0) * np.exp(-p.lam * (T - t))
        for p in pricing.select_pairs(solver.pairs, T, solver.config)
    )
    got = pricing.value(y0, t, c, solver.retained_pairs(c), solver.sl)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)
