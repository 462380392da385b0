"""Property tests of the pricing series on one six-month and one one-day solve.

Prices are linear in the rebate R, with R h(y) carrying the boundary value
at U, so a price must not fall as R grows and must stay inside
[0, max payoff + R] up to the truncation error.  At R = 0 the series is the
plain eigenfunction expansion, summed here from its parts.  The projection
is linear in the payoff, so call minus put is the custom contract paying
y - K, and a higher strike does not raise a call price or lower a put price.
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
# -1.7e-13 per unit of rebate (one day); six-month values stayed >= 0.  Over
# 300 random strike pairs per solve, the largest rise of a call (fall of a
# put) with K was 3.3e-12 (one day) and the largest parity gap 9.6e-14
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
    pairs = solver.retained_pairs(c)
    g = pricing.fourier_coefficients(c, pairs, solver.sl)
    got = pricing.value(pricing.rows_at(y0, pairs, solver.sl), t, c, pairs, g)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)


@PROPERTY
@given(K=strikes, y0=spots, R=rebates)
def test_call_minus_put_is_the_forward_payoff(solved, K, y0, R):
    # knock-out parity: max(y-K, 0) - max(K-y, 0) = y - K, and the rebate
    # legs cancel, so the difference is the custom contract paying y - K
    solver, T = solved
    forward = nb.GridFunction(solver.mesh, solver.mesh.points - K)
    custom = nb.OptionContract("custom", L, U, T, payoff=forward)
    parity = _price(solver, T, "call", K, R, y0) - _price(solver, T, "put", K, R, y0)
    assert parity == pytest.approx(solver.price(custom, y0).price, abs=1e-12)


@PROPERTY
@given(K1=strikes, K2=strikes, y0=spots, R=rebates)
def test_prices_monotone_in_strike(solved, K1, K2, y0, R):
    solver, T = solved
    lo, hi = sorted((K1, K2))
    assert _price(solver, T, "call", hi, R, y0) <= _price(solver, T, "call", lo, R, y0) + TOL
    assert _price(solver, T, "put", lo, R, y0) <= _price(solver, T, "put", hi, R, y0) + TOL
