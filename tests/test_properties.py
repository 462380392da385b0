"""Property tests of the pricing series on one six-month and one one-day solve.

Prices are linear in the rebate R, with R h(y) carrying the boundary value
at U, so a price must not fall as R grows and must stay inside
[0, max payoff + R] up to the truncation error.  At R = 0 the series is the
plain eigenfunction expansion, summed here from its parts.  The projection
is linear in the payoff, so call minus put is the custom contract paying
y - K, and a higher strike does not raise a call price or lower a put price.
Scaling p, q and w by one constant (the gauge) leaves every price unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsbf_pricer as nb
from nsbf_pricer import pricing
from nsbf_pricer.engine import solve_from_sl
from nsbf_pricer.mesh import inner_product

from dual_routes import interpolate, mesh_rows, scale_gauge

L, U = 90.0, 120.0
HORIZONS = {"six-month": (0.5, -1.0, 2.0), "one-day": (1.0 / 360.0, -2.0, 3.0)}
# slack for truncation and quadrature error.  On 3001 spots and 60 calls and
# puts per solve the lowest price was -6.4e-12 and the lowest slope in R
# -1.7e-13 per unit of rebate (one day); six-month values stayed >= 0.  Over
# 300 random strike pairs per solve, the largest rise of a call (fall of a
# put) with K was 3.3e-12 (one day) and the largest parity gap 9.6e-14
TOL = 1e-9
# gauge: six-month solves at 65 gauges kappa in [1e-3, 1e3] (25
# log-spaced with three contracts, 40 random with random contracts) priced
# within 7.1e-15 of the unscaled solve
GAUGE_TOL = 1e-12

spots = st.floats(L, U)
strikes = st.floats(L + 0.5, U - 0.5)
rebates = st.floats(0.0, 20.0)
styles = st.sampled_from(["call", "put"])
PROPERTY = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module", params=sorted(HORIZONS))
def solved(request, medium, short):
    T, beta, gamma = HORIZONS[request.param]
    return (medium if T == 0.5 else short)(beta, gamma), T


@pytest.fixture(scope="module")
def phi_rows(solved):
    """phi_n of every pair of the solve at every mesh point."""
    return mesh_rows(solved[0].pairs)[0]


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
def test_zero_rebate_is_the_plain_series(solved, phi_rows, style, K, y0, t_share):
    solver, T = solved
    c = nb.OptionContract(style, L, U, T, K)
    t = t_share * T
    f = nb.GridFunction(solver.mesh, pricing.payoff_grid(c, solver.mesh))
    w = nb.GridFunction(solver.mesh, solver.sl.w)
    expected = sum(
        inner_product(f, nb.GridFunction(solver.mesh, phi), w) / p.norm_sq
        * interpolate(solver.mesh, phi, y0) * np.exp(-p.lam * (T - t))
        for p, phi in zip(pricing.select_pairs(solver.pairs, T, solver.config), phi_rows)
    )
    pairs = solver.retained_pairs(c)
    g = pricing.fourier_coefficients(c, pairs)
    decay = pricing.decay_factors(pairs, c, t)
    got = pricing.value(pricing.rows_at(y0, pairs), c, g, decay)
    # the expected sum reads the mesh rows through mesh.stencil, whose own
    # error the quote's panel read does not share: on 5,600 spots (600 within
    # six mesh steps of a barrier), 10 calls and puts and 3 times per solve it
    # reached 2.8e-12 at one day, where the term mass reaches 254, and 1.8e-13
    # at six months
    assert got == pytest.approx(expected, rel=1e-12, abs=5e-12)


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


@pytest.fixture(scope="module")
def six_month_basis(medium):
    """The six-month Sturm-Liouville data and the basis solved from it."""
    T, beta, gamma = HORIZONS["six-month"]
    sl = medium(beta, gamma).sl
    return sl, solve_from_sl(sl, nb.NumericsConfig())[-1]


def _series_price(basis, style, K, R, y0):
    T = HORIZONS["six-month"][0]
    c = nb.OptionContract(style, L, U, T, K, rebate=R)
    pairs = pricing.select_pairs(basis, T, nb.NumericsConfig())
    g = pricing.fourier_coefficients(c, pairs)
    return pricing.value(pricing.rows_at(y0, pairs), c, g, pricing.decay_factors(pairs, c, 0.0))


@settings(max_examples=10, deadline=None)
@given(log_kappa=st.floats(-3.0, 3.0), style=styles, K=strikes, y0=spots, R=rebates)
def test_price_unchanged_by_gauge(six_month_basis, log_kappa, style, K, y0, R):
    sl, basis = six_month_basis
    *_, scaled = solve_from_sl(scale_gauge(sl, 10.0**log_kappa), nb.NumericsConfig())
    expected = _series_price(basis, style, K, R, y0)
    assert _series_price(scaled, style, K, R, y0) == pytest.approx(expected, abs=GAUGE_TOL)
