import math
import re
import tracemalloc

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer import engine, pricing, spectrum
from nsbf_pricer.fd import FDGrid, fd_price, solve_pde
from nsbf_pricer.mesh import build_mesh, derivative_values, inner_product

from conftest import make_solver
from dual_routes import interpolate, mesh_rows, mesh_steady_state

L, U, Y0 = 90.0, 120.0, 100.0


def contract(style="call", K=100.0, T=0.5, rebate=0.0):
    return nb.OptionContract(style=style, L=L, U=U, T=T, K=K, rebate=rebate)


def value_at(s, c, pairs, y, t=0.0):
    """Series value of contract c on the given pairs of solver s at (y, t)."""
    g = pricing.fourier_coefficients(c, pairs)
    return pricing.value(pricing.rows_at(y, pairs), c, g, pricing.decay_factors(pairs, c, t))


class TestContractValidation:
    def test_strike_inside_barriers(self):
        with pytest.raises(ValueError, match="strike"):
            contract(K=80.0)

    def test_custom_needs_payoff(self):
        with pytest.raises(ValueError, match="payoff"):
            nb.OptionContract(style="custom", L=L, U=U, T=0.5)

    # an input the style does not price is refused, naming it, not ignored
    @pytest.mark.parametrize("style, field", [("call", "payoff"), ("put", "payoff"),
                                              ("custom", "strike K")])
    def test_unused_input_refused(self, style, field):
        mesh = build_mesh(L, U, 201)
        inputs = {"K": 100.0, "payoff": nb.GridFunction(mesh, np.zeros(mesh.M))}
        with pytest.raises(ValueError, match=f"takes no {field}"):
            nb.OptionContract(style=style, L=L, U=U, T=0.5, **inputs)

    def test_positive_maturity(self):
        with pytest.raises(ValueError, match="maturity"):
            contract(T=0.0)

    # a non-finite T or rebate fails when the contract is built, not as a NaN or 0.0 price
    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_maturity(self, T):
        with pytest.raises(nb.NonFiniteParameter, match="T"):
            contract(T=T)

    @pytest.mark.parametrize("rebate", [math.nan, math.inf])
    def test_non_finite_rebate(self, rebate):
        with pytest.raises(nb.NonFiniteParameter, match="rebate"):
            contract(rebate=rebate)

    # reversed or non-positive barriers fail when the contract is made, for
    # every style, naming both levels
    @pytest.mark.parametrize("lo, hi", [(120.0, 90.0), (-1.0, 120.0), (0.0, 120.0), (90.0, 90.0)])
    @pytest.mark.parametrize("style", ["call", "custom"])
    def test_barriers_need_0_lt_L_lt_U(self, style, lo, hi):
        mesh = build_mesh(L, U, 201)
        zero = nb.GridFunction(mesh, np.zeros(mesh.M))
        with pytest.raises(nb.ParameterOutOfRange, match=f"L={lo}, U={hi}"):
            nb.OptionContract(style, lo, hi, 0.5, 100.0, payoff=zero)

    @pytest.mark.parametrize("name", ["L", "U", "T", "K", "rebate"])
    def test_non_numeric_level_named(self, name):
        # a JSON true is a bool: refused, not read as 1
        for bad in ("1", True):
            fields = dict(style="call", L=L, U=U, T=0.5, K=100.0, rebate=0.0)
            fields[name] = bad
            with pytest.raises(TypeError, match=f"contract {name} must be real numbers"):
                nb.OptionContract(**fields)


class TestFourierCoefficients:
    def test_zero_payoff_zero_price(self, medium):
        s = medium(-1.0, 2.0)
        zero = nb.GridFunction(s.mesh, np.zeros(s.mesh.M))
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=zero)
        pairs = s.retained_pairs(c)
        assert np.all(pricing.fourier_coefficients(c, pairs) == 0.0)
        assert value_at(s, c, pairs, Y0) == 0.0

    def test_eigenfunction_payoff_is_delta(self, medium):
        s = medium(-1.0, 2.0)
        phi_1 = nb.GridFunction(s.mesh, mesh_rows(s.pairs[:1])[0][0])
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=phi_1)
        g = pricing.fourier_coefficients(c, s.pairs[:4])
        assert g[0] == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(g[1:])) < 1e-8

    def test_custom_payoff_on_another_interval_rejected(self, medium):
        # same point count, other interval: read as if sampled on [L, U] it
        # would price a different payoff
        s = medium(-1.0, 2.0)
        wide = build_mesh(80.0, 130.0, s.mesh.M)
        payoff = nb.GridFunction(wide, np.maximum(wide.points - 100.0, 0.0))
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=payoff)
        with pytest.raises(ValueError, match="different mesh"):
            s.price(c, Y0)

    def test_custom_payoff_on_the_solved_mesh_prices_as_the_call(self, medium):
        s = medium(-1.0, 2.0)
        mesh = build_mesh(L, U, s.mesh.M)
        payoff = nb.GridFunction(mesh, np.maximum(mesh.points - 100.0, 0.0))
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=payoff)
        assert s.price(c, Y0).price == s.price(contract(), Y0).price

    def test_call_gibbs_overshoot_at_upper_barrier(self, short):
        # terminal reconstruction of the discontinuous payoff overshoots near U
        s = short(-2.0, 2.0)
        c = contract()
        recon = pricing.fourier_coefficients(c, s.pairs[:27]) @ mesh_rows(s.pairs[:27])[0]
        near_u = s.mesh.points > 115.0
        assert np.max(recon[near_u]) > (U - c.K) * 1.02


class TestValue:
    def test_boundary_values_zero(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        for t in (0.0, 0.25, 0.49):
            assert abs(value_at(s, c, pairs, L, t)) < 1e-8 * (U - c.K)
            assert abs(value_at(s, c, pairs, U, t)) < 1e-8 * (U - c.K)

    def test_matches_fd_oracle(self, medium):
        s = medium(0.5, 1.0)
        c = contract(K=95.0)
        r = s.price(c, Y0)
        ref = fd_price(s.spec, c, FDGrid(1601, 800), Y0)
        assert abs(r.price - ref) < 2e-4

    def test_beyond_maturity_rejected(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        with pytest.raises(nb.TimeOutsideHorizon, match=r"t = 0.6 lies outside \[0, 0.5\]"):
            value_at(s, c, pairs, Y0, 0.6)

    def test_out_of_range_price(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        with pytest.raises(ValueError, match="outside"):
            value_at(s, c, pairs, 125.0)



# Every route to a quote refuses the same inputs: the pricer, the pricer's
# truncation rule (time only), and the oracle's price and its solution's
# reading (fd_price quotes at t = 0 only).
QUOTE_ROUTES = {
    "price": lambda s, sol, y0, t: s.price(contract(), y0, t=t),
    "retained_pairs": lambda s, sol, y0, t: s.retained_pairs(contract(), t),
    "fd_price": lambda s, sol, y0, t: fd_price(s.spec, contract(), FDGrid(), y0),
    "fd_at": lambda s, sol, y0, t: sol.at(y0, t),
    # every time of the array is checked, not only the first
    "decay_factors": lambda s, sol, y0, t: pricing.decay_factors(s.pairs, contract(),
                                                                 np.array([0.0, 0.25, t])),
}


def on_routes(values, routes):
    """Each value on each route; the pricer's cases keep the value alone as their id."""
    return [pytest.param(v, r, id=str(v) if r == "price" else f"{v}-{r}")
            for r in routes for v in values]


class TestQuoteInputValidation:
    @pytest.fixture(scope="class")
    def quote(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_pde(s.spec, contract(), FDGrid(201, 200))
        return lambda route, y0, t=0.0: QUOTE_ROUTES[route](s, sol, y0, t)

    @pytest.mark.parametrize("y0, route", on_routes([math.nan, math.inf, -math.inf],
                                                    ["price", "fd_price", "fd_at"]))
    def test_non_finite_spot(self, quote, y0, route):
        with pytest.raises(nb.NonFiniteSpot):
            quote(route, y0)

    @pytest.mark.parametrize("y0, route", on_routes([L - 1e-9, U + 1.0, 10.0, 200.0],
                                                    ["price", "fd_price", "fd_at"]))
    def test_spot_outside_barriers(self, quote, y0, route):
        with pytest.raises(nb.SpotOutsideBarriers):
            quote(route, y0)

    @pytest.mark.parametrize("t, route", on_routes([-0.01, 0.6, math.nan],
                                                   ["price", "retained_pairs", "fd_at",
                                                    "decay_factors"]))
    def test_time_outside_horizon(self, quote, t, route):
        with pytest.raises(nb.TimeOutsideHorizon):
            quote(route, Y0, t)

    # JSON true is a Python bool, which would otherwise read as the number 1
    @pytest.mark.parametrize("case", ["L", "U", "y0", "t", "fd_price y0", "fd_at t"])
    def test_bool_inputs_refused(self, medium, quote, case):
        s = medium(-1.0, 2.0)
        calls = {
            "L": lambda: nb.DoubleBarrierSolver(s.spec, True, U),
            "U": lambda: nb.DoubleBarrierSolver(s.spec, L, True),
            "y0": lambda: s.price(contract(), True),
            "t": lambda: s.price(contract(T=2.0), Y0, t=True),
            "fd_price y0": lambda: quote("fd_price", True),
            "fd_at t": lambda: quote("fd_at", Y0, True),
        }
        with pytest.raises(TypeError, match="must be real numbers"):
            calls[case]()

    # a dict config used to fail only at solve, on its missing mesh_points
    @pytest.mark.parametrize("name, bad", [
        ("spec", {}), ("spec", None), ("config", {"mesh_points": 2001}), ("config", None),
    ])
    def test_solver_arguments_checked_at_construction(self, medium, name, bad):
        args = dict(spec=medium(-1.0, 2.0).spec, L=L, U=U, config=nb.NumericsConfig())
        args[name] = bad
        with pytest.raises(TypeError, match=f"{name} must be a"):
            nb.DoubleBarrierSolver(**args)

    def test_errors_are_value_errors(self, medium):
        with pytest.raises(ValueError):
            medium(-1.0, 2.0).price(contract(), math.nan)
        assert issubclass(nb.InvalidQuoteInput, nb.NSBFError)

    def test_barriers_and_horizon_ends_accepted(self, medium):
        s = medium(-1.0, 2.0)
        assert abs(s.price(contract(), L).price) < 1e-8
        assert abs(s.price(contract(), U, t=0.5).price) < 1e-8

    # the CLI's band shapes are the API's: a bool, a fraction or a reversed
    # band is refused, naming the band, before the solve
    @pytest.mark.parametrize("band", [(True, 3), (5, 3), (3, 2), (1, 2.5), (0, 2), (1,), "1-2"])
    def test_bad_band_refused_before_any_work(self, band):
        s = make_solver(-1.0, 2.0)
        with pytest.raises(ValueError, match=re.escape(f"band {band!r} must be (n1, n2)")):
            s.price(contract(), Y0, bands=[(1, 2), band])
        assert s.pairs is None

    @pytest.mark.parametrize("count", [True, 0, -1, 2.5, "5"])
    @pytest.mark.parametrize("name", ["t_count", "y_count"])
    def test_bad_surface_count_refused_before_any_work(self, name, count):
        s = make_solver(-1.0, 2.0)
        with pytest.raises(ValueError, match=f"surface {name} must be an integer >= 1"):
            s.surface(contract(), **{name: count})
        assert s.pairs is None

    def test_rows_at_non_finite_point(self, medium):
        s = medium(-1.0, 2.0)
        with pytest.raises(ValueError, match="not finite"):
            pricing.rows_at(math.nan, s.pairs)


class TestOneSolvePath:
    """A price quote and a Greeks quote come from the same solve."""

    # table1-medium, table3-short, and the one-day model whose orders differ most
    @pytest.mark.parametrize("beta, gamma, T, K", [
        (-1.0, 2.0, 0.5, 100.0), (-2.0, 2.0, 1 / 360, 100.0), (-2.0, 0.0, 1 / 360, 95.0),
    ])
    def test_greeks_quote_price_equals_price_quote(self, beta, gamma, T, K):
        s = make_solver(beta, gamma, short=T < 0.5)
        c = contract(K=K, T=T)
        assert s.price(c, Y0).price == s.price(c, Y0, greeks=True).price

    def test_price_then_greeks_solves_once(self, monkeypatch):
        solves = []
        original = engine.solve_from_sl

        def counted(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "solve_from_sl", counted)
        s = make_solver(-1.0, 2.0, mesh_points=2001)
        s.price(contract(), Y0)
        r = s.price(contract(), Y0, greeks=True)
        assert len(solves) == 1
        assert r.delta is not None and r.theta is not None

    def test_retained_pairs_solves_first(self):
        s = make_solver(-1.0, 2.0, mesh_points=2001)
        assert len(s.retained_pairs(contract())) == s.price(contract(), Y0).N_used

    def test_diagnostics_solves_first(self):
        s = make_solver(-1.0, 2.0, mesh_points=2001)
        assert s.diagnostics()["eigenvalues_found"] == len(s.pairs)

    def test_contract_on_other_barriers_refused(self, medium):
        s, other = medium(-1.0, 2.0), nb.OptionContract("call", 80.0, U, 0.5, 100.0)
        for read in (s.retained_pairs, s.surface, lambda c: s.price(c, Y0)):
            with pytest.raises(ValueError, match="barriers differ"):
                read(other)


class TestValueSurface:
    def test_consistency_with_point_value(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        t_grid, y_grid, surf = s.surface(c, t_count=11, y_count=21)
        # one spot at every time of the grid: value has shape(t)
        direct = value_at(s, c, s.retained_pairs(c, c.T), y_grid[7], t_grid)
        assert direct.shape == t_grid.shape
        assert surf[:, 7] == pytest.approx(direct, abs=1e-12)

    def test_interior_bounds_away_from_maturity(self, medium):
        # the terminal slice converges only in the weighted-L2 sense (Gibbs),
        # so the maximum-principle bound is checked away from t = T
        s = medium(-1.0, 2.0)
        c = contract()
        t_grid, y_grid, surf = s.surface(c)
        body = surf[t_grid <= 0.9 * c.T]
        assert np.min(body) > -1e-8
        assert np.max(body) < (U - c.K) + 1e-6

    def test_terminal_l2_error_decreases_with_n(self, short):
        s = short(-2.0, 2.0)
        c = contract()
        f = pricing.payoff_grid(c, s.mesh)
        errs, w = [], nb.GridFunction(s.mesh, s.sl.w)
        phi, _ = mesh_rows(s.pairs[:27])
        for n in (5, 10, 20, 27):
            recon = pricing.fourier_coefficients(c, s.pairs[:n]) @ phi[:n]
            diff = nb.GridFunction(s.mesh, recon - f)
            errs.append(math.sqrt(inner_product(diff, diff, w)))
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestGreeks:
    def test_delta_matches_value_fd(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs)
        decay = pricing.decay_factors(pairs, c, 0.0)
        d = pricing.delta(pricing.rows_at(Y0, pairs), c, g, decay)
        h = (U - L) / 2000.0
        fd = (value_at(s, c, pairs, Y0 + h) - value_at(s, c, pairs, Y0 - h)) / (2 * h)
        assert abs(d - fd) / abs(fd) < 1e-3

    def test_theta_matches_value_fd(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs)
        decay = pricing.decay_factors(pairs, c, 0.0)
        th = pricing.theta(pricing.rows_at(Y0, pairs), pairs, g, decay)
        dt = c.T / 2000.0
        v = [value_at(s, c, pairs, Y0, k * dt) for k in range(3)]
        fd = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
        assert abs(th - fd) / abs(fd) < 1e-3

    @pytest.mark.parametrize("R", [0.0, 5.0])
    def test_greeks_at_half_maturity_match_price_differences(self, medium, R):
        # Delta and Theta at t = T/2 take the series at T - t, as the price does
        s = medium(-1.0, 2.0)
        c = contract(rebate=R)
        t = c.T / 2.0
        r = s.price(c, Y0, greeks=True, t=t)
        h, dt = (U - L) / 2000.0, c.T / 2000.0
        fd_d = (s.price(c, Y0 + h, t=t).price - s.price(c, Y0 - h, t=t).price) / (2 * h)
        fd_t = (s.price(c, Y0, t=t + dt).price - s.price(c, Y0, t=t - dt).price) / (2 * dt)
        assert abs(r.delta - fd_d) / abs(fd_d) < 1e-3
        assert abs(r.theta - fd_t) / abs(fd_t) < 1e-3

    def test_vega_definition(self, medium):
        s = medium(0.5, 2.0)
        c = contract()
        r = s.price(c, Y0, greeks=True)
        sp = s.spec.sigma_prime(np.array([Y0]))[0]
        assert r.vega * sp == pytest.approx(r.delta, rel=1e-12)

    def test_vega_undefined_for_flat_sigma(self, medium):
        s = medium(0.0, 1.0)
        r = s.price(contract(), Y0, greeks=True)
        assert r.vega is None
        with pytest.raises(nb.VegaUndefined):
            pricing.vega(Y0, 0.01, s.spec)


class TestClosedFormOracle:
    def test_gbm_with_hazard_log_space_series(self, medium):
        # beta = gamma = 0 is lognormal with constant hazard: the barrier
        # problem maps to constant coefficients in x = ln y, where the sine
        # series has fully analytic Fourier integrals
        s = medium(0.0, 0.0)
        K, T = 95.0, 0.5
        r, h, sig = 0.1, 0.52, 0.25
        x_l, x_u, x0 = math.log(L), math.log(U), math.log(Y0)
        span = x_u - x_l
        nu = (r + h) - 0.5 * sig * sig  # log drift
        a = nu / sig**2

        def exp_sine_integral(c, k, lo, hi):
            # int e^{c x} sin(k (x - x_l)) dx
            def anti(x):
                return math.exp(c * x) * (
                    c * math.sin(k * (x - x_l)) - k * math.cos(k * (x - x_l))
                ) / (c * c + k * k)
            return anti(hi) - anti(lo)

        exact = 0.0
        for n in range(1, 400):
            k = n * math.pi / span
            lam = (r + h) + 0.5 * sig**2 * (k * k + a * a)
            coeff = (2.0 / span) * (
                exp_sine_integral(a + 1.0, k, math.log(K), x_u)
                - K * exp_sine_integral(a, k, math.log(K), x_u)
            ) * math.exp(-a * x0)
            exact += coeff * math.sin(k * (x0 - x_l)) * math.exp(-lam * T)
        got = s.price(contract(K=K), Y0).price
        assert got == pytest.approx(exact, abs=2e-6)


class TestDeterminism:
    def test_identical_solves_bit_equal(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=1.0))
        cfg = nb.NumericsConfig(mesh_points=2001)
        r1 = nb.DoubleBarrierSolver(spec, L, U, cfg).solve().price(contract(), Y0, greeks=True)
        r2 = nb.DoubleBarrierSolver(spec, L, U, cfg).solve().price(contract(), Y0, greeks=True)
        assert r1.price == r2.price
        assert r1.delta == r2.delta and r1.theta == r2.theta


class TestTruncation:
    def test_medium_horizon_series_settles_early(self):
        # adding eigenterms beyond the exponential-decay cutoff changes the
        # six-month price by less than 1e-4 (and geometrically less per band)
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        cfg = nb.NumericsConfig(omega_max=90.0)
        s = nb.DoubleBarrierSolver(spec, L, U, cfg).solve()
        assert len(s.pairs) >= 45
        c = contract()

        def value_n(n):
            return value_at(s, c, s.pairs[:n], Y0)

        v6, v45 = value_n(6), value_n(45)
        assert abs(v45 - v6) < 1e-4
        gaps = [abs(value_n(n + 5) - value_n(n)) for n in (6, 11, 16)]
        assert gaps[0] < 1e-4 and gaps[2] <= gaps[0]

    def test_a_late_quote_keeps_the_pairs_its_remaining_time_needs(self, medium):
        # the decay rule reads T - t: at 0.9 T every one of the 8 found pairs
        # counts (a rule on T kept 4 and priced 5.909119 against CN's 5.961165)
        s, c = medium(-1.0, 2.0), contract(K=100.0, T=0.5)
        cn = solve_pde(s.spec, c, FDGrid(3201, 2000))
        r = s.price(c, 105.0, t=0.9 * c.T)
        assert r.N_used == len(s.pairs) == 8
        assert abs(r.price - cn.at(105.0, 0.9 * c.T)) < 1e-4
        # at 0.98 T the decay rule would keep roots above the omega window
        late = s.price(c, 105.0, t=0.98 * c.T)
        assert late.diagnostics["truncation"] == "window"
        assert s.price(c, 105.0).N_used == len(s.retained_pairs(c)) == 4

    # omega_max**2 T against the cap of 35: 112.5 (table1-medium), 27.8
    # (table3-short) and 0.625 (the default window at one day, pinned by
    # test_known_defect_default_window_truncates_one_day_quote); below the
    # cap, roots the decay rule would keep may lie above the window
    @pytest.mark.parametrize("beta, T, window, cut", [
        (-1.0, 0.5, "default", "lambda_decay_cap"),
        (-2.0, 1 / 360, "short", "window"),
        (-1.0, 1 / 360, "default", "window"),
    ])
    def test_diagnostics_name_what_cut_the_series(self, medium, short, beta, T, window, cut):
        s = (short if window == "short" else medium)(beta, 2.0)
        r = s.price(contract(T=T), Y0)
        assert r.diagnostics["truncation"] == cut
        assert (r.N_used == len(s.pairs)) == (cut == "window")
        assert set(r.diagnostics) == set(s.diagnostics()) | {"truncation"}


class TestContribution:
    def test_additivity(self, short):
        s = short(-2.0, 2.0)
        c = contract(T=1 / 360)
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs)
        at = pricing.rows_at(Y0, pairs)
        total = pricing.contribution(1, len(pairs), at, g, pricing.decay_factors(pairs, c, 0.0))
        assert total == pytest.approx(value_at(s, c, pairs, Y0), abs=1e-12)

    def test_band_sum_equals_price(self, medium, short):
        # the bands partition the modal terms and the steady part R h(y0) is
        # reported once, so together they add up to the price
        cases = [(short(-2.0, 2.0), 1 / 360, 0.0, [(1, 10), (11, 30), (31, None)])]
        cases += [(get(beta, gamma), T, 5.0, [(1, 3), (4, None)])
                  for get, T in ((medium, 0.5), (short, 1 / 360))
                  for beta, gamma in ((-2.0, 0.0), (-1.0, 2.0))]
        # h(y0) is the panel read; the mesh stencil of h on the mesh meets it
        # within 4.4e-16 (measured on these models)
        for s, T, R, bands in cases:
            r = s.price(contract(T=T, rebate=R), Y0, bands=bands)
            assert r.contributions.steady == R * pricing.rows_at(Y0, s.pairs).h[0]
            h = interpolate(s.mesh, mesh_steady_state(s.particular, s.sl)[0], Y0)
            assert abs(r.contributions.steady - R * h) <= 1e-15 * R
            assert r.contributions.total == pytest.approx(r.price, abs=1e-12)

    def test_bands_report_the_pairs_they_summed(self, medium):
        # the six-month basis keeps 4 pairs: (3, 10) sums pairs 3-4 and reads
        # (3, 4), and (5, 7) sums none and is left out
        s = medium(-1.0, 2.0)
        r = s.price(contract(), Y0, bands=[(1, 2), (3, 10), (5, 7), (2, None)])
        assert r.N_used == 4
        assert [b[:2] for b in r.contributions.bands] == [(1, 2), (3, 4), (2, None)]
        whole = s.price(contract(), Y0, bands=[(1, 2), (3, 4), (2, None)]).contributions
        assert r.contributions == whole
        # numpy integers are integers too, and the report holds Python ints
        i = np.int64
        r64 = s.price(contract(), Y0, bands=[(i(1), i(2)), (i(3), i(10)), (i(5), i(7)), (i(2), None)])
        assert r64.contributions == r.contributions
        assert {type(n) for b in r64.contributions.bands for n in b[:2] if n is not None} == {int}

    def test_band_out_of_range(self, short):
        s = short(-2.0, 2.0)
        c = contract(T=1 / 360)
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs)
        at = pricing.rows_at(Y0, pairs)
        decay = pricing.decay_factors(pairs, c, 0.0)
        with pytest.raises(ValueError, match="band"):
            pricing.contribution(0, 5, at, g, decay)
        with pytest.raises(ValueError, match="band"):
            pricing.contribution(5, 2, at, g, decay)


class TestRebate:
    def test_zero_rebate_reduces_exactly(self, medium):
        # at R = 0 the steady term adds exactly nothing to value and Delta
        s = medium(-1.0, 2.0)
        plain = contract()
        pairs = s.retained_pairs(plain)
        fn = pricing.fourier_coefficients(plain, pairs)
        lam = np.array([p.lam for p in pairs])
        ys = np.linspace(91.0, 119.0, 7)
        phis = pricing.rows_at(ys, pairs).phi
        for t in (0.0, 0.3):
            series = np.tensordot(fn * np.exp(-lam * (plain.T - t)), phis, axes=(0, 0))
            assert np.array_equal(value_at(s, plain, pairs, ys, t), series)
        dphis = pricing.rows_at(Y0, pairs).dphi[:, 0]
        modes = float(np.sum(fn * dphis * np.exp(-lam * plain.T)))
        decay = pricing.decay_factors(pairs, plain, 0.0)
        assert pricing.delta(pricing.rows_at(Y0, pairs), plain, fn, decay) == modes

    def test_steady_state_solves_the_boundary_problem(self, medium):
        # h(L) = 0, h(U) = 1, h' matches differencing, and (p h')' = q h
        s = medium(-2.0, 0.0)
        h, dh = mesh_steady_state(s.particular, s.sl)
        assert h[0] == 0.0 and h[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(derivative_values(s.mesh, h) - dh)) < 1e-10 * np.max(np.abs(dh))
        flux = derivative_values(s.mesh, s.sl.p * dh)[5:-5]
        rhs = (s.sl.q * h)[5:-5]
        assert np.max(np.abs(flux - rhs)) < 1e-10 * np.max(np.abs(rhs))

    def test_consistent_boundary_rebate_smoother(self, short):
        # R = U - K makes the modal part f - R h of the terminal data vanish
        # at U, shrinking the weighted-L2 reconstruction error at maturity
        s = short(-1.0, 2.0)
        c0 = contract()
        cr = contract(rebate=U - 100.0)
        n_keep = 27
        pairs = s.pairs[:n_keep]
        f = pricing.payoff_grid(c0, s.mesh)
        phi, _ = mesh_rows(pairs)
        recon0 = pricing.fourier_coefficients(c0, pairs) @ phi
        err0 = nb.GridFunction(s.mesh, recon0 - f)
        recon_r = pricing.fourier_coefficients(cr, pairs) @ phi
        recon_r = recon_r + cr.rebate * mesh_steady_state(s.particular, s.sl)[0]
        err_r = nb.GridFunction(s.mesh, recon_r - f)
        w = nb.GridFunction(s.mesh, s.sl.w)
        e0 = math.sqrt(inner_product(err0, err0, w))
        er = math.sqrt(inner_product(err_r, err_r, w))
        assert e0 / er >= 5.0

    def test_rebate_against_fd_oracle(self, medium):
        s = medium(-1.0, 2.0)
        c = contract(rebate=5.0)
        r = s.price(c, Y0)
        ref = fd_price(s.spec, c, FDGrid(1601, 800), Y0)
        assert abs(r.price - ref) < 2e-3

    def test_rebate_follows_the_decay_rule(self, medium):
        # a rebate keeps the same pairs as the plain contract
        s = medium(-2.0, 0.0)
        assert s.price(contract(rebate=5.0), Y0).N_used == s.price(contract(), Y0).N_used < len(s.pairs)

    def test_rebate_price_exceeds_plain(self, medium):
        s = medium(-1.0, 2.0)
        plain = s.price(contract(), Y0).price
        with_r = s.price(contract(rebate=5.0), Y0).price
        assert with_r > plain


class TestStackedBasis:
    """The projection on the panel points and the panel read against a per-pair reference.

    The reference reads the basis at every mesh point (mesh_rows), takes each
    coefficient from mesh.inner_product on those rows and each point value
    from its own mesh.stencil over them, one pair at a time, and sums the
    series in the same order.  The solver's quote projects through the
    panels' restriction and reads the panel interpolant at the point itself,
    so it meets the reference within rounding and the stencil's own error,
    not bit for bit.
    """

    @staticmethod
    def coefficients(s, c, phi):
        h = mesh_steady_state(s.particular, s.sl)[0]
        d = nb.GridFunction(s.mesh, pricing.payoff_grid(c, s.mesh) - c.rebate * h)
        w = nb.GridFunction(s.mesh, s.sl.w)
        return np.array([inner_product(d, nb.GridFunction(s.mesh, row), w) / norm_sq
                         for row, norm_sq in zip(phi, s.pairs.norm_sq)])

    @classmethod
    def reference(cls, s, c, y0, t, bands, rows):
        pairs = s.retained_pairs(c, t)
        phi_rows, dphi_rows = (r[: len(pairs)] for r in rows)
        g = cls.coefficients(s, c, phi_rows)
        lam = np.array([p.lam for p in pairs])
        phi = np.array([interpolate(s.mesh, row, [y0]) for row in phi_rows])
        dphi = np.array([interpolate(s.mesh, row, y0) for row in dphi_rows])
        h, dh = (interpolate(s.mesh, v, y0) for v in mesh_steady_state(s.particular, s.sl))
        price = np.tensordot(g * np.exp(-lam * (c.T - t)), phi, axes=(0, 0)) + c.rebate * h
        delta = float(np.sum(g * dphi * np.exp(-lam * (c.T - t)))) + c.rebate * dh
        theta = float(np.sum(g * lam * phi[:, 0] * np.exp(-lam * (c.T - t))))
        bands_out, total = [], c.rebate * h
        for n1, n2 in bands:  # each band over the retained pairs it sums
            if n1 > len(pairs):
                continue
            n2 = n2 if n2 is None else min(n2, len(pairs))
            sel = slice(n1 - 1, len(pairs) if n2 is None else n2)
            val = float(np.sum(g[sel] * phi[sel, 0] * np.exp(-lam[sel] * (c.T - t))))
            bands_out.append((n1, n2, val))
            total += val
        return g, float(price[0]), delta, theta, tuple(bands_out), total

    @classmethod
    def reference_surface(cls, s, c, rows):
        pairs = s.retained_pairs(c, c.T)  # every row keeps the pairs of its last, at t = T
        phi_rows = rows[0][: len(pairs)]
        g = cls.coefficients(s, c, phi_rows)
        lam = np.array([p.lam for p in pairs])
        y_grid = np.linspace(L, U, 41)
        phis = np.array([interpolate(s.mesh, row, y_grid) for row in phi_rows])
        tau = (c.T - np.linspace(0.0, c.T, 5))[:, None]
        h_grid = interpolate(s.mesh, mesh_steady_state(s.particular, s.sl)[0], y_grid)
        return (g * np.exp(-lam * tau)) @ phis + c.rebate * h_grid

    @pytest.mark.parametrize("style", ["call", "put", "custom"])
    @pytest.mark.parametrize("R", [0.0, 5.0])
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_bit_identical_to_per_pair_reference(self, medium, short, horizon, style, R):
        # measured over these cases: coefficients within 7.3e-16 of the
        # largest |g_n|; price, Delta, Theta and bands, whose reference reads
        # the mesh rows through mesh.stencil, within 2.0e-15 of their term
        # mass, sum |term| (+ R |h|), which bounds the stencil's own error
        # here; surfaces within 1.5e-15 of their sup
        s, T = (medium(-1.0, 2.0), 0.5) if horizon == "six-month" else (short(-2.0, 2.0), 1 / 360)
        payoff = nb.GridFunction(s.mesh, np.sin(s.mesh.points / 7.0) ** 2 * (s.mesh.points - L))
        c = nb.OptionContract(style, L, U, T, None if style == "custom" else 101.5, rebate=R,
                              payoff=payoff if style == "custom" else None)
        bands = [(1, 2), (3, 10), (11, None)]
        rows = mesh_rows(s.pairs)
        for y0, t in ((float(s.mesh.points[3337]), 0.0), (101.2345678, 0.3 * T),
                      (101.2345678, 0.95 * T), (L, 0.0), (U, 0.0)):
            g, price, delta, theta, bands_ref, total = self.reference(s, c, y0, t, bands, rows)
            pairs = s.retained_pairs(c, t)
            got = pricing.fourier_coefficients(c, pairs)
            assert np.max(np.abs(got - g)) <= 1e-15 * np.max(np.abs(g))
            r = s.price(c, y0, greeks=True, bands=bands, t=t)
            assert r.N_used == len(g)
            at = pricing.rows_at(y0, pairs)
            terms = g * pricing.decay_factors(pairs, c, t)
            mass = [np.sum(np.abs(terms * at.phi[:, 0])) + R * abs(at.h[0]),
                    np.sum(np.abs(terms * at.dphi[:, 0])) + R * abs(at.dh[0]),
                    np.sum(np.abs(terms * pairs.lam * at.phi[:, 0]))]
            for x, want, m in zip((r.price, r.delta, r.theta), (price, delta, theta), mass):
                assert abs(x - want) <= 4e-15 * m
            assert [b[:2] for b in r.contributions.bands] == [b[:2] for b in bands_ref]
            for (*_, x), (*_, want) in zip(r.contributions.bands, bands_ref):
                assert abs(x - want) <= 4e-15 * mass[0]
            assert abs(r.contributions.total - total) <= 4e-15 * mass[0]
        surface = self.reference_surface(s, c, rows)
        got = s.surface(c, t_count=5, y_count=41)[2]
        assert np.max(np.abs(got - surface)) <= 4e-15 * np.max(np.abs(surface))

    def test_one_day_quote_allocates_one_block_and_a_few_vectors(self, short):
        # a few mesh vectors (the payoff and its weighting) and O(N x
        # points) blocks at the panel points; no (N, M) array, which would
        # take 4.5 MB.  Measured: 0.30 MB, 3.7 mesh vectors
        s = short(-2.0, 2.0)
        c = contract(T=1 / 360, rebate=5.0)
        quote = lambda: s.price(c, Y0, greeks=True, bands=[(1, 2), (3, 10), (11, None)])
        quote()
        tracemalloc.start()
        try:
            quote()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, points = len(s.pairs), s.pairs.panels.points.size
        assert peak <= 5 * s.mesh.M * 8 + n * points * 8

    def test_surface_read_stays_stencil_sized(self, short):
        # a surface reads phi and phi' at y_count points one panel at a time:
        # the rows, 2 x N x y_count floats, and one panel's products, not 26
        # panel points per point and pair at once (which would take 47 MB).
        # Measured at y_count=2001: 4.7 MB, 2.65 x 2 x N x y_count floats; the
        # six-point mesh stencil it replaced took 12.8 MB
        s = short(-2.0, 3.0)
        c = contract(T=1 / 360)
        surface = lambda: s.surface(c, t_count=11, y_count=2001)
        surface()
        tracemalloc.start()
        try:
            surface()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2 * len(s.pairs) * 2001 * 8

    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_point_read_bits_do_not_depend_on_the_batch(self, medium, short, horizon):
        # each value read is numpy's fixed-order sum over its own panel's
        # points: a leading slice reads its pairs to the whole basis's bits,
        # and one point of a grid read to the bits of a read at that point alone
        basis = (medium if horizon == "six-month" else short)(-2.0, 3.0).pairs
        grid = np.linspace(L, U, 301)
        fields = ("phi", "dphi", "h", "dh")
        for y in (100.0, 101.2345, 93.7, grid):
            whole = pricing.rows_at(y, basis)
            for k in range(1, len(basis) + 1):
                part = pricing.rows_at(y, basis[:k])
                for name in fields:
                    want = getattr(whole, name)
                    assert np.array_equal(getattr(part, name), want[:k] if want.ndim == 2 else want)
        whole = pricing.rows_at(grid, basis)
        for j, y in enumerate(grid):
            one = pricing.rows_at(y, basis)
            for name in fields:
                assert np.array_equal(getattr(one, name), getattr(whole, name)[..., j : j + 1])

    @pytest.mark.parametrize("rows", [1, 3, 8, 64])
    def test_projection_bits_do_not_depend_on_the_chunk_height(self, short, rows):
        # a leading slice of any height projects its pairs to the bits of the
        # whole basis: each g_n is numpy's pairwise sum along its own row of
        # panel-point values (a BLAS matrix-vector product is not)
        s = short(-2.0, 2.0)
        for c in (contract(T=1 / 360), contract("put", K=104.3, T=1 / 360, rebate=5.0)):
            whole = pricing.fourier_coefficients(c, s.pairs)
            assert np.array_equal(pricing.fourier_coefficients(c, s.pairs[:rows]), whole[:rows])

    def test_pairs_are_views_of_the_stacked_rows(self, medium, short):
        for s in (medium(-1.0, 2.0), short(-2.0, 2.0)):
            basis = s.pairs
            n, points = len(basis), basis.panels.points.size
            assert basis.nodes.shape == (2, n, points) and basis.nodes.flags.c_contiguous
            for i, p in enumerate(basis):
                assert p.n == i + 1
                assert (p.omega, p.lam, p.norm_sq, p.boundary_residual, p.slope) == (
                    basis.omega[i], basis.lam[i], basis.norm_sq[i], basis.boundary_residual[i],
                    basis.slope[i])
            for stop in (1, min(13, n), n, n + 5):
                part = basis[:stop]
                assert part.panels is basis.panels and part.mesh is basis.mesh
                assert np.shares_memory(part.nodes, basis.nodes)
                assert np.array_equal(part.nodes, basis.nodes[:, :stop])
                assert part.nodes.shape == (2, len(part), points)
                assert len(part) == min(stop, n) and np.array_equal(part.lam, basis.lam[:stop])
                for family in part.nodes:  # phi and phi' rows read as C-contiguous blocks
                    assert family.flags.c_contiguous
                last = part[-1]
                assert (last.n, last.omega) == (len(part), basis.omega[len(part) - 1])
            for bad in (slice(3, 9), slice(None, None, 2)):
                with pytest.raises(ValueError, match="leading"):
                    basis[bad]
