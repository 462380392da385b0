import math

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer import pricing
from nsbf_pricer.fd import FDGrid, fd_price
from nsbf_pricer.mesh import derivative_values, inner_product

L, U, Y0 = 90.0, 120.0, 100.0


def contract(style="call", K=100.0, T=0.5, rebate=0.0):
    return nb.OptionContract(style=style, L=L, U=U, T=T, K=K, rebate=rebate)


class TestContractValidation:
    def test_strike_inside_barriers(self):
        with pytest.raises(ValueError, match="strike"):
            contract(K=80.0)

    def test_custom_needs_payoff(self):
        with pytest.raises(ValueError, match="payoff"):
            nb.OptionContract(style="custom", L=L, U=U, T=0.5)

    def test_positive_maturity(self):
        with pytest.raises(ValueError, match="maturity"):
            contract(T=0.0)


class TestFourierCoefficients:
    def test_zero_payoff_zero_price(self, medium):
        s = medium(-1.0, 2.0)
        zero = nb.GridFunction(s.mesh, np.zeros(s.mesh.M))
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=zero)
        pairs = s.retained_pairs(c)
        assert all(p.f_n == 0.0 for p in pairs)
        assert pricing.value(Y0, 0.0, c, pairs, s.sl) == 0.0

    def test_eigenfunction_payoff_is_delta(self, medium):
        s = medium(-1.0, 2.0)
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=s.pairs[0].phi)
        pairs = pricing.fourier_coefficients(c, s.pairs[:4], s.sl)
        assert pairs[0].f_n == pytest.approx(1.0, abs=1e-8)
        for p in pairs[1:]:
            assert abs(p.f_n) < 1e-8

    def test_call_gibbs_overshoot_at_upper_barrier(self, short):
        # terminal reconstruction of the discontinuous payoff overshoots near U
        s = short(-2.0, 2.0)
        c = contract()
        pairs = pricing.fourier_coefficients(c, s.pairs[:27], s.sl)
        recon = sum(p.f_n * p.phi.values for p in pairs)
        near_u = s.mesh.points > 115.0
        assert np.max(recon[near_u]) > (U - c.K) * 1.02


class TestValue:
    def test_boundary_values_zero(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        for t in (0.0, 0.25, 0.49):
            assert abs(pricing.value(L, t, c, pairs, s.sl)) < 1e-8 * (U - c.K)
            assert abs(pricing.value(U, t, c, pairs, s.sl)) < 1e-8 * (U - c.K)

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
        with pytest.raises(ValueError, match="maturity"):
            pricing.value(Y0, 0.6, c, pairs, s.sl)

    def test_out_of_range_price(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        with pytest.raises(ValueError, match="outside"):
            pricing.value(125.0, 0.0, c, pairs, s.sl)



class TestQuoteInputValidation:
    @pytest.mark.parametrize("y0", [math.nan, math.inf, -math.inf])
    def test_non_finite_spot(self, medium, y0):
        with pytest.raises(nb.NonFiniteSpot):
            medium(-1.0, 2.0).price(contract(), y0)

    @pytest.mark.parametrize("y0", [L - 1e-9, U + 1.0])
    def test_spot_outside_barriers(self, medium, y0):
        with pytest.raises(nb.SpotOutsideBarriers):
            medium(-1.0, 2.0).price(contract(), y0)

    @pytest.mark.parametrize("t", [-0.01, 0.6, math.nan])
    def test_time_outside_horizon(self, medium, t):
        with pytest.raises(nb.TimeOutsideHorizon):
            medium(-1.0, 2.0).price(contract(), Y0, t=t)

    def test_errors_are_value_errors(self, medium):
        with pytest.raises(ValueError):
            medium(-1.0, 2.0).price(contract(), math.nan)
        assert issubclass(nb.InvalidQuoteInput, nb.NSBFError)

    def test_barriers_and_horizon_ends_accepted(self, medium):
        s = medium(-1.0, 2.0)
        assert abs(s.price(contract(), L).price) < 1e-8
        assert abs(s.price(contract(), U, t=0.5).price) < 1e-8


class TestValueSurface:
    def test_consistency_with_point_value(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        t_grid, y_grid, surf = pricing.value_surface(c, pairs, s.sl, t_count=11, y_count=21)
        direct = pricing.value(y_grid[7], t_grid[0], c, pairs, s.sl)
        assert surf[0, 7] == pytest.approx(direct, abs=1e-12)

    def test_interior_bounds_away_from_maturity(self, medium):
        # the terminal slice converges only in the weighted-L2 sense (Gibbs),
        # so the maximum-principle bound is checked away from t = T
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        t_grid, y_grid, surf = pricing.value_surface(c, pairs, s.sl, t_count=101, y_count=101)
        body = surf[t_grid <= 0.9 * c.T]
        assert np.min(body) > -1e-8
        assert np.max(body) < (U - c.K) + 1e-6

    def test_terminal_l2_error_decreases_with_n(self, short):
        s = short(-2.0, 2.0)
        c = contract()
        f = pricing.payoff_grid(c, s.mesh)
        errs = []
        for n in (5, 10, 20, 27):
            pairs = pricing.fourier_coefficients(c, s.pairs[:n], s.sl)
            recon = sum(p.f_n * p.phi.values for p in pairs)
            diff = nb.GridFunction(s.mesh, recon - f.values)
            errs.append(math.sqrt(inner_product(diff, diff, s.sl.w)))
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestGreeks:
    def test_delta_matches_value_fd(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        d = pricing.delta(Y0, c, pairs, s.sl)
        h = (U - L) / 2000.0
        fd = (pricing.value(Y0 + h, 0.0, c, pairs, s.sl)
              - pricing.value(Y0 - h, 0.0, c, pairs, s.sl)) / (2 * h)
        assert abs(d - fd) / abs(fd) < 1e-3

    def test_theta_matches_value_fd(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        th = pricing.theta(Y0, c, pairs, s.sl)
        dt = c.T / 2000.0
        v = [pricing.value(Y0, k * dt, c, pairs, s.sl) for k in range(3)]
        fd = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
        assert abs(th - fd) / abs(fd) < 1e-3

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
        cfg = nb.NumericsConfig(omega_max=90.0, omega_grid_count=600)
        s = nb.DoubleBarrierSolver(spec, L, U, cfg).solve(with_derivatives=False)
        assert len(s.pairs) >= 45
        c = contract()

        def value_n(n):
            pairs = pricing.fourier_coefficients(c, s.pairs[:n], s.sl)
            return pricing.value(Y0, 0.0, c, pairs, s.sl)

        v6, v45 = value_n(6), value_n(45)
        assert abs(v45 - v6) < 1e-4
        gaps = [abs(value_n(n + 5) - value_n(n)) for n in (6, 11, 16)]
        assert gaps[0] < 1e-4 and gaps[2] <= gaps[0]


class TestContribution:
    def test_additivity(self, short):
        s = short(-2.0, 2.0)
        c = contract(T=1 / 360)
        pairs = s.retained_pairs(c)
        total = pricing.contribution(1, len(pairs), Y0, 0.0, c, pairs, s.sl)
        assert total == pytest.approx(pricing.value(Y0, 0.0, c, pairs, s.sl), abs=1e-12)

    def test_band_sum_equals_price(self, medium, short):
        # the bands partition the modal terms and the steady part R h(y0) is
        # reported once, so together they add up to the price
        cases = [(short(-2.0, 2.0), 1 / 360, 0.0, [(1, 10), (11, 30), (31, None)])]
        cases += [(get(beta, gamma), T, 5.0, [(1, 3), (4, None)])
                  for get, T in ((medium, 0.5), (short, 1 / 360))
                  for beta, gamma in ((-2.0, 0.0), (-1.0, 2.0))]
        for s, T, R, bands in cases:
            r = s.price(contract(T=T, rebate=R), Y0, bands=bands)
            assert r.contributions.steady == R * nb.interpolate(s.sl.steady, Y0)
            assert r.contributions.total == pytest.approx(r.price, abs=1e-12)

    def test_band_out_of_range(self, short):
        s = short(-2.0, 2.0)
        c = contract(T=1 / 360)
        pairs = s.retained_pairs(c)
        with pytest.raises(ValueError, match="band"):
            pricing.contribution(0, 5, Y0, 0.0, c, pairs, s.sl)
        with pytest.raises(ValueError, match="band"):
            pricing.contribution(5, 2, Y0, 0.0, c, pairs, s.sl)


class TestRebate:
    def test_zero_rebate_reduces_exactly(self, medium):
        # at R = 0 the steady term adds exactly nothing to value and Delta
        s = medium(-1.0, 2.0)
        plain = contract()
        pairs = s.retained_pairs(plain)
        fn = np.array([p.f_n for p in pairs])
        lam = np.array([p.lam for p in pairs])
        ys = np.linspace(91.0, 119.0, 7)
        phis = np.array([nb.interpolate(p.phi, ys) for p in pairs])
        for t in (0.0, 0.3):
            series = np.tensordot(fn * np.exp(-lam * (plain.T - t)), phis, axes=(0, 0))
            assert np.array_equal(pricing.value(ys, t, plain, pairs, s.sl), series)
        dphis = np.array([nb.interpolate(p.phi_prime, Y0) for p in pairs])
        modes = float(np.sum(fn * dphis * np.exp(-lam * plain.T)))
        assert pricing.delta(Y0, plain, pairs, s.sl) == modes

    def test_steady_state_solves_the_boundary_problem(self, medium):
        # h(L) = 0, h(U) = 1, h' matches differencing, and (p h')' = q h
        s = medium(-2.0, 0.0)
        h, dh = s.sl.steady.values, s.sl.steady_prime.values
        assert h[0] == 0.0 and h[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(derivative_values(s.mesh, h) - dh)) < 1e-10 * np.max(np.abs(dh))
        flux = derivative_values(s.mesh, s.sl.p.values * dh)[5:-5]
        rhs = (s.sl.q.values * h)[5:-5]
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
        pairs0 = pricing.fourier_coefficients(c0, pairs, s.sl)
        recon0 = sum(p.f_n * p.phi.values for p in pairs0)
        err0 = nb.GridFunction(s.mesh, recon0 - f.values)
        pairs_r = pricing.fourier_coefficients(cr, pairs, s.sl)
        recon_r = sum(p.f_n * p.phi.values for p in pairs_r) + cr.rebate * s.sl.steady.values
        err_r = nb.GridFunction(s.mesh, recon_r - f.values)
        e0 = math.sqrt(inner_product(err0, err0, s.sl.w))
        er = math.sqrt(inner_product(err_r, err_r, s.sl.w))
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
