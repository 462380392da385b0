import math

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer import pricing, spectrum
from nsbf_pricer.fd import FDGrid, fd_price
from nsbf_pricer.mesh import derivative_values, inner_product, interpolate_values

L, U, Y0 = 90.0, 120.0, 100.0


def contract(style="call", K=100.0, T=0.5, rebate=0.0):
    return nb.OptionContract(style=style, L=L, U=U, T=T, K=K, rebate=rebate)


def value_at(s, c, pairs, y, t=0.0):
    """Series value of contract c on the given pairs of solver s at (y, t)."""
    g = pricing.fourier_coefficients(c, pairs, s.sl)
    return pricing.value(pricing.rows_at(y, pairs, s.sl), t, c, pairs, g)


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

    # a non-finite T or rebate fails when the contract is built, not as a NaN or 0.0 price
    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_maturity(self, T):
        with pytest.raises(nb.NonFiniteParameter, match="T"):
            contract(T=T)

    @pytest.mark.parametrize("rebate", [math.nan, math.inf])
    def test_non_finite_rebate(self, rebate):
        with pytest.raises(nb.NonFiniteParameter, match="rebate"):
            contract(rebate=rebate)


class TestFourierCoefficients:
    def test_zero_payoff_zero_price(self, medium):
        s = medium(-1.0, 2.0)
        zero = nb.GridFunction(s.mesh, np.zeros(s.mesh.M))
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=zero)
        pairs = s.retained_pairs(c)
        assert np.all(pricing.fourier_coefficients(c, pairs, s.sl) == 0.0)
        assert value_at(s, c, pairs, Y0) == 0.0

    def test_eigenfunction_payoff_is_delta(self, medium):
        s = medium(-1.0, 2.0)
        c = nb.OptionContract(style="custom", L=L, U=U, T=0.5, payoff=s.pairs[0].phi)
        g = pricing.fourier_coefficients(c, s.pairs[:4], s.sl)
        assert g[0] == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(g[1:])) < 1e-8

    def test_call_gibbs_overshoot_at_upper_barrier(self, short):
        # terminal reconstruction of the discontinuous payoff overshoots near U
        s = short(-2.0, 2.0)
        c = contract()
        recon = pricing.fourier_coefficients(c, s.pairs[:27], s.sl) @ np.vstack(s.pairs[:27].phi)
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
        with pytest.raises(ValueError, match="maturity"):
            value_at(s, c, pairs, Y0, 0.6)

    def test_out_of_range_price(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        with pytest.raises(ValueError, match="outside"):
            value_at(s, c, pairs, 125.0)



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
        g = pricing.fourier_coefficients(c, pairs, s.sl)
        t_grid, y_grid, surf = pricing.value_surface(c, pairs, g, s.sl, t_count=11, y_count=21)
        direct = value_at(s, c, pairs, y_grid[7], t_grid[0])
        assert surf[0, 7] == pytest.approx(direct, abs=1e-12)

    def test_interior_bounds_away_from_maturity(self, medium):
        # the terminal slice converges only in the weighted-L2 sense (Gibbs),
        # so the maximum-principle bound is checked away from t = T
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs, s.sl)
        t_grid, y_grid, surf = pricing.value_surface(c, pairs, g, s.sl, t_count=101, y_count=101)
        body = surf[t_grid <= 0.9 * c.T]
        assert np.min(body) > -1e-8
        assert np.max(body) < (U - c.K) + 1e-6

    def test_terminal_l2_error_decreases_with_n(self, short):
        s = short(-2.0, 2.0)
        c = contract()
        f = pricing.payoff_grid(c, s.mesh)
        errs = []
        for n in (5, 10, 20, 27):
            recon = pricing.fourier_coefficients(c, s.pairs[:n], s.sl) @ np.vstack(s.pairs[:n].phi)
            diff = nb.GridFunction(s.mesh, recon - f.values)
            errs.append(math.sqrt(inner_product(diff, diff, s.sl.w)))
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestGreeks:
    def test_delta_matches_value_fd(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs, s.sl)
        d = pricing.delta(pricing.rows_at(Y0, pairs, s.sl), c, pairs, g)
        h = (U - L) / 2000.0
        fd = (value_at(s, c, pairs, Y0 + h) - value_at(s, c, pairs, Y0 - h)) / (2 * h)
        assert abs(d - fd) / abs(fd) < 1e-3

    def test_theta_matches_value_fd(self, medium):
        s = medium(-1.0, 2.0)
        c = contract()
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs, s.sl)
        th = pricing.theta(pricing.rows_at(Y0, pairs, s.sl), c, pairs, g)
        dt = c.T / 2000.0
        v = [value_at(s, c, pairs, Y0, k * dt) for k in range(3)]
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
            return value_at(s, c, s.pairs[:n], Y0)

        v6, v45 = value_n(6), value_n(45)
        assert abs(v45 - v6) < 1e-4
        gaps = [abs(value_n(n + 5) - value_n(n)) for n in (6, 11, 16)]
        assert gaps[0] < 1e-4 and gaps[2] <= gaps[0]


    def test_lambda_cutoff_overrides_the_decay_rule(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        lam = nb.DoubleBarrierSolver(spec, L, U, nb.NumericsConfig(mesh_points=2001)).eigenvalues()
        for cutoff, kept in ((0.5 * (lam[2] + lam[3]), 3), (float(lam[1]), 2), (0.5 * lam[0], 1)):
            cfg = nb.NumericsConfig(mesh_points=2001, lambda_cutoff=cutoff)
            s = nb.DoubleBarrierSolver(spec, L, U, cfg).solve(with_derivatives=False)
            for T in (1 / 360, 0.5, 5.0):
                pairs = s.retained_pairs(contract(T=T))
                assert np.array_equal(pairs.lam, lam[:kept])
                assert s.price(contract(T=T), Y0).N_used == kept


class TestContribution:
    def test_additivity(self, short):
        s = short(-2.0, 2.0)
        c = contract(T=1 / 360)
        pairs = s.retained_pairs(c)
        g = pricing.fourier_coefficients(c, pairs, s.sl)
        total = pricing.contribution(1, len(pairs), pricing.rows_at(Y0, pairs, s.sl), 0.0, c, pairs, g)
        assert total == pytest.approx(value_at(s, c, pairs, Y0), abs=1e-12)

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
        g = pricing.fourier_coefficients(c, pairs, s.sl)
        at = pricing.rows_at(Y0, pairs, s.sl)
        with pytest.raises(ValueError, match="band"):
            pricing.contribution(0, 5, at, 0.0, c, pairs, g)
        with pytest.raises(ValueError, match="band"):
            pricing.contribution(5, 2, at, 0.0, c, pairs, g)


class TestRebate:
    def test_zero_rebate_reduces_exactly(self, medium):
        # at R = 0 the steady term adds exactly nothing to value and Delta
        s = medium(-1.0, 2.0)
        plain = contract()
        pairs = s.retained_pairs(plain)
        fn = pricing.fourier_coefficients(plain, pairs, s.sl)
        lam = np.array([p.lam for p in pairs])
        ys = np.linspace(91.0, 119.0, 7)
        phis = np.array([nb.interpolate(p.phi, ys) for p in pairs])
        for t in (0.0, 0.3):
            series = np.tensordot(fn * np.exp(-lam * (plain.T - t)), phis, axes=(0, 0))
            assert np.array_equal(value_at(s, plain, pairs, ys, t), series)
        dphis = np.array([nb.interpolate(p.phi_prime, Y0) for p in pairs])
        modes = float(np.sum(fn * dphis * np.exp(-lam * plain.T)))
        assert pricing.delta(pricing.rows_at(Y0, pairs, s.sl), plain, pairs, fn) == modes

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
        recon0 = pricing.fourier_coefficients(c0, pairs, s.sl) @ np.vstack(pairs.phi)
        err0 = nb.GridFunction(s.mesh, recon0 - f.values)
        recon_r = pricing.fourier_coefficients(cr, pairs, s.sl) @ np.vstack(pairs.phi) + cr.rebate * s.sl.steady.values
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


class TestStackedBasis:
    """The stacked projection and the shared stencil against a per-pair reference.

    The reference takes each coefficient from mesh.inner_product and each
    point value from mesh.interpolate_values, one pair at a time, and sums
    the series in the same order; the solver's quote must equal it bit for bit.
    """

    @staticmethod
    def reference(s, c, y0, t, bands):
        pairs = s.retained_pairs(c)
        d = nb.GridFunction(s.mesh, pricing.payoff_grid(c, s.mesh).values - c.rebate * s.sl.steady.values)
        g = np.array([inner_product(d, p.phi, s.sl.w) / p.norm_sq for p in pairs])
        lam = np.array([p.lam for p in pairs])
        phi = np.array([interpolate_values(s.mesh, p.phi.values, [y0]) for p in pairs])
        dphi = np.array([interpolate_values(s.mesh, p.phi_prime.values, y0) for p in pairs])
        h = interpolate_values(s.mesh, s.sl.steady.values, y0)
        dh = interpolate_values(s.mesh, s.sl.steady_prime.values, y0)
        price = np.tensordot(g * np.exp(-lam * (c.T - t)), phi, axes=(0, 0)) + c.rebate * h
        delta = float(np.sum(g * dphi * np.exp(-lam * c.T))) + c.rebate * dh
        theta = float(np.sum(g * lam * phi[:, 0] * np.exp(-lam * c.T)))
        rows, total = [], c.rebate * h
        for n1, n2 in bands:
            sel = slice(n1 - 1, len(pairs) if n2 is None else n2)
            val = float(np.sum(g[sel] * phi[sel, 0] * np.exp(-lam[sel] * (c.T - t))))
            rows.append((n1, n2, val))
            total += val
        y_grid = np.linspace(L, U, 41)
        phis = np.array([interpolate_values(s.mesh, p.phi.values, y_grid) for p in pairs])
        tau = (c.T - np.linspace(0.0, c.T, 5))[:, None]
        surface = (g * np.exp(-lam * tau)) @ phis + c.rebate * interpolate_values(s.mesh, s.sl.steady.values, y_grid)
        return g, float(price[0]), delta, theta, tuple(rows), total, surface

    @pytest.mark.parametrize("style", ["call", "put", "custom"])
    @pytest.mark.parametrize("R", [0.0, 5.0])
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_bit_identical_to_per_pair_reference(self, medium, short, horizon, style, R):
        s, T = (medium(-1.0, 2.0), 0.5) if horizon == "six-month" else (short(-2.0, 2.0), 1 / 360)
        payoff = nb.GridFunction(s.mesh, np.sin(s.mesh.points / 7.0) ** 2 * (s.mesh.points - L))
        c = nb.OptionContract(style, L, U, T, None if style == "custom" else 101.5, rebate=R,
                              payoff=payoff if style == "custom" else None)
        bands = [(1, 2), (3, 10), (11, None)]
        pairs = s.retained_pairs(c)
        for y0, t in ((float(s.mesh.points[3337]), 0.0), (101.2345678, 0.3 * T), (L, 0.0), (U, 0.0)):
            g, price, delta, theta, rows, total, surface = self.reference(s, c, y0, t, bands)
            assert np.array_equal(pricing.fourier_coefficients(c, pairs, s.sl), g)
            r = s.price(c, y0, greeks=True, bands=bands, t=t)
            assert (r.price, r.delta, r.theta) == (price, delta, theta)
            assert r.contributions.bands == rows and r.contributions.total == total
        assert np.array_equal(s.surface(c, t_count=5, y_count=41)[2], surface)

    def test_pairs_are_views_of_the_stacked_rows(self, medium, short):
        rows = spectrum.BLOCK_ROWS
        for s in (medium(-1.0, 2.0), short(-2.0, 2.0)):
            basis = s.pairs
            heights = [len(b) for b in basis.phi]
            assert heights == [min(rows, len(basis) - i) for i in range(0, len(basis), rows)]
            assert [b.shape for b in basis.dphi] == [b.shape for b in basis.phi]
            for i, p in enumerate(basis):
                assert np.shares_memory(p.phi.values, basis.phi[i // rows][i % rows])
                assert np.shares_memory(p.phi_prime.values, basis.dphi[i // rows][i % rows])
                assert p.lam == basis.lam[i] and p.norm_sq == basis.norm_sq[i]
            n = len(basis)
            for start, stop in ((0, 1), (0, min(13, n)), (3, min(21, n)), (min(9, n - 1), n)):
                part = basis[start:stop]
                assert np.array_equal(np.vstack(part.phi), np.vstack(basis.phi)[start:stop])
                assert all(np.shares_memory(a, b) for a, b in zip(part.phi, basis.phi[start // rows :]))
                assert part[0] is basis[start] and len(part) == stop - start
