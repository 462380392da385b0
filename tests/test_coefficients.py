import math

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.coefficients import (
    EDGE_FRACTION,
    build_nsbf_coefficients,
    compute_G2,
    compute_h_tilde,
    recover_row,
    recurrence_step,
)
from nsbf_pricer.spps import build_formal_powers, solve_particular

from dual_routes import (
    LegendreTable,
    compute_G2_unintegrated,
    direct_alpha,
    recurrence_reference,
)


def build_coeffs(sl, order=None, with_beta=True, K=1):
    sol = solve_particular(sl)
    powers = build_formal_powers(sol, sl, K=K)
    return sol, powers, build_nsbf_coefficients(sl, sol, powers, order=order, with_beta=with_beta)


class TestG2:
    def test_degenerate_zero(self, flat_sl):
        g2 = compute_G2(flat_sl).values
        assert np.max(np.abs(g2)) < 1e-14

    def test_vanishes_at_left(self, medium):
        s = medium(-1.0, 2.0)
        assert compute_G2(s.sl).values[0] == 0.0

    def test_two_forms_agree(self, medium):
        s = medium(-1.0, 2.0)
        a = compute_G2(s.sl).values
        b = compute_G2_unintegrated(s.sl).values
        assert np.max(np.abs(a - b)) < 1e-7


class TestHTilde:
    def test_flat_zero(self, flat_sl):
        sol = solve_particular(flat_sl)
        assert compute_h_tilde(sol, flat_sl) == 0.0

    def test_zero_q_reduces_to_rho_slope(self, medium):
        # with q = 0 the particular solution is constant and only rho' contributes
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=0.0, b=0.0, c=0.0, rbar=0.0))
        sl = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 1001))
        sol = solve_particular(sl)
        expected = math.sqrt(sl.p.values[0] / sl.w.values[0]) * (
            sl.rho_prime.values[0] / sl.rho.values[0]
        )
        assert compute_h_tilde(sol, sl) == pytest.approx(expected, rel=1e-14)

    def test_validated_by_alternating_identity(self, medium):
        s = medium(-1.0, 2.0)
        res = s.coeffs.check_residuals[1]
        assert np.max(res) < 1e-6


class TestInitialCoefficients:
    def test_alpha0_zero_for_flat(self, flat_sl):
        _, _, coeffs = build_coeffs(flat_sl, order=4)
        assert np.max(np.abs(coeffs.alpha[0])) < 1e-14

    def test_beta0_zero_for_flat(self, flat_sl):
        _, _, coeffs = build_coeffs(flat_sl, order=4)
        assert np.max(np.abs(coeffs.beta[0])) < 1e-14

    def test_alpha1_finite_and_vanishing_near_left(self, medium):
        s = medium(-1.0, 2.0)
        a1 = s.coeffs.alpha[1]
        assert np.all(np.isfinite(a1))
        assert a1[0] == 0.0
        # crescent behavior: the first ten kept values stay below the interior scale
        scale = np.max(np.abs(a1))
        assert np.max(np.abs(a1[:10])) < 0.05 * scale


class TestInitialOp:
    def test_flat_all_zero(self, flat_sl):
        sol = solve_particular(flat_sl)
        powers = build_formal_powers(sol, flat_sl, K=1)
        init = nb.initial_coefficients(
            sol, flat_sl, powers, compute_G2(flat_sl).values,
            compute_h_tilde(sol, flat_sl), n_edge=51,
        )
        l = flat_sl.l.values
        alpha1, beta1 = (recover_row(row, l, 1, 51) for row in (init.A1, init.B1))
        for arr in (init.A0, init.A1, init.B0, init.B1, alpha1, beta1):
            assert np.max(np.abs(arr)) < 1e-11

    def test_build_recovers_orders_one_from_the_seed_rows(self, medium):
        # orders 0 and 1 of the build are the seed rows, and recover_row of
        # A1 and B1 gives alpha1 and beta1 bit for bit
        s = medium(-1.0, 2.0)
        c, sol = s.sl, s.particular
        n_edge = int(round(EDGE_FRACTION * (c.mesh.M - 1))) + 1
        powers = build_formal_powers(sol, c, K=1)
        init = nb.initial_coefficients(
            sol, c, powers, compute_G2(c).values, compute_h_tilde(sol, c), n_edge
        )
        l = c.l.values
        assert np.array_equal(s.coeffs.A[0], init.A0) and np.array_equal(s.coeffs.A[1], init.A1)
        assert np.array_equal(s.coeffs.B[0], init.B0) and np.array_equal(s.coeffs.B[1], init.B1)
        assert np.array_equal(s.coeffs.alpha[0], init.A0)
        assert np.array_equal(s.coeffs.beta[0], init.B0)
        assert np.array_equal(s.coeffs.alpha[1], recover_row(init.A1, l, 1, n_edge))
        assert np.array_equal(s.coeffs.beta[1], recover_row(init.B1, l, 1, n_edge))

    def test_b1_matches_direct_display_away_from_left(self, medium):
        # the assembled B1 and the raw beta1 display agree where l is not tiny
        s = medium(-1.0, 2.0)
        c, sol = s.sl, s.particular
        powers = build_formal_powers(sol, c, K=1)
        g2 = compute_G2(c).values
        init = nb.initial_coefficients(sol, c, powers, g2, compute_h_tilde(sol, c), n_edge=101)
        l, rho, rho_p = c.l.values, c.rho.values, c.rho_prime.values
        p, w = c.p.values, c.w.values
        g, g_p = sol.g.values, sol.g_prime.values
        sel = slice(1000, None)
        phi1 = powers.Phi[1]
        alpha1 = 1.5 * (phi1[sel] / l[sel] - 1.0 / rho[sel])
        phi1_p = g_p * powers.Y[1] + 1.0 / (g * p)
        alpha1_p = 1.5 * (
            (phi1_p[sel] * l[sel] - phi1[sel] * np.sqrt(w / p)[sel]) / l[sel] ** 2
            + rho_p[sel] / rho[sel] ** 2
        )
        beta1 = (
            alpha1 / l[sel]
            + np.sqrt(p / w)[sel] * (alpha1_p + rho_p[sel] / rho[sel] * alpha1)
            - 1.5 * g2[sel] / rho[sel]
        )
        assert np.max(np.abs(init.B1[sel] / l[sel] - beta1)) < 1e-9


class TestRecurrence:
    def test_degenerate_all_zero(self, flat_sl):
        # zero up to cumulative-quadrature roundoff (amplified ~1/l^n by the
        # recovery division just beyond the cleanup neighborhood)
        _, _, coeffs = build_coeffs(flat_sl, order=8)
        assert np.max(np.abs(coeffs.alpha)) < 1e-11
        assert np.max(np.abs(coeffs.beta)) < 1e-8

    def test_A2_vanishes_at_left(self, medium):
        s = medium(-1.0, 2.0)
        assert s.coeffs.A[2][0] == 0.0

    def test_intermediates_vanish_at_left(self, medium):
        s = medium(-1.0, 2.0)
        *_, theta, eta = recurrence_reference(
            2, s.coeffs.A[0], s.coeffs.B[0], s.sl, s.particular
        )
        assert theta[0] == 0.0
        assert eta[0] == 0.0

    def test_hoisted_factors_leave_every_order_unchanged(self, medium):
        # the per-solve factors keep their expressions, so the built orders
        # and the public step equal a step that forms every factor itself
        s = medium(-1.0, 2.0)
        for n in (2, 3, 7):
            args = (n, s.coeffs.A[n - 2], s.coeffs.B[n - 2], s.sl, s.particular)
            A_ref, B_ref, _, _ = recurrence_reference(*args)
            A_n, B_n = recurrence_step(*args)
            for got in (A_n, s.coeffs.A[n]):
                assert np.array_equal(got, A_ref)
            for got in (B_n, s.coeffs.B[n]):
                assert np.array_equal(got, B_ref)

    def test_residual_improves_with_order(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_particular(s.sl)
        powers = build_formal_powers(sol, s.sl, K=1)
        coeffs = build_nsbf_coefficients(s.sl, sol, powers, order=30)
        worst = np.nanmax(coeffs.residual_by_order, axis=1)
        assert worst[2] < worst[0]
        assert worst[8] < worst[2]
        assert np.min(worst) < 1e-9

    def test_requires_n_at_least_two(self, medium):
        s = medium(-1.0, 2.0)
        with pytest.raises(ValueError):
            recurrence_step(1, s.coeffs.A[0], None, s.sl, s.particular)


class TestRecovery:
    def test_order_zero_untouched(self):
        l = np.linspace(0, 2, 11)
        row = np.sin(l) + 1.0
        assert np.array_equal(recover_row(row, l, 0, 4), row)

    def test_division_and_cleanup(self):
        l = np.linspace(0, 2, 101)
        true_alpha = 0.3 * l**2 + 0.1 * l**3
        A = true_alpha * l**2
        A_noisy = A + 1e-17 * np.random.default_rng(7).standard_normal(101)
        rec = recover_row(A_noisy, l, 2, 10)
        assert np.all(np.isfinite(rec))
        assert np.max(np.abs(rec[20:] - true_alpha[20:])) < 1e-10

    def test_high_order_finite_beta_positive_elasticity(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=1.0, gamma=1.0))
        sl = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 10001))
        sol = solve_particular(sl)
        powers = build_formal_powers(sol, sl, K=1)
        coeffs = build_nsbf_coefficients(sl, sol, powers, order=20)
        assert np.all(np.isfinite(coeffs.alpha[20]))
        assert np.all(np.isfinite(coeffs.beta[20]))


class TestIdentities:
    def test_flat_identities_zero(self, flat_sl):
        _, _, coeffs = build_coeffs(flat_sl, order=6)
        for res in coeffs.check_residuals:
            assert np.max(res) < 1e-8

    def test_ejdcev_below_tolerance_at_order_30(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_particular(s.sl)
        powers = build_formal_powers(sol, s.sl, K=1)
        coeffs = build_nsbf_coefficients(s.sl, sol, powers, order=30)
        assert coeffs.max_residual < 1e-6

    def test_truncating_early_is_worse(self, medium):
        s = medium(-1.0, 2.0)
        worst = np.nanmax(s.coeffs.residual_by_order, axis=1)
        assert worst[2] > worst[min(30, len(worst) - 1)]

    def test_price_only_path_skips_beta(self, flat_sl):
        _, _, coeffs = build_coeffs(flat_sl, order=4, with_beta=False)
        assert coeffs.beta is None and coeffs.B is None
        assert coeffs.check_residuals[2] is None


class TestLegendreTable:
    def test_leading_coefficients(self):
        table = LegendreTable.build(8).l_coeffs
        for n in range(9):
            expected = math.factorial(2 * n) / (2**n * math.factorial(n) ** 2)
            assert table[n, n] == pytest.approx(expected, rel=1e-14)

    def test_parity_zeros(self):
        table = LegendreTable.build(8).l_coeffs
        for n in range(9):
            for k in range(n + 1):
                if (n - k) % 2 == 1:
                    assert table[k, n] == 0.0

    def test_known_polynomials(self):
        table = LegendreTable.build(4).l_coeffs
        assert table[:3, 2] == pytest.approx([-0.5, 0.0, 1.5])
        assert table[:5, 4] == pytest.approx([3.0 / 8, 0.0, -30.0 / 8, 0.0, 35.0 / 8])


class TestDirectAlpha:
    def test_order_limits(self, flat_sl):
        sol = solve_particular(flat_sl)
        powers = build_formal_powers(sol, flat_sl, K=9)
        table = LegendreTable.build(9)
        with pytest.raises(ValueError):
            direct_alpha(9, table, powers, flat_sl)

    def test_low_orders_match_initials(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_particular(s.sl)
        powers = build_formal_powers(sol, s.sl, K=2)
        table = LegendreTable.build(2)
        a0 = direct_alpha(0, table, powers, s.sl).values
        assert np.max(np.abs(a0 - s.coeffs.alpha[0])) < 1e-13
        a1 = direct_alpha(1, table, powers, s.sl).values
        sel = s.sl.mesh.points > 91.0
        assert np.max(np.abs(a1[sel] - s.coeffs.alpha[1][sel])) < 1e-11

    def test_recurrence_cross_check_n4(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_particular(s.sl)
        powers = build_formal_powers(sol, s.sl, K=4)
        table = LegendreTable.build(4)
        a4 = direct_alpha(4, table, powers, s.sl).values
        sel = s.sl.mesh.points >= 90 + 30.0 / 4
        rel = np.abs(a4[sel] - s.coeffs.alpha[4][sel]) / np.max(np.abs(s.coeffs.alpha[4][sel]))
        assert np.max(rel) < 1e-5


# table1-medium's 4 x 3 and table3-short's 2 x 4 (beta, gamma) models
PRESET_MODELS = [("medium", b, g) for b in (0.5, 0.0, -1.0, -2.0) for g in (0.0, 1.0, 2.0)] + [
    ("short", b, g) for b in (-2.0, 1.0) for g in (3.0, 2.0, 1.0, 0.0)
]


class TestOrderSearch:
    def test_plateau_stop_keeps_the_full_search_order(self, medium, short):
        solvers = {"medium": medium, "short": short}
        mismatches = []
        for horizon, beta, gamma in PRESET_MODELS:
            s = solvers[horizon](beta, gamma)
            powers = build_formal_powers(s.particular, s.sl, K=1)
            for with_beta in (True, False):
                if with_beta:
                    early = s.coeffs
                else:
                    early = build_nsbf_coefficients(s.sl, s.particular, powers, with_beta=False)
                full = build_nsbf_coefficients(
                    s.sl, s.particular, powers, order=60, with_beta=with_beta
                )
                assert early.order_stop == "plateau"
                assert early.residual_by_order.shape[0] < 25
                if early.M_trunc != full.suggested_order:
                    mismatches.append((horizon, beta, gamma, with_beta, early.M_trunc, full.suggested_order))
        assert not mismatches

    def test_cap_before_plateau_warns(self, medium):
        s = medium(-1.0, 2.0)
        powers = build_formal_powers(s.particular, s.sl, K=1)
        with pytest.warns(UserWarning, match="cap 5"):
            coeffs = build_nsbf_coefficients(s.sl, s.particular, powers, order_cap=5)
        assert coeffs.order_stop == "cap"
        assert coeffs.residual_by_order.shape[0] == 6
        assert coeffs.M_trunc <= 5

    def test_explicit_order_is_fixed(self, flat_sl):
        _, _, coeffs = build_coeffs(flat_sl, order=8)
        assert coeffs.order_stop == "fixed"
        assert coeffs.M_trunc == 8
        assert coeffs.residual_by_order.shape[0] == 9

    def test_diagnostics_report_the_stop(self, medium):
        s = medium(-1.0, 2.0)
        diag = s.diagnostics()
        worst = np.nanmax(s.coeffs.residual_by_order, axis=1)
        assert diag["nsbf_order_stop"] == "plateau"
        assert diag["nsbf_orders_built"] == worst.size
        assert diag["nsbf_plateau_residual"] == float(np.min(worst))
        assert worst[diag["nsbf_order"]] <= 2.0 * diag["nsbf_plateau_residual"]
