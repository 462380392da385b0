import math
import tracemalloc

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.coefficients import (
    EDGE_FRACTION,
    PLATEAU_RESIDUAL_MAX,
    _Recurrence,
    build_nsbf_coefficients,
    compute_G2,
    compute_h_tilde,
    initial_coefficients,
    recover_row,
)
from nsbf_pricer.mesh import build_mesh
from nsbf_pricer.model import build_sl_coefficients
from nsbf_pricer.spps import build_formal_powers, solve_particular

from dual_routes import (
    LegendreTable,
    compute_G2_unintegrated,
    direct_alpha,
    formal_power_table,
    recurrence_reference,
)


def build_coeffs(sl, order=None):
    sol = solve_particular(sl)
    powers = build_formal_powers(sol, sl)
    return sol, powers, build_nsbf_coefficients(sl, sol, powers, order=order)


def seed_rows(c, sol, n_edge):
    """((A0, A1), (B0, B1)), both families' scaled orders 0 and 1, as the build seeds them."""
    powers = build_formal_powers(sol, c)
    G2, h_tilde = compute_G2(c), compute_h_tilde(sol, c)
    return initial_coefficients(sol, c, powers, G2, h_tilde, n_edge)


def scaled_rows(s, top):
    """A_0..A_top and B_0..B_top of a solve, from the seed rows and the recurrence step.

    The build keeps only the recovered rows alpha_n = A_n / l^n and
    beta_n = B_n / l^n; this rebuilds the scaled rows it divided.  Returns
    (A, B, n_edge).
    """
    c, sol = s.sl, s.particular
    n_edge = int(round(EDGE_FRACTION * (c.mesh.M - 1))) + 1
    A, B = map(list, seed_rows(c, sol, n_edge))
    recurrence = _Recurrence(c, sol)
    for n in range(2, top + 1):
        A_n, B_n = recurrence.step(n, A[n - 2], B[n - 2])
        A.append(A_n)
        B.append(B_n)
    return A, B, n_edge


class TestG2:
    def test_degenerate_zero(self, flat_sl):
        g2 = compute_G2(flat_sl)
        assert np.max(np.abs(g2)) < 1e-14

    def test_vanishes_at_left(self, medium):
        s = medium(-1.0, 2.0)
        assert compute_G2(s.sl)[0] == 0.0

    def test_two_forms_agree(self, medium):
        s = medium(-1.0, 2.0)
        a = compute_G2(s.sl)
        b = compute_G2_unintegrated(s.sl)
        assert np.max(np.abs(a - b)) < 1e-7


class TestHTilde:
    def test_flat_zero(self, flat_sl):
        sol = solve_particular(flat_sl)
        assert compute_h_tilde(sol, flat_sl) == 0.0

    def test_zero_q_reduces_to_rho_slope(self, medium):
        # with q = 0 the particular solution is constant and only rho' contributes
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=0.0, b=0.0, c=0.0, rbar=0.0))
        sl = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
        sol = solve_particular(sl)
        expected = math.sqrt(sl.p[0] / sl.w[0]) * (
            sl.rho_prime[0] / sl.rho[0]
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
        (A0, A1), (B0, B1) = seed_rows(flat_sl, sol, n_edge=51)
        l = flat_sl.l
        alpha1, beta1 = (recover_row(row, l, 1, 51) for row in (A1, B1))
        for arr in (A0, A1, B0, B1, alpha1, beta1):
            assert np.max(np.abs(arr)) < 1e-11

    def test_build_recovers_orders_one_from_the_seed_rows(self, medium):
        # orders 0 and 1 of the build are the seed rows, and recover_row of
        # A1 and B1 gives alpha1 and beta1 bit for bit
        s = medium(-1.0, 2.0)
        c, sol = s.sl, s.particular
        n_edge = int(round(EDGE_FRACTION * (c.mesh.M - 1))) + 1
        (A0, A1), (B0, B1) = seed_rows(c, sol, n_edge)
        l = c.l
        assert np.array_equal(s.coeffs.alpha[0], A0)
        assert np.array_equal(s.coeffs.beta[0], B0)
        assert np.array_equal(s.coeffs.alpha[1], recover_row(A1, l, 1, n_edge))
        assert np.array_equal(s.coeffs.beta[1], recover_row(B1, l, 1, n_edge))

    def test_b1_matches_direct_display_away_from_left(self, medium):
        # the assembled B1 and the raw beta1 display agree where l is not tiny
        s = medium(-1.0, 2.0)
        c, sol = s.sl, s.particular
        powers = build_formal_powers(sol, c)
        g2 = compute_G2(c)
        _, (_, B1) = initial_coefficients(sol, c, powers, g2, compute_h_tilde(sol, c), n_edge=101)
        l, rho, rho_p = c.l, c.rho, c.rho_prime
        p, w = c.p, c.w
        g, g_p = sol.g, sol.g_prime
        sel = slice(1000, None)
        phi1 = powers.Phi1
        alpha1 = 1.5 * (phi1[sel] / l[sel] - 1.0 / rho[sel])
        phi1_p = g_p * powers.Y1 + 1.0 / (g * p)
        alpha1_p = 1.5 * (
            (phi1_p[sel] * l[sel] - phi1[sel] * np.sqrt(w / p)[sel]) / l[sel] ** 2
            + rho_p[sel] / rho[sel] ** 2
        )
        beta1 = (
            alpha1 / l[sel]
            + np.sqrt(p / w)[sel] * (alpha1_p + rho_p[sel] / rho[sel] * alpha1)
            - 1.5 * g2[sel] / rho[sel]
        )
        assert np.max(np.abs(B1[sel] / l[sel] - beta1)) < 1e-9


class TestRecurrence:
    def test_degenerate_all_zero(self, flat_sl):
        # zero up to cumulative-quadrature roundoff (amplified ~1/l^n by the
        # recovery division just beyond the cleanup neighborhood)
        _, _, coeffs = build_coeffs(flat_sl, order=8)
        assert np.max(np.abs(coeffs.alpha)) < 1e-11
        assert np.max(np.abs(coeffs.beta)) < 1e-8

    def test_A2_vanishes_at_left(self, medium):
        A, _, _ = scaled_rows(medium(-1.0, 2.0), 2)
        assert A[2][0] == 0.0

    def test_intermediates_vanish_at_left(self, medium):
        s = medium(-1.0, 2.0)
        A, B, _ = scaled_rows(s, 1)
        *_, theta, eta = recurrence_reference(2, A[0], B[0], s.sl, s.particular)
        assert theta[0] == 0.0
        assert eta[0] == 0.0

    def test_hoisted_factors_leave_every_order_unchanged(self, medium):
        # the per-solve factors keep their expressions, so the public step
        # equals a step that forms every factor itself, and the rows the
        # build kept are the recovered rows of the seed rows and that step
        s = medium(-1.0, 2.0)
        coeffs, l = s.coeffs, s.sl.l
        A, B, n_edge = scaled_rows(s, coeffs.M_trunc)
        assert coeffs.M_beta >= 7
        for n in (2, 3, 7):
            A_ref, B_ref, _, _ = recurrence_reference(n, A[n - 2], B[n - 2], s.sl, s.particular)
            assert np.array_equal(A[n], A_ref)
            assert np.array_equal(B[n], B_ref)
        for n in range(coeffs.M_trunc + 1):
            assert np.array_equal(recover_row(A[n], l, n, n_edge), coeffs.alpha[n])
        for n in range(coeffs.M_beta + 1):
            assert np.array_equal(recover_row(B[n], l, n, n_edge), coeffs.beta[n])

    def test_residual_improves_with_order(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_particular(s.sl)
        powers = build_formal_powers(sol, s.sl)
        coeffs = build_nsbf_coefficients(s.sl, sol, powers, order=30)
        worst = np.nanmax(coeffs.residual_by_order, axis=1)
        assert worst[2] < worst[0]
        assert worst[8] < worst[2]
        assert np.min(worst) < 1e-9



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
        sl = build_sl_coefficients(spec, build_mesh(90, 120, 10001))
        sol = solve_particular(sl)
        powers = build_formal_powers(sol, sl)
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
        powers = build_formal_powers(sol, s.sl)
        coeffs = build_nsbf_coefficients(s.sl, sol, powers, order=30)
        assert max(np.max(r) for r in coeffs.check_residuals) < 1e-6

    def test_truncating_early_is_worse(self, medium):
        s = medium(-1.0, 2.0)
        worst = np.nanmax(s.coeffs.residual_by_order, axis=1)
        assert worst[2] > worst[min(30, len(worst) - 1)]

    def test_check_residuals_at_each_family_order(self, short):
        # the alpha pair is read at alpha's order and the beta pair at beta's
        s = short(-2.0, 0.0)
        coeffs = s.coeffs
        assert coeffs.M_beta < coeffs.M_trunc
        assert coeffs.alpha.shape[0] == coeffs.M_trunc + 1
        assert coeffs.beta.shape[0] == coeffs.M_beta + 1
        sup = [float(np.max(r)) for r in coeffs.check_residuals]
        assert sup[:2] == list(coeffs.residual_by_order[coeffs.M_trunc, :2])
        assert sup[2:] == list(coeffs.residual_by_order[coeffs.M_beta, 2:])
        families = ("alpha_sum", "alpha_alt", "beta_sum", "beta_alt")
        assert [s.diagnostics()[f"identity_residual_{f}"] for f in families] == sup


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
        powers = formal_power_table(sol, flat_sl, K=9)
        table = LegendreTable.build(9)
        with pytest.raises(ValueError):
            direct_alpha(9, table, powers, flat_sl)

    def test_low_orders_match_initials(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_particular(s.sl)
        powers = formal_power_table(sol, s.sl, K=2)
        table = LegendreTable.build(2)
        a0 = direct_alpha(0, table, powers, s.sl)
        assert np.max(np.abs(a0 - s.coeffs.alpha[0])) < 1e-13
        a1 = direct_alpha(1, table, powers, s.sl)
        sel = s.sl.mesh.points > 91.0
        assert np.max(np.abs(a1[sel] - s.coeffs.alpha[1][sel])) < 1e-11

    def test_recurrence_cross_check_n4(self, medium):
        s = medium(-1.0, 2.0)
        sol = solve_particular(s.sl)
        powers = formal_power_table(sol, s.sl, K=4)
        table = LegendreTable.build(4)
        a4 = direct_alpha(4, table, powers, s.sl)
        sel = s.sl.mesh.points >= 90 + 30.0 / 4
        rel = np.abs(a4[sel] - s.coeffs.alpha[4][sel]) / np.max(np.abs(s.coeffs.alpha[4][sel]))
        assert np.max(rel) < 1e-5


# table1-medium's 4 x 3 and table3-short's 2 x 4 (beta, gamma) models
PRESET_MODELS = [("medium", b, g) for b in (0.5, 0.0, -1.0, -2.0) for g in (0.0, 1.0, 2.0)] + [
    ("short", b, g) for b in (-2.0, 1.0) for g in (3.0, 2.0, 1.0, 0.0)
]


def suggested(worst):
    """Earliest order within a factor two of the best, as the order search picks it."""
    return int(np.argmax(worst <= 2.0 * np.min(worst)))


class TestOrderSearch:
    def test_plateau_stop_keeps_the_full_search_order(self, medium, short):
        # each family's order equals the one its own residual curve picks on
        # a run to order 60; beta's is capped at alpha's
        solvers = {"medium": medium, "short": short}
        mismatches = []
        for horizon, beta, gamma in PRESET_MODELS:
            s = solvers[horizon](beta, gamma)
            powers = build_formal_powers(s.particular, s.sl)
            early = s.coeffs
            full = build_nsbf_coefficients(s.sl, s.particular, powers, order=60)
            assert early.order_stop == "plateau"
            assert early.residual_by_order.shape[0] < 25
            by_family = full.residual_by_order.reshape(-1, 2, 2).max(axis=2)
            alpha_order = suggested(by_family[:, 0])
            beta_order = min(suggested(by_family[:, 1]), alpha_order)
            if (early.M_trunc, early.M_beta) != (alpha_order, beta_order):
                mismatches.append(
                    (horizon, beta, gamma, early.M_trunc, early.M_beta, alpha_order, beta_order)
                )
        assert not mismatches

    def test_beta_stops_at_its_own_plateau(self, short):
        # beta's rows end three orders after its best; alpha runs on alone
        coeffs = short(-2.0, 0.0).coeffs
        built = coeffs.residual_by_order
        beta_built = int(np.count_nonzero(~np.isnan(built[:, 2])))
        assert np.all(np.isnan(built[beta_built:, 2:]))
        assert not np.any(np.isnan(built[:, :2]))
        beta_worst = np.max(built[:beta_built, 2:], axis=1)
        assert beta_built - 1 - int(np.argmin(beta_worst)) == 3
        assert beta_built < built.shape[0]

    def test_cap_before_plateau_warns(self, medium):
        s = medium(-1.0, 2.0)
        powers = build_formal_powers(s.particular, s.sl)
        with pytest.warns(UserWarning, match="cap 5"):
            coeffs = build_nsbf_coefficients(s.sl, s.particular, powers, order_cap=5)
        assert coeffs.order_stop == "cap"
        assert coeffs.residual_by_order.shape[0] == 6
        assert coeffs.M_beta <= coeffs.M_trunc <= 5

    def test_explicit_order_is_fixed(self, flat_sl):
        _, _, coeffs = build_coeffs(flat_sl, order=8)
        assert coeffs.order_stop == "fixed"
        assert coeffs.M_trunc == coeffs.M_beta == 8
        assert coeffs.alpha.shape[0] == coeffs.beta.shape[0] == 9
        assert coeffs.residual_by_order.shape[0] == 9
        assert not np.any(np.isnan(coeffs.residual_by_order))

    def test_diagnostics_report_the_stop(self, medium):
        s = medium(-1.0, 2.0)
        diag = s.diagnostics()
        worst = np.max(s.coeffs.residual_by_order[:, :2], axis=1)  # alpha's pair
        assert diag["nsbf_order_stop"] == "plateau"
        assert diag["nsbf_orders_built"] == worst.size
        assert diag["nsbf_plateau_residual"] == float(np.min(worst))
        assert worst[diag["nsbf_order"]] <= 2.0 * diag["nsbf_plateau_residual"]
        assert diag["nsbf_beta_order"] == s.coeffs.M_beta <= diag["nsbf_order"]
        res = s.coeffs.check_residuals
        assert diag["identity_residual_beta_sum"] == float(np.max(res[2]))
        assert diag["identity_residual_beta_alt"] == float(np.max(res[3]))

    def test_search_keeps_one_row_per_order_and_family(self, short):
        # the recurrence reads only the scaled rows of orders n-2 and n-1, and
        # each family keeps one recovered row per order; a build that kept the
        # scaled rows and two pointwise residual rows as well peaked near 10
        # rows per order on this model (21 orders)
        s = short(-2.0, 0.0)
        powers = build_formal_powers(s.particular, s.sl)
        tracemalloc.start()
        try:
            coeffs = build_nsbf_coefficients(s.sl, s.particular, powers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        orders = coeffs.residual_by_order.shape[0]
        assert orders >= 15
        assert peak <= 6 * orders * s.mesh.M * 8

    def test_nonconvergent_plateau_raises(self):
        # (beta, gamma) = (-2, 0) on [40, 250]: alpha's residual curve is
        # best at order 0, near 13.5, and a basis built on it priced the
        # six-month call near 5e26 (Crank-Nicolson: 26.93)
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-2.0, gamma=0.0))
        s = nb.DoubleBarrierSolver(spec, 40.0, 250.0)
        with pytest.raises(nb.ConvergenceError, match="plateaued"):
            s.solve()
        # an explicit order skips the search and its bound
        sl = build_sl_coefficients(spec, build_mesh(40.0, 250.0, 10001))
        _, _, coeffs = build_coeffs(sl, order=2)
        assert coeffs.plateau_residual > PLATEAU_RESIDUAL_MAX
