import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.mesh import build_mesh, derivative_values
from nsbf_pricer.model import SLCoefficients
from nsbf_pricer.spps import build_formal_powers, solve_particular

from dual_routes import formal_power_table


class TestParticularSolution:
    def test_zero_q_gives_constant(self, flat_sl):
        sol = solve_particular(flat_sl)
        assert np.allclose(sol.g, 1.0, atol=0, rtol=0)
        assert sol.series_order == 1
        assert np.max(np.abs(sol.g_prime)) == 0.0

    def test_cosh_oracle(self, cosh_sl):
        sol = solve_particular(cosh_sl)
        x = cosh_sl.mesh.points - 1.0
        assert np.max(np.abs(sol.g - np.cosh(x))) < 1e-10
        assert np.max(np.abs(sol.g_prime - np.sinh(x))) < 1e-10
        assert sol.g[0] == pytest.approx(1.0, abs=1e-15)
        assert sol.g_prime[0] == 0.0

    def test_ejdcev_ode_residual(self, medium):
        s = medium(-1.0, 2.0)
        c, sol = s.sl, s.particular
        flux = c.p * sol.g_prime
        residual = derivative_values(c.mesh, flux) - c.q * sol.g
        scale = np.max(np.abs(c.q * sol.g))
        interior = slice(3, -3)
        assert np.max(np.abs(residual[interior])) / scale < 1e-8

    def test_positivity_guard(self):
        mesh = build_mesh(1.0, 2.0, 501)
        ones = np.ones(mesh.M)
        sign_changing = SLCoefficients(
            mesh=mesh,
            p=ones,
            q=-40.0 * ones,  # strongly oscillatory regime
            w=ones,
            l=mesh.points - 1.0,
            rho=ones,
            rho_prime=0.0 * ones,
        )
        with pytest.raises(nb.PositivityError):
            solve_particular(sign_changing)

    def test_no_convergence_error(self, cosh_sl):
        with pytest.raises(nb.ConvergenceError):
            solve_particular(cosh_sl, tol=1e-30, max_terms=2)


class TestFormalPowers:
    def test_first_power_is_row_one_of_the_table(self, cosh_sl, medium):
        # the solve's Y_1, Phi_1 and Phi_1' equal the general table's row 1
        # bit for bit; Phi_1' as the steady state formed it from that row
        s = medium(-1.0, 2.0)
        for c, sol in ((cosh_sl, solve_particular(cosh_sl)), (s.sl, s.particular)):
            first = build_formal_powers(sol, c)
            table = formal_power_table(sol, c, K=3)
            phi1_prime = sol.g_prime * table.Y[1] + 1.0 / (c.p * sol.g)
            assert np.array_equal(first.Y1, table.Y[1])
            assert np.array_equal(first.Phi1, table.Phi[1])
            assert np.array_equal(first.Phi1_prime, phi1_prime)

    def test_phi0_is_g(self, cosh_sl):
        sol = solve_particular(cosh_sl)
        powers = formal_power_table(sol, cosh_sl, K=3)
        assert np.array_equal(powers.Phi[0], sol.g)
        assert np.all(powers.Y[0] == 1.0) and np.all(powers.Ytilde[0] == 1.0)

    def test_powers_reduce_to_monomials(self, flat_sl):
        sol = solve_particular(flat_sl)
        powers = formal_power_table(sol, flat_sl, K=4)
        x = flat_sl.mesh.points - 1.0
        for k in range(1, 5):
            assert np.max(np.abs(powers.Phi[k] - x**k)) < 1e-9

    def test_vanish_at_left(self, cosh_sl):
        sol = solve_particular(cosh_sl)
        powers = formal_power_table(sol, cosh_sl, K=4)
        for k in range(1, 5):
            assert powers.Y[k][0] == 0.0
            assert powers.Ytilde[k][0] == 0.0
            assert powers.Phi[k][0] == 0.0

    def test_cosh_closed_forms(self, cosh_sl):
        # Y1 = tanh, Y2 = sinh^2, Ytilde1 = (x + sinh cosh)/2, Ytilde2 = x tanh
        sol = solve_particular(cosh_sl)
        powers = formal_power_table(sol, cosh_sl, K=2)
        x = cosh_sl.mesh.points - 1.0
        assert np.max(np.abs(powers.Y[1] - np.tanh(x))) < 1e-10
        assert np.max(np.abs(powers.Y[2] - np.sinh(x) ** 2)) < 1e-10
        assert np.max(np.abs(powers.Ytilde[1] - 0.5 * (x + np.sinh(x) * np.cosh(x)))) < 1e-10
        assert np.max(np.abs(powers.Ytilde[2] - x * np.tanh(x))) < 1e-10
