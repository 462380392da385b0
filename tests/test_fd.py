import dataclasses

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.fd import FDGrid, FDSolution, fd_price, solve_pde
from nsbf_pricer.mesh import build_mesh


@pytest.fixture(scope="module")
def spec():
    return nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))


def contract(style="call", K=100.0, rebate=0.0, T=0.5):
    return nb.OptionContract(style=style, L=90.0, U=120.0, T=T, K=K, rebate=rebate)


class TestGridValidation:
    def test_minimums(self):
        with pytest.raises(ValueError):
            FDGrid(y_count=101, t_count=400)
        with pytest.raises(ValueError):
            FDGrid(y_count=401, t_count=100)
        with pytest.raises(ValueError):
            FDGrid(y_count=401, t_count=400, damping_steps=1)

    @pytest.mark.parametrize("name", ["y_count", "t_count", "damping_steps"])
    @pytest.mark.parametrize("value", [801.5, 400.0, "801", None])
    def test_counts_are_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            FDGrid(**{name: value})


class TestModelRead:
    # the oracle reads the model through model.sample, as the solve does
    @pytest.mark.parametrize("error, name, bad", [
        (nb.PositivityError, "sigma", lambda y: np.full_like(y, -0.25)),
        (nb.NonFiniteParameter, "hazard", lambda y: np.where(y > 110.0, np.nan, 0.02)),
    ])
    def test_bad_callable_refused(self, spec, error, name, bad):
        with pytest.raises(error, match=rf"{name}\(y\) = "):
            fd_price(dataclasses.replace(spec, **{name: bad}), contract(), FDGrid(), 100.0)


class TestSolve:
    def test_zero_payoff(self, spec):
        mesh = build_mesh(90, 120, 201)
        zero = nb.GridFunction(mesh, np.zeros(mesh.M))
        c = nb.OptionContract(style="custom", L=90.0, U=120.0, T=0.5, payoff=zero)
        sol = solve_pde(spec, c, FDGrid(401, 200))
        assert np.max(np.abs(sol.values)) == 0.0

    def test_terminal_row_is_payoff(self, spec):
        sol = solve_pde(spec, contract(), FDGrid(401, 200))
        assert sol.values[-1][200] == pytest.approx(max(sol.y[200] - 100.0, 0.0))

    def test_discrete_maximum_principle(self, spec):
        sol = solve_pde(spec, contract(), FDGrid(801, 400))
        assert np.min(sol.values) > -1e-10
        assert np.max(sol.values) <= 20.0 + 1e-9

    def test_boundary_rows(self, spec):
        sol = solve_pde(spec, contract(rebate=3.0), FDGrid(401, 200))
        assert np.all(sol.values[:, 0] == 0.0)
        assert np.all(sol.values[:-1, -1] == 3.0)

    def test_second_order_convergence(self, spec):
        # smooth compatible payoff so the observed order is clean
        mesh = build_mesh(90, 120, 501)
        bump = np.sin(np.pi * (mesh.points - 90.0) / 30.0) ** 2 * 10.0
        c = nb.OptionContract(
            style="custom", L=90.0, U=120.0, T=0.5,
            payoff=nb.GridFunction(mesh, bump),
        )
        vals = [fd_price(spec, c, FDGrid(n_y, n_t), 101.7)
                for n_y, n_t in ((201, 200), (401, 400), (801, 800))]
        order = np.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
        assert 1.7 <= order <= 2.2

    def test_instability_detected(self, spec):
        # negative kill rate with zero net drift grows like exp(80 t)
        bad = nb.DiffusionSpec(
            sigma=spec.sigma,
            rbar=lambda y: np.full_like(np.asarray(y, float), -80.0),
            qbar=lambda y: np.full_like(np.asarray(y, float), -80.0),
            hazard=lambda y: np.zeros_like(np.asarray(y, float)),
        )
        with pytest.raises(nb.InstabilityError):
            solve_pde(bad, contract(), FDGrid(201, 200, damping_steps=2))

    def test_at_interpolates(self, spec):
        sol = solve_pde(spec, contract(), FDGrid(801, 400))
        assert isinstance(sol, FDSolution)
        v = sol.at(100.0, 0.0)
        assert 0.5 < v < 3.0
