import math

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.mesh import build_mesh
from nsbf_pricer.model import SLCoefficients, build_sl_coefficients, sample

from dual_routes import ConsistencyReport, identity_p_w_q_consistency, interpolate, scale_gauge


def test_delta_pins_spot_volatility():
    # delta * y0^beta = sigma0; a non-positive sigma0 or y0 is refused when
    # the parameters are made (TestParametersOutOfRange)
    assert nb.EJDCEVParams(beta=-1.0, gamma=2.0).delta == pytest.approx(25.0)
    assert nb.EJDCEVParams(beta=0.0, gamma=2.0).delta == pytest.approx(0.25)
    assert nb.EJDCEVParams(beta=0.5, gamma=2.0).delta == pytest.approx(0.025)


class TestParametersOutOfRange:
    # spot volatility and spot must be positive, hazard coefficients
    # non-negative; each violation is named at the boundary
    @pytest.mark.parametrize(
        "name, value", [("sigma0", 0.0), ("sigma0", -0.25), ("y0", 0.0), ("y0", -100.0)]
    )
    def test_non_positive_spot_inputs_rejected(self, name, value):
        with pytest.raises(nb.ParameterOutOfRange, match=f": {name}={value}"):
            nb.EJDCEVParams(beta=-1.0, gamma=2.0, **{name: value})

    @pytest.mark.parametrize("name", ["b", "c"])
    def test_negative_hazard_coefficient_rejected(self, name):
        with pytest.raises(nb.ParameterOutOfRange, match=f": {name}=-0.01"):
            nb.EJDCEVParams(beta=-1.0, gamma=2.0, **{name: -0.01})

    def test_non_numeric_parameter_named(self):
        with pytest.raises(TypeError, match="real numbers: beta, sigma0"):
            nb.EJDCEVParams(beta="abc", gamma=2.0, sigma0="0.25")
        # a JSON true is a bool: refused, not read as 1
        with pytest.raises(TypeError, match="real numbers: beta, b$"):
            nb.EJDCEVParams(beta=True, gamma=2.0, b=False)

    def test_zero_hazard_accepted(self):
        assert nb.EJDCEVParams(beta=-1.0, gamma=2.0, b=0.0, c=0.0).delta == pytest.approx(25.0)

    def test_is_a_config_error_and_a_value_error(self):
        assert issubclass(nb.ParameterOutOfRange, nb.ConfigError)
        assert issubclass(nb.ParameterOutOfRange, ValueError)


class TestNonFiniteInputs:
    # a NaN or infinite input fails at the boundary, naming what is wrong,
    # not deep in the solve
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["beta", "gamma", "b", "c", "rbar", "qbar", "sigma0", "y0"])
    def test_model_parameter_rejected(self, name, value):
        fields = {"beta": -1.0, "gamma": 2.0, name: value}
        with pytest.raises(nb.NonFiniteParameter, match=name):
            nb.ejdcev_spec(nb.EJDCEVParams(**fields))

    @pytest.mark.parametrize("L, U", [(math.nan, 120.0), (-math.inf, 120.0), (90.0, math.inf), (90.0, math.nan)])
    def test_barrier_rejected(self, L, U):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        with pytest.raises(nb.NonFiniteParameter, match="barriers"):
            nb.DoubleBarrierSolver(spec, L, U)

    @pytest.mark.parametrize("L, U", [(120.0, 90.0), (-1.0, 120.0), (0.0, 120.0), (90.0, 90.0)])
    def test_barriers_out_of_order_rejected(self, L, U):
        # the solver refuses them when it is made, not in its first solve
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        with pytest.raises(nb.ParameterOutOfRange, match=f"L={L}, U={U}"):
            nb.DoubleBarrierSolver(spec, L, U)

    def test_is_a_config_error(self):
        assert issubclass(nb.NonFiniteParameter, nb.ConfigError)
        assert issubclass(nb.NonFiniteParameter, ValueError)


def drift(spec, y):
    """Martingale drift rbar - qbar + hazard, read through model.sample as the solve reads it."""
    y = np.asarray(y, dtype=float)
    return sample(spec, "rbar", y) - sample(spec, "qbar", y) + sample(spec, "hazard", y)


class TestDrift:
    def test_gamma_zero_constant_hazard(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=0.0))
        mu = drift(spec, [95.0, 100.0, 110.0])
        assert np.allclose(mu, 0.62)  # 0.1 + 0.02 + 0.5

    def test_zero_drift(self):
        spec = nb.DiffusionSpec(
            sigma=lambda y: np.full_like(np.asarray(y, float), 0.2),
            rbar=lambda y: np.full_like(np.asarray(y, float), 0.03),
            qbar=lambda y: np.full_like(np.asarray(y, float), 0.03),
            hazard=lambda y: np.zeros_like(np.asarray(y, float)),
        )
        assert drift(spec, [100.0])[0] == pytest.approx(0.0)

    def test_ejdcev_plugin(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        mu = drift(spec, [100.0])[0]
        # 0.1 - 0 + 0.02 + 0.5 * 0.25^2
        assert mu == pytest.approx(0.15125, abs=1e-12)


def flat_spec(**given):
    """Constant coefficients returned as arrays of y's shape; a given callable replaces its own."""
    fields = {"sigma": 0.25, "rbar": 0.1, "qbar": 0.0, "hazard": 0.02, **given}
    return nb.DiffusionSpec(**{k: v if callable(v) else (lambda c: lambda y: np.full_like(y, c))(v)
                               for k, v in fields.items()})


def nan_above_110(y):
    return np.where(y > 110.0, np.nan, 0.02)


class TestSample:
    """model.sample is the one reader of a DiffusionSpec's callables."""

    def test_scalar_return_is_broadcast(self):
        y = np.linspace(90.0, 120.0, 7)
        spec = nb.DiffusionSpec(lambda y: 0.25, lambda y: 0.1, lambda y: 0, lambda y: 0)
        out = sample(spec, "sigma", y)
        assert out.shape == y.shape and out.dtype == float and np.all(out == 0.25)

    # each bad callable is named at the first bad y, where it enters the solve
    @pytest.mark.parametrize("error, callables, match", [
        (nb.NonFiniteParameter, {"hazard": nan_above_110}, r"hazard\(y\) = nan at y = 110.001 "),
        (nb.NonFiniteParameter, {"rbar": lambda y: np.full_like(y, np.inf)},
         r"rbar\(y\) = inf at y = 90.0 "),
        (nb.NonFiniteParameter, {"sigma_prime": lambda y: np.full_like(y, np.nan)},
         r"sigma_prime\(y\) = nan at y = 90.0 "),
        (nb.PositivityError, {"sigma": lambda y: y - 100.0},
         r"sigma\(y\) = -10.0 at y = 90.0 .*positive"),
        (nb.PositivityError, {"hazard": lambda y: y - 100.0},
         r"hazard\(y\) = -10.0 at y = 90.0 .*non-negative"),
    ])
    def test_bad_callable_named_by_the_solve(self, error, callables, match):
        with pytest.raises(error, match=match):
            build_sl_coefficients(flat_spec(**callables), build_mesh(90, 120, 10001))

    def test_overflowing_p_named(self):
        # 2 mu / sigma^2 = 10^4: p = exp(int 10^4 / y) overflows past y = 53.68
        with pytest.raises(nb.PositivityError, match="p is not finite from y = 53.68 on"):
            build_sl_coefficients(flat_spec(sigma=0.01, rbar=0.5, hazard=0.0),
                                  build_mesh(50, 250, 10001))

    def test_float_callables_quote_without_vega(self):
        # constant sigma has sigma' = 0, so Vega is undefined, not a TypeError
        floats = nb.DiffusionSpec(lambda y: 0.25, lambda y: 0.1, lambda y: 0.0, lambda y: 0.02)
        call = nb.OptionContract("call", 90.0, 120.0, 0.5, 100.0)
        quotes = [nb.DoubleBarrierSolver(spec, 90.0, 120.0).price(call, 100.0, greeks=True)
                  for spec in (floats, flat_spec())]
        assert quotes[0].vega is None and quotes[0].delta is not None
        assert quotes[0].price == quotes[1].price == pytest.approx(0.979555, abs=5e-7)

    def test_solve_builds_no_grid_function(self, monkeypatch):
        # the samples are checked where they come in; the solve carries plain arrays
        calls = []
        checked = nb.GridFunction.__post_init__
        monkeypatch.setattr(nb.GridFunction, "__post_init__", lambda gf: calls.append(checked(gf)))
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        s = nb.DoubleBarrierSolver(spec, 90.0, 120.0).solve()
        assert calls == []
        arrays = (s.sl.p, s.sl.rho_prime, s.particular.g, s.coeffs.G2)
        assert all(type(a) is np.ndarray for a in arrays)


class TestSLCoefficients:
    def test_p_starts_at_one(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=1.0))
        c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
        assert c.p[0] == 1.0

    def test_liouville_closed_form_beta0(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.0, gamma=1.0))
        mesh = build_mesh(90, 120, 2001)
        c = build_sl_coefficients(spec, mesh)
        exact = math.sqrt(2.0) / 0.25 * np.log(mesh.points / 90.0)
        assert np.max(np.abs(c.l - exact)) < 1e-8

    def test_liouville_linear_beta_minus1(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        mesh = build_mesh(90, 120, 2001)
        c = build_sl_coefficients(spec, mesh)
        exact = math.sqrt(2.0) * (mesh.points - 90.0) / 25.0
        assert np.max(np.abs(c.l - exact)) < 1e-8

    def test_p_closed_form_beta0(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.0, gamma=0.0))
        mesh = build_mesh(90, 120, 2001)
        c = build_sl_coefficients(spec, mesh)
        mu = 0.62
        exact = (mesh.points / 90.0) ** (2.0 * mu / 0.25**2)
        assert np.max(np.abs(c.p - exact) / exact) < 1e-8

    def test_l_increasing_rho_positive(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-2.0, gamma=1.0))
        c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
        assert c.l[0] == 0.0
        assert np.all(np.diff(c.l) > 0)
        assert np.all(c.rho > 0)
        assert np.all(c.q >= 0)

    def test_mesh_insensitivity(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=2.0))
        coarse = build_sl_coefficients(spec, build_mesh(90, 120, 3001))
        fine = build_sl_coefficients(spec, build_mesh(90, 120, 10001))
        ys = np.linspace(90, 120, 301)
        for v_coarse, v_fine in ((coarse.l, fine.l), (coarse.rho, fine.rho)):
            a = interpolate(coarse.mesh, v_coarse, ys)
            b = interpolate(fine.mesh, v_fine, ys)
            assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)) < 1e-6

    def test_sigma_positive_required(self):
        bad = nb.DiffusionSpec(
            sigma=lambda y: np.asarray(y, float) - 100.0,
            rbar=lambda y: np.zeros_like(np.asarray(y, float)),
            qbar=lambda y: np.zeros_like(np.asarray(y, float)),
            hazard=lambda y: np.zeros_like(np.asarray(y, float)),
        )
        with pytest.raises(nb.PositivityError):
            build_sl_coefficients(bad, build_mesh(90, 120, 101))


class TestConsistencyCheck:
    def test_clean_build(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=2.0))
        c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
        report = identity_p_w_q_consistency(c, spec)
        assert isinstance(report, ConsistencyReport)
        assert report.w_residual < 1e-12
        assert report.q_residual < 1e-12

    def test_tampered_w_flagged(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=2.0))
        c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
        bad = SLCoefficients(
            mesh=c.mesh, p=c.p, q=c.q,
            w=c.w * 1.001,
            l=c.l, rho=c.rho, rho_prime=c.rho_prime,
        )
        assert identity_p_w_q_consistency(bad, spec).w_residual > 1e-4


def test_scale_gauge_relations():
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=1.0))
    c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
    scaled = scale_gauge(c, 10.0)
    assert np.allclose(scaled.p, 10.0 * c.p)
    assert np.allclose(scaled.rho, math.sqrt(10.0) * c.rho)
    assert np.allclose(scaled.l, c.l)
    with pytest.raises(ValueError):
        scale_gauge(c, -1.0)


def test_rho_prime_numeric_fallback():
    params = nb.EJDCEVParams(beta=0.5, gamma=1.0)
    with_analytic = nb.ejdcev_spec(params)
    without = nb.DiffusionSpec(
        sigma=with_analytic.sigma, rbar=with_analytic.rbar,
        qbar=with_analytic.qbar, hazard=with_analytic.hazard,
    )
    mesh = build_mesh(90, 120, 2001)
    a = build_sl_coefficients(with_analytic, mesh)
    b = build_sl_coefficients(without, mesh)
    assert np.max(np.abs(a.rho_prime - b.rho_prime)) < 1e-8
