import math

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.mesh import build_mesh
from nsbf_pricer.model import SLCoefficients, build_sl_coefficients, drift_of

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


class TestDrift:
    def test_gamma_zero_constant_hazard(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=0.0))
        mu = drift_of(spec)(np.array([95.0, 100.0, 110.0]))
        assert np.allclose(mu, 0.62)  # 0.1 + 0.02 + 0.5

    def test_zero_drift(self):
        spec = nb.DiffusionSpec(
            sigma=lambda y: np.full_like(np.asarray(y, float), 0.2),
            rbar=lambda y: np.full_like(np.asarray(y, float), 0.03),
            qbar=lambda y: np.full_like(np.asarray(y, float), 0.03),
            hazard=lambda y: np.zeros_like(np.asarray(y, float)),
        )
        assert drift_of(spec)(np.array([100.0]))[0] == pytest.approx(0.0)

    def test_ejdcev_plugin(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        mu = drift_of(spec)(np.array([100.0]))[0]
        # 0.1 - 0 + 0.02 + 0.5 * 0.25^2
        assert mu == pytest.approx(0.15125, abs=1e-12)


class TestSLCoefficients:
    def test_p_starts_at_one(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=1.0))
        c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
        assert c.p.values[0] == 1.0

    def test_liouville_closed_form_beta0(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.0, gamma=1.0))
        mesh = build_mesh(90, 120, 2001)
        c = build_sl_coefficients(spec, mesh)
        exact = math.sqrt(2.0) / 0.25 * np.log(mesh.points / 90.0)
        assert np.max(np.abs(c.l.values - exact)) < 1e-8

    def test_liouville_linear_beta_minus1(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        mesh = build_mesh(90, 120, 2001)
        c = build_sl_coefficients(spec, mesh)
        exact = math.sqrt(2.0) * (mesh.points - 90.0) / 25.0
        assert np.max(np.abs(c.l.values - exact)) < 1e-8

    def test_p_closed_form_beta0(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.0, gamma=0.0))
        mesh = build_mesh(90, 120, 2001)
        c = build_sl_coefficients(spec, mesh)
        mu = 0.62
        exact = (mesh.points / 90.0) ** (2.0 * mu / 0.25**2)
        assert np.max(np.abs(c.p.values - exact) / exact) < 1e-8

    def test_l_increasing_rho_positive(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-2.0, gamma=1.0))
        c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
        assert c.l.values[0] == 0.0
        assert np.all(np.diff(c.l.values) > 0)
        assert np.all(c.rho.values > 0)
        assert np.all(c.q.values >= 0)

    def test_mesh_insensitivity(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=2.0))
        coarse = build_sl_coefficients(spec, build_mesh(90, 120, 3001))
        fine = build_sl_coefficients(spec, build_mesh(90, 120, 10001))
        ys = np.linspace(90, 120, 301)
        for gf_coarse, gf_fine in ((coarse.l, fine.l), (coarse.rho, fine.rho)):
            a = interpolate(gf_coarse.mesh, gf_coarse.values, ys)
            b = interpolate(gf_fine.mesh, gf_fine.values, ys)
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
            w=nb.GridFunction(c.mesh, c.w.values * 1.001),
            l=c.l, rho=c.rho, rho_prime=c.rho_prime,
        )
        assert identity_p_w_q_consistency(bad, spec).w_residual > 1e-4


def test_scale_gauge_relations():
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=1.0))
    c = build_sl_coefficients(spec, build_mesh(90, 120, 1001))
    scaled = scale_gauge(c, 10.0)
    assert np.allclose(scaled.p.values, 10.0 * c.p.values)
    assert np.allclose(scaled.rho.values, math.sqrt(10.0) * c.rho.values)
    assert np.allclose(scaled.l.values, c.l.values)
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
    assert np.max(np.abs(a.rho_prime.values - b.rho_prime.values)) < 1e-8
