import math

import numpy as np
import pytest

import nsbf_pricer as nb

from dual_routes import ConsistencyReport, identity_p_w_q_consistency


def test_calibrate_delta():
    assert nb.calibrate_delta(0.25, 100, -1.0) == pytest.approx(25.0)
    assert nb.calibrate_delta(0.25, 100, 0.0) == pytest.approx(0.25)
    assert nb.calibrate_delta(0.25, 100, 0.5) == pytest.approx(0.025)
    with pytest.raises(ValueError):
        nb.calibrate_delta(-0.1, 100, 0.0)


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

    def test_is_a_config_error(self):
        assert issubclass(nb.NonFiniteParameter, nb.ConfigError)
        assert issubclass(nb.NonFiniteParameter, ValueError)


class TestDrift:
    def test_gamma_zero_constant_hazard(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=0.0))
        mu = nb.drift_of(spec)(np.array([95.0, 100.0, 110.0]))
        assert np.allclose(mu, 0.62)  # 0.1 + 0.02 + 0.5

    def test_zero_drift(self):
        spec = nb.DiffusionSpec(
            sigma=lambda y: np.full_like(np.asarray(y, float), 0.2),
            rbar=lambda y: np.full_like(np.asarray(y, float), 0.03),
            qbar=lambda y: np.full_like(np.asarray(y, float), 0.03),
            hazard=lambda y: np.zeros_like(np.asarray(y, float)),
        )
        assert nb.drift_of(spec)(np.array([100.0]))[0] == pytest.approx(0.0)

    def test_ejdcev_plugin(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        mu = nb.drift_of(spec)(np.array([100.0]))[0]
        # 0.1 - 0 + 0.02 + 0.5 * 0.25^2
        assert mu == pytest.approx(0.15125, abs=1e-12)


class TestSLCoefficients:
    def test_p_starts_at_one(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=1.0))
        c = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 1001))
        assert c.p.values[0] == 1.0

    def test_liouville_closed_form_beta0(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.0, gamma=1.0))
        mesh = nb.build_mesh(90, 120, 2001)
        c = nb.build_sl_coefficients(spec, mesh)
        exact = math.sqrt(2.0) / 0.25 * np.log(mesh.points / 90.0)
        assert np.max(np.abs(c.l.values - exact)) < 1e-8

    def test_liouville_linear_beta_minus1(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        mesh = nb.build_mesh(90, 120, 2001)
        c = nb.build_sl_coefficients(spec, mesh)
        exact = math.sqrt(2.0) * (mesh.points - 90.0) / 25.0
        assert np.max(np.abs(c.l.values - exact)) < 1e-8

    def test_p_closed_form_beta0(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.0, gamma=0.0))
        mesh = nb.build_mesh(90, 120, 2001)
        c = nb.build_sl_coefficients(spec, mesh)
        mu = 0.62
        exact = (mesh.points / 90.0) ** (2.0 * mu / 0.25**2)
        assert np.max(np.abs(c.p.values - exact) / exact) < 1e-8

    def test_l_increasing_rho_positive(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-2.0, gamma=1.0))
        c = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 1001))
        assert c.l.values[0] == 0.0
        assert np.all(np.diff(c.l.values) > 0)
        assert np.all(c.rho.values > 0)
        assert np.all(c.q.values >= 0)

    def test_mesh_insensitivity(self):
        from nsbf_pricer.mesh import interpolate_values

        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=2.0))
        coarse = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 3001))
        fine = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 10001))
        ys = np.linspace(90, 120, 301)
        for gf_coarse, gf_fine in ((coarse.l, fine.l), (coarse.rho, fine.rho)):
            a = interpolate_values(coarse.mesh, gf_coarse.values, ys)
            b = interpolate_values(fine.mesh, gf_fine.values, ys)
            assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)) < 1e-6

    def test_sigma_positive_required(self):
        bad = nb.DiffusionSpec(
            sigma=lambda y: np.asarray(y, float) - 100.0,
            rbar=lambda y: np.zeros_like(np.asarray(y, float)),
            qbar=lambda y: np.zeros_like(np.asarray(y, float)),
            hazard=lambda y: np.zeros_like(np.asarray(y, float)),
        )
        with pytest.raises(nb.PositivityError):
            nb.build_sl_coefficients(bad, nb.build_mesh(90, 120, 101))


class TestConsistencyCheck:
    def test_clean_build(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=2.0))
        c = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 1001))
        report = identity_p_w_q_consistency(c, spec)
        assert isinstance(report, ConsistencyReport)
        assert report.w_residual < 1e-12
        assert report.q_residual < 1e-12

    def test_tampered_w_flagged(self):
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=0.5, gamma=2.0))
        c = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 1001))
        bad = nb.SLCoefficients(
            mesh=c.mesh, p=c.p, q=c.q,
            w=nb.GridFunction(c.mesh, c.w.values * 1.001),
            l=c.l, rho=c.rho, rho_prime=c.rho_prime,
        )
        assert identity_p_w_q_consistency(bad, spec).w_residual > 1e-4


def test_scale_gauge_relations():
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=1.0))
    c = nb.build_sl_coefficients(spec, nb.build_mesh(90, 120, 1001))
    scaled = nb.scale_gauge(c, 10.0)
    assert np.allclose(scaled.p.values, 10.0 * c.p.values)
    assert np.allclose(scaled.rho.values, math.sqrt(10.0) * c.rho.values)
    assert np.allclose(scaled.l.values, c.l.values)
    with pytest.raises(ValueError):
        nb.scale_gauge(c, -1.0)


def test_rho_prime_numeric_fallback():
    params = nb.EJDCEVParams(beta=0.5, gamma=1.0)
    with_analytic = nb.ejdcev_spec(params)
    without = nb.DiffusionSpec(
        sigma=with_analytic.sigma, rbar=with_analytic.rbar,
        qbar=with_analytic.qbar, hazard=with_analytic.hazard,
    )
    mesh = nb.build_mesh(90, 120, 2001)
    a = nb.build_sl_coefficients(with_analytic, mesh)
    b = nb.build_sl_coefficients(without, mesh)
    assert np.max(np.abs(a.rho_prime.values - b.rho_prime.values)) < 1e-8
