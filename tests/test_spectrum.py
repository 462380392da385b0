import math

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer import spectrum
from nsbf_pricer.coefficients import build_nsbf_coefficients
from nsbf_pricer.engine import solve_from_sl
from nsbf_pricer.mesh import derivative_values, inner_product
from nsbf_pricer.spectrum import (
    assemble_pairs, characteristic, find_eigenvalues, norm_identity_residuals,
)
from nsbf_pricer.spps import build_formal_powers, solve_particular

from conftest import make_solver
from dual_routes import bisection_eigenvalues, masked_jn_block, per_pair_basis

# the benchmark's model grid over the published ranges
GRID = [(b, g) for b in (-2.0, -0.5, 1.0) for g in (0.0, 1.0, 2.0, 3.0)]


@pytest.fixture(scope="module")
def flat_solved(flat_sl):
    # (particular, coefficients, pairs); the returned Sturm-Liouville data is not needed
    return solve_from_sl(flat_sl, nb.NumericsConfig(omega_max=40.0, omega_grid_count=400))[1:]


class TestCharacteristic:
    def test_flat_pure_sine(self, flat_sl, flat_solved):
        _, coeffs, _ = flat_solved
        l_u = flat_sl.l.values[-1]
        omegas = np.array([0.5, 1.7, 9.3])
        vals = characteristic(omegas, coeffs, flat_sl)
        assert np.max(np.abs(vals - np.sin(omegas * l_u))) < 1e-8

    def test_zero_at_origin(self, flat_sl, flat_solved):
        _, coeffs, _ = flat_solved
        assert characteristic(0.0, coeffs, flat_sl) == 0.0

    def test_sign_change_at_first_reference_eigenvalue(self, short):
        s = short(1.0, 1.0)
        w = math.sqrt(4.4047)
        lo = characteristic(w - 0.02, s.coeffs, s.sl)
        hi = characteristic(w + 0.02, s.coeffs, s.sl)
        assert lo * hi < 0


class TestCharacteristicSlope:
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_matches_centred_difference(self, medium, short, horizon):
        s = medium(-1.0, 2.0) if horizon == "six-month" else short(-2.0, 2.0)
        omega = np.linspace(0.3, 0.995 * s.config.omega_max, 37)
        omega = np.concatenate([omega, [p.omega for p in s.pairs]])
        value, slope = characteristic(omega, s.coeffs, s.sl, with_slope=True)
        h = 1e-6
        centred = (characteristic(omega + h, s.coeffs, s.sl)
                   - characteristic(omega - h, s.coeffs, s.sl)) / (2.0 * h)
        assert np.max(np.abs(slope - centred)) < 1e-7 * np.max(np.abs(slope))
        assert np.max(np.abs(value - characteristic(omega, s.coeffs, s.sl))) < 1e-15

    def test_flat_cosine_and_origin(self, flat_sl, flat_solved):
        # phi(U, omega) = sin(omega) on the flat problem, and the slope needs no 1/x at 0
        _, coeffs, _ = flat_solved
        omega = np.array([0.0, 0.5, 1.7, 9.3])
        value, slope = characteristic(omega, coeffs, flat_sl, with_slope=True)
        assert np.max(np.abs(slope - np.cos(omega))) < 1e-8
        assert characteristic(0.0, coeffs, flat_sl, with_slope=True) == (0.0, slope[0])


class TestNewtonRefinement:
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    @pytest.mark.parametrize("beta, gamma", GRID)
    def test_few_steps_and_agrees_with_bisection(self, horizon, beta, gamma, monkeypatch):
        s = make_solver(beta, gamma, short=horizon == "one-day").solve(with_derivatives=False)
        window = s.config.omega_max, s.config.omega_grid_count
        original, slope_calls = spectrum.characteristic, []

        def counted(*args, **kwargs):
            slope_calls.append(kwargs.get("with_slope", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(spectrum, "characteristic", counted)
        roots = np.array([p.omega for p in find_eigenvalues(s.coeffs, s.sl, *window)])
        monkeypatch.undo()
        assert sum(slope_calls) <= 6
        ref = bisection_eigenvalues(s.coeffs, s.sl, *window)
        assert roots.shape == ref.shape
        # bisection stops with brackets up to 1e-12 wide and takes their midpoints
        assert np.max(np.abs(roots - ref)) <= 5e-13
        worst = np.max(np.abs(characteristic(roots, s.coeffs, s.sl)))
        assert worst <= np.max(np.abs(characteristic(ref, s.coeffs, s.sl)))

    def test_step_out_of_bracket_bisects(self, flat_sl, monkeypatch):
        # arctan(omega - 11) on the bracket (10, 20): the regula-falsi start
        # lies where the slope is small, so its Newton step leaves the
        # bracket and the next point is the bracket's midpoint
        points = []

        def fake(omega, coeffs, c, with_slope=False):
            u = np.asarray(omega) - 11.0
            if with_slope:
                points.append(np.array(omega, copy=True))
                return np.arctan(u), 1.0 / (1.0 + u * u)
            return np.arctan(u)

        monkeypatch.setattr(spectrum, "characteristic", fake)
        with pytest.warns(UserWarning, match="skip roots"):
            (root,) = find_eigenvalues(None, flat_sl, omega_max=20.0, grid_count=2)
        start = points[0][0]
        u = start - 11.0
        assert 10.0 < start < 20.0 and start - np.arctan(u) * (1.0 + u * u) < 10.0
        assert points[1][0] == 0.5 * (10.0 + start)
        assert root.omega == pytest.approx(11.0, abs=1e-12)
        assert root.slope == pytest.approx(1.0, abs=1e-12)

    def test_step_cap_raises(self, medium, monkeypatch):
        s = medium(-1.0, 2.0)
        monkeypatch.setattr(spectrum, "REFINE_MAX_STEPS", 1)
        with pytest.raises(nb.ConvergenceError, match="Newton steps"):
            find_eigenvalues(s.coeffs, s.sl, s.config.omega_max, s.config.omega_grid_count)


class TestNormIdentity:
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_preset_models_within_bound(self, medium, short, horizon):
        # preset models: table1-medium (-1, 2) and table3-short (-2, 2)
        s = medium(-1.0, 2.0) if horizon == "six-month" else short(-2.0, 2.0)
        residuals = norm_identity_residuals(s.pairs, s.sl)
        assert residuals.shape == (len(s.pairs),)
        assert np.max(residuals) < 1e-8
        assert s.diagnostics()["max_norm_identity_residual"] == np.max(residuals)

    def test_reported_only_with_derivatives(self):
        s = make_solver(-1.0, 2.0).solve(with_derivatives=False)
        assert "max_norm_identity_residual" not in s.diagnostics()


class TestFindEigenvalues:
    def test_flat_equally_spaced(self, flat_sl, flat_solved):
        _, _, pairs = flat_solved
        l_u = flat_sl.l.values[-1]  # = 1, roots at n pi
        for p in pairs:
            assert p.omega == pytest.approx(p.n * math.pi / l_u, abs=1e-10)

    def test_strictly_increasing_positive(self, medium):
        lam = medium(-1.0, 2.0).eigenvalues()
        assert lam[0] > 0
        assert np.all(np.diff(lam) > 0)

    def test_missed_root_warning(self, medium):
        s = medium(-1.0, 2.0)
        with pytest.warns(UserWarning, match="skip roots"):
            find_eigenvalues(s.coeffs, s.sl, omega_max=15.0, grid_count=10)

    def test_empty_window_rejected(self, medium):
        s = medium(-1.0, 2.0)
        with pytest.raises(ValueError, match="widen"):
            find_eigenvalues(s.coeffs, s.sl, omega_max=1.0, grid_count=50)

    def test_asymptotic_spacing(self, short):
        s = short(-2.0, 2.0)
        omegas = np.array([p.omega for p in s.pairs])
        spacing = np.diff(omegas)
        expected = math.pi / s.sl.l.values[-1]
        assert abs(spacing[30] - expected) / expected < 0.01


class TestEigenfunctions:
    def test_zero_at_left_barrier(self, medium):
        s = medium(-1.0, 2.0)
        for p in s.pairs[:3]:
            assert p.phi.values[0] == 0.0

    def test_boundary_residual_small(self, medium):
        s = medium(-1.0, 2.0)
        for p in s.pairs:
            assert abs(p.phi.values[-1]) <= 1e-6 * np.max(np.abs(p.phi.values))

    def test_flat_sine_shape_and_norm(self, flat_sl, flat_solved):
        _, _, pairs = flat_solved
        x = flat_sl.mesh.points - 1.0
        p1 = pairs[0]
        assert np.max(np.abs(p1.phi.values - np.sin(math.pi * x))) < 1e-8
        assert p1.norm_sq == pytest.approx(0.5, abs=1e-10)

    def test_orthogonality(self, medium):
        s = medium(-1.0, 2.0)
        for i in range(3):
            for j in range(i + 1, 4):
                ip = inner_product(s.pairs[i].phi, s.pairs[j].phi, s.sl.w)
                norm = math.sqrt(s.pairs[i].norm_sq * s.pairs[j].norm_sq)
                assert abs(ip) / norm < 1e-6

    def test_boundary_violation_raised(self, medium):
        s = medium(-1.0, 2.0)
        bad = nb.EigenPair(n=1, omega=s.pairs[0].omega * 1.05, lam=0.0)
        with pytest.raises(nb.BoundaryViolation):
            assemble_pairs([bad], s.coeffs, s.sl)


class TestEigenfunctionDerivative:
    def test_flat_cosine(self, flat_sl, flat_solved):
        _, coeffs, pairs = flat_solved
        x = flat_sl.mesh.points - 1.0
        p1 = assemble_pairs(pairs[:1], coeffs, flat_sl, with_derivatives=True)[0]
        dphi = p1.phi_prime.values
        exact = p1.omega * np.cos(p1.omega * x)
        assert np.max(np.abs(dphi - exact)) < 1e-8

    def test_matches_finite_difference(self, medium):
        s = medium(-1.0, 2.0)
        p1 = s.pairs[0]
        fd = derivative_values(s.sl.mesh, p1.phi.values)
        interior = slice(200, -200)
        scale = np.max(np.abs(p1.phi_prime.values[interior]))
        err = np.abs(p1.phi_prime.values[interior] - fd[interior])
        assert np.max(err) / scale < 1e-4

    def test_rises_from_left_barrier(self, medium):
        s = medium(-1.0, 2.0)
        assert s.pairs[0].phi_prime.values[0] > 0

    def test_requires_beta(self, flat_sl):
        sol = solve_particular(flat_sl)
        powers = build_formal_powers(sol, flat_sl, K=1)
        coeffs = build_nsbf_coefficients(flat_sl, sol, powers, order=4, with_beta=False)
        pairs = find_eigenvalues(coeffs, flat_sl, 10.0, 100)
        assert assemble_pairs(pairs, coeffs, flat_sl).dphi is None
        with pytest.raises(ValueError, match="beta"):
            assemble_pairs(pairs, coeffs, flat_sl, with_derivatives=True)


class TestGaugeInvariance:
    @pytest.mark.parametrize("kappa", [0.1, 10.0])
    def test_spectrum_invariant(self, medium, kappa):
        s = medium(-1.0, 1.0)
        scaled = nb.scale_gauge(s.sl, kappa)
        *_, pairs = solve_from_sl(scaled, nb.NumericsConfig(), with_derivatives=False)
        lam_base = s.eigenvalues()[: len(pairs)]
        lam_scaled = np.array([p.lam for p in pairs])[: len(lam_base)]
        assert np.max(np.abs(lam_scaled - lam_base) / lam_base) < 1e-9


class TestAgainstMaskedPerPairRoute:
    """Sliced, odd-only Bessel blocks leave every number of a solve unchanged."""

    @staticmethod
    def solved(medium, short, horizon):
        return medium(-1.0, 2.0) if horizon == "six-month" else short(-2.0, 3.0)

    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_basis_equals_per_pair_loop(self, medium, short, horizon):
        s = self.solved(medium, short, horizon)
        ref = per_pair_basis(s.pairs, s.coeffs, s.sl, with_derivatives=True)
        b = s.pairs
        assert np.array_equal(np.concatenate(b.phi), ref["phi"])
        assert np.array_equal(np.concatenate(b.dphi), ref["dphi"])
        assert np.array_equal(b.lam, ref["lam"])
        assert np.array_equal(b.norm_sq, ref["norm_sq"])
        assert np.array_equal([p.norm_sq for p in b], ref["norm_sq"])
        assert np.array_equal([p.boundary_residual for p in b], ref["boundary_residual"])

    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_characteristic_equals_masked_blocks(self, medium, short, horizon):
        # the odd-only block of the characteristic, on the preset's omega grid
        # (also reversed and shuffled) and on its scan brackets' midpoints,
        # equals the series over every order of a masked block
        s = self.solved(medium, short, horizon)
        alpha_u = s.coeffs.alpha[1::2, -1]
        signs = np.where(np.arange(alpha_u.size) % 2 == 0, 1.0, -1.0)
        omega = np.linspace(0.0, s.config.omega_max, s.config.omega_grid_count + 1)[1:]
        vals = characteristic(omega, s.coeffs, s.sl)
        bracket = vals[:-1] * vals[1:] < 0.0
        mid = 0.5 * (omega[:-1][bracket] + omega[1:][bracket])
        assert mid.size == len(s.pairs)
        grids = (omega, omega[::-1], np.random.default_rng(5).permutation(omega), mid)
        for om in grids:
            x = om * s.sl.l.values[-1]
            block = masked_jn_block(x, 2 * alpha_u.size - 1)[1::2]
            series = 2.0 * np.tensordot(signs * alpha_u, block, axes=(0, 0))
            ref = np.sin(x) / s.sl.rho.values[-1] + series
            assert np.array_equal(characteristic(om, s.coeffs, s.sl), ref)
