import math

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.coefficients import build_nsbf_coefficients
from nsbf_pricer.engine import solve_from_sl
from nsbf_pricer.mesh import derivative_values, inner_product
from nsbf_pricer.spectrum import assemble_pairs, characteristic, find_eigenvalues
from nsbf_pricer.spps import build_formal_powers, solve_particular

from dual_routes import masked_jn_block, per_pair_basis


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
        s = self.solved(medium, short, horizon)
        alpha_u = s.coeffs.alpha[1::2, -1]
        signs = np.where(np.arange(alpha_u.size) % 2 == 0, 1.0, -1.0)
        omega = np.linspace(0.0, s.config.omega_max, s.config.omega_grid_count + 1)[1:]
        for om in (omega, omega[::-1], np.random.default_rng(5).permutation(omega)):
            x = om * s.sl.l.values[-1]
            block = masked_jn_block(x, 2 * alpha_u.size - 1)[1::2]
            series = 2.0 * np.tensordot(signs * alpha_u, block, axes=(0, 0))
            ref = np.sin(x) / s.sl.rho.values[-1] + series
            assert np.array_equal(characteristic(om, s.coeffs, s.sl), ref)
