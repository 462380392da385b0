import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer import pricing, spectrum
from nsbf_pricer.engine import solve_from_sl
from nsbf_pricer.mesh import (
    GAUSS_NODES, GridFunction, derivative_values, gauss_panels, inner_product, stencil,
)
from nsbf_pricer.spectrum import (
    assemble_pairs, characteristic, find_eigenvalues, norm_identity_residuals,
)

from conftest import make_solver
from dual_routes import (
    bisection_eigenvalues, masked_jn_block, mesh_rows, mesh_steady_state, per_pair_basis,
    scale_gauge,
)

# the benchmark's model grid over the published ranges
GRID = [(b, g) for b in (-2.0, -0.5, 1.0) for g in (0.0, 1.0, 2.0, 3.0)]


@pytest.fixture(scope="module")
def flat_solved(flat_sl):
    # (particular, coefficients, pairs)
    return solve_from_sl(flat_sl, nb.NumericsConfig(omega_max=40.0))


class TestCharacteristic:
    def test_flat_pure_sine(self, flat_sl, flat_solved):
        _, coeffs, _ = flat_solved
        l_u = flat_sl.l[-1]
        omegas = np.array([0.5, 1.7, 9.3])
        vals, _ = characteristic(omegas, coeffs, flat_sl)
        assert np.max(np.abs(vals - np.sin(omegas * l_u))) < 1e-8

    def test_zero_at_origin(self, flat_sl, flat_solved):
        _, coeffs, _ = flat_solved
        assert characteristic(0.0, coeffs, flat_sl)[0] == 0.0

    def test_sign_change_at_first_reference_eigenvalue(self, short):
        s = short(1.0, 1.0)
        w = math.sqrt(4.4047)
        lo, _ = characteristic(w - 0.02, s.coeffs, s.sl)
        hi, _ = characteristic(w + 0.02, s.coeffs, s.sl)
        assert lo * hi < 0


class TestCharacteristicSlope:
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_matches_centred_difference(self, medium, short, horizon):
        s = medium(-1.0, 2.0) if horizon == "six-month" else short(-2.0, 2.0)
        omega = np.linspace(0.3, 0.995 * s.config.omega_max, 37)
        omega = np.concatenate([omega, s.pairs.omega])
        _, slope = characteristic(omega, s.coeffs, s.sl)
        h = 1e-6
        centred = (characteristic(omega + h, s.coeffs, s.sl)[0]
                   - characteristic(omega - h, s.coeffs, s.sl)[0]) / (2.0 * h)
        assert np.max(np.abs(slope - centred)) < 1e-7 * np.max(np.abs(slope))

    def test_flat_cosine_and_origin(self, flat_sl, flat_solved):
        # phi(U, omega) = sin(omega) on the flat problem, and the slope needs no 1/x at 0
        _, coeffs, _ = flat_solved
        omega = np.array([0.0, 0.5, 1.7, 9.3])
        _, slope = characteristic(omega, coeffs, flat_sl)
        assert np.max(np.abs(slope - np.cos(omega))) < 1e-8
        assert characteristic(0.0, coeffs, flat_sl) == (0.0, slope[0])


class TestNewtonRefinement:
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    @pytest.mark.parametrize("beta, gamma", GRID)
    def test_few_steps_and_agrees_with_bisection(self, horizon, beta, gamma, monkeypatch):
        s = make_solver(beta, gamma, short=horizon == "one-day").solve()
        original, sizes = spectrum.characteristic, []

        def counted(omega, *args):
            sizes.append(np.size(omega))
            return original(omega, *args)

        monkeypatch.setattr(spectrum, "characteristic", counted)
        roots = find_eigenvalues(s.coeffs, s.sl, s.config.omega_max)
        monkeypatch.undo()
        # the scan, then at most six Newton steps
        assert len(sizes) <= 7
        ref = bisection_eigenvalues(s.coeffs, s.sl, s.config.omega_max, sizes[0])
        assert roots.shape == ref.shape
        # bisection stops with brackets up to 1e-12 wide and takes their midpoints
        assert np.max(np.abs(roots - ref)) <= 5e-13
        worst = np.max(np.abs(characteristic(roots, s.coeffs, s.sl)[0]))
        assert worst <= np.max(np.abs(characteristic(ref, s.coeffs, s.sl)[0]))

    def test_step_out_of_bracket_bisects(self, flat_sl, monkeypatch):
        # arctan(omega - 11) on the bracket (10, 20) of a two-point scan
        # (l(U) = 1): the regula-falsi start lies where the slope is small,
        # so its Newton step leaves the bracket and the next point is the
        # bracket's midpoint
        points = []

        def fake(omega, coeffs, c):
            points.append(np.array(omega, copy=True))
            u = np.asarray(omega) - 11.0
            return np.arctan(u), 1.0 / (1.0 + u * u)

        monkeypatch.setattr(spectrum, "characteristic", fake)
        monkeypatch.setattr(spectrum, "SCAN_PER_SPACING", 0.3)
        (root,) = find_eigenvalues(None, flat_sl, omega_max=20.0)
        assert np.array_equal(points[0], [10.0, 20.0])
        start = points[1][0]
        u = start - 11.0
        assert 10.0 < start < 20.0 and start - np.arctan(u) * (1.0 + u * u) < 10.0
        assert points[2][0] == 0.5 * (10.0 + start)
        assert root == pytest.approx(11.0, abs=1e-12)

    def test_step_cap_raises(self, medium, monkeypatch):
        s = medium(-1.0, 2.0)
        monkeypatch.setattr(spectrum, "REFINE_MAX_STEPS", 1)
        with pytest.raises(nb.ConvergenceError, match="Newton steps"):
            find_eigenvalues(s.coeffs, s.sl, s.config.omega_max)


class TestNormIdentity:
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_preset_models_within_bound(self, medium, short, horizon):
        # preset models: table1-medium (-1, 2) and table3-short (-2, 2)
        s = medium(-1.0, 2.0) if horizon == "six-month" else short(-2.0, 2.0)
        residuals = norm_identity_residuals(s.pairs, s.sl)
        assert residuals.shape == (len(s.pairs),)
        assert np.max(residuals) < 1e-8
        assert s.diagnostics()["max_norm_identity_residual"] == np.max(residuals)

    def test_slope_is_taken_at_the_roots(self, medium):
        s = medium(-1.0, 2.0)
        _, slope = characteristic(s.pairs.omega, s.coeffs, s.sl)
        assert np.array_equal(s.pairs.slope, slope)
        assert [p.slope for p in s.pairs] == list(slope)

    def test_reported_by_every_solve(self):
        # with_derivatives is an ignored keyword: every solve assembles phi'
        s = make_solver(-1.0, 2.0).solve(with_derivatives=False)
        assert s.diagnostics()["max_norm_identity_residual"] < 1e-8


class TestFindEigenvalues:
    def test_flat_equally_spaced(self, flat_sl, flat_solved):
        _, _, pairs = flat_solved
        l_u = flat_sl.l[-1]  # = 1, roots at n pi
        for p in pairs:
            assert p.omega == pytest.approx(p.n * math.pi / l_u, abs=1e-10)

    def test_strictly_increasing_positive(self, medium):
        lam = medium(-1.0, 2.0).eigenvalues()
        assert lam[0] > 0
        assert np.all(np.diff(lam) > 0)

    def test_missed_root_raises(self, medium):
        # without omega_2, the top eigenfunction of N roots changes sign N
        # times, not N - 1 (Sturm's oscillation theorem)
        s = medium(-1.0, 2.0)
        with pytest.raises(nb.ConvergenceError, match="changes sign"):
            assemble_pairs(np.delete(s.pairs.omega, 1), s.coeffs, s.sl,
                           *mesh_steady_state(s.particular, s.sl))

    def test_coarse_scan_raises(self, medium, monkeypatch):
        # a scan of one point per two spacings steps over roots; the solve
        # refuses the basis instead of pricing with eigenterms missing
        s = medium(-1.0, 2.0)
        monkeypatch.setattr(spectrum, "SCAN_PER_SPACING", 0.5)
        with pytest.raises(nb.ConvergenceError, match="changes sign"):
            solve_from_sl(s.sl, s.config)

    def test_wide_barriers_match_fine_bisection(self):
        # the root spacing pi / l(U) of a wide interval is below two steps
        # of a 100-point scan on (0, 15); the derived scan still finds every
        # root that bisection finds on a fine explicit grid
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        s = nb.DoubleBarrierSolver(spec, 50.0, 250.0, nb.NumericsConfig(mesh_points=4001)).solve()
        assert math.pi / s.sl.l[-1] < 2.0 * s.config.omega_max / 100
        ref = bisection_eigenvalues(s.coeffs, s.sl, s.config.omega_max, 20000)
        assert s.pairs.omega.shape == ref.shape
        assert np.max(np.abs(s.pairs.omega - ref)) <= 5e-13

    def test_empty_window_rejected(self, medium):
        s = medium(-1.0, 2.0)
        with pytest.raises(ValueError, match="widen"):
            find_eigenvalues(s.coeffs, s.sl, omega_max=1.0)

    def test_window_beyond_the_mesh_refused_before_allocating(self):
        # 1e12 implies about 5e11 roots; the scan alone would take terabytes.
        # A 1001-point mesh resolves at most 999 (Sturm's count over its
        # interior nodes), and the solve refuses by name within about 1 MB
        # (measured peak 0.69 MB, the data and coefficients of the solve)
        spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
        s = nb.DoubleBarrierSolver(spec, 90.0, 120.0,
                                   nb.NumericsConfig(mesh_points=1001, omega_max=1e12))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"omega_max = 1e\+12 implies about 5.\de\+11 "
                               r"roots .* more than the 999 a 1001-point mesh can resolve"):
                s.solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_asymptotic_spacing(self, short):
        s = short(-2.0, 2.0)
        spacing = np.diff(s.pairs.omega)
        expected = math.pi / s.sl.l[-1]
        assert abs(spacing[30] - expected) / expected < 0.01


class TestEigenfunctions:
    def test_zero_at_left_barrier(self, medium):
        # L is the first panel point, and the mesh rows read it
        s = medium(-1.0, 2.0)
        assert np.all(s.pairs.nodes[0, :3, 0] == 0.0)
        assert np.all(mesh_rows(s.pairs[:3])[0][:, 0] == 0.0)

    def test_boundary_residual_small(self, medium):
        s = medium(-1.0, 2.0)
        phi, _ = mesh_rows(s.pairs)
        assert np.all(np.abs(phi[:, -1]) <= 1e-6 * np.max(np.abs(phi), axis=1))

    def test_flat_sine_shape_and_norm(self, flat_sl, flat_solved):
        _, _, pairs = flat_solved
        x = flat_sl.mesh.points - 1.0
        assert np.max(np.abs(mesh_rows(pairs[:1])[0][0] - np.sin(math.pi * x))) < 1e-8
        assert pairs[0].norm_sq == pytest.approx(0.5, abs=1e-10)

    def test_orthogonality(self, medium):
        s = medium(-1.0, 2.0)
        w = nb.GridFunction(s.mesh, s.sl.w)
        phi, _ = mesh_rows(s.pairs)
        for i in range(3):
            for j in range(i + 1, 4):
                phi_i, phi_j = (nb.GridFunction(s.mesh, phi[k]) for k in (i, j))
                ip = inner_product(phi_i, phi_j, w)
                norm = math.sqrt(s.pairs[i].norm_sq * s.pairs[j].norm_sq)
                assert abs(ip) / norm < 1e-6

    def test_boundary_violation_raised(self, medium):
        s = medium(-1.0, 2.0)
        with pytest.raises(nb.BoundaryViolation, match="phi_1"):
            assemble_pairs(s.pairs.omega[:1] * 1.05, s.coeffs, s.sl,
                           *mesh_steady_state(s.particular, s.sl))

    def test_non_finite_alpha_row_raises(self, medium):
        # a NaN coefficient row makes every row NaN; the boundary test is
        # False for NaN, and the finite check refuses the basis first
        s = medium(-1.0, 2.0)
        alpha = s.coeffs.alpha.copy()
        alpha[1] = np.nan
        with pytest.raises(nb.ConvergenceError, match="not finite"):
            assemble_pairs(s.pairs.omega, replace(s.coeffs, alpha=alpha), s.sl,
                           *mesh_steady_state(s.particular, s.sl))


class TestGaussPanelAssembly:
    def test_under_resolved_panels_raise(self, short, monkeypatch):
        # 12 half-waves per panel leave phi_N's top Legendre coefficients
        # near 1e-5 of its sup; the basis is refused, not interpolated
        s = short(-2.0, 3.0)
        monkeypatch.setattr(spectrum, "PANEL_HALF_WAVES", 12.0)
        with pytest.raises(nb.ConvergenceError, match="phi_56 is not resolved on 8 Gauss"):
            assemble_pairs(s.pairs.omega, s.coeffs, s.sl, *mesh_steady_state(s.particular, s.sl))

    def test_allocates_the_basis_and_node_work_only(self, monkeypatch):
        # O(N x points) at the panel points and no (N, M) array, which on a
        # 20001-point mesh would take 9.0 MB.  Measured: 5.06 MB, 22.6 x N x
        # points floats, most of it inside the Bessel block
        s = make_solver(-2.0, 3.0, short=True, mesh_points=20001).solve()
        used = []
        monkeypatch.setattr(spectrum, "gauss_panels", lambda *a: used.append(gauss_panels(*a)) or used[-1])
        tracemalloc.start()
        try:
            assemble_pairs(s.pairs.omega, s.coeffs, s.sl, *mesh_steady_state(s.particular, s.sl))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(s.pairs)
        (panels,) = used
        assert (n, panels.count, panels.points.size) == (56, 20, 20 * 25 + 1)
        assert peak <= 24 * n * panels.points.size * 8 < n * s.mesh.M * 8


class TestPointRead:
    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    @pytest.mark.parametrize("beta, gamma", GRID)
    def test_reads_the_series_between_the_panel_points(self, medium, short, horizon, beta, gamma):
        # phi and phi' read at 64 random points from the panel points, against
        # the series evaluated at each point alone, its data read there by a
        # one-point mesh stencil.  Measured over the 24 bases, relative to
        # each row's sup over the panel points: within 7.1e-14 at one day and
        # 2.6e-13 at six months, where the (-0.5, gamma) bases' 2.0-2.6e-13
        # sits in the panel point values (a read through the mesh stencil
        # missed by as much)
        s = (medium if horizon == "six-month" else short)(beta, gamma)
        y = np.random.default_rng(64).uniform(90.0, 120.0, 64)
        read = pricing.rows_at(y, s.pairs)
        series = np.concatenate([
            spectrum._series_at(s.pairs.omega, s.coeffs, s.sl, stencil(s.mesh, [x]))[0] for x in y
        ], axis=-1)
        sup = np.max(np.abs(s.pairs.nodes), axis=-1, keepdims=True)
        gap = np.max(np.abs(np.stack((read.phi, read.dphi)) - series) / sup)
        assert gap <= (5e-13 if horizon == "six-month" else 2e-13)

    def test_panel_ends_read_the_stored_values(self, medium, short):
        # a point on a panel end reads the value the solve stored there:
        # phi(L) = 0, h(L) = 0 and h(U) = 1 exactly
        for s in (medium(-2.0, 3.0), short(-2.0, 3.0)):
            basis = s.pairs
            ends = basis.panels.points[:: GAUSS_NODES + 1]
            at = pricing.rows_at(ends, basis)
            assert np.array_equal(np.stack((at.phi, at.dphi)), basis.nodes[..., :: GAUSS_NODES + 1])
            assert np.array_equal(np.stack((at.h, at.dh)), basis.steady[:, :: GAUSS_NODES + 1])
            assert np.all(at.phi[:, 0] == 0.0)
            assert (at.h[0], at.h[-1]) == (0.0, 1.0)


class TestPairViews:
    def test_iterating_and_indexing_build_no_grid_function(self, short, monkeypatch):
        # every value was checked finite once, at assembly; a pair holds the
        # basis's scalars for its index and checks nothing again
        s = short(-2.0, 3.0)
        kept = s.retained_pairs(nb.OptionContract("call", 90.0, 120.0, 1 / 360, 100.0))
        assert len(kept) == 56
        calls = []
        checked = GridFunction.__post_init__
        monkeypatch.setattr(GridFunction, "__post_init__", lambda gf: calls.append(checked(gf)))
        pairs = list(kept) + [kept[i] for i in range(len(kept))] + [kept[-1]]
        assert calls == []
        assert all(type(p.n) is int for p in pairs)
        assert all(type(v) is float for p in pairs
                   for v in (p.omega, p.lam, p.norm_sq, p.boundary_residual, p.slope))
        nb.GridFunction(s.mesh, s.sl.w)  # the count sees a construction
        assert len(calls) == 1


class TestEigenfunctionDerivative:
    def test_flat_cosine(self, flat_sl, flat_solved):
        particular, coeffs, pairs = flat_solved
        x = flat_sl.mesh.points - 1.0
        basis = assemble_pairs(pairs.omega[:1], coeffs, flat_sl,
                               *mesh_steady_state(particular, flat_sl))
        p1, dphi = basis[0], mesh_rows(basis)[1][0]
        exact = p1.omega * np.cos(p1.omega * x)
        assert np.max(np.abs(dphi - exact)) < 1e-8
        # phi(U, omega) = sin(omega): the slope at the root omega_1 = pi is -1
        assert p1.slope == pytest.approx(-1.0, abs=1e-10)

    def test_matches_finite_difference(self, medium):
        s = medium(-1.0, 2.0)
        phi, dphi = (rows[0] for rows in mesh_rows(s.pairs[:1]))
        fd = derivative_values(s.sl.mesh, phi)
        interior = slice(200, -200)
        scale = np.max(np.abs(dphi[interior]))
        err = np.abs(dphi[interior] - fd[interior])
        assert np.max(err) / scale < 1e-4

    def test_rises_from_left_barrier(self, medium):
        s = medium(-1.0, 2.0)
        assert s.pairs.nodes[1, 0, 0] > 0

    def test_beta_order_moves_only_the_derivatives(self, short):
        # beta reads the leading rows of alpha's Bessel block: a lower beta
        # order leaves phi and the norms bit-identical and moves phi' alone
        s = short(-2.0, 0.0)
        assert s.coeffs.M_beta < s.coeffs.M_trunc
        low = replace(s.coeffs, beta=s.coeffs.beta[:4], M_beta=3)
        basis = assemble_pairs(s.pairs.omega, low, s.sl, *mesh_steady_state(s.particular, s.sl))
        phi, dphi = basis.nodes
        assert np.array_equal(phi, s.pairs.nodes[0])
        assert np.array_equal(basis.norm_sq, s.pairs.norm_sq)
        moved = np.abs(dphi - s.pairs.nodes[1])
        assert 0.0 < np.max(moved) < 1e-3 * np.max(np.abs(s.pairs.nodes[1]))


class TestGaugeInvariance:
    @pytest.mark.parametrize("kappa", [0.1, 10.0])
    def test_spectrum_invariant(self, medium, kappa):
        s = medium(-1.0, 1.0)
        scaled = scale_gauge(s.sl, kappa)
        *_, pairs = solve_from_sl(scaled, nb.NumericsConfig())
        lam_base = s.eigenvalues()[: len(pairs)]
        lam_scaled = pairs.lam[: len(lam_base)]
        assert np.max(np.abs(lam_scaled - lam_base) / lam_base) < 1e-9


class TestAgainstMaskedPerPairRoute:
    """The solve's basis against the per-pair route evaluated on every mesh point.

    assemble_pairs evaluates the series at Gauss-Legendre panel points and
    keeps it there, and mesh_rows interpolates it onto the mesh; per_pair_basis
    evaluates it at each mesh point, one root at a time, with masked
    all-orders Bessel blocks.
    """

    @staticmethod
    def solved(medium, short, horizon):
        return medium(-1.0, 2.0) if horizon == "six-month" else short(-2.0, 3.0)

    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_basis_equals_per_pair_loop(self, medium, short, horizon):
        # measured: rows within 1.2e-14 (six-month) and 1.1e-13 (one-day) of
        # each row's sup, Gauss norms within 5.4e-15 relative of the mesh
        # norms, phi(U) bit-identical.  The boundary residual's denominator is
        # the largest |phi| over the panel points, not over the mesh: within
        # 1.3% of it here and 2.7% over the 24 grid bases
        s = self.solved(medium, short, horizon)
        ref = per_pair_basis(s.pairs.omega, s.coeffs, s.sl)
        b = s.pairs
        for got, want in zip(mesh_rows(b), (ref["phi"], ref["dphi"])):
            sup = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.max(np.abs(got - want) / sup) < 1e-12
            assert np.array_equal(got[:, 0], want[:, 0])  # phi(L) = 0 exactly
        assert np.max(np.abs(b.norm_sq / ref["norm_sq"] - 1.0)) < 1e-13
        assert np.array_equal([p.norm_sq for p in b], b.norm_sq)
        phi_u = b.nodes[0, :, -1]
        assert np.array_equal(phi_u, ref["phi"][:, -1])
        sup = np.max(np.abs(b.nodes[0]), axis=1)
        assert np.array_equal(b.boundary_residual, np.abs(phi_u) / sup)
        assert np.max(np.abs(sup / np.max(np.abs(ref["phi"]), axis=1) - 1.0)) < 0.03
        assert np.array_equal([p.boundary_residual for p in b], b.boundary_residual)
        assert np.array_equal(b.lam, ref["lam"])
        assert np.array_equal(b.slope, characteristic(b.omega, s.coeffs, s.sl)[1])

    @pytest.mark.parametrize("horizon", ["six-month", "one-day"])
    def test_characteristic_equals_masked_blocks(self, medium, short, horizon):
        # the characteristic's value from its all-orders block, on the scan
        # grid (also reversed and shuffled) and on its brackets' midpoints,
        # equals the series over the odd rows of a masked block
        s = self.solved(medium, short, horizon)
        alpha_u = s.coeffs.alpha[1::2, -1]
        signs = np.where(np.arange(alpha_u.size) % 2 == 0, 1.0, -1.0)
        l_u = s.sl.l[-1]
        count = math.ceil(spectrum.SCAN_PER_SPACING * s.config.omega_max * l_u / math.pi)
        omega = np.linspace(0.0, s.config.omega_max, count + 1)[1:]
        vals, _ = characteristic(omega, s.coeffs, s.sl)
        bracket = vals[:-1] * vals[1:] < 0.0
        mid = 0.5 * (omega[:-1][bracket] + omega[1:][bracket])
        assert mid.size == len(s.pairs)
        grids = (omega, omega[::-1], np.random.default_rng(5).permutation(omega), mid)
        for om in grids:
            x = om * l_u
            block = masked_jn_block(x, 2 * alpha_u.size)[1::2]
            series = 2.0 * np.tensordot(signs * alpha_u, block, axes=(0, 0))
            ref = np.sin(x) / s.sl.rho[-1] + series
            assert np.array_equal(characteristic(om, s.coeffs, s.sl)[0], ref)
