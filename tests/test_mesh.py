import math

import numpy as np
import pytest

from nsbf_pricer.mesh import (
    GAUSS_NODES,
    GridFunction,
    build_mesh,
    cumulative_integral,
    derivative_values,
    gauss_panels,
    inner_product,
    stencil,
)


class TestBuildMesh:
    def test_spacing(self):
        m = build_mesh(90, 120, 10001)
        assert m.h == pytest.approx(0.003, abs=1e-15)
        assert m.points[0] == 90.0 and m.points[-1] == 120.0
        assert np.all(np.diff(m.points) > 0)

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="invalid count"):
            build_mesh(90, 120, 10000)
        with pytest.raises(ValueError, match="invalid count"):
            build_mesh(90, 120, 5)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="invalid bounds"):
            build_mesh(100, 90, 11)
        with pytest.raises(ValueError, match="invalid bounds"):
            build_mesh(0.0, 90, 11)


class TestAntiderivative:
    def test_constant_exact(self):
        m = build_mesh(1, 2, 10001)
        F = cumulative_integral(m, np.ones(m.M))
        assert abs(F[-1] - 1.0) < 1e-12
        assert F[0] == 0.0

    def test_cosine(self):
        m = build_mesh(1, 2, 10001)
        F = cumulative_integral(m, np.cos(m.points))
        exact = np.sin(m.points) - math.sin(1.0)
        assert np.max(np.abs(F - exact)) < 1e-10

    def test_degree5_exact(self):
        m = build_mesh(1, 2, 101)
        F = cumulative_integral(m, m.points**5)
        exact = (m.points**6 - 1.0) / 6.0
        assert np.max(np.abs(F - exact)) / exact[-1] < 1e-13

    def test_linearity(self):
        m = build_mesh(1, 2, 501)
        f, g = np.exp(m.points), np.sin(m.points)
        lhs = cumulative_integral(m, 2.0 * f + 3.0 * g)
        rhs = 2.0 * cumulative_integral(m, f) + 3.0 * cumulative_integral(m, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))

    def test_derivative_inverts_antiderivative(self):
        m = build_mesh(1, 2, 2001)
        f = np.exp(m.points) * np.sin(3 * m.points)
        back = derivative_values(m, cumulative_integral(m, f))
        interior = slice(5, -5)
        assert np.max(np.abs(back[interior] - f[interior])) < 1e-8


class TestFullIntegral:
    def test_weights_sum_to_length(self):
        for L, U, M in ((1.0, 2.0, 6), (90.0, 120.0, 10001), (60.0, 240.0, 2001)):
            m = build_mesh(L, U, M)
            assert abs(np.sum(m.weights) - (U - L)) <= 1e-14 * (U - L)

    def test_quintic_exact_on_every_panel(self):
        m = build_mesh(1.0, 2.0, 101)
        y = m.points
        rng = np.random.default_rng(3)
        for _ in range(5):
            c = rng.normal(size=6)
            exact = np.polyval(np.polyint(c), 2.0) - np.polyval(np.polyint(c), 1.0)
            assert abs(np.sum(np.polyval(c, y) * m.weights) - exact) < 1e-12
        # a different quintic on each side of every panel edge
        for k in range(0, m.M, 5):
            f = np.maximum(y - y[k], 0.0) ** 5
            assert abs(np.sum(f * m.weights) - (2.0 - y[k]) ** 6 / 6.0) < 1e-12

    def test_agrees_with_cumulative_integral(self):
        for M in (101, 10001):
            m = build_mesh(90.0, 120.0, M)
            v = np.exp(m.points / 30.0) * np.sin(m.points)
            assert np.sum(v * m.weights) == pytest.approx(cumulative_integral(m, v)[-1], rel=1e-14)

    def test_stacked_rows_equal_single_rows(self):
        m = build_mesh(90.0, 120.0, 10001)
        rows = np.random.default_rng(11).normal(size=(9, m.M))
        for stack in (rows, rows[:1], rows[:4], rows[2:8]):
            by_row = [np.sum(r * m.weights) for r in stack]
            assert np.array_equal(np.sum(stack * m.weights, axis=-1), by_row)


class TestInnerProduct:
    def test_orthogonality(self):
        m = build_mesh(1, 2, 10001)
        w = GridFunction(m, np.ones(m.M))
        s1 = GridFunction(m, np.sin(np.pi * (m.points - 1)))
        s2 = GridFunction(m, np.sin(2 * np.pi * (m.points - 1)))
        assert abs(inner_product(s1, s2, w)) < 1e-10
        assert inner_product(s1, s1, w) == pytest.approx(0.5, abs=1e-10)

    def test_constant(self):
        m = build_mesh(90, 120, 10001)
        one = GridFunction(m, np.ones(m.M))
        assert inner_product(one, one, one) == pytest.approx(30.0, abs=1e-10)

    def test_positive_definite(self):
        m = build_mesh(1, 2, 501)
        w = GridFunction(m, 1.0 + 0.5 * np.sin(m.points))
        f = GridFunction(m, (m.points - 1.3) ** 2)
        assert inner_product(f, f, w) > 0

    def test_mesh_mismatch(self):
        m1, m2 = build_mesh(1, 2, 501), build_mesh(1, 2, 1001)
        f1 = GridFunction(m1, np.ones(m1.M))
        f2 = GridFunction(m2, np.ones(m2.M))
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(f1, f2, f1)


class TestInterpolate:
    def test_linear_exact(self):
        m = build_mesh(90, 120, 10001)
        assert stencil(m, 100.0015)(m.points)[0] == pytest.approx(100.0015, abs=1e-12)

    def test_quadratic_exact(self):
        m = build_mesh(90, 120, 10001)
        y = 90.0 + 7.5 * m.h  # mid-panel
        assert stencil(m, y)(m.points**2)[0] == pytest.approx(y * y, abs=1e-9 * y * y)

    @staticmethod
    def quintic(y):
        t = (y - 105.0) / 15.0
        return 0.3 - 1.1 * t + 0.7 * t**2 + 2.0 * t**3 - 1.3 * t**4 + 0.9 * t**5

    def test_quintic_exact_mid_panel(self):
        m = build_mesh(90, 120, 101)
        y = 90.0 + 42.5 * m.h
        got = stencil(m, y)(self.quintic(m.points))[0]
        assert got == pytest.approx(self.quintic(y), abs=1e-13)

    def test_quintic_exact_on_one_sided_stencils(self):
        # within two nodes of a barrier the six nodes all lie on one side
        m = build_mesh(90, 120, 101)
        offsets = np.array([0.3, 1.0 + 1e-3, 1.5, 1.9])
        y = np.concatenate([m.L + offsets * m.h, m.U - offsets * m.h])
        at = stencil(m, y)
        assert np.all(at.nodes[:4, 0] == 0) and np.all(at.nodes[4:, -1] == m.M - 1)
        assert np.max(np.abs(at(self.quintic(m.points)) - self.quintic(y))) < 1e-13

    def test_exponential(self):
        m = build_mesh(90, 120, 10001)
        y = 105.0 + 0.4 * m.h
        got = stencil(m, y)(np.exp(m.points / 30.0))[0]
        assert got == pytest.approx(math.exp(y / 30.0), rel=1e-9)

    def test_node_hit(self):
        m = build_mesh(90, 120, 101)
        f = np.sin(m.points)
        assert stencil(m, m.points[37])(f)[0] == f[37]

    def test_out_of_range(self):
        m = build_mesh(90, 120, 101)
        with pytest.raises(ValueError, match="outside"):
            stencil(m, 89.0)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, [100.0, math.nan]])
    def test_non_finite_point_rejected(self, y):
        # a NaN point fails loudly, not as nan with a numpy cast warning
        m = build_mesh(90, 120, 101)
        with pytest.raises(ValueError, match="not finite"):
            stencil(m, y)


class TestGaussPanels:
    @pytest.mark.parametrize("M, min_count, count", [
        (10001, 14, 16), (10001, 16, 16), (10001, 0, 1), (506, 6, 101), (506, 10**6, 505),
    ])
    def test_fewest_panels_tiling_the_mesh(self, M, min_count, count):
        # the count divides M - 1; beyond M - 1 every mesh point is a panel end
        m = build_mesh(90, 120, M)
        panels = gauss_panels(m, min_count)
        assert (panels.count, panels.width) == (count, (M - 1) // count)
        assert np.all(np.diff(panels.points) > 0.0)  # in y order
        ends = panels.points[:: GAUSS_NODES + 1]
        assert np.array_equal(ends, m.points[:: panels.width])
        nodes = panels.points[:-1].reshape(count, GAUSS_NODES + 1)[:, 1:]
        assert np.all((ends[:-1, None] < nodes) & (nodes < ends[1:, None]))
        assert np.all(panels.weights[:: GAUSS_NODES + 1] == 0.0)
        assert np.sum(panels.weights) == pytest.approx(m.U - m.L, rel=1e-14)

    def test_read_interpolates_inside_each_panel(self):
        # a polynomial of degree GAUSS_NODES - 1 is reproduced at random points
        # of every panel, in any order, and a point on a panel end reads the
        # value stored there
        m = build_mesh(90, 120, 1001)
        panels = gauss_panels(m, 4)
        f = lambda y: ((y - 104.0) / 16.0) ** (GAUSS_NODES - 1) + np.sin(y)
        values = np.stack([f(panels.points), 2.0 * f(panels.points)])
        values[:, :: GAUSS_NODES + 1] = [[-1.0], [-2.0]]
        ends = panels.points[:: GAUSS_NODES + 1]
        rng = np.random.default_rng(3)
        y = np.concatenate([rng.uniform(ends[:-1], ends[1:]) for _ in range(25)])
        (out,) = panels.read(y, values)
        assert out.shape == (2, y.size)
        assert np.max(np.abs(out - np.stack([f(y), 2.0 * f(y)]))) < 1e-12
        assert np.all(panels.read(ends, values)[0] == [[-1.0], [-2.0]])
        assert np.all(panels.read(m.points[:: panels.width], values)[0] == [[-1.0], [-2.0]])

    @pytest.mark.parametrize("M, min_count", [
        (1001, 4), (10001, 2), (10001, 20), (506, 101), (506, 10**6),
    ])
    def test_restrict_is_the_transpose_of_interpolation(self, M, min_count):
        # restrict(v) . x == v . (x read at every mesh point) for any x at the
        # points, so the mesh rule of an interpolant is a sum over its points.
        # The read's local coordinate, 2 (y - left) / width - 1, rounds an ulp
        # away from interp's offsets, and random x has a steep interpolant:
        # measured within 5.4e-14 of the sum of |terms| (506 points, 101
        # panels; 3.2e-15 or less on the others)
        m = build_mesh(90, 120, M)
        panels = gauss_panels(m, min_count)
        rng = np.random.default_rng(M + min_count)
        v, x = rng.standard_normal(m.M), rng.standard_normal((3, panels.points.size))
        (rows,) = panels.read(m.points, x)
        got = np.sum(x * panels.restrict(v), axis=-1)
        want = np.sum(rows * v, axis=-1)
        assert np.max(np.abs(got - want)) < 1e-13 * np.sum(np.abs(rows * v), axis=-1).max()

    def test_legendre_tail_reads_the_top_coefficients(self):
        m = build_mesh(90, 120, 1001)
        panels = gauss_panels(m, 2)
        x = np.polynomial.legendre.leggauss(GAUSS_NODES)[0]
        values = np.concatenate([
            np.polynomial.legendre.legval(x, [0.5, 1.0] + [0.0] * 20 + [3e-4, -2e-5]),
            np.polynomial.legendre.legval(x, [1.0] * 22),
        ])
        tail = panels.legendre_tail(np.insert(values, [0, GAUSS_NODES, 2 * GAUSS_NODES], 0.0))
        assert tail[0] == pytest.approx([3e-4, 2e-5], rel=1e-9)
        assert np.max(tail[1]) < 1e-13


class TestDerivative:
    def test_cubic(self):
        m = build_mesh(1, 2, 1001)
        d = derivative_values(m, m.points**3)
        exact = 3.0 * m.points**2
        assert np.max(np.abs(d - exact) / exact) < 1e-9

    def test_constant(self):
        m = build_mesh(1, 2, 101)
        d = derivative_values(m, np.full(m.M, 4.2))
        assert np.max(np.abs(d)) < 1e-12

    def test_sine(self):
        m = build_mesh(1, 2, 2001)
        d = derivative_values(m, np.sin(m.points))
        assert np.max(np.abs(d - np.cos(m.points))) < 1e-8


def test_grid_function_validation():
    m = build_mesh(1, 2, 101)
    with pytest.raises(ValueError, match="length"):
        GridFunction(m, np.ones(50))
    with pytest.raises(ValueError, match="finite"):
        GridFunction(m, np.full(m.M, np.nan))


def test_cumulative_integral_matches_quadrature():
    m = build_mesh(2, 5, 301)
    vals = np.cos(m.points) ** 2
    F = cumulative_integral(m, vals)
    exact = 0.5 * (m.points - 2.0) + 0.25 * (np.sin(2 * m.points) - math.sin(4.0))
    assert np.max(np.abs(F - exact)) < 1e-11
