import math

import numpy as np
import pytest

from nsbf_pricer.mesh import (
    GridFunction,
    build_mesh,
    cumulative_integral,
    derivative_values,
    inner_product,
    integrate,
    interpolate,
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
            assert abs(integrate(m, np.polyval(c, y)) - exact) < 1e-12
        # a different quintic on each side of every panel edge
        for k in range(0, m.M, 5):
            f = np.maximum(y - y[k], 0.0) ** 5
            assert abs(integrate(m, f) - (2.0 - y[k]) ** 6 / 6.0) < 1e-12

    def test_agrees_with_cumulative_integral(self):
        for M in (101, 10001):
            m = build_mesh(90.0, 120.0, M)
            v = np.exp(m.points / 30.0) * np.sin(m.points)
            assert integrate(m, v) == pytest.approx(cumulative_integral(m, v)[-1], rel=1e-14)

    def test_stacked_rows_equal_single_rows(self):
        m = build_mesh(90.0, 120.0, 10001)
        rows = np.random.default_rng(11).normal(size=(9, m.M))
        for stack in (rows, rows[:1], rows[:4], rows[2:8]):
            assert np.array_equal(integrate(m, stack), [integrate(m, r) for r in stack])


class TestInnerProduct:
    def test_orthogonality(self):
        m = build_mesh(1, 2, 10001)
        w = GridFunction(m, np.ones(m.M))
        s1 = GridFunction.from_callable(m, lambda y: np.sin(np.pi * (y - 1)))
        s2 = GridFunction.from_callable(m, lambda y: np.sin(2 * np.pi * (y - 1)))
        assert abs(inner_product(s1, s2, w)) < 1e-10
        assert inner_product(s1, s1, w) == pytest.approx(0.5, abs=1e-10)

    def test_constant(self):
        m = build_mesh(90, 120, 10001)
        one = GridFunction(m, np.ones(m.M))
        assert inner_product(one, one, one) == pytest.approx(30.0, abs=1e-10)

    def test_positive_definite(self):
        m = build_mesh(1, 2, 501)
        w = GridFunction.from_callable(m, lambda y: 1.0 + 0.5 * np.sin(y))
        f = GridFunction.from_callable(m, lambda y: (y - 1.3) ** 2)
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
        f = GridFunction(m, m.points.copy())
        assert interpolate(f, 100.0015) == pytest.approx(100.0015, abs=1e-12)

    def test_quadratic_exact(self):
        m = build_mesh(90, 120, 10001)
        f = GridFunction(m, m.points**2)
        y = 90.0 + 7.5 * m.h  # mid-panel
        assert interpolate(f, y) == pytest.approx(y * y, abs=1e-9 * y * y)

    def test_exponential(self):
        m = build_mesh(90, 120, 10001)
        f = GridFunction(m, np.exp(m.points / 30.0))
        y = 105.0 + 0.4 * m.h
        assert interpolate(f, y) == pytest.approx(math.exp(y / 30.0), rel=1e-9)

    def test_node_hit(self):
        m = build_mesh(90, 120, 101)
        f = GridFunction(m, np.sin(m.points))
        assert interpolate(f, m.points[37]) == f.values[37]

    def test_out_of_range(self):
        m = build_mesh(90, 120, 101)
        f = GridFunction(m, np.ones(m.M))
        with pytest.raises(ValueError, match="outside"):
            interpolate(f, 89.0)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, [100.0, math.nan]])
    def test_non_finite_point_rejected(self, y):
        # a NaN point fails loudly, not as nan with a numpy cast warning
        m = build_mesh(90, 120, 101)
        f = GridFunction(m, np.ones(m.M))
        with pytest.raises(ValueError, match="not finite"):
            interpolate(f, y)


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
