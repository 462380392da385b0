"""Uniform mesh on [L, U] and the shared quadrature/interpolation kit.

Every function of the price variable is carried as samples on one mesh.
Quadrature is composite six-point Newton-Cotes: a full-interval integral
is one sum against Mesh.weights, a cumulative one fills each panel's
interior nodes from its quintic interpolant.  Off-mesh points are read
through a Stencil, six quintic Lagrange weights per point formed once and
applied to any stack of functions as one weighted sum; differentiation
uses five-point stencils of matching order.  GaussPanels tile the mesh with
equal panels of Gauss-Legendre nodes: a smooth function evaluated at the
nodes and at the panel ends is read at any mesh point through one
barycentric interpolation matrix that all panels share, and its transpose
takes the mesh rule against the interpolant to the panel points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PANEL = 5  # subintervals per quadrature panel; mesh size must be 1 mod 5

# Integral of the quintic Lagrange basis polynomial l_j over [0, k] in units
# of the spacing h, times 1440 (exact rationals; row k-1 holds the weights
# for integrating from the panel's left edge up to node k).  Row 5 is the
# classic closed six-point Newton-Cotes rule.
_CUM_WEIGHTS = np.array(
    [
        [475, 1427, -798, 482, -173, 27],
        [448, 2064, 224, 224, -96, 16],
        [459, 1971, 1026, 1026, -189, 27],
        [448, 2048, 768, 2048, 448, 0],
        [475, 1875, 1250, 1250, 1875, 475],
    ],
    dtype=float,
) / 1440.0

# Barycentric weights of six uniform nodes: (-1)^j C(5, j).
_BARY = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])

# Five-point differentiation stencils, times 12h: interior central rule plus
# one-sided fourth-order rules for the two nodes at each end.
_D_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


@dataclass(frozen=True)
class Mesh:
    """Uniform grid y_1 = L < ... < y_M = U with spacing h = (U-L)/(M-1)."""

    L: float
    U: float
    M: int
    points: np.ndarray
    h: float
    weights: np.ndarray  # closed six-point rule on every panel: int_L^U f = sum(f * weights)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a mesh and checked finite, such as a custom payoff."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.mesh.M:
            raise ValueError(
                f"values have length {len(self.values)}, mesh has {self.mesh.M} points"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")


def build_mesh(L: float, U: float, M: int) -> Mesh:
    """Uniform mesh on [L, U] with M nodes, M = 1 mod 5 so panels tile exactly."""
    if not (U > L > 0.0):
        raise ValueError(f"invalid bounds: require U > L > 0, got L={L}, U={U}")
    if M < PANEL + 1 or M % PANEL != 1:
        raise ValueError(f"invalid count: require M >= 6 and M = 1 mod 5, got M={M}")
    h = (U - L) / (M - 1)
    points = L + h * np.arange(M)
    points[-1] = U  # pin the endpoints exactly
    points[0] = L
    weights = np.append(np.tile(_CUM_WEIGHTS[-1, :-1], (M - 1) // PANEL), 0.0)
    weights[PANEL::PANEL] += _CUM_WEIGHTS[-1, -1]
    return Mesh(L=float(L), U=float(U), M=int(M), points=points, h=h, weights=h * weights)


def _same_mesh(a: Mesh, b: Mesh) -> bool:
    return a is b or (a.M == b.M and a.L == b.L and a.U == b.U)


def _panel_partials(mesh: Mesh, values) -> np.ndarray:
    """partial[..., p, k-1] = integral over [start of panel p, its node k], k = 1..5.

    The panels are read through a strided view of the values, not copied.
    """
    values = np.asarray(values, dtype=float)
    panels = sliding_window_view(values, PANEL + 1, axis=-1)[..., ::PANEL, :]
    return mesh.h * (panels @ _CUM_WEIGHTS.T)


def cumulative_integral(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """F with F(L) = 0 and F' ~ values, via composite six-point Newton-Cotes.

    Interior nodes of each panel receive the integral of that panel's
    quintic interpolant, so the result is degree-5 exact at every node.
    """
    partial = _panel_partials(mesh, values)
    starts = np.concatenate(([0.0], np.cumsum(partial[:, -1])[:-1]))
    return np.concatenate(([0.0], (starts[:, None] + partial).ravel()))


def inner_product(g1: GridFunction, g2: GridFunction, w: GridFunction) -> float:
    """int_L^U g1 g2 w dy as sum(g2 * (g1 * (w * weights))), the order of pricing's projection."""
    if not (_same_mesh(g1.mesh, g2.mesh) and _same_mesh(g1.mesh, w.mesh)):
        raise ValueError("mesh mismatch between inner-product operands")
    return float(np.sum(g2.values * (g1.values * (w.values * g1.mesh.weights))))


@dataclass(frozen=True)
class Stencil:
    """Local quintic Lagrange interpolation at fixed points, six nodes per point.

    stencil() forms the weights once; a call is one weighted sum over the gathered
    nodes of any stack of functions on the mesh (leading axes), points along the last axis.
    """

    nodes: np.ndarray  # (P, 6) mesh indices
    weights: np.ndarray  # (P, 6) Lagrange weights, one-hot where the point sits on a node

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.combine(np.asarray(values, dtype=float)[..., self.nodes])

    def combine(self, fv: np.ndarray) -> np.ndarray:
        """The weighted sum of fv, values at the nodes (..., P, 6), which it overwrites."""
        # C order: the reduction may hand back stacked rows in F order, and a
        # matmul over them would then take another BLAS path
        return np.ascontiguousarray(np.sum(np.multiply(fv, self.weights, out=fv), axis=-1))


def stencil(mesh: Mesh, y) -> Stencil:
    """The interpolation stencil at finite points y (scalar or array) inside [L, U]."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("evaluation point is not finite")
    pad = 1e-12 * (mesh.U - mesh.L)
    if np.any(y_arr < mesh.L - pad) or np.any(y_arr > mesh.U + pad):
        raise ValueError(f"evaluation point outside [{mesh.L}, {mesh.U}]")
    y_arr = np.clip(y_arr, mesh.L, mesh.U)
    pos = (y_arr - mesh.L) / mesh.h
    start = np.clip(np.floor(pos).astype(int) - 2, 0, mesh.M - 6)
    d = (pos - start)[:, None] - np.arange(6)[None, :]  # t in [0, 5] relative to the stencil
    on_node = np.abs(d) < 1e-12  # such a point reads its node exactly: one-hot weights
    bary = _BARY / np.where(on_node, 1.0, d)
    weights = np.where(on_node.any(1, keepdims=True), on_node, bary / bary.sum(1, keepdims=True))
    return Stencil(start[:, None] + np.arange(6)[None, :], weights)


# Gauss-Legendre nodes per panel.  Probe on the one-day (-2, 3) basis, 56
# pairs: 16 panels x 16 nodes read the rows within 1.3e-6 of their sup,
# 16 x 24 within 2.8e-13; the node count matters more than the panel count.
GAUSS_NODES = 24
_X, _W = np.polynomial.legendre.leggauss(GAUSS_NODES)
# node values -> the top two Legendre coefficients of their interpolant,
# c_k = (k + 1/2) sum_j w_j P_k(x_j) f(x_j), exact below degree GAUSS_NODES
_TOP = np.arange(GAUSS_NODES - 2, GAUSS_NODES)
_TAIL = np.polynomial.legendre.legvander(_X, GAUSS_NODES - 1)[:, _TOP] * (_TOP + 0.5) * _W[:, None]


@dataclass(frozen=True)
class GaussPanels:
    """Equal panels tiling a mesh, width intervals each, with GAUSS_NODES Gauss-Legendre nodes.

    points lists, in y order, each panel's left end and nodes, then the last
    end U; the ends are mesh points.  weights is the Gauss rule on the
    points, int_L^U f = sum(f(points) * weights), zero at the ends.  interp
    (GAUSS_NODES + 2, width + 1) takes the values at one panel's points and
    its right end to its mesh points: barycentric interpolation inside, the
    end values themselves at the ends.
    """

    count: int
    width: int
    points: np.ndarray
    weights: np.ndarray
    interp: np.ndarray

    def mesh_values(self, values: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The interpolant of values (..., points) at the mesh indices m, (...,) + m.shape.

        One matrix product per panel that m reaches, over that panel's points.
        """
        k = np.minimum(m // self.width, self.count - 1)
        out = np.empty(values.shape[:-1] + m.shape)
        for panel in np.unique(k):
            inside, start = k == panel, panel * (GAUSS_NODES + 1)
            cols = self.interp[:, m[inside] - panel * self.width]
            out[..., inside] = values[..., start : start + GAUSS_NODES + 2] @ cols
        return out

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """The transpose of interpolation onto the mesh: sum(f(points) * restrict(v)) = sum(f * v).

        Each panel's left end and nodes take the panel's mesh values, right
        end excluded, through interp's transpose; U takes v(U).
        """
        panels = v[:-1].reshape(self.count, self.width)
        return np.append((panels @ self.interp[:-1, :-1].T).ravel(), v[-1])

    def legendre_tail(self, values: np.ndarray) -> np.ndarray:
        """|c_k| of the top two Legendre coefficients of one row's interpolant, (count, 2)."""
        return np.abs(values[:-1].reshape(self.count, GAUSS_NODES + 1)[:, 1:] @ _TAIL)


def gauss_panels(mesh: Mesh, min_count: int) -> GaussPanels:
    """The fewest equal panels, at least min_count, whose ends are mesh points.

    The count divides M - 1, so one interpolation matrix serves every panel;
    at most M - 1 panels of one interval each, whose mesh points are all ends.
    """
    intervals = mesh.M - 1
    first = min(max(min_count, 1), intervals)
    count = next(d for d in range(first, intervals + 1) if intervals % d == 0)
    width = intervals // count
    ends = mesh.points[::width]
    centre, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
    points = np.column_stack([ends[:-1], centre[:, None] + half[:, None] * _X])
    weights = np.column_stack([np.zeros(count), half[:, None] * _W])
    # barycentric weights of Gauss-Legendre nodes (Berrut & Trefethen 2004);
    # no interior offset of a panel up to 20000 intervals wide is a node
    bary = (-1.0) ** np.arange(GAUSS_NODES) * np.sqrt((1.0 - _X * _X) * _W)
    terms = bary[:, None] / ((-1.0 + 2.0 * np.arange(1, width) / width) - _X[:, None])
    interp = np.zeros((GAUSS_NODES + 2, width + 1))
    interp[0, 0] = interp[-1, -1] = 1.0
    interp[1:-1, 1:-1] = terms / terms.sum(0)
    return GaussPanels(count, width, np.append(points.ravel(), ends[-1]),
                       np.append(weights.ravel(), 0.0), interp)


def derivative_values(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Five-point central differences, one-sided fourth order at the ends."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / 12.0
    out[0] = _D_EDGE0 @ v[:5]
    out[1] = _D_EDGE1 @ v[:5]
    out[-2] = -(_D_EDGE1 @ v[-5:][::-1])
    out[-1] = -(_D_EDGE0 @ v[-5:][::-1])
    return out / mesh.h
