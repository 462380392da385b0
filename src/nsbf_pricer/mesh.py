"""Uniform mesh on [L, U] and the shared quadrature/interpolation kit.

Every function of the price variable is carried as samples on one mesh.
Quadrature is composite six-point Newton-Cotes: a full-interval integral
is one sum against Mesh.weights, a cumulative one fills each panel's
interior nodes from its quintic interpolant.  Off-mesh points are read
through a Stencil, six quintic Lagrange weights per point applied to any
stack of functions; differentiation uses five-point stencils of matching
order.  GaussPanels tile the mesh with equal panels of Gauss-Legendre
nodes: a smooth function kept at the nodes and panel ends is read at any
point by its panel's barycentric interpolant (GaussPanels.read), and the
transpose of that read at the mesh points takes the mesh rule to the
panel points (GaussPanels.restrict).
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
        fv = np.asarray(values, dtype=float)[..., self.nodes]
        return np.sum(np.multiply(fv, self.weights, out=fv), axis=-1)


def _inside(L: float, U: float, y) -> np.ndarray:
    """Finite points y (scalar or array) inside [L, U] up to 1e-12 (U - L), clipped to it."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    pad = 1e-12 * (U - L)
    if not ((y_arr >= L - pad) & (y_arr <= U + pad)).all():  # NaN fails both
        bad = "is not finite" if not np.all(np.isfinite(y_arr)) else f"outside [{L}, {U}]"
        raise ValueError(f"evaluation point {bad}")
    return np.minimum(np.maximum(y_arr, L), U)


def _barycentric(d: np.ndarray, bary: np.ndarray, tol: float) -> np.ndarray:
    """Interpolation weights (P, k) from the offsets d (P, k) of P points from k nodes.

    bary holds the nodes' barycentric weights (Berrut & Trefethen 2004); a
    point within tol of a node reads it alone.  d is overwritten.
    """
    rows, cols = np.nonzero(np.abs(d) <= tol)
    d[rows, cols] = 1.0
    terms = bary / d
    terms /= terms.sum(1, keepdims=True)
    terms[rows] = np.arange(d.shape[1]) == cols[:, None]
    return terms


def stencil(mesh: Mesh, y) -> Stencil:
    """The interpolation stencil at finite points y (scalar or array) inside [L, U]."""
    pos = (_inside(mesh.L, mesh.U, y) - mesh.L) / mesh.h
    start = np.clip(np.floor(pos).astype(int) - 2, 0, mesh.M - 6)
    # offsets t in [0, 5] from the stencil's nodes; within 1e-12 h a node reads exactly
    weights = _barycentric((pos - start)[:, None] - np.arange(6)[None, :], _BARY, 1e-12)
    return Stencil(start[:, None] + np.arange(6)[None, :], weights)


# Gauss-Legendre nodes per panel.  Probe on the one-day (-2, 3) basis, 56
# pairs: 16 panels x 16 nodes read the rows within 1.3e-6 of their sup,
# 16 x 24 within 2.8e-13; the node count matters more than the panel count.
GAUSS_NODES = 24
_X, _W = np.polynomial.legendre.leggauss(GAUSS_NODES)
# node values -> the top two Legendre coefficients of their interpolant,
# c_k = (k + 1/2) sum_j w_j P_k(x_j) f(x_j), exact below degree GAUSS_NODES
_TAIL = (np.polynomial.legendre.legvander(_X, GAUSS_NODES - 1)[:, -2:] * _W[:, None]
         * (np.arange(GAUSS_NODES - 2, GAUSS_NODES) + 0.5))
# one panel's points on [-1, 1] (left end, nodes, right end) over their
# barycentric weights; the ends take none, so only an end itself reads one
_PANEL = np.zeros((2, GAUSS_NODES + 2))
_PANEL[:, 1:-1] = _X, (-1.0) ** np.arange(GAUSS_NODES) * np.sqrt((1.0 - _X * _X) * _W)
_PANEL[0, [0, -1]] = -1.0, 1.0


@dataclass(frozen=True)
class GaussPanels:
    """Equal panels tiling a mesh, width intervals each, with GAUSS_NODES Gauss-Legendre nodes.

    points lists, in y order, each panel's left end and nodes, then the last
    end U; the ends are mesh points.  weights is the Gauss rule on the
    points, int_L^U f = sum(f(points) * weights), zero at the ends.  Column j
    of interp (GAUSS_NODES + 2, width + 1) holds the read's weights on one
    panel's points at its mesh point j, ends included.
    """

    count: int
    width: int
    points: np.ndarray
    weights: np.ndarray
    interp: np.ndarray

    def read(self, y, *values: np.ndarray) -> list:
        """Each of values (..., points) read at finite points y (scalar or array) inside [L, U].

        Per panel, its values times each point's weights, summed by numpy in
        one fixed order: a value's bits do not depend on the points and rows
        read with it, and no product outgrows a panel.
        """
        ends = self.points[:: GAUSS_NODES + 1]
        y_arr = _inside(ends[0], ends[-1], y)
        k = np.minimum(np.searchsorted(ends, y_arr, side="right") - 1, self.count - 1)
        left, right = ends[k], ends[k + 1]
        x = 2.0 * (y_arr - left) / (right - left) - 1.0  # on [-1, 1]; an end exactly
        weights = _barycentric(x[:, None] - _PANEL[0], _PANEL[1], 0.0)
        out = [np.empty(v.shape[:-1] + y_arr.shape) for v in values]
        for panel in np.unique(k).tolist():
            inside, start = k == panel, panel * (GAUSS_NODES + 1)
            w = weights[inside]
            for v, o in zip(values, out):
                o[..., inside] = (v[..., None, start : start + GAUSS_NODES + 2] * w).sum(axis=-1)
        return out

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """The transpose of the read at the mesh points: sum(f(points) * restrict(v)) = sum(f * v).

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
    x = -1.0 + 2.0 * np.arange(width + 1) / width
    interp = np.ascontiguousarray(_barycentric(x[:, None] - _PANEL[0], _PANEL[1], 0.0).T)
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
