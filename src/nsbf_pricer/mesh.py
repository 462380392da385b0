"""Uniform mesh on [L, U] and the shared quadrature/interpolation kit.

Every function of the price variable is carried as samples on one mesh.
Cumulative integrals use composite six-point Newton-Cotes panels (five
subintervals each); interior nodes of a panel are filled by integrating
the panel's quintic interpolant, so the antiderivative keeps a single
order of accuracy at every node.  Off-mesh evaluation and numerical
differentiation use stencils of matching order; an interpolation stencil
is built once per set of points and applied to any stack of functions.
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


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.mesh.M:
            raise ValueError(
                f"values have length {len(self.values)}, mesh has {self.mesh.M} points"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")

    @classmethod
    def from_callable(cls, mesh: Mesh, fn) -> "GridFunction":
        return cls(mesh, np.asarray(fn(mesh.points), dtype=float))


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
    return Mesh(L=float(L), U=float(U), M=int(M), points=points, h=h)


def _same_mesh(a: Mesh, b: Mesh) -> bool:
    return a is b or (a.M == b.M and a.L == b.L and a.U == b.U)


def cumulative_integral(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """F with F(L) = 0 and F' ~ values, via composite six-point Newton-Cotes.

    Interior nodes of each panel receive the integral of that panel's
    quintic interpolant, so the result is degree-5 exact at every node.
    """
    values = np.asarray(values, dtype=float)
    n_panels = (mesh.M - 1) // PANEL
    idx = PANEL * np.arange(n_panels)[:, None] + np.arange(PANEL + 1)[None, :]
    # partial[p, k-1] = integral over [panel start, node k], k = 1..5
    partial = mesh.h * (values[idx] @ _CUM_WEIGHTS.T)
    starts = np.concatenate(([0.0], np.cumsum(partial[:, -1])[:-1]))
    out = np.empty(mesh.M)
    out[0] = 0.0
    out[1:] = (starts[:, None] + partial).ravel()
    return out


def antiderivative(f: GridFunction) -> GridFunction:
    """Antiderivative vanishing at the mesh's lower endpoint."""
    return GridFunction(f.mesh, cumulative_integral(f.mesh, f.values))


def integrate(mesh: Mesh, values: np.ndarray):
    """Integral over the full interval [L, U]; stacked rows give one per row.

    The closed panel rule of cumulative_integral, summed panel by panel in
    the same order, read through a strided view of the panels and without
    filling the interior nodes.
    """
    values = np.asarray(values, dtype=float)
    panels = sliding_window_view(values, PANEL + 1, axis=-1)[..., ::PANEL, :]
    total = np.cumsum(mesh.h * (panels @ _CUM_WEIGHTS.T)[..., -1], axis=-1)[..., -1]
    return float(total) if values.ndim == 1 else total


def inner_product(g1: GridFunction, g2: GridFunction, w: GridFunction) -> float:
    """Weighted scalar product int_L^U g1 g2 w dy with the panel rule."""
    if not (_same_mesh(g1.mesh, g2.mesh) and _same_mesh(g1.mesh, w.mesh)):
        raise ValueError("mesh mismatch between inner-product operands")
    return integrate(g1.mesh, g1.values * g2.values * w.values)


@dataclass(frozen=True)
class Stencil:
    """Local quintic Lagrange interpolation at fixed points, six nodes per point.

    Built once by stencil() and applied to any stack of functions on the
    mesh (leading axes); the points run along the last axis of the result.
    """

    nodes: np.ndarray  # (P, 6) mesh indices
    d: np.ndarray  # (P, 6) offsets from the nodes in units of h, 1 at a hit node
    den: np.ndarray  # (P,) barycentric denominators
    on_node: np.ndarray  # (P, 6) the point sits on this node

    def __call__(self, values: np.ndarray) -> np.ndarray:
        fv = np.asarray(values)[..., self.nodes]
        # C order: the reduction may hand back stacked rows in F order, and a
        # matmul over them would then take another BLAS path
        out = np.ascontiguousarray(np.sum(_BARY * fv / self.d, axis=-1) / self.den)
        hit = self.on_node.any(axis=1)
        if np.any(hit):
            out[..., hit] = fv[..., hit, :][..., self.on_node[hit]]
        return out


def stencil(mesh: Mesh, y) -> Stencil:
    """The interpolation stencil at points y (scalar or array) inside [L, U]."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    pad = 1e-12 * (mesh.U - mesh.L)
    if np.any(y_arr < mesh.L - pad) or np.any(y_arr > mesh.U + pad):
        raise ValueError(f"evaluation point outside [{mesh.L}, {mesh.U}]")
    y_arr = np.clip(y_arr, mesh.L, mesh.U)
    pos = (y_arr - mesh.L) / mesh.h
    start = np.clip(np.floor(pos).astype(int) - 2, 0, mesh.M - 6)
    d = (pos - start)[:, None] - np.arange(6)[None, :]  # t in [0, 5] relative to the stencil
    on_node = np.abs(d) < 1e-12
    d = np.where(on_node, 1.0, d)
    return Stencil(start[:, None] + np.arange(6)[None, :], d, np.sum(_BARY / d, axis=1), on_node)


def interpolate_values(mesh: Mesh, values: np.ndarray, y) -> np.ndarray:
    """Local quintic Lagrange interpolation at points y (scalar or array)."""
    out = stencil(mesh, y)(values)
    return out if np.ndim(y) else float(out[0])


def interpolate(f: GridFunction, y) -> float:
    return interpolate_values(f.mesh, f.values, y)


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


def derivative(f: GridFunction) -> GridFunction:
    return GridFunction(f.mesh, derivative_values(f.mesh, f.values))
