"""Crank-Nicolson finite-difference oracle for the barrier problem.

Independent verification path: discretizes the pricing operator
(1/2) sigma^2 y^2 d_yy + mu y d_y - (rbar + h) directly from the model
callables (it never touches the spectral machinery), marches backward
from the payoff with damped (fully implicit) startup steps to suppress
the oscillations Crank-Nicolson develops on kinked or discontinuous
terminal data, and returns the full value matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import InstabilityError
from .model import DiffusionSpec, sample
from .pricing import OptionContract, check_quote_point


@dataclass(frozen=True)
class FDGrid:
    """Space/time resolution; t_count is the number of backward steps.

    Each of the first damping_steps steps is executed as four fully
    implicit quarter-steps (needed whenever the terminal data is kinked
    or inconsistent with the boundary values).
    """

    y_count: int = 801
    t_count: int = 400
    damping_steps: int = 2

    def __post_init__(self):
        for name, least in (("y_count", 201), ("t_count", 200), ("damping_steps", 2)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class FDSolution:
    y: np.ndarray
    t: np.ndarray
    values: np.ndarray  # shape (t_count + 1, y_count); row 0 is t = 0

    def at(self, y0: float, t0: float = 0.0) -> float:
        """The value at the grid time nearest t0, interpolated linearly at y0.

        y0 must be finite and in [L, U], and t0 in [0, T], as for a quote.
        """
        check_quote_point(y0, t0, self.y[0], self.y[-1], self.t[-1])
        ti = int(np.argmin(np.abs(self.t - t0)))
        return float(np.interp(y0, self.y, self.values[ti]))


def _operator_bands(spec: DiffusionSpec, y: np.ndarray, dy: float):
    """Tridiagonal bands of the pricing operator on the interior nodes."""
    yi = y[1:-1]
    sig = sample(spec, "sigma", yi)
    rbar, haz = sample(spec, "rbar", yi), sample(spec, "hazard", yi)
    mu = rbar - sample(spec, "qbar", yi) + haz  # martingale drift
    kill = rbar + haz
    a = 0.5 * sig**2 * yi**2 / dy**2
    b = mu * yi / (2.0 * dy)
    lower = a - b
    diag = -2.0 * a - kill
    upper = a + b
    return lower, diag, upper


def _theta_step(v, lower, diag, upper, dt, theta, bc_upper):
    """(I - theta dt A) v_new = (I + (1-theta) dt A) v_old with Dirichlet ends."""
    n = v.size - 2
    rhs = v[1:-1] + (1.0 - theta) * dt * (
        lower * v[:-2] + diag * v[1:-1] + upper * v[2:]
    )
    # constant Dirichlet data enters both sides of the split
    rhs[-1] += theta * dt * upper[-1] * bc_upper
    ab = np.zeros((3, n))
    ab[0, 1:] = -theta * dt * upper[:-1]
    ab[1, :] = 1.0 - theta * dt * diag
    ab[2, :-1] = -theta * dt * lower[1:]
    out = v.copy()
    out[1:-1] = solve_banded((1, 1), ab, rhs)
    return out


def solve_pde(spec: DiffusionSpec, contract: OptionContract, grid: FDGrid) -> FDSolution:
    """Backward Crank-Nicolson solve of the barrier boundary value problem."""
    y = np.linspace(contract.L, contract.U, grid.y_count)
    dy = y[1] - y[0]
    if contract.style == "call":
        payoff = np.maximum(y - contract.K, 0.0)
    elif contract.style == "put":
        payoff = np.maximum(contract.K - y, 0.0)
    else:
        payoff = np.interp(y, contract.payoff.mesh.points, contract.payoff.values)

    R = contract.rebate
    lower, diag, upper = _operator_bands(spec, y, dy)
    dt = contract.T / grid.t_count
    bound = 10.0 * (float(np.max(np.abs(payoff))) + R)

    v = payoff.copy()
    v[0] = 0.0
    v[-1] = R
    values = np.empty((grid.t_count + 1, grid.y_count))
    values[-1] = v
    for k in range(grid.t_count):
        if k < grid.damping_steps:
            for _ in range(4):
                v = _theta_step(v, lower, diag, upper, dt / 4.0, 1.0, R)
        else:
            v = _theta_step(v, lower, diag, upper, dt, 0.5, R)
        if np.max(np.abs(v)) > bound:
            raise InstabilityError("finite-difference values left the payoff range")
        values[grid.t_count - 1 - k] = v

    t = np.linspace(0.0, contract.T, grid.t_count + 1)
    return FDSolution(y=y, t=t, values=values)


def fd_price(
    spec: DiffusionSpec, contract: OptionContract, grid: FDGrid, y0: float
) -> float:
    """Price at (y0, 0) from the oracle solve; a bad spot is refused before the solve."""
    check_quote_point(y0, 0.0, contract.L, contract.U, contract.T)
    return solve_pde(spec, contract, grid).at(y0, 0.0)
