import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer.mesh import build_mesh
from nsbf_pricer.model import SLCoefficients

L, U, Y0 = 90.0, 120.0, 100.0


def make_solver(beta, gamma, short=False, **overrides):
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=beta, gamma=gamma))
    kw = dict(omega_max=100.0) if short else {}
    kw.update(overrides)
    return nb.DoubleBarrierSolver(spec, L, U, nb.NumericsConfig(**kw))


@pytest.fixture(scope="session")
def medium():
    """Cached six-month solvers keyed by (beta, gamma), derivatives included."""
    cache = {}

    def get(beta, gamma):
        key = (beta, gamma)
        if key not in cache:
            cache[key] = make_solver(beta, gamma).solve()
        return cache[key]

    return get


@pytest.fixture(scope="session")
def short():
    """Cached one-day solvers (wide omega window), derivatives included."""
    cache = {}

    def get(beta, gamma):
        key = (beta, gamma)
        if key not in cache:
            cache[key] = make_solver(beta, gamma, short=True).solve()
        return cache[key]

    return get


@pytest.fixture(scope="session")
def flat_sl():
    """Synthetic constant-coefficient problem p = w = 1, q = 0 on [1, 2]."""
    mesh = build_mesh(1.0, 2.0, 5001)
    ones = np.ones(mesh.M)
    x = mesh.points - 1.0
    return SLCoefficients(
        mesh=mesh,
        p=ones,
        q=0.0 * ones,
        w=ones,
        l=x,
        rho=ones,
        rho_prime=0.0 * ones,
    )


@pytest.fixture(scope="session")
def cosh_sl():
    """Synthetic p = w = q = 1 on [1, 2]; the particular solution is cosh(y-1)."""
    mesh = build_mesh(1.0, 2.0, 5001)
    ones = np.ones(mesh.M)
    x = mesh.points - 1.0
    return SLCoefficients(
        mesh=mesh,
        p=ones,
        q=ones,
        w=ones,
        l=x,
        rho=ones,
        rho_prime=0.0 * ones,
    )
