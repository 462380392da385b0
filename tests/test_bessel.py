import math

import mpmath
import numpy as np
import pytest
from scipy.special import spherical_jn

from nsbf_pricer.bessel import _jn_block, spherical_jn_block

from dual_routes import masked_jn_block


def closed_j0(x):
    return np.where(x == 0, 1.0, np.sin(x) / np.where(x == 0, 1.0, x))


def closed_j1(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz] ** 2 - np.cos(x[nz]) / x[nz]
    return out


def closed_j2(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nz = x != 0
    out[nz] = (3.0 / x[nz] ** 3 - 1.0 / x[nz]) * np.sin(x[nz]) - 3.0 * np.cos(x[nz]) / x[nz] ** 2
    return out


def test_j0_at_pi():
    block = spherical_jn_block(math.pi, 3)
    assert abs(block[0]) < 1e-14


def test_j1_at_two():
    block = spherical_jn_block(2.0, 3)
    expected = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0  # 0.435397...
    assert block[1] == pytest.approx(expected, abs=1e-14)
    assert block[1] == pytest.approx(0.4353977749, abs=1e-9)


def test_zero_argument():
    block = spherical_jn_block(0.0, 5)
    assert block[0] == 1.0
    assert np.all(block[1:] == 0.0)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 50.0, 100.0])
def test_closed_forms_low_orders(x):
    block = spherical_jn_block(x, 90)
    assert abs(block[0] - closed_j0(np.array([x]))[0]) < 1e-12
    assert abs(block[1] - closed_j1(np.array([x]))[0]) < 1e-12
    assert abs(block[2] - closed_j2(np.array([x]))[0]) < 1e-12


def test_block_against_scipy():
    x = np.concatenate([
        np.linspace(1e-4, 1.9, 23),
        np.linspace(2.0, 30.0, 41),
        np.linspace(30.5, 180.0, 37),
    ])
    m_max = 61
    block = spherical_jn_block(x, m_max)
    for m in range(0, m_max + 1, 7):
        ref = spherical_jn(m, x)
        err = np.abs(block[m] - ref)
        # absolute scale set by the largest order-m value
        assert np.max(err) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_bounded_by_one():
    x = np.linspace(0.0, 150.0, 301)
    block = spherical_jn_block(x, 40)
    assert np.max(np.abs(block)) <= 1.0 + 1e-12


def test_near_sine_zeros_stable():
    # normalization must not blow up where sin(x)/x vanishes
    x = np.array([math.pi, 2 * math.pi, 15 * math.pi])
    block = spherical_jn_block(x, 30)
    ref = np.array([spherical_jn(m, x) for m in range(31)])
    assert np.max(np.abs(block - ref)) < 1e-12


def test_scalar_and_array_shapes():
    assert spherical_jn_block(3.0, 4).shape == (5,)
    assert spherical_jn_block(np.ones((2, 3)), 4).shape == (5, 2, 3)
    with pytest.raises(ValueError):
        spherical_jn_block(-1.0, 3)


@pytest.mark.parametrize("x", [[math.nan, 1.0], [math.inf]])
def test_non_finite_argument_rejected(x):
    # a NaN fails every regime test, so its column would be left unwritten
    with pytest.raises(ValueError, match="finite"):
        spherical_jn_block(np.array(x), 3)


def _mpmath_jn(m, x):
    """j_m(x) = sqrt(pi / 2x) J_{m+1/2}(x) at 40 significant digits."""
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        return float(mpmath.sqrt(mpmath.pi / (2 * xm)) * mpmath.besselj(m + mpmath.mpf(1) / 2, xm))


@pytest.mark.parametrize("m_max", [0, 1, 5, 11, 21, 61])
def test_block_against_mpmath(m_max):
    # every regime and both switch points: the series below 2, Miller on
    # [2, m_max), upward recursion from max(m_max, 2) on
    top = float(m_max)
    x = [0.0, 1e-8, 1e-3, 0.5, 1.99, 2.0,
         math.nextafter(top, 0.0), top, math.nextafter(top, math.inf),
         top - 0.5, top + 0.5, 30.3, 75.0, 200.0]
    x = np.array(sorted({v for v in x if v >= 0.0}))
    block = spherical_jn_block(x, m_max)
    ref = np.array([[_mpmath_jn(m, v) for v in x] for m in range(m_max + 1)])
    assert np.max(np.abs(block - ref)) <= 1e-15


# Regime switches: the series below 2, Miller buckets starting at 2, 16, 32,
# 128 and 512, each capped at m_max, and upward recursion from max(m_max, 2).
SWITCHES = (2.0, 16.0, 32.0, 128.0, 512.0)
M_MAXES = [0, 1, 5, 9, 11, 61]
# from m_max of about 250 on, the Miller sweep of arguments near 2 grows past
# the rescale limit, so 300 exercises the overflow rescale
RESCALING_M_MAX = 300


def _assert_same_as_masked(x, m_max, trig=None):
    """Full and odd-only blocks equal the masked reference bit for bit."""
    ref = masked_jn_block(x, m_max, trig)
    full = spherical_jn_block(x, m_max) if trig is None else _jn_block(x, m_max, trig)
    assert full.shape == ref.shape and np.array_equal(full, ref)
    odd = _jn_block(x, m_max, trig, odd=True)
    assert odd.shape == ref[1::2].shape and np.array_equal(odd, ref[1::2])


@pytest.fixture(scope="module")
def mesh_arguments(medium, short):
    """omega l(y) on the mesh at the first, middle and last root of both presets."""
    out = []
    for s in (medium(-1.0, 2.0), short(-2.0, 3.0)):
        omegas = [p.omega for p in s.pairs]
        out += [om * s.sl.l for om in (omegas[0], omegas[len(omegas) // 2], omegas[-1])]
    return out


@pytest.mark.parametrize("m_max", M_MAXES)
def test_block_equals_masked_reference_on_mesh_arguments(mesh_arguments, m_max):
    rng = np.random.default_rng(m_max)
    for x in mesh_arguments:
        _assert_same_as_masked(x, m_max, (np.sin(x), np.cos(x)))
        for y in (x[::-1], rng.permutation(x), x[1:].reshape(100, 100)):
            _assert_same_as_masked(y, m_max)


@pytest.mark.parametrize("m_max", M_MAXES + [RESCALING_M_MAX])
def test_block_equals_masked_reference_at_regime_switches(m_max):
    points = sorted(
        v
        for edge in SWITCHES + (float(m_max),)
        for v in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
    )
    x = np.array(points)
    for y in (x, x[::-1], x.reshape(3, -1)):
        _assert_same_as_masked(y, m_max)
    for v in points + [0.0]:
        _assert_same_as_masked(v, m_max)
