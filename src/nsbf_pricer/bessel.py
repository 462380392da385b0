"""Spherical Bessel functions j_0..j_M, a whole block of orders per argument.

Each argument x is served by one of three regimes, chosen against the top
order M of the block:

* x < 2: the ascending series
  j_m(x) = x^m / (2m+1)!! * sum_k (-x^2/2)^k / (k! (2m+3)(2m+5)...(2m+2k+1)),
  summed by Horner's rule in x^2 for every order at once.  Fourteen terms
  reach machine precision, and no recursion has to climb through the
  astronomically small values of high orders at tiny x.
* x >= max(M, 2): upward recurrence j_{m+1} = ((2m+1)/x) j_m - j_{m-1} from
  the closed forms of j_0 and j_1.  It is stable while the order stays
  below the argument (Abramowitz & Stegun 10.1.19; the switch of Numerical
  Recipes' sphbes), and it costs M steps with no extra orders.
* 2 <= x < M: downward (Miller) recurrence j_m = ((2m+3)/x) j_{m+1} - j_{m+2},
  which is stable for every order.  The sweep is seeded with (0, tiny) far
  enough above M, run down to zero, and rescaled against the closed forms
  of j_0 and j_1 (whichever is larger in magnitude; they share no zeros).
  Overflow is tested only every few steps: one step grows the pair
  (j_{m+1}, j_{m+2}) by at most 1 + (2 m_top + 1)/x, so the test interval
  is set so that the growth between two tests stays inside the
  floating-point range.

The closed forms of j_0 and j_1 need sin x and cos x; a caller that already
holds them (eigenfunction assembly) passes them to the private _jn_block,
which can also keep the odd orders alone.  Each regime and Miller bucket is
a contiguous slice of an ascending argument (a mesh, an omega grid,
bisection midpoints) and writes straight into its columns; other input is
sorted stably once and the block scattered back.
"""

from __future__ import annotations

import numpy as np

_SERIES_CUTOFF = 2.0
_SERIES_TERMS = 14
_SEED = 1e-280
_RESCALE_LIMIT = 1e250
# decades left above the rescale limit before float64 overflows, with margin
_RESCALE_HEADROOM = 50.0
# Downward sweeps start max(20, ceil(1.2 x)) orders above the top requested
# order so the minimal solution dominates before storage begins; buckets of
# similar x share a sweep to keep the extra orders (and overflow risk) small.
# Below x = 50/3 the extra is the fixed 20, so the first bucket ends at 16.
_BUCKET_EDGES = (_SERIES_CUTOFF, 16.0, 32.0, 128.0, 512.0, np.inf)


def _series_block(x, m_max: int, sin_x, cos_x, odd: bool, out: np.ndarray):
    """Ascending series into out (odd orders if odd) for x < ~2; needs no sin_x, cos_x."""
    m = np.arange(m_max + 1, dtype=float)[:, None]
    kept = m[1::2] if odd else m
    x_sq = x * x
    acc = np.ones((kept.shape[0], x.size))
    term = np.empty_like(acc)
    for k in range(_SERIES_TERMS, 0, -1):
        np.divide(x_sq, 2.0 * k * (2.0 * (kept + k) + 1.0), out=term)
        term *= acc
        np.subtract(1.0, term, out=acc)
    lead = np.empty((m_max + 1, x.size))  # x^m / (2m+1)!!, over every order
    lead[0] = 1.0
    np.divide(x, 2.0 * m[1:] + 1.0, out=lead[1:])
    np.cumprod(lead, axis=0, out=lead)
    np.multiply(lead[1::2] if odd else lead, acc, out=out)


def _upward_block(x, m_max: int, sin_x, cos_x, odd: bool, out: np.ndarray):
    """Upward recurrence from the closed forms into out, stable for x >= m_max."""
    rows = list(out)
    if odd:  # even orders live in two alternating scratch rows
        scratch = np.empty((2, x.size))
        rows = [out[m // 2] if m % 2 else scratch[m // 2 % 2] for m in range(m_max + 1)]
    inv_x = 1.0 / x
    np.multiply(sin_x, inv_x, out=rows[0])
    if m_max >= 1:
        np.subtract(rows[0], cos_x, out=rows[1])
        rows[1] *= inv_x
    for m in range(1, m_max):
        nxt = rows[m + 1]
        np.multiply(rows[m], inv_x, out=nxt)
        nxt *= 2.0 * m + 1.0
        nxt -= rows[m - 1]


def _miller_block(x, m_max: int, sin_x, cos_x, odd: bool, out: np.ndarray):
    """Backward recursion into out for ascending 2 <= x < m_max (so m_max >= 3)."""
    extra = max(20, int(np.ceil(1.2 * float(x[-1]))))
    m_top = m_max + extra
    growth = 1.0 + (2.0 * m_top + 1.0) / float(x[0])
    check_every = max(1, int(_RESCALE_HEADROOM / np.log10(growth)))
    raw = np.zeros((m_max + 1, x.size))
    jp2 = np.zeros_like(x)  # unscaled j at order m+2
    jp1 = np.full_like(x, _SEED)  # unscaled j at order m+1
    jm = np.empty_like(x)
    for m in range(m_top - 1, -1, -1):
        np.divide(2.0 * m + 3.0, x, out=jm)
        jm *= jp1
        jm -= jp2
        jp2, jp1, jm = jp1, jm, jp2
        if m <= m_max:
            raw[m] = jp1
        if m % check_every == 0 and max(np.max(np.abs(jp1)), np.max(np.abs(jp2))) > _RESCALE_LIMIT:
            jp1 *= 1.0 / _RESCALE_LIMIT
            jp2 *= 1.0 / _RESCALE_LIMIT
            raw *= 1.0 / _RESCALE_LIMIT
    j0 = sin_x / x
    j1 = j0 / x - cos_x / x
    use_j0 = np.abs(j0) >= np.abs(j1)
    ref = np.where(use_j0, j0, j1)
    np.multiply(raw[1::2] if odd else raw, ref / np.where(use_j0, raw[0], raw[1]), out=out)


def spherical_jn_block(x, m_max: int) -> np.ndarray:
    """j_m(x) for m = 0..m_max; returns shape (m_max+1,) + shape(x)."""
    return _jn_block(x, m_max)


def _jn_block(x, m_max: int, trig=None, odd: bool = False) -> np.ndarray:
    """spherical_jn_block, with trig = (sin x, cos x) if held; odd=True keeps j_1, j_3, ... only."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("argument must be finite")
    if np.any(x_arr < 0.0):
        raise ValueError("argument must be non-negative")
    flat = x_arr.ravel()
    sin_x, cos_x = (np.sin(flat), np.cos(flat)) if trig is None else map(np.ravel, trig)
    order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat, kind="stable")
    if order is not None:
        flat, sin_x, cos_x = flat[order], sin_x[order], cos_x[order]
    out = np.empty(((m_max + 1) // 2 if odd else m_max + 1, flat.size))

    # series below 2, one Miller sweep per bucket, upward from max(m_max, 2)
    edges = np.minimum(_BUCKET_EDGES, max(float(m_max), _SERIES_CUTOFF))
    bounds = [0, *np.searchsorted(flat, edges, side="left"), flat.size]
    fills = [_series_block] + [_miller_block] * (len(edges) - 1) + [_upward_block]
    for fill, lo, hi in zip(fills, bounds[:-1], bounds[1:]):
        if hi > lo:
            fill(flat[lo:hi], m_max, sin_x[lo:hi], cos_x[lo:hi], odd, out[:, lo:hi])

    if order is not None:
        out[:, order] = out.copy()
    out = out.reshape(out.shape[:1] + x_arr.shape)
    return out if np.ndim(x) else out[:, 0]
