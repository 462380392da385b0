"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Criteria 1-4 compare against published benchmark tables at print
precision.  A printed cell the pricer does not reproduce is settled by an
independent spectral oracle (`spectral_oracle`, a finite-difference
eigen-solve of the same Sturm-Liouville problem that shares no code with
the pricer): the cell is refuted when the oracle agrees with the pricer and
misses the printed value by more than the print tolerance plus its own
error, and left unexplained, failing the test, otherwise.  The oracle is
itself checked against Table 2 (criterion 2) and against the exact sine
series for constant volatility and killing (criterion 1).  Run with
`pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import nsbf_pricer as nb
from nsbf_pricer import pricing
from nsbf_pricer.engine import solve_from_sl
from nsbf_pricer.fd import FDGrid, fd_price
from nsbf_pricer.mesh import inner_product

from reference_tables import (
    CONTRIB_BANDS,
    TABLE1,
    TABLE1_DECIMALS,
    TABLE2,
    TABLE2_DECIMALS,
    TABLE3,
    TABLE3_DECIMALS,
    TABLE4,
    TABLE4_DECIMALS,
    printed_tolerance,
)
from spectral_oracle import Estimate, SpectralOracle, killed_gbm_quote

from dual_routes import interpolate, mesh_rows, mesh_steady_state, scale_gauge

L, U, Y0 = 90.0, 120.0, 100.0
MEDIUM_T = 0.5
SHORT_T = 1.0 / 360.0

# largest pricer-oracle gap allowed on any settled cell; vega cells get the
# Delta bound divided by |sigma'(y0)|, since both sides define vega as Delta / sigma'
ORACLE_BOUND = {"price": 5e-7, "band": 5e-7, "delta": 1e-8, "theta": 1e-6}


def contract(style="call", K=100.0, T=MEDIUM_T, rebate=0.0):
    return nb.OptionContract(style=style, L=L, U=U, T=T, K=K, rebate=rebate)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def oracle():
    """Cached spectral oracles keyed by (beta, gamma, T)."""
    cache = {}

    def get(beta, gamma, T):
        key = (beta, gamma, T)
        if key not in cache:
            spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=beta, gamma=gamma))
            cache[key] = SpectralOracle(spec, L, U, T)
        return cache[key]

    return get


@dataclass(frozen=True)
class Cell:
    """One printed table cell with the pricer's and the oracle's value for it."""

    label: str
    printed: float
    computed: float
    oracle: Estimate
    bound: float  # largest pricer-oracle gap allowed


def settle(cells, decimals):
    """Settle printed cells as matched, refuted or unexplained; return (ok, detail).

    matched: the pricer reproduces the printed value at print precision.
    refuted: it does not, the pricer agrees with the oracle within the
    cell's bound, and the oracle misses the printed value by more than the
    print tolerance plus the oracle's own error estimate.
    unexplained: anything else.  The pricer-oracle bound is asserted on
    every cell, matched ones included.
    """
    tol = printed_tolerance(decimals)
    matched, refuted, unexplained, off_oracle = [], [], [], []
    for c in cells:
        near_oracle = abs(c.computed - c.oracle.value) <= c.bound
        if not near_oracle:
            off_oracle.append(c)
        if abs(c.computed - c.printed) <= tol:
            matched.append(c)
        elif near_oracle and abs(c.oracle.value - c.printed) > tol + c.oracle.error:
            refuted.append(c)
        else:
            unexplained.append(c)

    def show(c):
        return (
            f"{c.label}: printed {c.printed:.{decimals}f}, computed {c.computed:.8f}, "
            f"oracle {c.oracle.value:.8f} (error {c.oracle.error:.0e})"
        )

    detail = (
        f"{len(matched)} matched, {len(refuted)} refuted, {len(unexplained)} unexplained "
        f"of {len(cells)} cells at print tolerance {tol:.0e}"
    )
    if refuted:
        worst = max(refuted, key=lambda c: abs(c.oracle.value - c.printed))
        detail += f"; worst refuted {show(worst)}"
    if unexplained:
        worst = max(unexplained, key=lambda c: abs(c.computed - c.printed))
        detail += f"; worst unexplained {show(worst)}"
    worst = max(cells, key=lambda c: abs(c.computed - c.oracle.value) / c.bound)
    detail += (
        f"; {len(off_oracle)} cells beyond the pricer-oracle bound, largest gap for its bound "
        f"{worst.label} at {abs(worst.computed - worst.oracle.value):.1e} (bound {worst.bound:.0e})"
    )
    return not unexplained and not off_oracle, detail


def test_criterion_1_table1_prices_and_greeks(medium, oracle):
    # the oracle first reproduces the exact sine series of the beta = 0
    # (constant sigma and hazard) contracts, price, Delta and Theta
    exact_gap = 0.0
    for K, beta, gamma, _, _ in TABLE1:
        if beta != 0.0:
            continue
        params = nb.EJDCEVParams(beta=beta, gamma=gamma)
        hazard = params.b + params.c * params.sigma0**gamma
        for style in ("call", "put"):
            q = oracle(beta, gamma, MEDIUM_T).quote(style, float(K), Y0)
            exact = killed_gbm_quote(
                params.sigma0, params.rbar, hazard, L, U, style, float(K), MEDIUM_T, Y0
            )
            for est, ref in zip((q.price, q.delta, q.theta), exact):
                exact_gap = max(exact_gap, abs(est.value - ref))

    cells = []
    for K, beta, gamma, call_ref, put_ref in TABLE1:
        solver = medium(beta, gamma)
        sigma_prime = float(solver.spec.sigma_prime(np.array([Y0]))[0])
        for style, ref in (("call", call_ref), ("put", put_ref)):
            r = solver.price(contract(style, float(K)), Y0, greeks=True)
            q = oracle(beta, gamma, MEDIUM_T).quote(style, float(K), Y0)
            rows = {
                "price": (r.price, q.price, ORACLE_BOUND["price"]),
                "delta": (r.delta, q.delta, ORACLE_BOUND["delta"]),
                "theta": (r.theta, q.theta, ORACLE_BOUND["theta"]),
            }
            if r.vega is not None:
                vega_oracle = Estimate(
                    q.delta.value / sigma_prime, q.delta.error / abs(sigma_prime)
                )
                rows["vega"] = (r.vega, vega_oracle, ORACLE_BOUND["delta"] / abs(sigma_prime))
            for name, ref_val in zip(("price", "delta", "vega", "theta"), ref):
                if ref_val is None:
                    assert r.vega is None  # blank nu column for beta = 0
                    continue
                got, est, bound = rows[name]
                label = f"{style} {name} K={K} beta={beta} gamma={gamma}"
                cells.append(Cell(label, ref_val, got, est, bound))
    ok, detail = settle(cells, TABLE1_DECIMALS)
    ok = ok and exact_gap <= 1e-8
    detail += f"; oracle vs exact beta=0 series: {exact_gap:.1e} (tol 1e-8)"
    report(1, ok, detail)
    assert ok, detail


def test_criterion_2_table2_eigenvalues(short, oracle):
    tol = printed_tolerance(TABLE2_DECIMALS)
    failures = []
    oracle_worst = 0.0
    checked = 0
    for (beta, gamma), rows in TABLE2.items():
        lam = short(beta, gamma).eigenvalues()
        lam_oracle = oracle(beta, gamma, SHORT_T).eigenvalues()
        for n, ref in rows.items():
            checked += 1
            diff = abs(lam[n - 1] - ref)
            if diff > tol:
                failures.append((diff, beta, gamma, n, lam[n - 1], ref))
            oracle_worst = max(oracle_worst, abs(lam_oracle[n - 1].value - ref))
    ok = not failures and oracle_worst <= tol
    detail = (
        f"all {checked} eigenvalues match to printed precision"
        if not failures
        else f"{len(failures)} of {checked} cells off; worst {max(failures)}"
    )
    detail += f"; spectral oracle worst miss {oracle_worst:.1e} (tol {tol:.0e})"
    report(2, ok, detail)
    assert ok, detail


def test_criterion_3_table3_one_day_prices(short, oracle):
    cells = []
    for (beta, gamma), ref in TABLE3.items():
        r = short(beta, gamma).price(contract(T=SHORT_T), Y0)
        q = oracle(beta, gamma, SHORT_T).quote("call", 100.0, Y0)
        label = f"price beta={beta} gamma={gamma}"
        cells.append(Cell(label, ref, r.price, q.price, ORACLE_BOUND["price"]))
    ok, detail = settle(cells, TABLE3_DECIMALS)
    offsets = [c.oracle.value - c.printed for c in cells]
    detail += f"; oracle minus printed ranges over [{min(offsets):.2e}, {max(offsets):.2e}]"
    report(3, ok, detail)
    assert ok, detail


def test_criterion_4_table4_contributions(short, oracle):
    cells = []
    partition_gap = 0.0
    tail = 0.0
    for (beta, gamma), (band_vals, price_ref) in TABLE4.items():
        r = short(beta, gamma).price(contract(T=SHORT_T), Y0, bands=CONTRIB_BANDS)
        q = oracle(beta, gamma, SHORT_T).quote("call", 100.0, Y0, bands=CONTRIB_BANDS)
        # additivity: bands partition the retained series exactly
        partition_gap = max(partition_gap, abs(r.contributions.total - r.price))
        for (n1, n2, got), est, ref in zip(r.contributions.bands, q.bands, band_vals):
            label = f"band {n1}-{n2 or 'end'} beta={beta} gamma={gamma}"
            cells.append(Cell(label, ref, got, est, ORACLE_BOUND["band"]))
            if n1 >= 41:
                tail = max(tail, abs(got))
    ok, detail = settle(cells, TABLE4_DECIMALS)
    ok = ok and partition_gap <= 1e-12 and tail <= 5e-6
    detail += (
        f"; bands sum to the price within {partition_gap:.1e} (tol 1e-12); "
        f"bands from n=41 on at most {tail:.1e} (tol 5e-6)"
    )
    report(4, ok, detail)
    assert ok, detail


# one-day pricer-oracle bounds at the node strikes, about twice the worst gap
# measured on the gamma = 0 grid models (price 2.7e-10 and Theta 1.5e-7 at
# call K=95 on (-0.5, 0), Delta 1.2e-10 at call K=95 on (-2, 0))
ONE_DAY_NODE_BOUND = {"price": 1e-9, "delta": 1e-9, "theta": 3e-7}


@pytest.mark.parametrize("beta", [-2.0, -0.5, 1.0])
def test_one_day_greeks_at_node_strikes_match_oracle(short, oracle, beta):
    # K=95 and 105 are nodes of the pricer's and the oracle's meshes, so no
    # payoff kink falls inside a quadrature panel; a Greeks quote keeps
    # alpha's full order for the price
    gaps = []
    for K in (95.0, 105.0):
        r = short(beta, 0.0).price(contract(K=K, T=SHORT_T), Y0, greeks=True)
        q = oracle(beta, 0.0, SHORT_T).quote("call", K, Y0)
        for name, got, est in (("price", r.price, q.price), ("delta", r.delta, q.delta),
                               ("theta", r.theta, q.theta)):
            gap = abs(got - est.value)
            assert est.error < 0.1 * ONE_DAY_NODE_BOUND[name]
            gaps.append((gap / ONE_DAY_NODE_BOUND[name], gap, name, K))
    worst = max(gaps)
    assert worst[0] <= 1.0, f"{worst[2]} at call K={worst[3]}: gap {worst[1]:.2e}"


def identity_residual(solver) -> float:
    """Largest sup-norm residual of the four coefficient sum identities."""
    return max(float(np.max(r)) for r in solver.coeffs.check_residuals)


def test_criterion_5_identity_suite(medium, short):
    worst = 0.0
    worst_at = None
    for beta in (0.5, 0.0, -1.0, -2.0):
        for gamma in (0.0, 1.0, 2.0):
            res = identity_residual(medium(beta, gamma))
            if res > worst:
                worst, worst_at = res, ("medium", beta, gamma)
    for beta in (1.0, -2.0):
        for gamma in (0.0, 1.0, 2.0, 3.0):
            res = identity_residual(short(beta, gamma))
            if res > worst:
                worst, worst_at = res, ("short", beta, gamma)
    ok = worst < 1e-6
    detail = f"max identity residual {worst:.2e} at {worst_at} (tolerance 1e-6)"
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_spectral_properties(medium, short):
    problems = []
    # boundary residuals, every computed pair of a medium and a short model
    for solver in (medium(-1.0, 2.0), short(-2.0, 2.0)):
        for n, phi in enumerate(mesh_rows(solver.pairs)[0], 1):
            rel = abs(phi[-1]) / np.max(np.abs(phi))
            if rel > 1e-6:
                problems.append(f"boundary residual {rel:.1e} at n={n}")
    # pairwise orthogonality up to n, m = 20
    s = short(-2.0, 2.0)
    pairs = s.pairs[:20]
    rows, _ = mesh_rows(pairs)
    w = nb.GridFunction(s.mesh, s.sl.w)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            phi_i, phi_j = (nb.GridFunction(s.mesh, rows[k]) for k in (i, j))
            ip = inner_product(phi_i, phi_j, w)
            rel = abs(ip) / math.sqrt(pairs[i].norm_sq * pairs[j].norm_sq)
            if rel > 1e-6:
                problems.append(f"orthogonality {rel:.1e} at ({i + 1},{j + 1})")
    # gauge invariance of prices under p -> kappa p
    base = medium(-1.0, 1.0)
    c = contract()
    base_price = base.price(c, Y0).price
    for kappa in (0.1, 10.0):
        scaled = scale_gauge(base.sl, kappa)
        *_, pairs_k = solve_from_sl(scaled, nb.NumericsConfig())
        kept = pricing.select_pairs(pairs_k, c.T, nb.NumericsConfig())
        g = pricing.fourier_coefficients(c, kept)
        price_k = pricing.value(pricing.rows_at(Y0, kept), c, g,
                                pricing.decay_factors(kept, c, 0.0))
        rel = abs(price_k - base_price) / base_price
        if rel > 1e-9:
            problems.append(f"gauge kappa={kappa}: relative price shift {rel:.1e}")
    ok = not problems
    detail = "boundary, orthogonality and gauge invariance all inside tolerance" if ok else "; ".join(problems)
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_greeks_vs_finite_differences(medium):
    worst_d, worst_t = 0.0, 0.0
    h = (U - L) / 2000.0
    for beta in (0.5, 0.0, -1.0, -2.0):
        for gamma in (0.0, 1.0, 2.0):
            solver = medium(beta, gamma)
            c = contract()
            pairs = solver.retained_pairs(c)
            g = pricing.fourier_coefficients(c, pairs)

            def value(y, t):
                decay = pricing.decay_factors(pairs, c, t)
                return pricing.value(pricing.rows_at(y, pairs), c, g, decay)

            at = pricing.rows_at(Y0, pairs)
            decay = pricing.decay_factors(pairs, c, 0.0)
            d = pricing.delta(at, c, g, decay)
            fd_d = (value(Y0 + h, 0.0) - value(Y0 - h, 0.0)) / (2 * h)
            worst_d = max(worst_d, abs(d - fd_d) / abs(fd_d))
            th = pricing.theta(at, pairs, g, decay)
            dt = c.T / 2000.0
            v0, v1, v2 = (value(Y0, k * dt) for k in range(3))
            fd_t = (-3 * v0 + 4 * v1 - v2) / (2 * dt)
            worst_t = max(worst_t, abs(th - fd_t) / abs(fd_t))
    ok = worst_d < 1e-3 and worst_t < 1e-3
    detail = f"worst relative error: delta {worst_d:.1e}, theta {worst_t:.1e} (tolerance 1e-3)"
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_oracle_equivalence(medium, short):
    worst_med = (0.0, None)
    grid_med = FDGrid(801, 400)
    for K, beta, gamma, _, _ in TABLE1:
        solver = medium(beta, gamma)
        for style in ("call", "put"):
            c = contract(style, float(K))
            gap = abs(solver.price(c, Y0).price - fd_price(solver.spec, c, grid_med, Y0))
            if gap > worst_med[0]:
                worst_med = (gap, (K, beta, gamma, style))
    worst_short = (0.0, None)
    grid_short = FDGrid(1601, 300)
    for beta, gamma in TABLE3:
        solver = short(beta, gamma)
        c = contract(T=SHORT_T)
        gap = abs(solver.price(c, Y0).price - fd_price(solver.spec, c, grid_short, Y0))
        if gap > worst_short[0]:
            worst_short = (gap, (beta, gamma))
    ok = worst_med[0] < 2e-3 and worst_short[0] < 5e-3
    detail = (
        f"72 medium configs: worst gap {worst_med[0]:.1e} (tol 2e-3); "
        f"8 one-day configs: worst gap {worst_short[0]:.1e} (tol 5e-3)"
    )
    report(8, ok, detail)
    assert ok, detail


# largest R=5 pricer-CN gap allowed in criterion 9; measured 4.4e-7 on the
# six-month grid models (CN 1601x800) and 3.9e-7 on the one-day models
# (CN 6401x300), about CN's own discretisation error on those grids
REBATE_ORACLE_BOUND = 1e-6


def test_criterion_9_rebate(medium, short):
    problems = []
    solver = medium(-1.0, 2.0)
    # R = 0 is the plain series: coefficients <f, phi_n> / <phi_n, phi_n> on
    # the mesh rows and no steady term.  The pricer projects on the panel
    # points, so it meets the series within rounding (measured: 2.7e-16 of
    # the largest |g_n|, 6.8e-16 of the largest |price|)
    plain = contract()
    pairs = solver.retained_pairs(plain)
    rows, _ = mesh_rows(pairs)
    f = nb.GridFunction(solver.mesh, pricing.payoff_grid(plain, solver.mesh))
    w = nb.GridFunction(solver.mesh, solver.sl.w)
    fn = np.array([inner_product(f, nb.GridFunction(solver.mesh, phi), w) / p.norm_sq
                   for p, phi in zip(pairs, rows)])
    lam = np.array([p.lam for p in pairs])
    ys = np.linspace(L + 0.5, U - 0.5, 11)
    phis = np.array([interpolate(solver.mesh, phi, ys) for phi in rows])
    series = np.tensordot(fn * np.exp(-lam * (MEDIUM_T - 0.1)), phis, axes=(0, 0))
    g = pricing.fourier_coefficients(plain, pairs)
    got = pricing.value(pricing.rows_at(ys, pairs), plain, g,
                        pricing.decay_factors(pairs, plain, 0.1))
    if not (np.max(np.abs(fn - g)) <= 2e-15 * np.max(np.abs(fn))
            and np.max(np.abs(got - series)) <= 4e-15 * np.max(np.abs(series))):
        problems.append("R=0 path is not the plain series within rounding")
    # consistent boundary data reconstructs at least 5x better in L2_w: with
    # R = U - K the modal part f - R h vanishes at U
    s = short(-1.0, 2.0)
    kept = s.pairs[:27]
    rebate = contract(rebate=U - 100.0)
    rows, _ = mesh_rows(kept)
    recon0 = pricing.fourier_coefficients(plain, kept) @ rows
    recon_r = pricing.fourier_coefficients(rebate, kept) @ rows
    recon_r = recon_r + rebate.rebate * mesh_steady_state(s.particular, s.sl)[0]
    e0 = nb.GridFunction(s.mesh, recon0 - f.values)
    er = nb.GridFunction(s.mesh, recon_r - f.values)
    w = nb.GridFunction(s.mesh, s.sl.w)
    ratio = math.sqrt(inner_product(e0, e0, w) / inner_product(er, er, w))
    if ratio < 5.0:
        problems.append(f"smoothing ratio {ratio:.2f} < 5")
    # positive rebate against the Dirichlet oracle: every six-month grid
    # model and every one-day sweep model
    cases = [(medium(beta, gamma), MEDIUM_T, FDGrid(1601, 800), (beta, gamma))
             for beta in (0.5, 0.0, -1.0, -2.0) for gamma in (0.0, 1.0, 2.0)]
    cases += [(short(beta, gamma), SHORT_T, FDGrid(6401, 300), (beta, gamma))
              for beta, gamma in TABLE3]
    worst = {}
    for model_solver, T, grid, key in cases:
        c5 = contract(rebate=5.0, T=T)
        gap = abs(model_solver.price(c5, Y0).price - fd_price(model_solver.spec, c5, grid, Y0))
        worst[T] = max(worst.get(T, (0.0, ())), (gap, key))
    for T, (gap, key) in worst.items():
        if gap > REBATE_ORACLE_BOUND:
            problems.append(f"R=5 oracle gap {gap:.1e} > {REBATE_ORACLE_BOUND:g} at T={T:.4g} {key}")
    ok = not problems
    detail = (
        f"R=0 the plain series within rounding; terminal L2 reconstruction {ratio:.1f}x better at R=U-K; "
        f"R=5 worst oracle gap {worst[MEDIUM_T][0]:.1e} over 12 six-month models, "
        f"{worst[SHORT_T][0]:.1e} over {len(TABLE3)} one-day models "
        f"(bound {REBATE_ORACLE_BOUND:g})"
        if ok
        else "; ".join(problems)
    )
    report(9, ok, detail)
    assert ok, detail


def test_criterion_10_degenerate_exactness():
    # beta = -1 with zero rates and hazard gives constant Sturm-Liouville
    # coefficients through the standard model path
    params = nb.EJDCEVParams(beta=-1.0, gamma=0.0, b=0.0, c=0.0, rbar=0.0, qbar=0.0)
    spec = nb.ejdcev_spec(params)
    solver = nb.DoubleBarrierSolver(spec, L, U, nb.NumericsConfig(omega_max=25.0))
    solver.solve()
    delta = params.delta
    l_u = math.sqrt(2.0) * (U - L) / delta
    worst_omega = max(
        abs(p.omega - p.n * math.pi / l_u) for p in solver.pairs
    )
    # closed-form heat-equation sine expansion for the call price
    K = 100.0
    c = contract("call", K)
    b_slope = delta / math.sqrt(2.0)  # y(l) = L + b_slope * l
    l_k = (K - L) / b_slope
    l_0 = (Y0 - L) / b_slope
    exact = 0.0
    for n in range(1, 400):
        om = n * math.pi / l_u
        # int_{l_K}^{l_U} (L - K + b l) sin(om l) dl, by parts
        def anti(lv):
            return -(L - K + b_slope * lv) * math.cos(om * lv) / om + b_slope * math.sin(
                om * lv
            ) / om**2
        coeff = (2.0 / l_u) * (anti(l_u) - anti(l_k))
        exact += coeff * math.sin(om * l_0) * math.exp(-om * om * MEDIUM_T)
    got = solver.price(c, Y0).price
    ok = worst_omega < 1e-10 and abs(got - exact) < 1e-8
    detail = (
        f"worst |omega_n - n pi/l(U)| = {worst_omega:.1e} (tol 1e-10); "
        f"price vs closed-form sine series diff {abs(got - exact):.1e} (tol 1e-8)"
    )
    report(10, ok, detail)
    assert ok, detail


# Known defects, pinned as strict xfails: each test states the behaviour a fix
# must reach, so the fixing change sees it XPASS, fail, and drops the mark.

@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the panel rule integrates across the "
                   "payoff kink at the off-node strike K=100 (Theta gap 1.4e-5)")
def test_known_defect_one_day_theta_at_off_node_strike(short, oracle):
    r = short(-2.0, 3.0).price(contract(K=100.0, T=SHORT_T), Y0, greeks=True)
    q = oracle(-2.0, 3.0, SHORT_T).quote("call", 100.0, Y0)
    assert abs(r.theta - q.theta.value) <= ORACLE_BOUND["theta"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the default omega window (omega_max=15) "
                   "cuts a one-day basis to 8 pairs, pricing 0.28236 against the oracle's 0.54677")
def test_known_defect_default_window_truncates_one_day_quote(oracle):
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-1.0, gamma=2.0))
    r = nb.DoubleBarrierSolver(spec, L, U, nb.NumericsConfig()).price(contract(T=SHORT_T), Y0)
    q = oracle(-1.0, 2.0, SHORT_T).quote("call", 100.0, Y0)
    assert abs(r.price - q.price.value) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: an explicit order too low for wide "
                   "barriers prices silently wrong (-245.48 against 10.86124)")
def test_known_defect_explicit_order_on_wide_barriers():
    # the series must either refuse the order or carry the price
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-2.0, gamma=2.0))
    c = nb.OptionContract("call", 60.0, 240.0, MEDIUM_T, 100.0)
    ref = fd_price(spec, c, FDGrid(3201, 800), Y0)
    solver = nb.DoubleBarrierSolver(spec, 60.0, 240.0, nb.NumericsConfig(nsbf_order=30))
    try:
        price = solver.price(c, Y0).price
    except nb.NSBFError:
        return
    assert abs(price - ref) <= 1e-3


@pytest.mark.xfail(strict=True, raises=nb.ConvergenceError,
                   reason="ROADMAP item 2: alpha's residual rises before it falls, so the "
                   "order search stops at order 0 (plateau 5.06)")
def test_known_defect_order_search_on_wide_barriers():
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-2.0, gamma=0.0))
    nb.DoubleBarrierSolver(spec, 70.0, 160.0).solve()


def _off_grid_call_gap(beta, gamma, lo, hi, T, K, y0) -> float:
    """|pricer - spectral oracle| for a call on [lo, hi] under default numerics."""
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=beta, gamma=gamma))
    q = SpectralOracle(spec, lo, hi, T).quote("call", K, y0)
    assert q.price.error < 1e-8
    price = nb.DoubleBarrierSolver(spec, lo, hi).price(nb.OptionContract("call", lo, hi, T, K), y0)
    return abs(price.price - q.price.value)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the order search keeps order 18, whose "
                   "basis prices the call at -1.5629e-5 against the oracle's 7.6019e-6")
def test_known_defect_order_search_accepts_a_wrong_order():
    assert _off_grid_call_gap(0.5, 0.0, 80.0, 230.0, 1.0 / 12.0, 175.0, 113.0) <= 1e-6


@pytest.mark.xfail(strict=True, raises=nb.ConvergenceError,
                   reason="ROADMAP item 2: alpha's residual is flat (1.66) over the first "
                   "orders, so the search stops at order 0; order 21 prices within 6e-10")
def test_known_defect_order_search_on_a_flat_start():
    assert _off_grid_call_gap(1.0, 0.0, 50.0, 80.0, MEDIUM_T, 65.0, 65.0) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a late quote wants roots above the "
                   "default omega window, which the solve never searched for, and prices "
                   "silently wrong (0.225210 at 0.98T against 1.333814, -10.451848 at 0.999T "
                   "against 0.238828); omega_max=270 prices both within 1e-4")
@pytest.mark.parametrize("fraction", [0.98, 0.999])
def test_known_defect_default_window_truncates_late_quote(fraction):
    spec = nb.ejdcev_spec(nb.EJDCEVParams(beta=-2.0, gamma=0.0))
    t = fraction * MEDIUM_T
    r = nb.DoubleBarrierSolver(spec, L, U, nb.NumericsConfig()).price(contract(), Y0, t=t)
    ref = fd_price(spec, contract(T=MEDIUM_T - t), FDGrid(3201, 2000), Y0)
    assert abs(r.price - ref) <= 1e-4
