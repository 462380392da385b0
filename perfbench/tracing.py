"""Spans and counters taken from outside the program.

The tracer replaces public names where their callers look them up (module
globals and DoubleBarrierSolver methods) with wrappers that record a span
(name, start, end, parent) and update counters.  Nothing under src/ is
edited; ``installed`` puts the originals back on exit.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from nsbf_pricer import engine, fd, pricing, spectrum

# span name -> per-layer self-time metric
LAYER_METRIC = {
    "model.build_sl": "model.build_sl_ms",
    "spps.solve": "spps.solve_ms",
    "spps.formal_powers": "spps.solve_ms",
    "coefficients.build": "coefficients.build_ms",
    "spectrum.find": "spectrum.find_ms",
    "spectrum.characteristic": "spectrum.find_ms",
    "spectrum.assemble": "spectrum.assemble_ms",
    "bessel.jn_block": "bessel.jn_block_ms",
    "pricing.project": "pricing.project_ms",
    "pricing.eval": "pricing.eval_ms",
    "pricing.contrib": "pricing.contrib_ms",
    "mesh.inner_product": "mesh.inner_product_ms",
    "engine.diagnostics": "engine.diagnostics_ms",
    "engine.solve": "engine.self_ms",
    "engine.price": "engine.self_ms",
    "engine.retained_pairs": "engine.self_ms",
    "fd.solve": "fd.solve_ms",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._window_cut: dict = {}  # id(solver) -> cut by the omega window
        self.window_flags: list = []  # one per solve that quoted a plain contract

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def _targets(self):
        """(owner, attribute, span name, counter) for every wrapped name."""
        c = self.counts

        def solve(t, args, out):
            c["solves"] += 1
            t.close_window(args[0])

        def price(t, args, out):
            c["quotes"] += 1

        def coefficients(t, args, out):
            c["orders_built"] += out.residual_by_order.shape[0]
            c["orders_kept"] += out.M_trunc + 1

        def bessel(t, args, out):
            c["bessel_calls"] += 1
            c["bessel_values"] += out.size

        def retained(t, args, out):
            solver, contract = args[0], args[1]
            c["pairs_kept"] += len(out)
            c["pairs_found"] += len(solver.pairs)
            if contract.rebate == 0.0:
                top = max(p.lam for p in out) * contract.T
                t._window_cut[id(solver)] = (
                    len(out) == len(solver.pairs) and top < solver.config.lambda_decay_cap
                )

        Solver = engine.DoubleBarrierSolver
        return [
            (engine, "build_sl_coefficients", "model.build_sl", None),
            (engine, "solve_particular", "spps.solve",
             lambda t, a, out: c.update(series_terms=out.series_order)),
            (engine, "build_formal_powers", "spps.formal_powers", None),
            (engine, "build_nsbf_coefficients", "coefficients.build", coefficients),
            (engine, "find_eigenvalues", "spectrum.find",
             lambda t, a, out: c.update(roots_found=len(out))),
            (spectrum, "characteristic", "spectrum.characteristic",
             lambda t, a, out: c.update(char_points=getattr(a[0], "size", 1))),
            (engine, "assemble_pairs", "spectrum.assemble",
             lambda t, a, out: c.update(pairs_assembled=len(out))),
            (spectrum, "spherical_jn_block", "bessel.jn_block", bessel),
            (pricing, "fourier_coefficients", "pricing.project", None),
            (pricing, "value", "pricing.eval", None),
            (pricing, "delta", "pricing.eval", None),
            (pricing, "theta", "pricing.eval", None),
            (pricing, "vega", "pricing.eval", None),
            (pricing, "contribution_report", "pricing.contrib", None),
            (pricing, "inner_product", "mesh.inner_product",
             lambda t, a, out: c.update(inner_products=1)),
            (Solver, "solve", "engine.solve", solve),
            (Solver, "price", "engine.price", price),
            (Solver, "retained_pairs", "engine.retained_pairs", retained),
            (Solver, "diagnostics", "engine.diagnostics", None),
            (fd, "solve_pde", "fd.solve", None),
        ]

    def close_window(self, solver):
        """A new solve on this solver ends the previous solve's record."""
        flag = self._window_cut.pop(id(solver), None)
        if flag is not None:
            self.window_flags.append(flag)

    def window_cut_flags(self) -> list:
        return self.window_flags + list(self._window_cut.values())

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_self_ms(spans) -> dict:
    """Self time per layer metric, in milliseconds."""
    totals = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[LAYER_METRIC[name]] += 1e3 * own
    return dict(totals)
