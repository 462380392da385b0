"""Tests of the benchmark's own code: inputs, statistics, tracing, checks."""

import itertools

import pytest

import nsbf_pricer as nb
import checks
import tracing
import workloads

WORKLOADS = ("medium-sweep", "short-sweep", "quote-book")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = list(itertools.islice(workloads.items(workload, 7), 40))
    again = list(itertools.islice(workloads.items(workload, 7), 40))
    other = list(itertools.islice(workloads.items(workload, 8), 40))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ["medium-sweep", "short-sweep"])
def test_each_sweep_pass_visits_the_whole_grid(workload):
    seq = workloads.items(workload, 3)
    for _ in range(2):
        models = []
        while True:
            item = next(seq)
            models.append((item.model.beta, item.model.gamma))
            if item.ends_pass:
                break
        assert sorted(models) == sorted(workloads.GRID)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert checks.tail(values) == (90, 90.0)
    assert checks.tail(range(1, 21)) == (10, 50.0)
    value, pct = checks.tail(range(1, 32))
    assert value == 21 and sum(v > value for v in range(1, 32)) == 10
    assert pct == pytest.approx(100 * 21 / 31)
    # too few samples for any percentile to have ten beyond it
    assert checks.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_on_synthetic_span_tree():
    spans = [
        ["engine.solve", 0.0, 10.0, -1],
        ["coefficients.build", 1.0, 4.0, 0],
        ["spectrum.assemble", 5.0, 9.0, 0],
        ["bessel.jn_block", 6.0, 7.0, 2],
        ["bessel.jn_block", 7.5, 8.0, 2],
        ["engine.price", 12.0, 15.0, -1],
        ["mesh.inner_product", 13.0, 14.0, 5],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5, 2.0, 1.0])
    layers = tracing.layer_self_ms(spans)
    assert layers == pytest.approx({
        "engine.self_ms": 5000.0,
        "coefficients.build_ms": 3000.0,
        "spectrum.assemble_ms": 2500.0,
        "bessel.jn_block_ms": 1500.0,
        "mesh.inner_product_ms": 1000.0,
    })
    # self times add up to the root spans' wall time
    assert sum(layers.values()) == pytest.approx(1e3 * (10.0 + 3.0))


def test_overlapping_children_are_covered_once():
    spans = [["engine.price", 0.0, 10.0, -1],
             ["pricing.eval", 2.0, 6.0, 0],
             ["pricing.eval", 4.0, 8.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_spans_add_up_and_originals_return():
    model = workloads.Model(beta=-1.0, gamma=2.0)
    config = nb.NumericsConfig(mesh_points=1001)
    solver = nb.DoubleBarrierSolver(model.spec(), workloads.L, workloads.U, config)
    original = nb.DoubleBarrierSolver.__dict__["solve"]
    tracer = tracing.Tracer()
    with tracer.installed():
        solver.solve(with_derivatives=True)
        solver.price(nb.OptionContract("call", workloads.L, workloads.U, 0.5, 100.0), 100.0,
                     greeks=True)
    assert nb.DoubleBarrierSolver.__dict__["solve"] is original
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["engine.solve", "engine.price"]
    total = sum(tracing.layer_self_ms(tracer.spans).values())
    assert total == pytest.approx(1e3 * sum(s[2] - s[1] for s in roots), rel=1e-9)
    c = tracer.counts
    assert c["solves"] == 1 and c["quotes"] == 1
    assert c["roots_found"] == len(solver.pairs) == c["pairs_assembled"]
    assert c["orders_kept"] == solver.coeffs.M_trunc + 1
    assert tracer.window_cut_flags() == [False]  # six months: the decay rule cuts


def _cell(price):
    quote = workloads.Quote("model", "call", 100.0, 100.0, workloads.MEDIUM_T, check=True)
    return workloads.Cell(quote, workloads.Model(-1.0, 2.0), price)


def test_wrong_reference_counts_as_failed():
    cells = [_cell(1.0), _cell(2.0)]
    rec = workloads.Record(attempted=2)
    gap, worst = checks.check_oracle(cells, rec, reference=lambda cell: cell.price + 1e-7)
    assert rec.failures == [] and gap == pytest.approx(1e-7)
    gap, worst = checks.check_oracle(cells, rec,
                                     reference=lambda cell: cell.price + (cell.price > 1.5))
    assert len(rec.failures) == 1 and worst.price == 2.0
    assert len(rec.failures) / rec.attempted == 0.5


def test_reference_that_raises_counts_as_failed():
    rec = workloads.Record(attempted=1)

    def broken(cell):
        raise nb.InstabilityError("left the payoff range")

    checks.check_oracle([_cell(1.0)], rec, reference=broken)
    assert len(rec.failures) == 1


def test_bounds_check_flags_price_outside_payoff_range():
    quote = workloads.Quote("model", "put", 100.0, 100.0, workloads.MEDIUM_T)
    rec = workloads.Record()
    checks.check_bounds(quote, None, nb.PricingResult(price=5.0, delta=0.1, theta=0.2), rec)
    assert rec.failures == []
    # a put struck at 100 on (90, 120) pays at most 10
    checks.check_bounds(quote, None, nb.PricingResult(price=10.5, delta=0.1, theta=0.2), rec)
    checks.check_bounds(quote, None, nb.PricingResult(price=5.0, delta=float("nan"), theta=0.2),
                        rec)
    assert len(rec.failures) == 2


def test_every_basis_is_solved_with_its_presets_numerics():
    from nsbf_pricer.presets import preset

    expected = {workloads.MEDIUM_T: nb.NumericsConfig(**preset("table1-medium")["numerics"]),
                workloads.SHORT_T: nb.NumericsConfig(**preset("table3-short")["numerics"])}
    assert workloads.NUMERICS == expected
    assert sorted(T for _, T in workloads.fixed_bases("quote-book").values()) == sorted(expected)
    assert [T for _, T in workloads.fixed_bases("medium-sweep").values()] == [workloads.SHORT_T]
    for workload, T in (("medium-sweep", workloads.MEDIUM_T), ("short-sweep", workloads.SHORT_T)):
        for item in itertools.islice(workloads.items(workload, 5), 12):
            assert item.numerics == expected[T]
            assert {q.T for q in item.quotes if q.basis == "model"} == {T}
            assert sum(q.rebate > 0 for q in item.quotes) == (2 if workload == "short-sweep" else 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_workload_times_a_known_defect_quote(workload):
    for item in itertools.islice(workloads.items(workload, 11), 200):
        assert not any(checks.known_defect(q) for q in item.quotes)


def test_known_defect_cells_are_measured_not_failed():
    rebate = workloads.Quote("", "call", 100.0, 100.0, workloads.MEDIUM_T, rebate=5.0)
    cells = [workloads.Cell(rebate, workloads.Model(-2.0, 0.0), 3.91), _cell(1.0)]
    rec = workloads.Record(attempted=2)
    gap, worst = checks.check_oracle(cells, rec, reference=lambda cell: cell.price + 2.4e-2)
    assert gap == pytest.approx(2.4e-2)
    assert len(rec.failures) == 1 and "rebate=0.0" in rec.failures[0]  # the plain cell
    assert [(round(g, 6), c.quote) for g, c in rec.defect_gaps] == [(0.024, rebate)]
