"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import random
from collections import Counter
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import Item, item_ms_tail, measure, percentile, tail_pct  # noqa: E402
from tracer import Tracer, layer_totals, self_times  # noqa: E402


def test_percentile_interpolates():
    xs = list(range(1, 101))            # 1..100
    assert percentile(xs, 50) == 50.5
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert percentile(xs, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_pct_keeps_ten_samples_beyond():
    assert tail_pct(99) is None
    assert tail_pct(100) == 90
    assert tail_pct(999) == 90
    assert tail_pct(1000) == 99


def test_item_ms_tail_selection():
    few = [float(i) for i in range(99)]
    assert item_ms_tail(few, 90) == (98.0, "max")
    assert item_ms_tail(few, None) == (98.0, "max")
    mid = [float(i) for i in range(500)]
    # p99 is fixed but 500 samples leave only 5 beyond it: fall back to p90
    assert item_ms_tail(mid, 99) == (percentile(mid, 90), "p90")
    many = [float(i) for i in range(2000)]
    assert item_ms_tail(many, 99) == (percentile(many, 99), "p99")
    assert item_ms_tail(many, 90) == (percentile(many, 90), "p90")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("item", item="a"):            # 0 .. 10
        clock.now = 1.0
        with tr.span("lifts.span_columns"):    # 1 .. 4
            clock.now = 2.0
            with tr.span("exact.span"):        # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with tr.span("exact.span"):            # 6 .. 9
            clock.now = 9.0
        clock.now = 10.0
    own = self_times(tr.spans)
    assert [own[s.id] for s in tr.spans] == [4.0, 2.0, 1.0, 3.0]
    assert all(s.item == "a" for s in tr.spans)
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    totals = layer_totals(tr.spans)
    assert totals["exact.span"] == (4.0, 2)
    assert totals["item"] == (4.0, 1)


def _small_sweep_items():
    items = workloads.sweep_setup()
    return sorted(items, key=lambda it: it.cost)[:6]


def _in_turn(items):
    return lambda: list(range(len(items)))


def test_corrupted_reference_counts_as_failure():
    items = _small_sweep_items()
    items[2].expected = "0" * 16
    outcomes, _, _ = measure(items, _in_turn(items), workloads.sweep_run,
                             workloads.sweep_check, 0)
    failed = [o.item.id for o in outcomes if not o.ok]
    assert failed == [items[2].id]
    assert len(failed) / len(outcomes) == pytest.approx(1 / 6)


def test_exception_counts_as_failure_and_run_goes_on():
    items = [Item(str(k), (k,), (k,), k) for k in range(4)]

    def run_item(item):
        if item.args[0] == 1:
            raise ArithmeticError("boom")
        return item.args[0]

    outcomes, _, _ = measure(items, _in_turn(items), run_item,
                             lambda it, ans: ans == it.expected, 0)
    assert [o.ok for o in outcomes] == [True, False, True, True]
    assert "ArithmeticError" in outcomes[1].error


class TickingClock:
    """A clock that each item advances by its number of seconds."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def run(self, item):
        self.now += item.args[0]
        return item.args[0]


def test_measure_times_whole_passes_until_the_time_is_up():
    clock = TickingClock()
    items = [Item(str(k), (k,), (k,), k) for k in (1, 2, 3)]
    orders = iter([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    gauges = iter([2.0, 1.0])
    outcomes, pass_seconds, reference = measure(
        items, lambda: next(orders), clock.run, lambda it, ans: True, 8,
        gauge=lambda: next(gauges), clock=clock)
    # the first pass ends at 6 s, the second stops when the time is up
    assert [o.item.id for o in outcomes] == ["3", "1", "2", "1", "2"]
    assert [o.ms for o in outcomes] == [3000.0, 1000.0, 2000.0, 1000.0,
                                        2000.0]
    assert [o.pass_no for o in outcomes] == [0, 0, 0, 1, 1]
    assert pass_seconds == [6.0]
    assert reference == [2.0, 1.0]


def test_measure_always_completes_the_first_pass():
    clock = TickingClock()
    items = [Item(str(k), (k,), (k,), k) for k in (5, 5, 5)]
    outcomes, pass_seconds, _ = measure(items, _in_turn(items), clock.run,
                                        lambda it, ans: True, 1,
                                        gauge=lambda: 1.0, clock=clock)
    assert len(outcomes) == 3
    assert pass_seconds == [15.0]


def test_time_figures_scale_each_pass_by_its_reference_time():
    items = [Item(str(k), (k,), (k,), k) for k in range(2)]
    outcomes = [harness.Outcome(items[k % 2], ms, True, pass_no=k // 2)
                for k, ms in enumerate([10.0, 30.0, 20.0, 60.0])]
    values, label = run.time_figures(2, outcomes, [0.04, 0.08], [1.0, 0.5])
    # scaled, both passes read 10 and 30 ms, 0.04 s, 50 items per second
    assert values == {"items_per_s": 50.0, "item_ms_p50": 20.0,
                      "item_ms_tail": 30.0}
    assert label == "max"
    assert harness.reference_ms() > 0


def test_paired_run_alternates_sides():
    calls = []
    items = [Item(str(k), (k,), (k,), k) for k in range(2)]
    outcomes, plain, traced = harness.measure_paired(
        items, [1, 0, 1], lambda it: calls.append(("plain", it.id)),
        lambda it: calls.append(("traced", it.id)), lambda it, ans: True)
    assert calls == [("plain", "1"), ("traced", "1"), ("traced", "0"),
                     ("plain", "0"), ("plain", "1"), ("traced", "1")]
    assert len(outcomes) == 6 and plain >= 0 and traced >= 0


def _orders(items, seed, passes=3):
    rng = random.Random(seed)
    return [harness.shuffled(items, rng) for _ in range(passes)]


def test_same_seed_same_order_other_seed_other_order():
    items = workloads.sweep_setup()
    a = _orders(items, 11)
    assert a == _orders(items, 11)
    assert a != _orders(items, 12)
    assert a[0] != a[1]
    assert all(sorted(o) == list(range(len(items))) for o in a)


def test_cost_subset_keeps_the_spread_of_costs():
    items = [Item(str(k), (k % 50,), (), None) for k in range(100)]
    sub = harness.cost_subset(items, 10)
    assert [it.cost for it in sub] == [(c,) for c in range(0, 50, 5)]
    assert sub == harness.cost_subset(list(reversed(items)), 10)


def test_check_items_are_fixed():
    ids = [it.id for it in workloads.checks_setup()]
    assert ids == [it.id for it in workloads.checks_setup()]
    kinds = Counter(i.split(":")[0] for i in ids)
    assert kinds == {"spans": 139, "pair": 21, "relations": 25,
                     "equivariance": 26, "graph": 54}


def test_bound_variables_are_refused(monkeypatch):
    monkeypatch.setenv("DFT_MAX_SPAN_ORDER", "8192")
    with pytest.raises(run.BenchError, match="DFT_MAX_SPAN_ORDER"):
        run.prepare_environment()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no dft package" in proc.stderr
