"""Tests of the benchmark's statistics and span helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import threading
import time
import types

import pytest

from perfbench.spans import Tracer
from perfbench.stats import (
    pair_wins,
    percentile,
    quartiles,
    samples_beyond,
    summarize,
    tail_percentile,
    verdict,
)


# -- tail-percentile rule ------------------------------------------------------
def test_samples_beyond_counts_values_above_the_percentile():
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(999, 99.0) == 9
    assert samples_beyond(200, 95.0) == 10
    assert samples_beyond(100, 90.0) == 10
    assert samples_beyond(20, 50.0) == 10


@pytest.mark.parametrize("n, expected", [
    (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (5, 50.0),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_never_exceeds_the_workload_cap():
    assert tail_percentile(100_000, cap=90.0) == 90.0
    assert tail_percentile(50, cap=90.0) == 50.0


def test_summarize_reports_the_chosen_tail():
    values = [float(i) for i in range(1, 200)]  # 199 samples -> p90
    s = summarize(values)
    assert s["tail_q"] == 90.0
    assert s["tail"] == pytest.approx(percentile(values, 90.0))
    assert s["p50"] == pytest.approx(100.0)
    assert s["n"] == 199


def test_percentile_matches_linear_interpolation():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([4.0, 1.0, 3.0, 2.0], 100.0) == 4.0
    assert percentile([7.0], 99.0) == 7.0


# -- verdict -------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_consistent_large_gain_is_better():
    new = [v * 1.2 for v in BASE]
    assert verdict(BASE, new, "higher", 0.1) == "better"
    assert verdict(BASE, [v * 0.8 for v in BASE], "lower", 0.1) == "better"


def test_gain_within_parent_spread_is_not_better():
    # Wins every pair, but moves the median by less than the parent's IQR.
    new = [v + 0.01 for v in BASE]
    assert verdict(BASE, new, "higher", 0.1) == "unchanged"


def test_fewer_than_nine_tenths_wins_is_not_better():
    new = [v * 1.2 for v in BASE]
    new[0], new[1] = BASE[0] - 1.0, BASE[1] - 1.0
    assert pair_wins(BASE, new, "higher")[0] == 8
    assert verdict(BASE, new, "higher", 0.1) == "unchanged"


def test_median_worse_than_bound_is_worse():
    assert verdict(BASE, [v * 0.85 for v in BASE], "higher", 0.1) == "worse"
    assert verdict(BASE, [v * 1.15 for v in BASE], "lower", 0.1) == "worse"


def test_small_loss_within_bound_is_unchanged():
    assert verdict(BASE, [v * 0.97 for v in BASE], "higher", 0.1) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, list(reversed(noisy)), "higher", 0.1) == "unresolved"


def test_wide_spread_but_every_new_run_better_is_unchanged():
    base = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    new = [121.0 + 0.1 * i for i in range(10)]
    # Every new run beats every base run, but the median gain (21.45) is
    # under the base IQR (22.5): not "better", and not "unresolved" either.
    assert verdict(base, new, "higher", 0.1) == "unchanged"


def test_ties_count_for_neither_side():
    assert pair_wins([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "higher") == (1, 1, 1)


def test_quartiles_match_statistics_quantiles():
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)


# -- span self time ------------------------------------------------------------
def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_span_self_time_excludes_children():
    ns = types.ModuleType("fake_layers")

    def im2col():
        _busy(0.02)

    def conv_fwd():
        _busy(0.01)
        ns.im2col()  # looked up where it is bound, like repro.nn.layers
        ns.im2col()

    ns.im2col, ns.conv_fwd = im2col, conv_fwd
    with Tracer() as tracer:
        tracer.wrap(ns, "im2col", "nn.im2col")
        tracer.wrap(ns, "conv_fwd", "nn.conv.fwd")
        ns.conv_fwd()
    totals = tracer.totals()
    assert totals["nn.im2col"][1] == 2
    assert totals["nn.conv.fwd"][1] == 1
    assert totals["nn.im2col"][0] == pytest.approx(0.04, abs=0.01)
    assert totals["nn.conv.fwd"][0] == pytest.approx(0.01, abs=0.008)
    assert ns.im2col is im2col and ns.conv_fwd is conv_fwd


def test_spans_on_other_threads_do_not_nest():
    ns = types.ModuleType("fake")
    ns.inner = lambda: _busy(0.01)
    with Tracer() as tracer:
        tracer.wrap(ns, "inner", "inner")

        def root_with_thread():
            th = threading.Thread(target=ns.inner)
            th.start()
            th.join()

        tracer.call("root", root_with_thread)
    totals = tracer.totals()
    # The other thread's span is not subtracted from root's self time,
    # and it is not inside root.
    assert totals["root"][0] >= totals["inner"][0] * 0.9
    assert "inner" not in tracer.totals(under="root")


def test_totals_under_keeps_only_spans_inside_the_named_span():
    ns = types.ModuleType("fake")
    ns.leaf = lambda: None
    with Tracer() as tracer:
        tracer.wrap(ns, "leaf", "leaf")
        ns.leaf()  # outside any root
        tracer.call("root", lambda: [ns.leaf(), ns.leaf()])
    assert tracer.totals()["leaf"][1] == 3
    inside = tracer.totals(under="root")
    assert inside["leaf"][1] == 2
    assert inside["root"][1] == 1


def test_restore_puts_originals_back():
    class Layer:
        def forward(self, x):
            return x + 1

    original = Layer.__dict__["forward"]
    tracer = Tracer()
    tracer.wrap(Layer, "forward", "layer.fwd")
    assert Layer().forward(1) == 2
    assert Layer.__dict__["forward"] is not original
    tracer.restore()
    assert Layer.__dict__["forward"] is original
    assert tracer.totals()["layer.fwd"][1] == 1


def test_wrapping_an_inherited_attribute_is_refused():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().wrap(Child, "f", "f")


# -- BENCHMARK.json ------------------------------------------------------------
def test_benchmark_json_lists_every_per_layer_metric():
    import json
    from pathlib import Path

    from perfbench.layers import per_layer_metrics

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == per_layer_metrics()
