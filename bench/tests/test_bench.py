"""Tests of the benchmark's own helpers: python3 -m pytest -q bench/tests"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import blockcomm  # noqa: E402
import blockcomm.dcbm  # noqa: E402
import blockcomm.local_search  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from sampler import PlantedGraph, write_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0),
                                    (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
                                    (999, 95.0), (1000, 99.0), (9999, 99.0),
                                    (10000, 99.9)])
def test_tail_percentile_examples(n, pct):
    assert measure.tail_percentile(n) == pct


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    for n in range(20, 12001, 7):
        pct = measure.tail_percentile(n)
        assert measure.beyond(n, pct) >= measure.MIN_BEYOND
        higher = [p for p in measure.TAIL_LADDER if p > pct]
        assert all(measure.beyond(n, p) < measure.MIN_BEYOND for p in higher)


def test_tail_value_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]  # 1..100, unordered
    assert measure.tail(values, 90.0) == (90.0, 10)
    assert measure.tail(values, 99.0) == (99.0, 1)


def test_median_tail_is_the_interpolated_median():
    assert measure.tail([4.0, 1.0, 3.0, 2.0], 50.0) == (2.5, 2)


def test_failed_operations_rank_last():
    times = [1.0] * 30 + [float("inf")] * 10
    assert measure.tail(times, 75.0) == (1.0, 10)
    assert measure.tail(times + [float("inf")], 75.0)[0] == float("inf")


def test_workload_tail_percentiles_are_on_the_ladder():
    for wl in WORKLOADS.values():
        assert wl.tail_pct in measure.TAIL_LADDER + (50.0,)


# -- self-time accounting ----------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_under_nesting_and_recursion():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    ns = types.SimpleNamespace()

    def outer():
        clock.now += 1.0
        ns.inner()
        clock.now += 2.0
        ns.rec(2)

    def inner():
        clock.now += 5.0

    def rec(k):
        clock.now += 1.0
        if k:
            ns.rec(k - 1)

    ns.outer = tracer.wrap("outer", outer)
    ns.inner = tracer.wrap("inner", inner)
    ns.rec = tracer.wrap("rec", rec)
    ns.outer()

    st = tracer.stats
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 11.0, 3.0)
    assert (st["inner"].calls, st["inner"].total_s, st["inner"].self_s) == (1, 5.0, 5.0)
    # Three nested calls of 3, 2 and 1 time units: the total counts the
    # outermost once, the self times add up to it.
    assert (st["rec"].calls, st["rec"].total_s, st["rec"].self_s) == (3, 3.0, 3.0)


def test_exception_still_closes_the_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    outer = tracer.wrap("outer", lambda: traced())
    with pytest.raises(ValueError):
        outer()
    assert tracer.stats["boom"].total_s == 2.0
    assert tracer.stats["outer"].self_s == 0.0
    assert tracer._child_time == []


# -- wrapping and restoring --------------------------------------------------

def test_patch_rebinds_every_alias_and_restores():
    original = blockcomm.dcbm.adcbm_log_score
    assert blockcomm.local_search.adcbm_log_score is original
    tracer = tracing.Tracer()
    targets = layers.TARGETS + [("blockcomm.global_search", "_no_such_phase",
                                 "global_search.no_such_phase", None)]
    with tracing.patched(tracer, targets) as absent:
        wrapped = blockcomm.dcbm.adcbm_log_score
        assert wrapped is not original
        assert blockcomm.local_search.adcbm_log_score is wrapped
        assert blockcomm.adcbm_log_score is wrapped
        assert absent == ["global_search.no_such_phase"]
        g = blockcomm.Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        blockcomm.detect(g, 0, blockcomm.SearchConfig("adcbm", restarts=2))
    assert blockcomm.dcbm.adcbm_log_score is original
    assert blockcomm.local_search.adcbm_log_score is blockcomm.dcbm.adcbm_log_score
    assert blockcomm.adcbm_log_score is original
    assert blockcomm.local_search.add_node_delta is blockcomm.graph.add_node_delta
    assert tracer.stats["dcbm.adcbm_local_fit"].calls > 0
    assert tracer.stats["local_search.greedy_expand"].calls == 2


def test_patch_restores_after_an_exception():
    original = blockcomm.distributions.log_gamma
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), layers.TARGETS):
            assert blockcomm.sbm.log_beta is blockcomm.distributions.log_beta
            assert blockcomm.distributions.log_gamma is not original
            raise RuntimeError
    assert blockcomm.distributions.log_gamma is original
    assert blockcomm.log_gamma is original


# -- inputs --------------------------------------------------------------------

SMALL = PlantedGraph(communities=4, size=10, p_in=0.5, p_out=0.05, model="dcbm",
                     alpha=3.0, theta=1.0)


@pytest.mark.parametrize("kind", ["local", "global"])
def test_sampler_is_deterministic_under_a_seed(tmp_path, kind):
    a = write_inputs(SMALL, kind, 50, 7, tmp_path / "a")
    b = write_inputs(SMALL, kind, 50, 7, tmp_path / "b")
    c = write_inputs(SMALL, kind, 50, 8, tmp_path / "c")
    assert a == b
    for name in a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a["graph.edges"] != c["graph.edges"]
    assert a["ops.tsv"] != c["ops.tsv"]


def test_local_queries_draw_seeds_inside_their_community(tmp_path):
    write_inputs(SMALL, "local", 200, 3, tmp_path)
    truth = [set(map(int, line.split()))
             for line in (tmp_path / "truth.cmty").read_text().splitlines()]
    ops = [tuple(map(int, line.split("\t")))
           for line in (tmp_path / "ops.tsv").read_text().splitlines()]
    assert all(seed in truth[community] for community, seed, _ in ops)
    # Each round of len(truth) operations visits every community once.
    assert sorted(c for c, _, _ in ops[:len(truth)]) == list(range(len(truth)))


# -- benchmark definition ------------------------------------------------------

def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    tracer = tracing.Tracer()
    per_layer = layers.layer_metrics(tracer, 1, [], 1.0, 1.5)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in per_layer.items()}
    records = [{"elapsed": 1.0, "f1": 1.0, "desc_len": 2.0, "line": "", "error": None}]
    e2e, _ = worker.end_to_end(records, [0.5], 100.0, 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
