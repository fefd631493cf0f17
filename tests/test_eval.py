"""Metrics and the randomized evaluation protocol."""

import math
from fractions import Fraction

import numpy as np
import pytest

from blockcomm.evaluation import (
    EvalRow,
    conductance,
    f1_excluding_seed,
    precision_recall_excluding_seed,
    run_protocol,
    stats_conductance,
    summarize,
)
from blockcomm.graph import community_stats
from blockcomm.local_search import SearchConfig
from blockcomm.rng import make_rng

from conftest import bridge_graph, clique_edges, disjoint_cliques, graph_from_edges, random_gnp


class TestF1ExcludingSeed:
    def test_identical_sets(self):
        assert f1_excluding_seed({1, 2, 3}, {1, 2, 3}, 1) == 1.0

    def test_disjoint_apart_from_seed(self):
        assert f1_excluding_seed({0, 1, 2}, {0, 7, 8}, 0) == 0.0

    def test_worked_example(self):
        found = {9, 1, 2, 3}
        truth = {9, 2, 3, 4, 5}
        assert f1_excluding_seed(found, truth, 9) == pytest.approx(4 / 7, abs=0)
        p, r = precision_recall_excluding_seed(found, truth, 9)
        assert (p, r) == (2 / 3, 2 / 4)

    def test_singleton_vs_singleton_flagged_zero(self):
        with pytest.warns(UserWarning, match="singleton"):
            assert f1_excluding_seed({5}, {5}, 5) == 0.0

    def test_seed_must_be_in_both(self):
        with pytest.raises(ValueError, match="recovered"):
            f1_excluding_seed({1, 2}, {3, 2}, 3)
        with pytest.raises(ValueError, match="ground-truth"):
            f1_excluding_seed({1, 2}, {3, 2}, 1)

    def test_harmonic_mean_identity(self):
        # f1 == 2/(1/p + 1/r) whenever both are positive; check with exact
        # rational arithmetic on random set pairs.
        rng = make_rng(404)
        for _ in range(200):
            pool = list(range(1, 30))
            found = {0} | set(rng.choice(pool, size=rng.integers(1, 12),
                                         replace=False).tolist())
            truth = {0} | set(rng.choice(pool, size=rng.integers(1, 12),
                                         replace=False).tolist())
            p, r = precision_recall_excluding_seed(found, truth, 0)
            f1 = f1_excluding_seed(found, truth, 0)
            if p > 0 and r > 0:
                fp = Fraction(len((found - {0}) & (truth - {0})), len(found) - 1)
                fr = Fraction(len((found - {0}) & (truth - {0})), len(truth) - 1)
                assert f1 == float(2 / (1 / fp + 1 / fr))
            else:
                assert f1 == 0.0


class TestConductance:
    def test_isolated_clique(self):
        g = disjoint_cliques(2, 4)
        assert conductance(g, {0, 1, 2, 3}) == 0.0

    def test_single_node_all_edges_leave(self):
        g = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        assert conductance(g, {0}) == 1.0

    def test_bridge_clique(self):
        g = bridge_graph()
        assert conductance(g, {0, 1, 2, 3}) == 1 / 13

    def test_empty_and_zero_volume_rejected(self):
        g = bridge_graph()
        with pytest.raises(ValueError, match="non-empty"):
            conductance(g, set())
        from blockcomm.graph import Graph
        iso = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="zero-volume"):
            conductance(iso, {2})
        # detect and eval report a zero-volume set's conductance as 1.0
        assert stats_conductance(community_stats(iso, {2})) == 1.0

    def test_cut_volume_identity(self):
        # conductance + 2w/v = 1, checked in exact rational arithmetic
        # against independently recounted w and v.
        rng = make_rng(31)
        for _ in range(50):
            g = graph_from_edges(random_gnp(rng, 12, 0.3))
            size = int(rng.integers(1, g.node_count))
            members = set(rng.choice(g.node_count, size=size, replace=False).tolist())
            w = sum(1 for i in members for j in g.neighbors(i) if int(j) in members) // 2
            v = sum(g.degree(i) for i in members)
            if v == 0:
                continue
            assert Fraction(v - 2 * w, v) + Fraction(2 * w, v) == 1
            assert conductance(g, members) == (v - 2 * w) / v
            assert stats_conductance(community_stats(g, members)) == (v - 2 * w) / v


def truth_oracle(truths):
    def detector(graph, seed, rng):
        return next(t for t in truths if seed in t)
    return detector


class TestRunProtocol:
    def setup_method(self):
        self.g = disjoint_cliques(3, 4)
        self.truths = [set(range(4)), set(range(4, 8)), set(range(8, 12))]
        self.cfg = SearchConfig(method="adcbm", restarts=2, rng_seed=0)

    def test_perfect_detector_scores_one(self):
        rows, summary = run_protocol(self.g, self.truths, self.cfg, 6,
                                     make_rng(3), detector=truth_oracle(self.truths))
        assert summary["mean_f1"] == 1.0
        assert summary["mean_precision"] == 1.0
        assert summary["mean_recall"] == 1.0
        assert summary["failed"] == 0
        assert all(r.method == "external" for r in rows)
        assert all(r.conductance == 0.0 for r in rows)

    def test_deterministic_given_rng_seed(self):
        a_rows, a_sum = run_protocol(self.g, self.truths, self.cfg, 5, make_rng(77))
        b_rows, b_sum = run_protocol(self.g, self.truths, self.cfg, 5, make_rng(77))
        for ra, rb in zip(a_rows, b_rows):
            assert (ra.method, ra.seed, ra.truth_size, ra.found_size) == \
                   (rb.method, rb.seed, rb.truth_size, rb.found_size)
            assert (ra.precision, ra.recall, ra.f1, ra.conductance) == \
                   (rb.precision, rb.recall, rb.f1, rb.conductance)
        assert a_sum["mean_f1"] == b_sum["mean_f1"]

    def test_pool_drawn_without_replacement_first(self):
        # Distinguishable community sizes: the first |truths| draws must
        # cover every community exactly once.
        g = disjoint_cliques(3, 5)
        truths = [set(range(5)), set(range(5, 10)), set(range(10, 15))]
        sized = [truths[0], set(list(truths[1])[:4]), set(list(truths[2])[:3])]
        rows, _ = run_protocol(g, sized, self.cfg, 7, make_rng(5),
                               detector=truth_oracle(sized))
        first = sorted(r.truth_size for r in rows[:3])
        assert first == [3, 4, 5]
        assert len(rows) == 7

    def test_seed_always_inside_sampled_truth(self):
        rows, _ = run_protocol(self.g, self.truths, self.cfg, 9, make_rng(8),
                               detector=truth_oracle(self.truths))
        for r in rows:
            assert any(r.seed in t and len(t) == r.truth_size for t in self.truths)

    def test_failed_rows_recorded_and_excluded(self):
        boom = {4}

        def detector(graph, seed, rng):
            if seed in boom:
                raise ValueError("detector exploded")
            return next(t for t in self.truths if seed in t)

        rng = make_rng(0)
        rows, summary = run_protocol(self.g, self.truths, self.cfg, 30, rng,
                                     detector=detector)
        bad = [r for r in rows if r.error]
        good = [r for r in rows if not r.error]
        assert bad and all(r.error == "ValueError: detector exploded" for r in bad)
        assert all(r.found_size == 0 and r.f1 == 0.0 for r in bad)
        assert summary["failed"] == len(bad)
        assert summary["samples"] == 30
        assert summary["mean_f1"] == 1.0  # failures excluded from the mean

    def test_programming_errors_propagate(self):
        def detector(graph, seed, rng):
            raise TypeError("detector is broken")

        with pytest.raises(TypeError, match="broken"):
            run_protocol(self.g, self.truths, self.cfg, 3, make_rng(0), detector=detector)

    def test_empty_truths_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_protocol(self.g, [], self.cfg, 3, make_rng(0))

    def test_end_to_end_with_detect(self):
        rows, summary = run_protocol(self.g, self.truths, self.cfg, 6, make_rng(1))
        assert len(rows) == 6
        assert summary["failed"] == 0
        for r in rows:
            assert 0.0 <= r.f1 <= 1.0
            assert 0.0 <= r.conductance <= 1.0
            assert r.elapsed >= 0.0


class TestSummarize:
    def test_mean_and_stderr(self):
        rows = [EvalRow("m", s, 4, 4, 1.0, 1.0, f1, 0.0, 0.01)
                for s, f1 in enumerate([0.2, 0.4, 0.9])]
        s = summarize(rows)
        arr = np.array([0.2, 0.4, 0.9])
        assert s["mean_f1"] == pytest.approx(arr.mean())
        assert s["stderr_f1"] == pytest.approx(arr.std(ddof=1) / math.sqrt(3))
        assert s["mean_truth_size"] == 4.0
        assert s["samples"] == 3 and s["failed"] == 0

    def test_all_failed(self):
        rows = [EvalRow("m", 0, 4, 0, 0.0, 0.0, 0.0, 1.0, 0.0, error="x")]
        s = summarize(rows)
        assert s["failed"] == 1
        assert s["mean_f1"] == 0.0
