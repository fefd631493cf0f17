"""Greedy seed expansion: argmax correctness, determinism, and locality."""

import itertools
from collections import Counter

import pytest

from blockcomm import local_search
from blockcomm.dcbm import DcbmPriors
from blockcomm.generators import PlantedSpec, sample_sbm
from blockcomm.graph import Graph, community_stats
from blockcomm.local_search import (
    DetectionResult,
    SearchConfig,
    detect,
    greedy_expand,
    make_scorer,
)
from blockcomm.rng import derived_rng, make_rng
from blockcomm.sbm import SbmPriors

from conftest import bridge_graph, clique_edges, disjoint_cliques, graph_from_edges


def argmax_family(graph, seed, scorer, alpha, tol=1e-12):
    """All subsets containing the seed that attain the maximal score."""
    best = -float("inf")
    family = []
    others = [u for u in range(graph.node_count) if u != seed]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            members = set(extra) | {seed}
            val = scorer(community_stats(graph, members, alpha))
            if val > best + tol:
                best, family = val, [members]
            elif val > best - tol:
                family.append(members)
    return best, family


class SpyGraph:
    """Graph wrapper recording which nodes have their adjacency inspected."""

    def __init__(self, graph):
        self._g = graph
        self.node_count = graph.node_count
        self.edge_count = graph.edge_count
        self.degrees = graph.degrees
        self.touched = set()

    def neighbors(self, i):
        self.touched.add(i)
        return self._g.neighbors(i)

    def degree(self, i):
        self.touched.add(i)
        return self._g.degree(i)


class TestBruteForceAgreement:
    def test_bridge_fixture(self):
        g = bridge_graph()
        cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        best, family = argmax_family(g, 0, scorer, alpha)
        assert family == [{0, 1, 2, 3}]
        res = detect(g, 0, cfg)
        assert res.members == {0, 1, 2, 3}
        assert res.log_score == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_isolated_clique_fixtures(self, m):
        # The subset argmax may be attained by several isomorphic subsets;
        # the search must return one of them at the maximal score.
        g = disjoint_cliques(2, m)
        cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        best, family = argmax_family(g, 0, scorer, alpha)
        res = detect(g, 0, cfg)
        assert res.members in family
        assert res.log_score == pytest.approx(best, abs=1e-9)
        assert all(f <= set(range(m)) for f in family)

    def test_two_node_cliques_argmax_is_disconnected(self):
        # On two disjoint single edges every connected candidate containing
        # the seed has an empty edge bucket (the tiled counts assign all M
        # edges within for the pair, none within for the singleton), so all
        # of them sit at the clamp penalty and the unrestricted argmax is a
        # 3-subset spanning both components. Expansion can never return a
        # set disconnected from the seed; it returns the best connected
        # candidate, the singleton.
        g = disjoint_cliques(2, 2)
        cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        best, family = argmax_family(g, 0, scorer, alpha)
        assert family == [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}]
        res = detect(g, 0, cfg)
        assert res.members == {0}
        connected = [{0}, {0, 1}]
        assert res.log_score == max(
            scorer(community_stats(g, c, alpha)) for c in connected)
        assert res.log_score < best

    def test_sbm_score_has_a_first_step_barrier_here(self):
        # On an 8-node graph the SBM score's per-community prior term makes
        # every pair {seed, neighbor} score below the bare singleton, so
        # strict-ascent expansion never leaves the seed even though the full
        # clique scores higher still. Document that honestly.
        g = bridge_graph()
        cfg = SearchConfig(method="asbm", restarts=10, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        singleton = scorer(community_stats(g, {0}, alpha))
        for u in g.neighbors(0):
            assert scorer(community_stats(g, {0, int(u)}, alpha)) < singleton
        best, family = argmax_family(g, 0, scorer, alpha)
        assert family == [{0, 1, 2, 3}]
        assert best > singleton
        res = detect(g, 0, cfg)
        assert res.members == {0}


class TestDeterminismAndRestarts:
    def test_identical_config_identical_result(self):
        g = bridge_graph()
        cfg = SearchConfig(method="adcbm", restarts=4, rng_seed=123)
        a = detect(g, 2, cfg)
        b = detect(g, 2, cfg)
        assert a.members == b.members
        assert a.log_score == b.log_score
        assert (a.restart_index, a.passes) == (b.restart_index, b.passes)

    def test_restarts_one_equals_single_expansion(self):
        g = bridge_graph()
        cfg = SearchConfig(method="adcbm", restarts=1, rng_seed=7)
        scorer, alpha = make_scorer(g, cfg)
        direct = greedy_expand(g, 1, scorer, derived_rng(7, 0), alpha=alpha)
        via_detect = detect(g, 1, cfg)
        assert via_detect.members == direct.members
        assert via_detect.log_score == direct.log_score

    def test_more_restarts_never_hurt(self):
        g = disjoint_cliques(2, 5)
        one = detect(g, 0, SearchConfig(method="adcbm", restarts=1, rng_seed=5))
        ten = detect(g, 0, SearchConfig(method="adcbm", restarts=10, rng_seed=5))
        assert ten.log_score >= one.log_score

    def test_tie_goes_to_lowest_restart(self):
        g = bridge_graph()
        res = detect(g, 0, SearchConfig(method="adcbm", restarts=8, rng_seed=0))
        assert res.restart_index == 0

    def test_seed_always_member(self):
        g = bridge_graph()
        for method in ("asbm", "adcbm"):
            res = detect(g, 3, SearchConfig(method=method, restarts=3, rng_seed=1))
            assert 3 in res.members

    def test_score_matches_recompute_on_members(self):
        g = bridge_graph()
        for method in ("asbm", "adcbm"):
            cfg = SearchConfig(method=method, restarts=5, rng_seed=9)
            scorer, alpha = make_scorer(g, cfg)
            res = detect(g, 4, cfg)
            assert res.log_score == pytest.approx(
                scorer(community_stats(g, res.members, alpha)), rel=1e-12
            )


class TestBoundaries:
    def test_isolated_seed_warns_and_returns_singleton(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])
        cfg = SearchConfig(method="asbm", restarts=2, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        with pytest.warns(UserWarning, match="isolated"):
            res = greedy_expand(g, 4, scorer, derived_rng(0, 0), alpha=alpha)
        assert res.members == {4}

    def test_max_passes_cap(self):
        g = disjoint_cliques(2, 5)
        cfg = SearchConfig(method="adcbm", restarts=1, rng_seed=0, max_passes=1)
        scorer, alpha = make_scorer(g, cfg)
        res = greedy_expand(g, 0, scorer, derived_rng(0, 0), alpha=alpha, max_passes=1)
        assert res.passes == 1
        allowed = {0} | {int(x) for x in g.neighbors(0)}
        assert res.members <= allowed

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            SearchConfig(method="pagerank")
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError, match="formal_N"):
            SearchConfig(formal_N=0)

    def test_default_priors_follow_method(self):
        assert isinstance(SearchConfig(method="asbm").priors, SbmPriors)
        assert isinstance(SearchConfig(method="adcbm").priors, DcbmPriors)


class TestLocality:
    def test_never_inspects_far_nodes(self):
        # 6-clique with a 10-node path hanging off node 5. Expansion from
        # the clique may inspect the frontier and its adjacency, but nodes
        # outside members-plus-neighborhood must never be touched.
        edges = clique_edges(range(6)) + [(5 + i, 6 + i) for i in range(10)]
        g = graph_from_edges(edges)
        spy = SpyGraph(g)
        cfg = SearchConfig(method="adcbm", restarts=1, rng_seed=3)
        scorer, alpha = make_scorer(g, cfg)
        res = greedy_expand(spy, 0, scorer, derived_rng(3, 0), alpha=alpha)
        allowed = set(res.members)
        for u in res.members:
            allowed.update(int(x) for x in g.neighbors(u))
        assert spy.touched <= allowed
        assert res.members <= set(range(6))

    def test_relabeling_preserves_score(self):
        g = bridge_graph()
        cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
        base = detect(g, 0, cfg)

        perm = [3, 6, 1, 7, 0, 5, 2, 4]  # arbitrary fixed permutation
        edges = []
        for i in range(g.node_count):
            for j in g.neighbors(i):
                if i < j:
                    edges.append((perm[i], perm[j]))
        h = Graph.from_edges(8, edges)
        permuted = detect(h, perm[0], cfg)
        assert permuted.log_score == base.log_score
        assert permuted.members == {perm[i] for i in base.members}


def planted_fixture():
    spec = PlantedSpec(communities=4, size=15, lambda_in=0.5, lambda_out=0.03)
    graph, _ = sample_sbm(spec, make_rng(4))
    return graph


def reference_detect(graph, seed, cfg, expand=greedy_expand):
    """Best of restarts with every candidate scored afresh."""
    scorer, alpha = make_scorer(graph, cfg)
    best = None
    for r in range(cfg.restarts):
        result = expand(graph, seed, scorer, derived_rng(cfg.rng_seed, r),
                        alpha=alpha, max_passes=cfg.max_passes)
        result.restart_index = r
        if best is None or result.log_score > best.log_score:
            best = result
    return best


class TestScoreOnce:
    @pytest.mark.parametrize("method,score_name",
                             [("asbm", "asbm_log_score"), ("adcbm", "adcbm_log_score")])
    def test_each_distinct_candidate_scored_once(self, monkeypatch, method, score_name):
        g = planted_fixture()
        cfg = SearchConfig(method=method, restarts=6, rng_seed=2)
        score = getattr(local_search, score_name)
        calls = Counter()

        def counting(stats, *args):
            calls[stats] += 1
            return score(stats, *args)

        monkeypatch.setattr(local_search, score_name, counting)
        detect(g, 0, cfg)
        assert calls and max(calls.values()) == 1
        # Without the memo the same search offers candidates repeatedly.
        calls.clear()
        reference_detect(g, 0, cfg)
        assert max(calls.values()) > 1

    @pytest.mark.parametrize("method", ["asbm", "adcbm"])
    def test_result_equals_memo_free_search(self, method):
        g = planted_fixture()
        for seed, rng_seed in ((0, 0), (17, 5), (33, 11), (58, 3)):
            cfg = SearchConfig(method=method, restarts=5, rng_seed=rng_seed)
            got, want = detect(g, seed, cfg), reference_detect(g, seed, cfg)
            assert got.members == want.members
            assert got.log_score == want.log_score
            assert got.stats == want.stats
            assert (got.restart_index, got.passes) == (want.restart_index, want.passes)


def scratch_greedy(graph, seed, scorer, rng, alpha, max_passes):
    """greedy_expand with every candidate's stats recomputed from scratch."""
    members = {seed}
    stats = community_stats(graph, members, alpha)
    score = scorer(stats)
    frontier = {int(x) for x in graph.neighbors(seed)}
    passes = 0
    while passes < max_passes:
        passes += 1
        order = sorted(frontier)
        rng.shuffle(order)
        added_any = False
        for u in order:
            cand = community_stats(graph, members | {u}, alpha)
            cand_score = scorer(cand)
            if cand_score > score:
                members.add(u)
                stats, score, added_any = cand, cand_score, True
                frontier.discard(u)
                frontier.update(int(x) for x in graph.neighbors(u)
                                if int(x) not in members)
        if not added_any:
            break
    return DetectionResult(members, score, stats, passes=passes)


class TestLinkCountsMatchScratchStats:
    @pytest.mark.parametrize("method", ["asbm", "adcbm"])
    def test_detect_equals_scratch_greedy(self, method):
        g = planted_fixture()
        for seed, rng_seed in ((0, 0), (17, 5), (33, 11), (58, 3)):
            cfg = SearchConfig(method=method, restarts=5, rng_seed=rng_seed)
            got = detect(g, seed, cfg)
            want = reference_detect(g, seed, cfg, expand=scratch_greedy)
            assert len(want.members) > 1
            assert got.members == want.members
            assert got.log_score == want.log_score
            assert got.stats == want.stats
            assert (got.restart_index, got.passes) == (want.restart_index, want.passes)
