"""Greedy seed expansion: argmax correctness, determinism, and locality."""

import io
import itertools
import warnings
from collections import Counter

import pytest

from blockcomm import local_search
from blockcomm.dcbm import DcbmPriors
from blockcomm.evaluation import stats_conductance
from blockcomm.generators import PlantedSpec, sample_sbm
from blockcomm.graph import Graph, community_stats, load_edge_list
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

    def test_two_node_cliques_argmax_is_the_singleton(self):
        # On two disjoint single edges the bare seed outscores every other
        # subset: a pair pays the partition prior of a community without
        # gaining a rate bucket the singleton lacks (conjugate rate shapes
        # never reach zero). The first-step fallback tries the pair, which
        # stays below the seed, so the search keeps the singleton.
        g = disjoint_cliques(2, 2)
        cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        best, family = argmax_family(g, 0, scorer, alpha)
        assert family == [{0}]
        assert scorer(community_stats(g, {0, 1}, alpha)) < best
        res = detect(g, 0, cfg)
        assert res.members == {0}
        assert res.log_score == best

    def test_sbm_score_has_a_first_step_barrier_here(self):
        # On an 8-node graph the SBM score's per-community prior term makes
        # every pair {seed, neighbor} score below the bare singleton, so
        # strict-ascent passes never leave the seed even though the full
        # clique scores higher still. The first-step fallback crosses the
        # barrier: it adds the best neighbours at a loss until the prefix
        # beats the seed, and the passes then reach the argmax.
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
        assert res.members == {0, 1, 2, 3}
        assert res.log_score == pytest.approx(best, abs=1e-9)

    def test_first_step_fallback_stops_at_its_cap(self):
        # A score that prices every non-singleton community below the seed
        # never adopts a prefix: the fallback makes FIRST_STEP_CAP losing
        # additions, scores each prefix's frontier, and returns the seed.
        g = graph_from_edges(clique_edges(range(8)))
        seen = Counter()

        def scorer(stats):
            seen[stats.n] += 1
            return 0.0 if stats.n == 1 else -float(stats.n)

        res = greedy_expand(g, 0, scorer, derived_rng(0, 0))
        assert res.members == {0} and res.log_score == 0.0
        assert res.passes == 1
        assert max(seen) == local_search.FIRST_STEP_CAP + 1

    def test_first_step_fallback_adopts_the_first_winning_prefix(self):
        # The score rises past the seed's at three members and peaks at
        # five; the fallback adopts the 3-prefix (lowest ids first among
        # ties) and the passes then climb to the peak.
        g = graph_from_edges(clique_edges(range(8)))
        values = {1: 0.0, 2: -1.0, 3: 0.5, 4: 2.0, 5: 3.0}

        def scorer(stats):
            return values.get(stats.n, -10.0)

        res = greedy_expand(g, 0, scorer, derived_rng(0, 0))
        assert len(res.members) == 5 and res.log_score == 3.0
        assert {1, 2} <= res.members


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

    def test_isolated_seed_is_named_by_its_external_id(self):
        # Node 1 appears only in a dropped self-loop, so it is isolated and
        # its dense index, 3, is that of no node the file calls 3.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dropped self-loop's summary
            g = load_edge_list(io.StringIO("0 2\n2 3\n0 3\n1 1\n"))
        seed = g.node_labels[1]
        assert seed == 3 and g.degree(seed) == 0
        cfg = SearchConfig(method="asbm", restarts=1, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        with pytest.warns(UserWarning, match="^seed node 1 is isolated"):
            res = greedy_expand(g, seed, scorer, derived_rng(0, 0), alpha=alpha)
        assert res.members == {seed}

    def test_max_passes_cap(self, monkeypatch):
        g = disjoint_cliques(2, 5)
        cfg = SearchConfig(method="adcbm", restarts=1, rng_seed=0)
        scorer, alpha = make_scorer(g, cfg)
        monkeypatch.setattr(local_search, "MAX_PASSES", 1)
        allowed = {0} | {int(x) for x in g.neighbors(0)}
        for res in (greedy_expand(g, 0, scorer, derived_rng(0, 0), alpha=alpha),
                    detect(g, 0, cfg)):
            assert res.passes == 1
            assert res.members <= allowed

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            SearchConfig(method="pagerank")
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError, match="formal_N"):
            SearchConfig(formal_N=0)

    @pytest.mark.parametrize("method", ["asbm", "adcbm"])
    @pytest.mark.parametrize("seed", [-1, -5, 5, 9])
    def test_seed_outside_the_graph_rejected(self, method, seed):
        # numpy would read a negative seed as an index from the end.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        cfg = SearchConfig(method=method, restarts=2, rng_seed=0)
        message = rf"seed {seed} is outside \[0, 5\)"
        with pytest.raises(ValueError, match=message):
            detect(g, seed, cfg)
        scorer, alpha = make_scorer(g, cfg)
        with pytest.raises(ValueError, match=message):
            greedy_expand(g, seed, scorer, derived_rng(0, 0), alpha=alpha)

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
        result = expand(graph, seed, scorer, derived_rng(cfg.rng_seed, r), alpha=alpha)
        result.restart_index = r
        if best is None or result.log_score > best.log_score:
            best = result
    return best


class TestScoreOnce:
    @pytest.mark.parametrize("method,score_name",
                             [("asbm", "asbm_log_score"), ("adcbm", "adcbm_log_score")])
    def test_each_distinct_candidate_scored_once(self, monkeypatch, method, score_name):
        # A score is keyed on the stats fields it reads: n and w for aSBM,
        # all four for aDCBM.
        reads = {"asbm": 2, "adcbm": 4}[method]
        g = planted_fixture()
        cfg = SearchConfig(method=method, restarts=6, rng_seed=2)
        score = getattr(local_search, score_name)
        calls = Counter()

        def counting(stats, *args):
            calls[stats[:reads]] += 1
            return score(stats, *args)

        monkeypatch.setattr(local_search, score_name, counting)
        detect(g, 0, cfg)
        assert calls and max(calls.values()) == 1
        # Without the memo the same search offers candidates repeatedly.
        calls.clear()
        reference_detect(g, 0, cfg)
        assert max(calls.values()) > 1

    @pytest.mark.parametrize("method", ["asbm", "adcbm", "conductance"])
    def test_expansion_prices_each_class_once_per_community(self, monkeypatch, method):
        # Passes grow the community one node at a time, so a candidate's
        # stats name its community (by n) and its (links, degree) class (by
        # w and v): a repeated stats is a class priced twice at one
        # community. These searches never take the first-step fallback,
        # which the bridge-graph test below covers.
        g = planted_fixture()
        if method == "conductance":
            score, alpha = (lambda stats: -stats_conductance(stats)), 1.0
        else:
            score, alpha = make_scorer(g, SearchConfig(method=method))

        def no_fallback(*args):
            raise AssertionError("the first-step fallback fired")

        monkeypatch.setattr(local_search, "_first_step", no_fallback)
        for seed, rng_seed in ((0, 0), (17, 5), (5, 1), (24, 7), (40, 2)):
            calls = Counter()

            def counting(stats):
                calls[stats] += 1
                return score(stats)

            res = greedy_expand(g, seed, counting, derived_rng(rng_seed, 0), alpha=alpha)
            assert len(res.members) > 1
            assert max(calls.values()) == 1

    def test_fallback_prices_each_class_once_per_community(self):
        # On the bridge graph every pair scores below the bare seed under
        # aSBM, so the first pass stalls and the fallback adds at a loss.
        # Its first step reuses the pass's scores at the bare seed, and each
        # later step prices one node per (links, degree) class; a prefix's
        # stats name its community and class as in the test above.
        g = bridge_graph()
        score, alpha = make_scorer(g, SearchConfig(method="asbm"))
        calls = Counter()

        def counting(stats):
            calls[stats] += 1
            return score(stats)

        res = greedy_expand(g, 0, counting, derived_rng(0, 0), alpha=alpha)
        assert res.members == {0, 1, 2, 3}
        assert max(calls.values()) == 1

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


def scratch_first_step(graph, members, score, scorer, alpha):
    """The first-step fallback with every candidate's stats from scratch."""
    members = set(members)
    for _ in range(local_search.FIRST_STEP_CAP):
        frontier = sorted({int(x) for m in members for x in graph.neighbors(m)} - members)
        if not frontier:
            return None
        scored = [(scorer(community_stats(graph, members | {u}, alpha)), -u) for u in frontier]
        cand_score, neg_u = max(scored)
        members.add(-neg_u)
        if cand_score > score:
            return members, cand_score
    return None


def scratch_greedy(graph, seed, scorer, rng, alpha):
    """greedy_expand with every candidate's stats recomputed from scratch."""
    members = {seed}
    stats = community_stats(graph, members, alpha)
    score = scorer(stats)
    frontier = {int(x) for x in graph.neighbors(seed)}
    passes = 0
    while passes < local_search.MAX_PASSES:
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
            grown = None
            if len(members) == 1:
                grown = scratch_first_step(graph, members, score, scorer, alpha)
            if grown is None:
                break
            members, score = grown
            stats = community_stats(graph, members, alpha)
            frontier = {int(x) for m in members for x in graph.neighbors(m)} - members
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


def skip_cases():
    """(graph, seed, rng_seed, formal_N) cases of the planted and bridge fixtures."""
    planted, bridge = planted_fixture(), bridge_graph()
    return [(planted, seed, rng_seed, None)
            for seed, rng_seed in ((0, 0), (17, 5), (33, 11), (58, 3))] + [
        (planted, 30, 1, 20),
        (planted, 12, 2, 6),   # every candidate scores -inf
        (bridge, 0, 0, None),  # the first-step fallback
        (bridge, 5, 2, None),
        (bridge, 0, 4, 6),
    ]


class TestSkipByWhatTheScoreReads:
    # reference_detect calls greedy_expand as for a scorer it knows nothing
    # about, so a class that lost there is a (links, degree) class.

    def test_asbm_detect_equals_the_degree_keyed_search(self):
        for graph, seed, rng_seed, formal_n in skip_cases():
            cfg = SearchConfig(method="asbm", restarts=5, rng_seed=rng_seed,
                               formal_N=formal_n)
            got, want = detect(graph, seed, cfg), reference_detect(graph, seed, cfg)
            assert got.members == want.members
            assert got.log_score == want.log_score
            assert got.stats == want.stats
            assert (got.restart_index, got.passes) == (want.restart_index, want.passes)

    @pytest.mark.parametrize("graph_fn", [planted_fixture, bridge_graph])
    def test_asbm_detect_raises_the_degree_keyed_searchs_error(self, graph_fn):
        # At formal N 3 a candidate of 4 nodes outgrows the score's totals.
        cfg = SearchConfig(method="asbm", restarts=3, rng_seed=1, formal_N=3)
        errors = []
        for search in (detect, reference_detect):
            with pytest.raises(ValueError) as caught:
                search(graph_fn(), 0, cfg)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "community size 4 exceeds total node count 3.0"

    @pytest.mark.parametrize("method", ["asbm", "adcbm"])
    def test_asbm_builds_fewer_candidates_and_adcbm_as_many(self, monkeypatch, method):
        builds = Counter()
        build = local_search.add_node_delta

        def counting(*args):
            builds[search] += 1  # the search running now
            return build(*args)

        monkeypatch.setattr(local_search, "add_node_delta", counting)
        # At formal N 6 the aDCBM score raises; count complete searches.
        for graph, seed, rng_seed, formal_n in skip_cases():
            if formal_n is not None:
                continue
            cfg = SearchConfig(method=method, restarts=5, rng_seed=rng_seed)
            for search in (detect, reference_detect):
                search(graph, seed, cfg)
        if method == "asbm":
            assert 0 < builds[detect] < builds[reference_detect]
        else:
            assert 0 < builds[detect] == builds[reference_detect]


class ReadRecordingGraph(Graph):
    """Graph that records whose neighbour list and whose degree are read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.neighbor_reads, self.degree_reads = set(), set()

    def neighbors(self, i):
        self.neighbor_reads.add(i)
        return super().neighbors(i)

    def degree(self, i):
        self.degree_reads.add(i)
        return super().degree(i)


def with_copies(graph, copies_before, copies_after):
    """The graph among disjoint copies of itself; returns (graph, offset)."""
    n = graph.node_count
    pairs = [(i, int(j)) for i in range(n) for j in graph.neighbors(i) if i < j]
    edges = [(i + c * n, j + c * n) for c in range(copies_before + 1 + copies_after)
             for i, j in pairs]
    total = n * (copies_before + 1 + copies_after)
    return ReadRecordingGraph(total, edges), copies_before * n


class TestReadLocality:
    @pytest.mark.parametrize("method", ["asbm", "adcbm"])
    @pytest.mark.parametrize("graph_fn,seed,fallback", [
        (planted_fixture, 17, False), (planted_fixture, 40, False), (bridge_graph, 0, True)])
    def test_disjoint_copies_change_no_result_and_no_read(self, monkeypatch, method,
                                                          graph_fn, seed, fallback):
        # A fixed formal N and the copies' equal mean degree keep the
        # score's totals; the search then reads the same lists either way.
        base = graph_fn()
        cfg = SearchConfig(method=method, restarts=4, rng_seed=seed, formal_N=base.node_count)
        expand, first_step = local_search.greedy_expand, local_search._first_step
        restarts, fallbacks = [], []

        def recording_expand(*args, **kwargs):
            result = expand(*args, **kwargs)
            restarts.append(result.members)
            return result

        def recording_first_step(*args):
            fallbacks.append(args[1])
            return first_step(*args)

        monkeypatch.setattr(local_search, "greedy_expand", recording_expand)
        monkeypatch.setattr(local_search, "_first_step", recording_first_step)
        runs = []
        for before, after in ((0, 0), (1, 2)):
            graph, offset = with_copies(base, before, after)
            restarts.clear()
            res = detect(graph, seed + offset, cfg)
            assert graph.neighbor_reads <= set().union(*restarts)
            runs.append((res.log_score, res.stats, res.restart_index, res.passes)
                        + tuple({u - offset for u in nodes} for nodes in
                                (res.members, graph.neighbor_reads, graph.degree_reads)))
        assert runs[0] == runs[1]
        assert bool(fallbacks) == fallback
