"""Exact SBM marginal likelihood, partition prior, and the local score."""

import math

import numpy as np
import pytest

from blockcomm.distributions import BetaParams, log_beta
from blockcomm.graph import CommunityStats, community_stats
from blockcomm.rng import make_rng
from blockcomm.sbm import (
    EdgeCounts,
    SbmPriors,
    asbm_log_score,
    asbm_tilde_counts,
    exact_edge_counts,
    log_partition_prior,
    sbm_log_likelihood,
)

from conftest import (
    bridge_graph,
    clique_edges,
    disjoint_cliques,
    graph_from_edges,
    quadrature_likelihood,
    random_gnp,
    set_partitions,
)

UNIFORM = SbmPriors()


class TestPriors:
    def test_defaults(self):
        assert (UNIFORM.alpha_plus, UNIFORM.alpha_minus, UNIFORM.gamma_exp) == (
            1.0,
            1.0,
            2.0,
        )

    @pytest.mark.parametrize("kw", [
        {"alpha_plus": 0.0},
        {"alpha_minus": -1.0},
        {"gamma_exp": 1.0},
        {"gamma_exp": 0.5},
        {"alpha_plus": math.inf},
        {"alpha_minus": math.inf},
        {"gamma_exp": math.inf},
        {"alpha_plus": math.nan},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            SbmPriors(**kw)


class TestExactEdgeCounts:
    def test_triangle_one_community(self):
        g = graph_from_edges(clique_edges(range(3)))
        c = exact_edge_counts(g, [0, 0, 0])
        assert (c.ai_plus, c.ai_minus, c.ab_plus, c.ab_minus) == (3, 0, 0, 0)

    def test_triangle_split(self):
        g = graph_from_edges(clique_edges(range(3)))
        c = exact_edge_counts(g, [0, 1, 1])
        assert (c.ai_plus, c.ai_minus, c.ab_plus, c.ab_minus) == (1, 0, 2, 0)

    def test_two_cliques(self):
        g = disjoint_cliques(2, 4)
        c = exact_edge_counts(g, [0, 0, 0, 0, 1, 1, 1, 1])
        assert (c.ai_plus, c.ai_minus, c.ab_plus, c.ab_minus) == (12, 0, 0, 16)

    def test_count_identities_random(self):
        rng = make_rng(3)
        for _ in range(20):
            g = graph_from_edges(random_gnp(rng, 12, 0.3))
            n = g.node_count
            part = [int(rng.integers(0, 4)) for _ in range(n)]
            c = exact_edge_counts(g, part)
            assert c.ai_plus + c.ab_plus == g.edge_count
            assert c.ai_plus + c.ai_minus + c.ab_plus + c.ab_minus == n * (n - 1) // 2
            assert min(c.ai_plus, c.ai_minus, c.ab_plus, c.ab_minus) >= 0

    def test_partition_must_cover_all_nodes(self):
        g = graph_from_edges(clique_edges(range(3)))
        with pytest.raises(ValueError, match="cover"):
            exact_edge_counts(g, {0: 0, 1: 0})

    def test_dict_partition_accepted(self):
        g = graph_from_edges(clique_edges(range(3)))
        c = exact_edge_counts(g, {0: "a", 1: "b", 2: "b"})
        assert (c.ai_plus, c.ab_plus) == (1, 2)


class TestSbmLogLikelihood:
    def test_small_counts(self):
        # B(2,3) = 1!2!/4! = 1/12 under uniform priors.
        c = EdgeCounts(1, 2, 0, 0)
        assert sbm_log_likelihood(c, UNIFORM) == pytest.approx(
            math.log(1.0 / 12.0), rel=1e-12
        )

    def test_two_clique_tiling_counts(self):
        # B(13,1) = 1/13 and B(2,16) = 1/(17*16) = 1/272.
        c = EdgeCounts(12, 0, 1, 15)
        assert sbm_log_likelihood(c, UNIFORM) == pytest.approx(
            -(math.log(13.0) + math.log(272.0)), rel=1e-12
        )

    def test_matches_quadrature_on_random_partitions(self):
        rng = make_rng(17)
        for _ in range(10):
            g = graph_from_edges(random_gnp(rng, 6, 0.5))
            n = g.node_count
            part = [int(rng.integers(0, 3)) for _ in range(n)]
            c = exact_edge_counts(g, part)
            val = math.exp(sbm_log_likelihood(c, UNIFORM))
            ref = quadrature_likelihood(c, UNIFORM)
            assert val == pytest.approx(ref, rel=1e-9)

    def test_matches_quadrature_with_nonuniform_priors(self):
        pri = SbmPriors(alpha_plus=2.0, alpha_minus=3.0)
        c = EdgeCounts(4, 2, 1, 8)
        val = math.exp(sbm_log_likelihood(c, pri))
        ref = quadrature_likelihood(c, pri)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_likelihoods_normalize_over_graphs(self):
        # Summing exp(logL) * (number of graphs with those counts) over all
        # 2^pairs graphs on a fixed partition must give exactly 1.
        from itertools import product

        part = [0, 0, 1, 1]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        within = [p for p in pairs if part[p[0]] == part[p[1]]]
        total = 0.0
        for bits in product((0, 1), repeat=len(pairs)):
            ai = sum(b for b, p in zip(bits, pairs) if p in within)
            ab = sum(b for b, p in zip(bits, pairs) if p not in within)
            c = EdgeCounts(ai, len(within) - ai, ab, len(pairs) - len(within) - ab)
            total += math.exp(sbm_log_likelihood(c, UNIFORM))
        assert total == pytest.approx(1.0, rel=1e-12)


def reference_sbm_log_likelihood(counts, priors):
    """sbm_log_likelihood as it was written over BetaParams and log_beta."""
    ap, am = priors.alpha_plus, priors.alpha_minus
    return (
        log_beta(BetaParams(ap + counts.ai_plus, am + counts.ai_minus))
        + log_beta(BetaParams(ap + counts.ab_plus, am + counts.ab_minus))
        - 2.0 * log_beta(BetaParams(ap, am))
    )


class TestKernelMatchesReference:
    # The scalar kernel must reproduce the checked log_beta form to the bit,
    # so that Louvain's move decisions and every score are unchanged.

    PRIORS = [UNIFORM, SbmPriors(alpha_plus=0.3, alpha_minus=2.5)]

    @pytest.mark.parametrize("priors", PRIORS)
    def test_random_integer_counts(self, priors):
        rng = make_rng(909)
        for _ in range(500):
            counts = EdgeCounts(*(int(x) for x in rng.integers(0, 10 ** rng.integers(1, 9), 4)))
            assert sbm_log_likelihood(counts, priors) == reference_sbm_log_likelihood(
                counts, priors)

    @pytest.mark.parametrize("priors", PRIORS)
    def test_tilde_counts(self, priors):
        # Fractional k = N/n gives non-integer counts; M at least k w keeps
        # the tiling realizable.
        rng = make_rng(910)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            w = int(rng.integers(1, n * (n - 1) // 2 + 1))
            N = int(rng.integers(n, 5000))
            M = math.ceil(N / n * w) + int(rng.integers(0, 20 * N))
            counts, _ = asbm_tilde_counts(CommunityStats(n=n, w=w, v=0, sumsq_alpha_d=0.0),
                                          N, M)
            assert not counts.degenerate
            assert sbm_log_likelihood(counts, priors) == reference_sbm_log_likelihood(
                counts, priors)

    @pytest.mark.parametrize("counts", [
        (-1, 2, 1, 8),
        (4, -3, 1, 8),
        (4, 2, -1.5, 8),
        (4, 2, 1, math.inf),
        (math.nan, 2, 1, 8),
    ])
    def test_argument_outside_the_domain_raises(self, counts):
        with pytest.raises(ValueError, match="Beta parameter"):
            sbm_log_likelihood(EdgeCounts(*counts), UNIFORM)


class TestLogPartitionPrior:
    def test_single_community(self):
        assert log_partition_prior([7], 2.0) == pytest.approx(-2.0 * math.log(7))

    def test_two_equal_communities(self):
        assert log_partition_prior([4, 4], 2.0) == pytest.approx(-4.0 * math.log(4))

    def test_general_exponent(self):
        expect = 2.0 * math.log(1.5) - 2.5 * (math.log(10) + math.log(20))
        assert log_partition_prior([10, 20], 2.5) == pytest.approx(expect, rel=1e-12)

    def test_additive_over_communities(self):
        rng = make_rng(9)
        sizes = [int(rng.integers(1, 40)) for _ in range(12)]
        whole = log_partition_prior(sizes, 2.2)
        split = sum(log_partition_prior([s], 2.2) for s in sizes)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_partition_prior([3], 1.0)
        with pytest.raises(ValueError):
            log_partition_prior([0], 2.0)


class TestTildeCounts:
    def test_bridge_clique(self):
        stats = CommunityStats(n=4, w=6, v=13, sumsq_alpha_d=0.0)
        counts, k = asbm_tilde_counts(stats, N=8, M=13)
        assert k == 2.0
        assert (counts.ai_plus, counts.ai_minus, counts.ab_plus, counts.ab_minus) == (
            12.0,
            0.0,
            1.0,
            15.0,
        )
        assert not counts.degenerate

    def test_fractional_k(self):
        stats = CommunityStats(n=4, w=5, v=12, sumsq_alpha_d=0.0)
        counts, k = asbm_tilde_counts(stats, N=12, M=20)
        assert k == 3.0
        assert (counts.ai_plus, counts.ai_minus, counts.ab_plus, counts.ab_minus) == (
            15.0,
            3.0,
            5.0,
            43.0,
        )

    def test_negative_between_edges_clamped_and_flagged(self):
        # Tiling a dense clique across a sparse graph asks for more within
        # edges than the graph holds.
        stats = CommunityStats(n=4, w=6, v=12, sumsq_alpha_d=0.0)
        counts, k = asbm_tilde_counts(stats, N=100, M=30)
        assert k == 25.0
        assert counts.degenerate
        assert counts.ab_plus == 0.0
        assert min(
            counts.ai_plus, counts.ai_minus, counts.ab_plus, counts.ab_minus
        ) >= 0.0

    def test_validation(self):
        st = CommunityStats(n=4, w=6, v=12, sumsq_alpha_d=0.0)
        with pytest.raises(ValueError):
            asbm_tilde_counts(st, N=3, M=100)
        with pytest.raises(ValueError):
            asbm_tilde_counts(st, N=100, M=5)


class TestAsbmLogScore:
    def test_bridge_clique_value(self):
        g = bridge_graph()
        stats = community_stats(g, {0, 1, 2, 3})
        score = asbm_log_score(stats, N=8, M=13, priors=UNIFORM)
        expect = -4.0 * math.log(4) - math.log(13.0) - math.log(272.0)
        assert score == pytest.approx(expect, rel=1e-12)

    def test_degenerate_scores_minus_inf(self):
        stats = CommunityStats(n=4, w=6, v=12, sumsq_alpha_d=0.0)
        assert asbm_log_score(stats, N=100, M=30, priors=UNIFORM) == float("-inf")

    @pytest.mark.parametrize("k,m", [(2, 3), (3, 4), (4, 5)])
    def test_exact_on_uniform_clique_tilings(self, k, m):
        # When the graph really is k copies of the candidate, the local
        # score equals the exact likelihood plus the partition prior.
        g = disjoint_cliques(k, m)
        members = set(range(m))
        stats = community_stats(g, members)
        local = asbm_log_score(stats, g.node_count, g.edge_count, UNIFORM)
        part = [i // m for i in range(k * m)]
        exact = sbm_log_likelihood(exact_edge_counts(g, part), UNIFORM)
        exact += log_partition_prior([m] * k, UNIFORM.gamma_exp)
        assert local == pytest.approx(exact, abs=1e-9)

    def test_exact_tiling_with_nonuniform_priors(self):
        pri = SbmPriors(alpha_plus=2.0, alpha_minus=3.0, gamma_exp=2.5)
        g = disjoint_cliques(3, 4)
        stats = community_stats(g, set(range(4)))
        local = asbm_log_score(stats, g.node_count, g.edge_count, pri)
        part = [i // 4 for i in range(12)]
        exact = sbm_log_likelihood(exact_edge_counts(g, part), pri)
        exact += log_partition_prior([4, 4, 4], pri.gamma_exp)
        assert local == pytest.approx(exact, abs=1e-9)

    def test_large_graph_ratio_limit(self):
        # At fixed mean degree the score is dominated by
        # -(M - k*w) log N, so score / (N log N) tends to w/n - M/N.
        # Convergence is O(1/log N); extrapolate linearly in 1/log N.
        stats = CommunityStats(n=20, w=50, v=120, sumsq_alpha_d=0.0)
        xs, ys = [], []
        for N in (10_000, 30_000, 100_000, 300_000, 1_000_000):
            M = 3 * N
            s = asbm_log_score(stats, N, M, UNIFORM) / (N * math.log(N))
            xs.append(1.0 / math.log(N))
            ys.append(s)
        A = np.vstack([np.ones(len(xs)), xs]).T
        coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
        target = 50 / 20 - 3.0
        assert coef[0] == pytest.approx(target, abs=0.02)

    def test_denser_candidate_wins_at_equal_size(self):
        # Holding n fixed, more within edges can only raise the score.
        lo = CommunityStats(n=10, w=12, v=60, sumsq_alpha_d=0.0)
        hi = CommunityStats(n=10, w=20, v=60, sumsq_alpha_d=0.0)
        N, M = 1000, 3000
        assert asbm_log_score(hi, N, M, UNIFORM) > asbm_log_score(
            lo, N, M, UNIFORM
        )
