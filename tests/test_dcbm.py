"""Degree-corrected model: variational updates, bound, and the local score."""

import math

import numpy as np
import pytest
import scipy.special as sps
from scipy.optimize import minimize_scalar

from blockcomm import dcbm
from blockcomm.dcbm import (
    DcbmPriors,
    VariationalState,
    adcbm_local_fit,
    adcbm_log_score,
    formal_n_totals,
    initial_variational_state,
    local_bound_value,
    vb_bound,
    vb_update,
)
from blockcomm.distributions import GammaParams, gamma_kl, log_gamma
from blockcomm.generators import PlantedSpec, sample_sbm
from blockcomm.global_search import _converge_vb
from blockcomm.graph import CommunityStats, Graph, community_stats
from blockcomm.rng import make_rng

from conftest import assignment_of, bridge_graph, clique_edges, graph_from_edges

UNIFORM = DcbmPriors()


def matched_cliques(m):
    """Two m-cliques joined by a perfect matching: every degree equals m.

    The graph is exactly two identical copies of either community, which is
    the regime the local score's tiling assumption describes.
    """
    edges = clique_edges(range(m)) + clique_edges(range(m, 2 * m))
    edges += [(i, m + i) for i in range(m)]
    return Graph.from_edges(2 * m, edges)


def matched_copies(m, p=0.5):
    """Two copies of a G(m, p) graph (numpy seed m) joined by a perfect
    matching: tiled exactly by either community, with unequal degrees."""
    rng = np.random.default_rng(m)
    h = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < p]
    edges = h + [(i + m, j + m) for i, j in h] + [(i, m + i) for i in range(m)]
    return Graph.from_edges(2 * m, edges)


def conjugate_sweep(g, assign, st, priors):
    """One vb_update sweep without its gauge step: the conjugate shapes
    alpha + deg and alpha + count, the scales, then the rate factors."""
    inv_t = 1.0 / priors.theta
    e_d = st.alpha_d * st.theta_d
    s_c = np.bincount(assign, weights=e_d)
    theta_d = 1.0 / (inv_t + st.lambda_in.mean * (s_c[assign] - e_d)
                     + st.lambda_out.mean * (e_d.sum() - s_c[assign]))
    e_d = st.alpha_d * theta_d
    s_c = np.bincount(assign, weights=e_d)
    q_c = np.bincount(assign, weights=e_d * e_d)
    same = float((s_c * s_c - q_c).sum()) / 2.0
    cross = (float(e_d.sum()) ** 2 - float((s_c * s_c).sum())) / 2.0
    w_in = g.within_edges(assign)
    return VariationalState(
        st.alpha_d, theta_d,
        GammaParams(priors.alpha + w_in, 1.0 / (inv_t + same)),
        GammaParams(priors.alpha + g.edge_count - w_in, 1.0 / (inv_t + cross)))


def converge_conjugate(g, part, priors, sweeps=5000, tol=1e-15):
    assign = np.asarray(part)
    prior = GammaParams(priors.alpha, priors.theta)
    st = VariationalState(priors.alpha + g.degrees.astype(float),
                          np.full(g.node_count, priors.theta), prior, prior)
    for _ in range(sweeps):
        new = conjugate_sweep(g, assign, st, priors)
        moved = max(
            float(np.abs(new.theta_d - st.theta_d).max()),
            abs(new.lambda_in.scale - st.lambda_in.scale),
            abs(new.lambda_out.scale - st.lambda_out.scale),
        )
        st = new
        if moved < tol:
            break
    return st


def converge_global(g, part, priors, sweeps=5000, tol=1e-15):
    st = initial_variational_state(g, priors)
    for _ in range(sweeps):
        new = vb_update(g, part, st, priors)
        moved = max(
            float(np.abs(new.theta_d - st.theta_d).max()),
            abs(new.lambda_in.scale - st.lambda_in.scale),
            abs(new.lambda_out.scale - st.lambda_out.scale),
        )
        st = new
        if moved < tol:
            break
    return st


def direct_bound(g, part, st, priors):
    """Literal pair-by-pair evaluation of the bound, via scipy specials."""

    def kl(a, t, a0, t0):
        return (
            (a - a0) * sps.psi(a)
            - sps.gammaln(a)
            + sps.gammaln(a0)
            + a0 * (math.log(t0) - math.log(t))
            + a * (t - t0) / t0
        )

    e_log_d = sps.psi(st.alpha_d) + np.log(st.theta_d)
    e_d = st.alpha_d * st.theta_d
    adj = [set(g.neighbors(i)) for i in range(g.node_count)]
    total = 0.0
    for i in range(g.node_count):
        for j in range(i + 1, g.node_count):
            lam = st.lambda_in if part[i] == part[j] else st.lambda_out
            e_log_lam = sps.psi(lam.shape) + math.log(lam.scale)
            if j in adj[i]:
                total += e_log_d[i] + e_log_d[j] + e_log_lam
            total -= e_d[i] * e_d[j] * lam.shape * lam.scale
    total -= kl(st.lambda_in.shape, st.lambda_in.scale, priors.alpha, priors.theta)
    total -= kl(st.lambda_out.shape, st.lambda_out.scale, priors.alpha, priors.theta)
    for a, t in zip(st.alpha_d, st.theta_d):
        total -= kl(float(a), float(t), priors.alpha, priors.theta)
    return total


def positive_root(a, k, b):
    """The one positive root of a c^3 - k c^2 - 2b (one sign change)."""
    return max(r.real for r in np.roots([a, -k, 0.0, -2.0 * b]) if abs(r.imag) < 1e-9)


def gauged(st, c):
    """st with every degree scale times c and both rate scales over c^2."""
    return VariationalState(
        st.alpha_d, st.theta_d * c,
        GammaParams(st.lambda_in.shape, st.lambda_in.scale / c**2),
        GammaParams(st.lambda_out.shape, st.lambda_out.scale / c**2))


class TestPriors:
    def test_defaults(self):
        assert (UNIFORM.alpha, UNIFORM.theta, UNIFORM.gamma_exp) == (1.0, 1.0, 2.0)

    @pytest.mark.parametrize(
        "kw", [{"alpha": 0.0}, {"theta": -2.0}, {"gamma_exp": 1.0},
               {"alpha": math.inf}, {"theta": math.inf}, {"gamma_exp": math.inf},
               {"theta": math.nan}]
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            DcbmPriors(**kw)


class TestVbUpdate:
    def test_triangle_one_sweep_exact(self):
        g = graph_from_edges(clique_edges(range(3)))
        pri = DcbmPriors(alpha=2.0, theta=1.0)
        st = vb_update(g, [0, 0, 0], initial_variational_state(g, pri), pri)
        assert st.alpha_d == pytest.approx([4.0, 4.0, 4.0])
        # Before the gauge step: denominator 1/theta + E[lam_in] * (sum of
        # other degree means) = 1 + 2 * 8 = 17, so E[d] = 4/17 per node;
        # lambda_in = (2 + 3, 1 / (1 + 3 * 16/289)) = (5, 289/337) and
        # lambda_out = (2, 1). The step's c solves A c^3 - (N - 4) alpha c^2
        # - 2B = 0 with A = 12/17, (N - 4) alpha = -2, B = 1445/337 + 2.
        c = positive_root(12 / 17, -2.0, 1445 / 337 + 2.0)
        assert st.theta_d == pytest.approx([c / 17] * 3, rel=1e-12)
        assert st.lambda_in.shape == 5.0
        assert st.lambda_in.scale == pytest.approx(289 / 337 / c**2, rel=1e-12)
        assert st.lambda_out.shape == 2.0
        assert st.lambda_out.scale == pytest.approx(1 / c**2, rel=1e-12)

    def test_single_edge_one_sweep_exact(self):
        g = Graph.from_edges(2, [(0, 1)])
        st = vb_update(g, [0, 0], initial_variational_state(g, UNIFORM), UNIFORM)
        # Before the gauge step: E[d] = 2 / (1 + 2) = 2/3 per node,
        # lambda_in = (2, 1 / (1 + 4/9)) = (2, 9/13), and lambda_out = (1, 1):
        # no between pair, and its shape keeps the prior's 1.
        c = positive_root(4 / 3, -2.0, 18 / 13 + 1.0)
        assert st.theta_d == pytest.approx([c / 3, c / 3], rel=1e-12)
        assert st.lambda_in.shape == 2.0
        assert st.lambda_in.scale == pytest.approx(9 / 13 / c**2, rel=1e-12)
        assert st.lambda_out.shape == 1.0
        assert st.lambda_out.scale == pytest.approx(1 / c**2, rel=1e-12)

    def test_gauge_step_maximises_the_bound_along_its_direction(self):
        rng = make_rng(19)
        g = graph_from_edges(
            [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.4]
        )
        part = rng.integers(0, 3, size=g.node_count)
        pri = DcbmPriors(alpha=1.3, theta=0.7)
        st = initial_variational_state(g, pri)
        for _ in range(3):
            st = vb_update(g, part, st, pri)
            top = vb_bound(g, part, st, pri)
            for c in (0.9, 0.999, 1.001, 1.1):
                assert vb_bound(g, part, gauged(st, c), pri) < top

    def test_degree_shapes_fixed_by_model(self):
        rng = make_rng(31)
        g = graph_from_edges(
            [(i, j) for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.4]
        )
        part = rng.integers(0, 3, size=g.node_count)
        st = initial_variational_state(g, UNIFORM)
        for _ in range(5):
            st = vb_update(g, part, st, UNIFORM)
            assert st.alpha_d == pytest.approx(UNIFORM.alpha + g.degrees)

    def test_single_node_graph_stays_at_the_prior(self):
        # No pairs: the scales stay at the prior, and the gauge cubic
        # alpha (c^3 + 3 c^2 - 4) = alpha (c - 1) (c + 2)^2 has its root at 1.
        g = Graph.from_edges(1, [])
        st = vb_update(g, [0], initial_variational_state(g, UNIFORM), UNIFORM)
        assert st.alpha_d[0] == UNIFORM.alpha
        assert st.theta_d[0] == pytest.approx(UNIFORM.theta, rel=1e-12)
        for lam in (st.lambda_in, st.lambda_out):
            assert lam.shape == UNIFORM.alpha
            assert lam.scale == pytest.approx(UNIFORM.theta, rel=1e-12)
        assert vb_bound(g, [0], st, UNIFORM) == pytest.approx(0.0, abs=1e-12)

    def test_zero_node_graph(self):
        g = Graph(0, [])
        st = vb_update(g, [], initial_variational_state(g, UNIFORM), UNIFORM)
        assert len(st.alpha_d) == 0
        assert vb_bound(g, [], st, UNIFORM) == 0.0

    def test_nonfinite_denominator_diagnosed(self):
        g = Graph.from_edges(2, [(0, 1)])
        bad = VariationalState(
            alpha_d=np.array([1.0, 1.0]),
            theta_d=np.array([1.0, 1.0]),
            lambda_in=GammaParams(1e308, 1e308),
            lambda_out=GammaParams(1.0, 1.0),
        )
        with pytest.raises(ValueError, match="denominator"):
            vb_update(g, [0, 0], bad, UNIFORM)


class TestVbBound:
    def test_zero_node_graph_is_zero(self):
        g = Graph(0, [])
        st = initial_variational_state(g, UNIFORM)
        assert vb_bound(g, [], st, UNIFORM) == 0.0

    def test_single_edge_hand_evaluation(self):
        g = Graph.from_edges(2, [(0, 1)])
        st = vb_update(g, [0, 0], initial_variational_state(g, UNIFORM), UNIFORM)
        # State (see test_single_edge_one_sweep_exact): alpha_d = (2, 2),
        # theta_d = (c/3, c/3), lambda_in = (2, 9/(13 c^2)) and
        # lambda_out = (1, 1/c^2); each KL from Gamma(1, 1) is
        # (a - 1) psi(a) - lgamma(a) - ln t + a (t - 1).
        c = positive_root(4 / 3, -2.0, 18 / 13 + 1.0)
        t_d, t_in, t_out = c / 3, 9 / (13 * c**2), 1 / c**2
        edge = 2 * (sps.psi(2.0) + math.log(t_d)) + (sps.psi(2.0) + math.log(t_in))
        quad = 2 * t_in * (2 * t_d) ** 2  # E[lam_in] E[d_0] E[d_1] = 8/13
        kl_d = 2 * (sps.psi(2.0) - math.log(t_d) + 2 * (t_d - 1))
        kl_in = sps.psi(2.0) - math.log(t_in) + 2 * (t_in - 1)
        kl_out = -math.log(t_out) + t_out - 1
        expect = edge - quad - (kl_in + kl_out + kl_d)
        assert vb_bound(g, [0, 0], st, UNIFORM) == pytest.approx(expect, rel=1e-9)

    def test_matches_direct_summation(self):
        rng = make_rng(57)
        for _ in range(8):
            n = int(rng.integers(4, 12))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            if not edges:
                continue
            g = graph_from_edges(edges)
            part = rng.integers(0, 2, size=n)
            pri = DcbmPriors(alpha=1.3, theta=0.7)
            st = initial_variational_state(g, pri)
            for _ in range(int(rng.integers(1, 4))):
                st = vb_update(g, part, st, pri)
            val = vb_bound(g, part, st, pri)
            ref = direct_bound(g, part, st, pri)
            assert val == pytest.approx(ref, rel=1e-9)

    def test_below_monte_carlo_likelihood(self):
        # The bound must sit under the true log marginal likelihood, here
        # estimated by averaging the Poisson likelihood over 10^6 prior draws.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        part = [0, 0, 1, 1]
        st = converge_global(g, part, UNIFORM, sweeps=200, tol=1e-13)
        bound = vb_bound(g, part, st, UNIFORM)

        nprng = np.random.default_rng(2024)
        samples = 1_000_000
        d = nprng.gamma(UNIFORM.alpha, UNIFORM.theta, size=(samples, 4))
        lam_in = nprng.gamma(UNIFORM.alpha, UNIFORM.theta, size=samples)
        lam_out = nprng.gamma(UNIFORM.alpha, UNIFORM.theta, size=samples)
        adj = {(0, 1), (1, 2), (2, 3)}
        loglik = np.zeros(samples)
        for i in range(4):
            for j in range(i + 1, 4):
                lam = lam_in if part[i] == part[j] else lam_out
                mu = d[:, i] * d[:, j] * lam
                with np.errstate(divide="ignore"):
                    if (i, j) in adj:
                        loglik += np.log(mu) - mu
                    else:
                        loglik -= mu
        shift = loglik.max()
        logp = shift + math.log(np.mean(np.exp(loglik - shift)))
        batches = loglik.reshape(100, -1)
        ests = [b.max() + math.log(np.mean(np.exp(b - b.max()))) for b in batches]
        stderr = float(np.std(ests)) / 10.0
        assert bound <= logp + 3 * stderr
        assert logp - bound < 4.0  # and it is not uselessly loose


class TestAscent:
    def test_bridge_graph_ten_sweeps(self):
        g = bridge_graph()
        part = [0] * 4 + [1] * 4
        st = initial_variational_state(g, UNIFORM)
        prev = vb_bound(g, part, st, UNIFORM)
        for _ in range(10):
            st = vb_update(g, part, st, UNIFORM)
            cur = vb_bound(g, part, st, UNIFORM)
            assert cur >= prev - 1e-8
            prev = cur

    def test_random_graphs_fifty_sweeps(self):
        # A random 3-way partition, all singletons and all in one: with
        # every shape at least alpha, edgeless buckets ascend too.
        rng = make_rng(42)
        prior = GammaParams(UNIFORM.alpha, UNIFORM.theta)
        for _ in range(20):
            n = int(rng.integers(8, 51))
            while True:
                edges = [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.3
                ]
                if edges:
                    break
            g = Graph.from_edges(n, edges)
            for part in (rng.integers(0, 3, size=n), np.arange(n), np.zeros(n, dtype=int)):
                st = initial_variational_state(g, UNIFORM)
                prev = vb_bound(g, part, st, UNIFORM)
                for _ in range(50):
                    st = vb_update(g, part, st, UNIFORM)
                    cur = vb_bound(g, part, st, UNIFORM)
                    assert cur >= prev - 1e-8
                    prev = cur
                assert gamma_kl(st.lambda_in, prior) >= 0.0
                assert gamma_kl(st.lambda_out, prior) >= 0.0
                for a, t in zip(st.alpha_d, st.theta_d):
                    assert gamma_kl(GammaParams(float(a), float(t)), prior) >= -1e-12

    def test_edgeless_within_partition_ascends(self):
        # No within edges: the within-rate shape keeps the prior's alpha,
        # and the sweeps ascend like on any other partition.
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        part = [0, 1, 0, 1, 0, 1]
        st = initial_variational_state(g, UNIFORM)
        prev = vb_bound(g, part, st, UNIFORM)
        for _ in range(50):
            st = vb_update(g, part, st, UNIFORM)
            assert st.lambda_in.shape == UNIFORM.alpha
            cur = vb_bound(g, part, st, UNIFORM)
            assert cur >= prev - 1e-8
            prev = cur
        assert math.isfinite(prev)


class TestConvergeVbFixedPoint:
    # _converge_vb stops on its tolerance; its bound must be that of the
    # fixed point the gauge-free conjugate sweeps reach (converge_conjugate).

    @staticmethod
    def planted():
        spec = PlantedSpec(communities=4, size=15, lambda_in=0.4, lambda_out=0.03)
        g, truth = sample_sbm(spec, make_rng(77))
        return g, assignment_of(truth, g.node_count)

    @pytest.mark.parametrize("case", ["matched-copies-8", "planted"])
    def test_bound_is_the_conjugate_fixed_point(self, case):
        if case == "planted":
            g, part = self.planted()
        else:
            g = matched_copies(8)
            part = np.arange(g.node_count) // 8
        ref = vb_bound(g, part, converge_conjugate(g, part, UNIFORM), UNIFORM)
        _, bound = _converge_vb(g, part, UNIFORM)
        assert bound == pytest.approx(ref, rel=1e-9)


def slope(fit, t, theta):
    """F(t), the local bound's slope in log theta_d, from a fit's shapes."""
    k, v_hat, m_hat = fit.k, fit.v_hat, fit.m_hat
    p_in = k * (v_hat**2 - fit.k_hat_sq)
    p_out = m_hat**2 - k * v_hat**2
    a_in, a_out = fit.a_in, fit.a_out
    return (m_hat * (1.0 - t / theta)
            - a_in * p_in * t**2 / (1.0 / theta + p_in * t**2 / 2.0)
            - a_out * p_out * t**2 / (1.0 / theta + p_out * t**2 / 2.0))


def bound_at(fit, t, theta, alpha):
    """The collapsed bound at theta_d = t with both rate factors optimal."""
    k, v_hat, m_hat = fit.k, fit.v_hat, fit.m_hat
    p_in = k * (v_hat**2 - fit.k_hat_sq)
    p_out = m_hat**2 - k * v_hat**2
    total = m_hat * (math.log(t) - t / theta)
    for a, p in ((fit.a_in, p_in), (fit.a_out, p_out)):
        total += math.lgamma(a) - a * math.log(1.0 / theta + p * t**2 / 2.0)
    return total - 2.0 * (math.lgamma(alpha) + alpha * math.log(theta))


def w1_cases(priors):
    """(stats, N, M): communities of sizes 1-50 on a graph the size of the
    local-adcbm benchmark's (N = 2000, M = 68,185, mean degree about 68),
    plus random stats on smaller graphs."""
    alpha = priors.alpha
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 50):
        degs = rng.integers(40, 100, size=n)
        v = int(degs.sum())
        w = int(rng.integers(0, min(n * (n - 1) // 2, v // 2) + 1))
        sumsq = float(((alpha + degs) ** 2).sum())
        cases.append((CommunityStats(n, w, v, sumsq), 2000.0, 68185.0))
    for _ in range(30):
        N = float(rng.integers(20, 500))
        n = int(rng.integers(1, 20))
        degs = rng.integers(1, 30, size=n)
        v = int(degs.sum())
        w = int(rng.integers(0, min(n * (n - 1) // 2, v // 2) + 1))
        M = float(rng.integers(max(w, (v + 1) // 2), 5 * N))
        sumsq = float(((alpha + degs) ** 2).sum())
        cases.append((CommunityStats(n, w, v, sumsq), N, M))
    return cases


PRIOR_CASES = [UNIFORM, DcbmPriors(alpha=1.7, theta=0.6)]


class TestLocalFit:
    def test_uninformative_reductions(self):
        g = bridge_graph()
        stats = community_stats(g, {0, 1, 2, 3})
        fit = adcbm_local_fit(stats, g.node_count, g.edge_count, UNIFORM)
        assert fit.v_hat == stats.v + stats.n
        assert fit.m_hat == 2.0 * g.edge_count + g.node_count
        assert fit.k == pytest.approx(2.0 * g.edge_count / stats.v)
        assert fit.a_in == pytest.approx(1.0 + fit.k * stats.w)
        assert fit.a_out == pytest.approx(1.0 + g.edge_count - fit.k * stats.w)

    def test_singleton_seed(self):
        # An edgeless candidate keeps the prior shape on its within bucket,
        # so it scores finitely without any floor.
        g = bridge_graph()
        stats = community_stats(g, {0})
        fit = adcbm_local_fit(stats, g.node_count, g.edge_count, UNIFORM)
        assert fit.k == pytest.approx(2.0 * g.edge_count / g.degree(0))
        assert fit.a_in == UNIFORM.alpha
        assert fit.converged and not fit.degenerate
        score = adcbm_log_score(stats, g.node_count, g.edge_count, UNIFORM)
        assert math.isfinite(score)

    def test_fixed_point_residuals(self):
        # theta_d is a root of the slope, and each rate factor is the optimum
        # given it: Gamma(a_r, 1 / (1/theta + P_r theta_d^2 / 2)).
        for pri in PRIOR_CASES:
            g = bridge_graph()
            stats = community_stats(g, {0, 1, 2, 3}, alpha=pri.alpha)
            fit = adcbm_local_fit(stats, g.node_count, g.edge_count, pri)
            assert fit.converged
            assert abs(slope(fit, fit.theta_d, pri.theta)) <= 1e-9 * fit.m_hat
            td2 = fit.theta_d**2
            ti = 1.0 / (
                1.0 / pri.theta + fit.k * (fit.v_hat**2 - fit.k_hat_sq) * td2 / 2.0
            )
            tb = 1.0 / (
                1.0 / pri.theta
                + (fit.m_hat**2 - fit.k * fit.v_hat**2) * td2 / 2.0
            )
            assert fit.s_in == pytest.approx(ti, rel=1e-12)
            assert fit.s_out == pytest.approx(tb, rel=1e-12)

    def test_deterministic(self):
        g = bridge_graph()
        stats = community_stats(g, {0, 1, 2, 3})
        a = adcbm_local_fit(stats, g.node_count, g.edge_count, UNIFORM)
        b = adcbm_local_fit(stats, g.node_count, g.edge_count, UNIFORM)
        assert a == b

    def test_zero_volume_degenerate(self):
        g = Graph.from_edges(3, [(0, 1)])
        stats = community_stats(g, {2})
        fit = adcbm_local_fit(stats, g.node_count, g.edge_count, UNIFORM)
        assert fit.degenerate
        assert adcbm_log_score(stats, g.node_count, g.edge_count, UNIFORM) == float(
            "-inf"
        )

    def test_tiling_inconsistency_degenerate(self):
        # A sparse pendant pair inside a dense graph, scored under a sharply
        # concentrated degree prior: m_hat^2 < k v_hat^2.
        alpha = 52.0
        stats = CommunityStats(
            n=2, w=1, v=2, sumsq_alpha_d=2 * (alpha + 1.0) ** 2
        )
        pri = DcbmPriors(alpha=alpha)
        fit = adcbm_local_fit(stats, 12, 46, pri)
        assert fit.degenerate
        assert fit.m_hat**2 < fit.k * fit.v_hat**2
        assert adcbm_log_score(stats, 12, 46, pri) == float("-inf")

    def test_nonconvergence_flagged(self, monkeypatch):
        g = matched_cliques(8)
        stats = community_stats(g, set(range(8)))
        monkeypatch.setattr(dcbm, "ROOT_MAX_STEPS", 1)
        fit = adcbm_local_fit(stats, g.node_count, g.edge_count, UNIFORM)
        assert not fit.converged
        assert fit.iterations == 1

    def test_inconsistent_totals_rejected(self):
        stats = CommunityStats(n=4, w=6, v=12, sumsq_alpha_d=36.0)
        with pytest.raises(ValueError):
            adcbm_local_fit(stats, 100, 5, UNIFORM)
        with pytest.raises(ValueError):
            adcbm_local_fit(stats, 100, 5.9, UNIFORM)


class TestSlopeRoot:
    @pytest.mark.parametrize("priors", PRIOR_CASES)
    def test_root_is_the_bounded_brent_argmax(self, priors):
        # Brent's bounded search in log theta_d stops within its own
        # tolerance of the argmax, where the bound is flat to rounding; the
        # root lies that close and scores no lower.
        solved = 0
        for stats, N, M in w1_cases(priors):
            fit = adcbm_local_fit(stats, N, M, priors)
            if fit.degenerate:
                continue
            solved += 1
            assert fit.converged

            def neg(log_t, fit=fit):
                return -bound_at(fit, math.exp(log_t), priors.theta, priors.alpha)

            ref = minimize_scalar(neg, bounds=(math.log(priors.theta) - 40.0,
                                               math.log(priors.theta)),
                                  method="bounded", options={"xatol": 1e-12})
            assert fit.theta_d == pytest.approx(math.exp(ref.x), rel=1e-6)
            top = -ref.fun
            assert bound_at(fit, fit.theta_d, priors.theta, priors.alpha) >= (
                top - 1e-12 * abs(top))
            assert local_bound_value(fit, priors) == pytest.approx(
                bound_at(fit, fit.theta_d, priors.theta, priors.alpha), rel=1e-12)
        assert solved >= 30

    @pytest.mark.parametrize("priors", PRIOR_CASES)
    def test_slope_falls_strictly_to_a_non_positive_end(self, priors):
        for stats, N, M in w1_cases(priors):
            fit = adcbm_local_fit(stats, N, M, priors)
            if fit.degenerate:
                continue
            ts = priors.theta * np.geomspace(1e-9, 1.0, 400)
            fs = [slope(fit, float(t), priors.theta) for t in ts]
            assert all(b < a for a, b in zip(fs, fs[1:]))
            assert fs[0] > 0.0 >= fs[-1]
            below, above = fit.theta_d * (1 - 1e-9), fit.theta_d * (1 + 1e-9)
            assert slope(fit, below, priors.theta) > 0.0 > slope(fit, above, priors.theta)

    def test_benchmark_sized_fits_take_few_steps(self):
        steps = [adcbm_local_fit(s, N, M, UNIFORM).iterations
                 for s, N, M in w1_cases(UNIFORM)[:9]]
        assert max(steps) <= 6


def inject_local(g, fit, priors):
    """The global surrogate at the local fit: conjugate degree shapes
    alpha + deg, the shared scale theta_d and the fit's rate factors."""
    return VariationalState(
        priors.alpha + g.degrees.astype(float),
        np.full(g.node_count, fit.theta_d),
        GammaParams(fit.a_in, fit.s_in),
        GammaParams(fit.a_out, fit.s_out),
    )


def degree_constant(g, m_hat, priors):
    """The community-independent part dropped from the local bound.

    With shapes alpha + deg each node's digamma terms cancel: deg psi(a)
    from the edges against (a - alpha) psi(a) from its KL.
    """
    a_d = priors.alpha + g.degrees.astype(float)
    total = sum(log_gamma(float(a)) for a in a_d)
    total -= g.node_count * log_gamma(priors.alpha)
    total -= g.node_count * priors.alpha * math.log(priors.theta)
    return total + m_hat


class TestUniformGraphConsistency:
    CASES = [
        (4, 1.0, 1.0),
        (8, 1.0, 1.0),
        (8, 1.5, 0.8),
        (16, 2.0, 1.3),
    ]

    @pytest.mark.parametrize("m,alpha,theta", CASES)
    def test_local_bound_is_global_bound_at_injected_state(self, m, alpha, theta):
        # Evaluating the full bound at the local fit's parameters must give
        # the local bound value plus exactly the dropped degree constant.
        pri = DcbmPriors(alpha=alpha, theta=theta)
        g = matched_cliques(m)
        N, M = g.node_count, g.edge_count
        stats = community_stats(g, set(range(m)), alpha=alpha)
        fit = adcbm_local_fit(stats, N, M, pri)
        local_total = local_bound_value(fit, pri) + degree_constant(
            g, fit.m_hat, pri
        )
        part = [i // m for i in range(N)]
        vb = vb_bound(g, part, inject_local(g, fit, pri), pri)
        assert vb == pytest.approx(local_total, abs=1e-8)

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_global_sweeps_dominate_injected_state(self, m):
        # Running the full coordinate ascent over the same conjugate family
        # can only improve on the collapsed local fit; on a regular tiling
        # it lands on it, on an irregular one strictly above it.
        for g in (matched_cliques(m), matched_copies(m)):
            N, M = g.node_count, g.edge_count
            part = [i // m for i in range(N)]
            conv = vb_bound(g, part, converge_conjugate(g, part, UNIFORM), UNIFORM)
            stats = community_stats(g, set(range(m)))
            fit = adcbm_local_fit(stats, N, M, UNIFORM)
            inj = vb_bound(g, part, inject_local(g, fit, UNIFORM), UNIFORM)
            assert inj <= conv + 1e-8

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_collapse_gap_is_moderate(self, m):
        # Against the converged conjugate bound, the shared-scale collapse
        # is exact when every degree is equal (the fixed point's scales are
        # equal by symmetry) and lands just below it when degrees differ:
        # gaps of 4.6e-4, 1.9e-4, 5.5e-5 and 7.9e-6 at m = 4, 8, 16, 32.
        for g, exact in ((matched_cliques(m), True), (matched_copies(m), False)):
            N, M = g.node_count, g.edge_count
            part = [i // m for i in range(N)]
            conv = vb_bound(g, part, converge_conjugate(g, part, UNIFORM), UNIFORM)
            stats = community_stats(g, set(range(m)))
            fit = adcbm_local_fit(stats, N, M, UNIFORM)
            local_total = local_bound_value(fit, UNIFORM) + degree_constant(
                g, fit.m_hat, UNIFORM
            )
            gap = (conv - local_total) / abs(conv)
            if exact:
                assert local_total == pytest.approx(conv, rel=1e-12)
            else:
                assert 0.0 < gap < 1e-3


class TestScore:
    def test_symmetric_communities_tie_exactly(self):
        g = bridge_graph()
        a = community_stats(g, {0, 1, 2, 3})
        b = community_stats(g, {4, 5, 6, 7})
        sa = adcbm_log_score(a, g.node_count, g.edge_count, UNIFORM)
        sb = adcbm_log_score(b, g.node_count, g.edge_count, UNIFORM)
        assert sa == sb

    @pytest.mark.parametrize("c,target", [(3.0, -1.0), (1.0, -1.0 / 3.0)])
    def test_large_graph_ratio_limit(self, c, target):
        # With mean degree fixed at 2c, twice the score over N log N tends
        # to 4c(w/v) - 2c = -2c times the conductance (v - 2w)/v;
        # convergence is O(1/log N), so extrapolate linearly in 1/log N.
        stats = CommunityStats(n=20, w=50, v=120, sumsq_alpha_d=0.0)
        xs, ys = [], []
        for N in (1e4, 1e5, 1e6, 1e7, 1e8):
            score = adcbm_log_score(stats, N, c * N, UNIFORM)
            xs.append(1.0 / math.log(N))
            ys.append(2.0 * score / (N * math.log(N)))
        A = np.vstack([np.ones(len(xs)), xs]).T
        coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
        assert coef[0] == pytest.approx(target, abs=0.08)

    @pytest.mark.parametrize("c", [1.0, 3.0, 10.0])
    def test_score_per_edge_tends_to_minus_conductance(self, c):
        # The paper's correspondence: at the bound's maximum, score over
        # M log N tends to minus the conductance (v - 2w)/v = 1/6 here,
        # whatever the density; extrapolated linearly in 1/log N.
        stats = CommunityStats(n=20, w=50, v=120, sumsq_alpha_d=20 * 7.0**2)
        xs, ys = [], []
        for N in (1e4, 1e5, 1e6, 1e7, 1e8):
            M = c * N
            xs.append(1.0 / math.log(N))
            ys.append(adcbm_log_score(stats, N, M, UNIFORM) / (M * math.log(N)))
        A = np.vstack([np.ones(len(xs)), xs]).T
        coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
        assert coef[0] == pytest.approx(-1.0 / 6.0, abs=1e-3)


class TestFormalN:
    def make_graph(self):
        edges = clique_edges(range(20))[:53]
        g = graph_from_edges(edges)
        assert (g.node_count, g.edge_count) == (20, 53)
        return g

    def test_identity_at_actual_size(self):
        g = self.make_graph()
        n, m = formal_n_totals(g, 20)
        assert (n, m) == (20.0, pytest.approx(53.0))

    def test_mean_degree_preserved(self):
        g = self.make_graph()  # mean degree 5.3
        n, m = formal_n_totals(g, 1000)
        assert n == 1000.0
        assert m == pytest.approx(2650.0, rel=1e-12)

    def test_validation(self):
        g = self.make_graph()
        with pytest.raises(ValueError):
            formal_n_totals(g, 0)
