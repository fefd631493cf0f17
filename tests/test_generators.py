"""Planted-partition samplers: degenerate cases, concentration, determinism."""

import math
import warnings

import pytest

from blockcomm.generators import PlantedSpec, sample_dcbm, sample_sbm
from blockcomm.local_search import SearchConfig, detect
from blockcomm.rng import make_rng

from conftest import clique_edges


def edge_set(graph):
    return {(i, int(j)) for i in range(graph.node_count)
            for j in graph.neighbors(i) if i < j}


def within_density(graph, truth):
    pairs = sum(len(t) * (len(t) - 1) // 2 for t in truth)
    w = 0
    for t in truth:
        for i in t:
            w += sum(1 for j in graph.neighbors(i) if int(j) in t)
    return (w // 2) / pairs


class TestSpecValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            PlantedSpec(communities=0, size=5, lambda_in=0.5, lambda_out=0.1)
        with pytest.raises(ValueError, match=">= 1"):
            PlantedSpec(communities=2, size=0, lambda_in=0.5, lambda_out=0.1)

    def test_sbm_probability_domain(self):
        with pytest.raises(ValueError, match="outside"):
            PlantedSpec(communities=2, size=5, lambda_in=1.2, lambda_out=0.1)
        with pytest.raises(ValueError, match="outside"):
            PlantedSpec(communities=2, size=5, lambda_in=0.5, lambda_out=-0.1)

    def test_dcbm_domains(self):
        with pytest.raises(ValueError, match="non-negative"):
            PlantedSpec(communities=2, size=5, lambda_in=-1.0, lambda_out=0.1,
                        model="dcbm")
        with pytest.raises(ValueError, match="positive"):
            PlantedSpec(communities=2, size=5, lambda_in=1.0, lambda_out=0.1,
                        model="dcbm", dcbm_alpha=0.0)

    @pytest.mark.parametrize("name", ["lambda_in", "lambda_out", "dcbm_alpha", "dcbm_theta"])
    @pytest.mark.parametrize("model", ["sbm", "dcbm"])
    def test_non_finite_parameter_named(self, model, name):
        params = dict(lambda_in=0.5, lambda_out=0.1, dcbm_alpha=1.0, dcbm_theta=1.0)
        params[name] = float("nan")
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
            PlantedSpec(communities=2, size=5, model=model, **params)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            PlantedSpec(communities=2, size=5, lambda_in=0.5, lambda_out=0.1,
                        model="erdos")

    def test_model_mismatch_rejected(self):
        sbm = PlantedSpec(communities=2, size=4, lambda_in=1.0, lambda_out=0.0)
        dcbm = PlantedSpec(communities=2, size=4, lambda_in=1.0, lambda_out=0.0,
                           model="dcbm")
        with pytest.raises(ValueError, match="SBM"):
            sample_sbm(dcbm, make_rng(0))
        with pytest.raises(ValueError, match="DCBM"):
            sample_dcbm(sbm, make_rng(0))


class TestSampleSbm:
    def test_degenerate_probabilities_give_cliques(self):
        spec = PlantedSpec(communities=3, size=4, lambda_in=1.0, lambda_out=0.0)
        g, truth = sample_sbm(spec, make_rng(0))
        assert truth == [set(range(4)), set(range(4, 8)), set(range(8, 12))]
        want = set()
        for c in range(3):
            want |= {(i, j) for i, j in clique_edges(range(4 * c, 4 * c + 4))}
        assert edge_set(g) == want

    def test_all_zero_gives_empty_graph(self):
        spec = PlantedSpec(communities=2, size=5, lambda_in=0.0, lambda_out=0.0)
        g, _ = sample_sbm(spec, make_rng(0))
        assert g.node_count == 10
        assert g.edge_count == 0

    def test_within_density_concentrates(self):
        # 950 within pairs at p=0.3: one draw inside the 3-sigma binomial band.
        spec = PlantedSpec(communities=5, size=20, lambda_in=0.3, lambda_out=0.01)
        g, truth = sample_sbm(spec, make_rng(17))
        sigma = math.sqrt(0.3 * 0.7 / 950)
        assert abs(within_density(g, truth) - 0.3) < 3 * sigma

    def test_mean_density_over_100_draws(self):
        spec = PlantedSpec(communities=5, size=20, lambda_in=0.3, lambda_out=0.01)
        rng = make_rng(99)
        mean = sum(within_density(*sample_sbm(spec, rng)) for _ in range(100)) / 100
        sigma_mean = math.sqrt(0.3 * 0.7 / 950 / 100)
        assert abs(mean - 0.3) < 3 * sigma_mean

    def test_deterministic(self):
        spec = PlantedSpec(communities=3, size=10, lambda_in=0.4, lambda_out=0.05)
        a, _ = sample_sbm(spec, make_rng(123))
        b, _ = sample_sbm(spec, make_rng(123))
        assert edge_set(a) == edge_set(b)


class TestSampleDcbm:
    def test_all_zero_gives_empty_graph(self):
        spec = PlantedSpec(communities=2, size=5, lambda_in=0.0, lambda_out=0.0,
                           model="dcbm")
        g, _ = sample_dcbm(spec, make_rng(0))
        assert g.node_count == 10
        assert g.edge_count == 0

    def test_rate_overflow_rejected(self):
        spec = PlantedSpec(communities=2, size=5, lambda_in=1.0, lambda_out=0.1,
                           model="dcbm", dcbm_alpha=3.0, dcbm_theta=1e4)
        with pytest.raises(ValueError, match="smaller"):
            sample_dcbm(spec, make_rng(0))

    def test_concentrated_degrees_match_sbm_statistics(self):
        # With alpha=400, theta=1/400 the propensities pin at 1, so the
        # binarized pair law approaches Bernoulli(1 - exp(-lambda_in)).
        target = 1.0 - math.exp(-0.35)
        spec = PlantedSpec(communities=4, size=25, lambda_in=0.35, lambda_out=0.02,
                           model="dcbm", dcbm_alpha=400.0, dcbm_theta=1 / 400.0)
        rng = make_rng(7)
        mean = sum(within_density(*sample_dcbm(spec, rng)) for _ in range(30)) / 30
        sigma_mean = math.sqrt(target * (1 - target) / 1200 / 30)
        assert abs(mean - target) < 3 * sigma_mean

    def test_deterministic(self):
        spec = PlantedSpec(communities=3, size=10, lambda_in=0.3, lambda_out=0.01,
                           model="dcbm", dcbm_alpha=3.0, dcbm_theta=1.0)
        a, _ = sample_dcbm(spec, make_rng(123))
        b, _ = sample_dcbm(spec, make_rng(123))
        assert edge_set(a) == edge_set(b)

    def test_detect_recovers_planted_communities(self):
        spec = PlantedSpec(communities=10, size=20, lambda_in=0.15,
                           lambda_out=0.005, model="dcbm",
                           dcbm_alpha=3.0, dcbm_theta=1.0)
        g, truth = sample_dcbm(spec, make_rng(2))
        cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
        rng = make_rng(1002)
        total = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rare isolated seeds score 0
            for _ in range(10):
                seed = int(rng.integers(0, 200))
                res = detect(g, seed, cfg)
                planted = next(t for t in truth if seed in t)
                found = res.members - {seed}
                want = planted - {seed}
                inter = len(found & want)
                total += (2 * inter / (len(found) + len(want))
                          if (found or want) else 1.0)
        assert total / 10 >= 0.8
