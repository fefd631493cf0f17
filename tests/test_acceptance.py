"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under pytest -v) per criterion.

Criterion 5 fails by design: the two claimed large-N score ratios are not
what the formulas produce (the actual limits, verified in test_sbm.py and
test_dcbm.py, differ by graph-density terms). The failure message reports
the measured values; everything else must pass.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from blockcomm import cli
from blockcomm.dcbm import (
    DcbmPriors,
    VbPartition,
    adcbm_local_fit,
    adcbm_log_score,
    initial_variational_state,
    vb_bound,
    vb_update,
)
from blockcomm.distributions import GammaParams, gamma_kl
from blockcomm.evaluation import conductance, f1_excluding_seed, precision_recall_excluding_seed
from blockcomm.generators import PlantedSpec, sample_dcbm, sample_sbm
from blockcomm.global_search import louvain
from blockcomm.graph import CommunityStats, Graph, community_stats, write_edge_list
from blockcomm.local_search import SearchConfig, detect, make_scorer
from blockcomm.rng import make_rng
from blockcomm.sbm import (
    SbmPriors,
    asbm_log_score,
    exact_edge_counts,
    log_partition_prior,
    sbm_log_marginal,
)

from conftest import (
    assignment_of,
    bridge_graph,
    disjoint_cliques,
    partition_f1,
    quadrature_likelihood,
    random_gnp,
    set_partitions,
)


def test_criterion_01_exact_likelihood_matches_quadrature():
    # 50 random graphs with N <= 6, every partition of each: the closed-form
    # marginal equals 2-D Gauss-Legendre quadrature of the Beta expectation
    # to relative error 1e-6, in under 30 seconds.
    rng = make_rng(1)
    priors = SbmPriors()
    start = time.perf_counter()
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(0.2, 0.8))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = Graph.from_edges(n, edges)
        for blocks in set_partitions(list(range(n))):
            a = assignment_of([set(b) for b in blocks], n)
            counts = exact_edge_counts(g, a)
            exact = math.exp(sbm_log_marginal(*counts, priors.alpha_plus, priors.alpha_minus))
            quad = quadrature_likelihood(counts, priors)
            assert abs(exact - quad) / quad <= 1e-6
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 50
    assert elapsed < 30.0


def test_criterion_02_uniform_tiling_score_is_exact():
    # k disjoint m-cliques: the locally approximated score from one clique's
    # stats equals exact likelihood plus partition prior.
    priors = SbmPriors()
    for k in (2, 3, 4):
        for m in (3, 4, 5):
            g = disjoint_cliques(k, m)
            stats = community_stats(g, set(range(m)))
            approx = asbm_log_score(stats, g.node_count, g.edge_count, priors)
            assignment = [i // m for i in range(k * m)]
            exact = (sbm_log_marginal(*exact_edge_counts(g, assignment),
                                      priors.alpha_plus, priors.alpha_minus)
                     + log_partition_prior([m] * k, priors.gamma_exp))
            assert approx == pytest.approx(exact, abs=1e-9)


def test_criterion_03_variational_sweeps_ascend():
    # 20 random graphs (N <= 50), random partitions (edgeless buckets
    # included): the bound never drops by more than 1e-8 per sweep over 50
    # sweeps, and every KL term in the final state is non-negative.
    priors = DcbmPriors()
    rng = make_rng(606)
    prior = GammaParams(priors.alpha, priors.theta)
    for _ in range(20):
        n = int(rng.integers(8, 51))
        g = Graph.from_edges(n, random_gnp(rng, n, 0.3))
        fit = VbPartition(g, rng.integers(0, 3, size=n), priors)
        state = initial_variational_state(g, priors)
        bound = vb_bound(fit, state)
        for _ in range(50):
            state = vb_update(fit, state)
            new_bound = vb_bound(fit, state)
            assert new_bound - bound >= -1e-8
            bound = new_bound
        for i in range(n):
            q = GammaParams(float(fit.alpha_d[i]), float(state.theta_d[i]))
            assert gamma_kl(q, prior) >= -1e-12
        assert gamma_kl(GammaParams(state.a_in, state.s_in), prior) >= -1e-12
        assert gamma_kl(GammaParams(state.a_out, state.s_out), prior) >= -1e-12


def test_criterion_04_theta_d_fixed_point_residual():
    # 1000 random local-fit stat points: the degree scale the local fit
    # solves for lies in (0, theta] and zeroes the bound's slope in
    # log theta_d, F(t) = m_hat (1 - t/theta)
    # - sum_r a_r P_r t^2 / (1/theta + P_r t^2 / 2), to 1e-9 m_hat.
    rng = make_rng(7)
    solved = 0
    for _ in range(1000):
        priors = DcbmPriors(alpha=10.0 ** rng.uniform(-1, 1),
                            theta=10.0 ** rng.uniform(-2, 1))
        n = int(rng.integers(1, 60))
        degs = rng.integers(1, 100, size=n)
        v = int(degs.sum())
        w = int(rng.integers(0, min(n * (n - 1) // 2, v // 2) + 1))
        M = float(rng.integers(max(w, (v + 1) // 2), 50 * v))
        N = float(rng.integers(n + 1, 20 * n + 2000))
        sumsq = float(((priors.alpha + degs) ** 2).sum())
        fit = adcbm_local_fit(CommunityStats(n, w, v, sumsq), N, M, priors)
        if fit.degenerate:
            continue
        solved += 1
        t, theta = fit.theta_d, priors.theta
        p_in = fit.k * (fit.v_hat ** 2 - fit.k_hat_sq)
        p_out = fit.m_hat ** 2 - fit.k * fit.v_hat ** 2
        slope = fit.m_hat * (1.0 - t / theta)
        for a, p in ((fit.a_in, p_in), (fit.a_out, p_out)):
            slope -= a * p * t * t / (1.0 / theta + p * t * t / 2.0)
        assert fit.converged
        assert 0.0 < t <= theta
        assert abs(slope) <= 1e-9 * fit.m_hat
    assert solved >= 900


def test_criterion_05_large_n_ratio_targets():
    # Requested: at N = 1e6 with stats (n=20, w=50, v=120) and mean degree 6,
    #   asbm_log_score / (N log N)      within 5% of w/n = 2.5
    #   2*adcbm_log_score / (N log N)   within 5% of 2w/v - 1 = -1/6.
    # Neither holds for these formulas. The plain score ratio tends to
    # w/n - M/N (here 2.5 - 3 = -0.5): every within-community pair bucket is
    # Beta-saturated at rate w/n per node, but the between bucket still pays
    # log-density M/N per node. The degree-corrected ratio tends to
    # 4cw/v - 2c = -2c * conductance with c = M/N (here -1): it is
    # score/(M log N) that tends to -conductance, so normalising by N/2
    # gives -1/6 only at c = 1/2. The module suites pin those
    # actual limits by extrapolation; this test reports the measured ratios
    # against the requested targets and fails.
    n_big = 10 ** 6
    m_big = 3 * n_big
    denom = n_big * math.log(n_big)
    start = time.perf_counter()

    stats = CommunityStats(n=20, w=50, v=120, sumsq_alpha_d=20 * 8.0 ** 2)
    sbm_ratio = asbm_log_score(stats, n_big, m_big, SbmPriors()) / denom
    dcbm_ratio = 2.0 * adcbm_log_score(stats, n_big, m_big, DcbmPriors()) / denom
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert math.isfinite(sbm_ratio) and sbm_ratio < 0.0
    assert math.isfinite(dcbm_ratio) and dcbm_ratio < 0.0

    cond = 1.0 / 6.0  # (v - 2w)/v for (w=50, v=120)
    sbm_ok = abs(sbm_ratio - 2.5) <= 0.05 * 2.5
    dcbm_ok = abs(dcbm_ratio - (-cond)) <= 0.05 * cond
    if not (sbm_ok and dcbm_ok):
        pytest.fail(
            f"requested ratio targets not attained: "
            f"score/(N log N) = {sbm_ratio:.4f} at N=1e6 vs requested 2.5 "
            f"(extrapolated limit w/n - M/N = -0.5, see test_sbm.py); "
            f"2*score/(N log N) = {dcbm_ratio:.4f} at N=1e6 vs requested "
            f"-1/6 (extrapolated limit 4cw/v - 2c = -1, see "
            f"test_dcbm.py); see the README testing note")


def _argmax_family(graph, seed, scorer, alpha, tol=1e-12):
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


def test_criterion_06_greedy_matches_brute_force():
    # Bridge fixture plus isolated-clique fixtures (3 <= m <= 6): detect
    # returns a brute-force argmax community at the argmax score. Size-2
    # "cliques" are excluded: there the unrestricted argmax is a set that is
    # disconnected from the seed, which seed expansion can never return by
    # the locality contract (test_local_search.py pins that case).
    fixtures = [bridge_graph()] + [disjoint_cliques(2, m) for m in (3, 4, 5, 6)]
    cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
    for g in fixtures:
        scorer, alpha = make_scorer(g, cfg)
        best, family = _argmax_family(g, 0, scorer, alpha)
        res = detect(g, 0, cfg)
        assert res.members in family
        assert res.log_score == pytest.approx(best, abs=1e-9)


@pytest.fixture(scope="module")
def planted_dcbm():
    spec = PlantedSpec(communities=10, size=20, lambda_in=0.15,
                       lambda_out=0.005, model="dcbm",
                       dcbm_alpha=3.0, dcbm_theta=1.0)
    return sample_dcbm(spec, make_rng(2))


def test_criterion_07_planted_recovery(planted_dcbm):
    # 10 communities x 20 nodes, alpha=3, theta=1, rate ratio 30:
    # mean seed-excluded F1 >= 0.8 over 50 random seeds, and gSBM Louvain
    # reaches partition F1 >= 0.95 on the density-matched plain-model twin.
    start = time.perf_counter()
    g, truth = planted_dcbm
    cfg = SearchConfig(method="adcbm", restarts=10, rng_seed=0)
    rng = make_rng(1002)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            seed = int(rng.integers(0, 200))
            res = detect(g, seed, cfg)
            planted = next(t for t in truth if seed in t)
            found = res.members - {seed}
            want = planted - {seed}
            total += (2 * len(found & want) / (len(found) + len(want))
                      if (found or want) else 1.0)
    assert total / 50 >= 0.8

    sbm_spec = PlantedSpec(communities=10, size=20,
                           lambda_in=0.59, lambda_out=0.041)
    gs, sbm_truth = sample_sbm(sbm_spec, make_rng(7))
    partition = louvain(gs, "gsbm", SbmPriors(), make_rng(3))
    assert partition_f1(sbm_truth, partition.communities()) >= 0.95
    assert time.perf_counter() - start < 60.0


def test_criterion_08_resolution_sweep_size_trend(planted_dcbm, tmp_path,
                                                  monkeypatch, capsys):
    # Mean recovered size under the nsweep command is non-decreasing across
    # formal N in {100, 1000, 10000} on the criterion-7 graph.
    monkeypatch.chdir(tmp_path)
    g, truth = planted_dcbm
    with open("g.edges", "w") as fh:
        write_edge_list(g, fh)
    with open("g.cmty", "w") as fh:
        for t in truth:
            fh.write(" ".join(str(i) for i in sorted(t)) + "\n")
    rc = cli.main(["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
                   "--n-values", "100,1000,10000", "--samples", "30",
                   "--rng-seed", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    sizes = [float(ln.split("\t")[2]) for ln in lines[1:]]
    assert len(sizes) == 3
    assert sizes[0] <= sizes[1] + 1e-9
    assert sizes[1] <= sizes[2] + 1e-9


def _masked_eval_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n").split("\t")[:-1] for line in fh]


def test_criterion_09_cli_byte_reproducibility(tmp_path, monkeypatch, capsys):
    # Every command, run twice with the same --rng-seed, produces identical
    # bytes on stdout and in its output files. Timing cannot be reproduced
    # bit-for-bit, so the eval comparison drops the elapsed_s row column and
    # the mean_elapsed summary column, and manifests (wall time) are not
    # compared.
    monkeypatch.chdir(tmp_path)

    def run(args):
        assert cli.main(args) == 0
        return capsys.readouterr().out

    gen = ["generate", "--model", "dcbm", "--communities", "4", "--size", "6",
           "--lambda-in", "0.4", "--lambda-out", "0.02", "--alpha", "3",
           "--theta", "1", "--rng-seed", "9"]
    out_a = run(gen + ["--out", "a"])
    out_b = run(gen + ["--out", "b"])
    assert out_a.replace(" a.", " x.") == out_b.replace(" b.", " x.")
    assert open("a.edges").read() == open("b.edges").read()
    assert open("a.cmty").read() == open("b.cmty").read()

    detect_args = ["detect", "--graph", "a.edges", "--seed", "0",
                   "--method", "adcbm", "--rng-seed", "5"]
    assert run(detect_args) == run(detect_args)

    glob = ["global", "--graph", "a.edges", "--method", "gsbm",
            "--rng-seed", "4"]
    out_a = run(glob + ["--out", "pa.txt"])
    out_b = run(glob + ["--out", "pb.txt"])
    assert out_a == out_b
    assert open("pa.txt").read() == open("pb.txt").read()

    ev = ["eval", "--graph", "a.edges", "--communities", "a.cmty",
          "--method", "adcbm", "--samples", "5", "--rng-seed", "2"]
    sum_a = run(ev + ["--out", "ra.tsv"])
    sum_b = run(ev + ["--out", "rb.tsv"])
    assert sum_a.split("\t")[:-1] == sum_b.split("\t")[:-1]
    assert _masked_eval_rows("ra.tsv") == _masked_eval_rows("rb.tsv")

    sweep = ["nsweep", "--graph", "a.edges", "--communities", "a.cmty",
             "--n-values", "24,1000", "--samples", "4", "--rng-seed", "3"]
    assert run(sweep) == run(sweep)


def test_criterion_10_metric_identities():
    # 1000 random (graph, node set) pairs: the F1 harmonic-mean identity and
    # conductance + 2w/v = 1, both in exact arithmetic.
    rng = make_rng(1010)
    pool = list(range(1, 24))
    for _ in range(1000):
        n = int(rng.integers(4, 16))
        g = Graph.from_edges(n, random_gnp(rng, n, float(rng.uniform(0.2, 0.6))))
        size = int(rng.integers(1, n))
        members = set(int(x) for x in rng.choice(n, size=size, replace=False))
        w = sum(1 for i in members for j in g.neighbors(i) if int(j) in members) // 2
        v = sum(g.degree(i) for i in members)
        if v > 0:
            assert Fraction(v - 2 * w, v) + Fraction(2 * w, v) == 1
            assert conductance(g, members) == (v - 2 * w) / v

        found = {0} | {int(x) for x in rng.choice(pool, size=int(rng.integers(1, 12)),
                                                  replace=False)}
        truth = {0} | {int(x) for x in rng.choice(pool, size=int(rng.integers(1, 12)),
                                                  replace=False)}
        p, r = precision_recall_excluding_seed(found, truth, 0)
        f1 = f1_excluding_seed(found, truth, 0)
        if p > 0 and r > 0:
            fp = Fraction(len((found - {0}) & (truth - {0})), len(found) - 1)
            fr = Fraction(len((found - {0}) & (truth - {0})), len(truth) - 1)
            assert f1 == float(2 / (1 / fp + 1 / fr))
        else:
            assert f1 == 0.0
