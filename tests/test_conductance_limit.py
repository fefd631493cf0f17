"""The paper's conductance limit, tested on the search rather than the score.

In the limit of a large graph the aDCBM score of a community tends to minus
its conductance per edge (test_dcbm pins score/(M log N) -> -conductance).
These tests ask what that means for detection: as formal_N grows, detect
with the aDCBM score should find the same communities as a greedy search
that maximises -conductance, and its ranking of candidates should approach
conductance's. The fixtures, seeds and formal_N ladder were fixed before
the outcomes were measured.

Measured on these fixtures (agreeing operations out of 12, at actual N,
1e6, 1e9, 1e12): DCBM 1, 3, 3, 3 and SBM 1, 6, 6, 6. Every operation
that still disagrees at 1e12 returns a smaller set than the conductance
search, which keeps absorbing nodes, and whole neighbouring communities,
while they lower the conductance.
"""

import pytest
from scipy.stats import kendalltau

from blockcomm.evaluation import stats_conductance
from blockcomm.generators import PlantedSpec, sample_dcbm, sample_sbm
from blockcomm.graph import community_stats
from blockcomm.local_search import SearchConfig, detect, greedy_expand, make_scorer
from blockcomm.rng import derived_rng, make_rng

FIXTURES = {
    "dcbm": (sample_dcbm, PlantedSpec(communities=10, size=25, lambda_in=0.05,
                                      lambda_out=0.002, model="dcbm",
                                      dcbm_alpha=3.0, dcbm_theta=1.0)),
    "sbm": (sample_sbm, PlantedSpec(communities=20, size=20, lambda_in=0.4,
                                    lambda_out=0.01)),
}
LADDER = [None, 10**6, 10**9, 10**12]
RESTARTS = 10
OPERATIONS = 12
CANDIDATES = 200


def planted(name):
    sampler, spec = FIXTURES[name]
    return sampler(spec, make_rng(1))


def conductance_detect(graph, seed, rng_seed):
    """Best of RESTARTS greedy expansions under -conductance, on detect's streams."""
    best = None
    for r in range(RESTARTS):
        result = greedy_expand(graph, seed, lambda st: -stats_conductance(st),
                               derived_rng(rng_seed, r))
        if best is None or result.log_score > best.log_score:
            best = result
    return best.members


def sampled_candidates(graph, truth, rng):
    """Stats of part of a planted community plus up to five random nodes."""
    out = []
    for _ in range(CANDIDATES):
        community = sorted(truth[int(rng.integers(len(truth)))])
        size = int(rng.integers(1, len(community) + 1))
        members = {int(x) for x in rng.choice(community, size=size, replace=False)}
        members |= {int(x) for x in rng.integers(graph.node_count,
                                                  size=int(rng.integers(6)))}
        out.append(community_stats(graph, members))
    return out


@pytest.mark.parametrize("name", FIXTURES)
def test_agreement_with_the_conductance_search_does_not_fall(name):
    graph, _ = planted(name)
    seeds = [int(s) for s in make_rng(2).integers(graph.node_count, size=OPERATIONS)]
    reference = [conductance_detect(graph, s, 0) for s in seeds]
    agreement = []
    for formal_n in LADDER:
        cfg = SearchConfig(method="adcbm", restarts=RESTARTS, rng_seed=0,
                           formal_N=formal_n)
        agreement.append(sum(detect(graph, s, cfg).members == ref
                             for s, ref in zip(seeds, reference)))
    assert agreement == sorted(agreement), agreement
    assert agreement[-1] > agreement[0], agreement


@pytest.mark.parametrize("name", FIXTURES)
def test_score_ranks_candidates_closer_to_conductance_as_n_grows(name):
    graph, truth = planted(name)
    candidates = sampled_candidates(graph, truth, make_rng(3))
    minus_conductance = [-stats_conductance(st) for st in candidates]
    taus = []
    for formal_n in LADDER:
        score, _ = make_scorer(graph, SearchConfig(method="adcbm", formal_N=formal_n))
        scores = [score(st) for st in candidates]
        taus.append(kendalltau(scores, minus_conductance).statistic)
    assert all(a < b for a, b in zip(taus, taus[1:])), taus
    assert taus[-1] > 0.98, taus
