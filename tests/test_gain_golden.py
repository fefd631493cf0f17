"""Byte-identity pins of the gSBM gain, recorded before it kept each distinct
shift's change between applied moves and merges.

The reference is a copy of the gain it replaced (code verbatim, docstrings
cut to one line), which prices every change from scratch. Random walks of
interleaved moves and merges compare every priced change and the tracked
likelihood with ==, re-pricing earlier shifts after each applied change so
that a change kept past an apply would show. Whole Louvain runs, with the
reference gain patched in and without, compare their partitions and
objectives with ==; gDCBM's bootstrap prices its proposals with the gain.
"""

import numpy as np
import pytest

from blockcomm import global_search
from blockcomm.dcbm import DcbmPriors
from blockcomm.generators import PlantedSpec, sample_dcbm, sample_sbm
from blockcomm.global_search import (
    _aggregate,
    _pairs,
    _SbmGain,
    _SuperGraph,
    louvain,
    objective_value,
)
from blockcomm.rng import make_rng
from blockcomm.sbm import SbmPriors, sbm_log_marginal

from conftest import disjoint_cliques, graph_from_edges, random_gnp


# The reference: the gSBM gain as it was before the change.
class RefSbmGain:
    """Exact SBM log-likelihood change of a move or a merge."""

    links_size_only = False  # the sweep prices every candidate

    def __init__(self, sup, m, total_pairs, priors):
        self.m, self.total_pairs = m, total_pairs
        self.ap, self.am = priors.alpha_plus, priors.alpha_minus
        self.ai = sum(sup.internal)
        self.wp = sum(_pairs(s) for s in sup.size)
        self.lik = self._lik(0, 0)

    def _lik(self, d_ai, d_wp):
        ai, wp = self.ai + d_ai, self.wp + d_wp
        ab = self.m - ai
        return sbm_log_marginal(ai, wp - ai, ab, self.total_pairs - wp - ab, self.ap, self.am)

    def _apply(self, d_ai, d_wp):
        self.ai += d_ai
        self.wp += d_wp
        self.lik = self._lik(0, 0)

    def move(self, u, a, b, d_e, s_u, s_a, s_b):
        """Change when super-node u (size s_u) leaves community a for b."""
        return self._lik(d_e, s_u * (s_b + s_u - s_a)) - self.lik

    def apply_move(self, u, a, b, d_e, s_u, s_a, s_b):
        self._apply(d_e, s_u * (s_b + s_u - s_a))

    def merge(self, a, b, e_ab, s_a, s_b):
        """Change when communities a and b, joined by e_ab edges, merge."""
        return self._lik(e_ab, s_a * s_b) - self.lik

    def apply_merge(self, a, b, e_ab, s_a, s_b):
        self._apply(e_ab, s_a * s_b)


PRIOR_CASES = [SbmPriors(), SbmPriors(2.0, 3.0, 2.5)]
PRIOR_IDS = ["uniform", "skew"]


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def random_step(sup, comm, rng):
    """A random move or merge of the partition comm over super-nodes.

    Returns (kind, args, comm after the step), or None when the step would
    leave comm unchanged.
    """
    def size(c):
        return sum(s for s, k in zip(sup.size, comm) if k == c)

    def edges(members, c):
        return int(sup.adj[members][:, comm == c].sum())

    new = comm.copy()
    live = sorted(set(comm.tolist()))
    if rng.random() < 0.6 or len(live) < 2:
        u = int(rng.integers(sup.n))
        a, b = int(comm[u]), int(rng.integers(sup.n + 1))
        if b == a:
            return None
        new[u] = b
        return "move", (u, a, b, edges([u], b) - edges([u], a),
                        sup.size[u], size(a), size(b)), new
    a, b = (int(c) for c in rng.choice(live, 2, replace=False))
    members_a = [u for u in range(sup.n) if comm[u] == a]
    new[new == b] = a
    return "merge", (a, b, edges(members_a, b), size(a), size(b)), new


@pytest.mark.parametrize("priors", PRIOR_CASES, ids=PRIOR_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walk_equals_the_from_scratch_gain(seed, priors):
    rng = make_rng(900 + seed)
    graph = graph_from_edges(random_gnp(rng, 36, 0.15))
    sup, _ = _aggregate(_SuperGraph.from_graph(graph),
                        rng.integers(0, 18, graph.node_count))
    m, total_pairs = graph.edge_count, _pairs(graph.node_count)
    gain, ref = _SbmGain(sup, m, total_pairs, priors), RefSbmGain(sup, m, total_pairs, priors)
    assert gain.lik == ref.lik
    comm = np.arange(sup.n, dtype=np.int64)
    priced, applied = [], 0
    for _ in range(80):
        step = random_step(sup, comm, rng)
        if step is None:
            continue
        kind, args, new = step
        priced.append((kind, args))
        # The new shift twice (a miss, then a hit) and the last few earlier
        # ones, which were kept, if at all, at totals an apply has moved.
        for kind_, args_ in [(kind, args)] + priced[-6:]:
            want = outcome(getattr(ref, kind_), *args_)
            assert outcome(getattr(gain, kind_), *args_) == want
        if rng.random() < 0.5:
            getattr(gain, f"apply_{kind}")(*args)
            getattr(ref, f"apply_{kind}")(*args)
            comm, applied = new, applied + 1
            assert (gain.ai, gain.wp, gain.lik) == (ref.ai, ref.wp, ref.lik)
    assert applied >= 20


def louvain_graphs():
    """A planted SBM, a small planted DCBM shaped like the benchmark's W1
    (dense communities, sparse between them, Gamma(3, 1) propensities), and
    two 4-cliques."""
    sbm = PlantedSpec(communities=5, size=20, lambda_in=0.4, lambda_out=0.01)
    dcbm = PlantedSpec(communities=8, size=20, lambda_in=0.05, lambda_out=0.0005,
                       model="dcbm", dcbm_alpha=3.0, dcbm_theta=1.0)
    return [("planted-sbm", sample_sbm(sbm, make_rng(100))[0]),
            ("w1-shaped-dcbm", sample_dcbm(dcbm, make_rng(3))[0]),
            ("two-4-cliques", disjoint_cliques(2, 4))]


LOUVAIN_GRAPHS = louvain_graphs()


@pytest.mark.parametrize("objective, priors", [("gsbm", SbmPriors()), ("gdcbm", DcbmPriors())],
                         ids=["gsbm", "gdcbm"])
@pytest.mark.parametrize("name, graph", LOUVAIN_GRAPHS, ids=[n for n, _ in LOUVAIN_GRAPHS])
def test_louvain_equals_the_from_scratch_gain(name, graph, objective, priors, monkeypatch):
    runs = []
    for gain_class in (RefSbmGain, _SbmGain):
        monkeypatch.setattr(global_search, "_SbmGain", gain_class)
        runs.append([louvain(graph, objective, priors, make_rng(seed)) for seed in range(3)])
    for ref, got in zip(*runs):
        assert np.array_equal(got.assignment, ref.assignment)
        assert (objective_value(graph, got, objective, priors)
                == objective_value(graph, ref, objective, priors))
