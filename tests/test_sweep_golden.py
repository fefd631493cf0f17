"""Byte-identity pins of the Louvain moving sweep and merge scan, recorded
before the gSBM sweep priced each distinct (links, size) candidate once per
node visit and collections.Counter counted the unweighted level's links.

The references are copies of the sweep, its neighbour-count helper and the
merge scan they replaced (code verbatim, docstrings cut to one line), which
price every candidate through _PriorTracker's methods. Whole gSBM and gDCBM
Louvain runs, with the references patched in and without, compare their
partitions and objectives with ==. Tie fixtures pin the choice among equal
changes, and a recording gain counts the shifts each visit prices.
"""

import numpy as np
import pytest
from scipy import sparse

from blockcomm import global_search
from blockcomm.dcbm import DcbmPriors
from blockcomm.global_search import (
    _ACCEPT_EPS,
    _PriorTracker,
    _SbmGain,
    _SuperGraph,
    _sweep,
    louvain,
    objective_value,
)
from blockcomm.graph import Graph
from blockcomm.rng import make_rng
from blockcomm.sbm import SbmPriors

from test_gain_golden import LOUVAIN_GRAPHS
from test_global_search import _NanGain


# The references: the sweep, its helper and the scan as they were before the change.
def _neighbor_comm_weights(sup, comm, u):
    lo, hi = sup.adj.indptr[u], sup.adj.indptr[u + 1]
    wsum = {}
    for c, wt in zip(comm[sup.adj.indices[lo:hi]].tolist(), sup.adj.data[lo:hi].tolist()):
        wsum[c] = wsum.get(c, 0) + wt
    return wsum


def ref_sweep(sup, comm, csize, prior, gain, rng, on_move=None):
    """One pass of greedy single-node moves in random order."""
    moved = 0
    for u in rng.permutation(sup.n):
        u = int(u)
        a = int(comm[u])
        s_u, s_a = sup.size[u], csize[a]
        wsum = _neighbor_comm_weights(sup, comm, u)
        e_ua = wsum.get(a, 0)
        candidates = sorted(c for c in wsum if c != a)
        if s_a > s_u:
            candidates.append(-1)  # fresh singleton community
        best = None
        for b in candidates:
            d_e, s_b = wsum.get(b, 0) - e_ua, csize.get(b, 0)
            d_prior = prior.move_delta(s_a, s_b, s_u)
            delta = gain.move(u, a, b, d_e, s_u, s_a, s_b) + d_prior
            if best is None or delta > best[0]:
                best = (delta, b, d_e, s_b, d_prior)
        if best is None or not best[0] > _ACCEPT_EPS:
            continue
        _, b, d_e, s_b, d_prior = best
        if b == -1:
            b = len(csize)
            csize[b] = 0
        gain.apply_move(u, a, b, d_e, s_u, s_a, s_b)
        prior.total += d_prior
        comm[u] = b
        csize[a] -= s_u
        csize[b] += s_u
        moved += 1
        if on_move is not None:
            on_move()
    return moved


def ref_scan_merges(sup, gain, prior):
    """Greedy agglomerative pass over connected communities."""
    n = sup.n
    own = np.arange(n)  # every super-node its own community
    weights = [_neighbor_comm_weights(sup, own, u) for u in range(n)]
    size = list(sup.size)
    ops = []
    cum = 0.0
    best_cum, best_len = 0.0, 0
    while True:
        best = None
        for a in range(n):  # an absorbed community's weights are empty
            for b, e_ab in weights[a].items():
                if b <= a:
                    continue
                d = (gain.merge(a, b, e_ab, size[a], size[b])
                     + prior.term(size[a] + size[b])
                     - prior.term(size[a]) - prior.term(size[b]))
                if best is None or d > best[0]:
                    best = (d, a, b)
        if best is None:
            break
        d, a, b = best
        gain.apply_merge(a, b, weights[a][b], size[a], size[b])
        cum += d
        ops.append((a, b))
        del weights[a][b]
        del weights[b][a]
        for nbr, wt in weights[b].items():
            weights[a][nbr] = weights[a].get(nbr, 0) + wt
            weights[nbr][a] = weights[a][nbr]
            del weights[nbr][b]
        weights[b] = {}
        size[a] += size[b]
        if cum > best_cum:
            best_cum, best_len = cum, len(ops)
    return ops[:best_len] if best_cum > _ACCEPT_EPS else None


def ref_sweep_any(sup, comm, csize, prior, gain, rng, on_move=None, _by_links_size=False):
    """ref_sweep under the current signature: it prices every candidate anyway."""
    return ref_sweep(sup, comm, csize, prior, gain, rng, on_move)


OBJECTIVES = [("gsbm", SbmPriors()), ("gdcbm", DcbmPriors())]


def test_the_w1_shaped_fixture_has_an_isolated_node():
    # Its empty neighbour row is the case a per-row reduction gets wrong.
    graph = dict(LOUVAIN_GRAPHS)["w1-shaped-dcbm"]
    assert (graph.degrees == 0).any()


@pytest.mark.parametrize("objective, priors", OBJECTIVES, ids=[o for o, _ in OBJECTIVES])
@pytest.mark.parametrize("name, graph", LOUVAIN_GRAPHS, ids=[n for n, _ in LOUVAIN_GRAPHS])
def test_louvain_equals_the_reference_sweep_and_scan(name, graph, objective, priors,
                                                     monkeypatch):
    got = [louvain(graph, objective, priors, make_rng(seed)) for seed in range(3)]
    monkeypatch.setattr(global_search, "_sweep", ref_sweep_any)
    monkeypatch.setattr(global_search, "_scan_merges", ref_scan_merges)
    ref = [louvain(graph, objective, priors, make_rng(seed)) for seed in range(3)]
    for g, r in zip(got, ref):
        assert np.array_equal(g.assignment, r.assignment)
        assert (objective_value(graph, g, objective, priors)
                == objective_value(graph, r, objective, priors))


@pytest.mark.parametrize("name, graph", LOUVAIN_GRAPHS, ids=[n for n, _ in LOUVAIN_GRAPHS])
def test_gsbm_moves_and_tracked_objective_equal_the_reference(name, graph, monkeypatch):
    # The audit sees the tracked objective after every move, so a prior
    # change that lost its last bits would show even where no decision moves.
    m, pairs = graph.edge_count, global_search._pairs(graph.node_count)
    runs = []
    for sweep in (_sweep, ref_sweep_any):
        monkeypatch.setattr(global_search, "_sweep", sweep)
        for seed in range(3):
            audit = []
            comm, _, start = global_search._move_phase_gsbm(
                _SuperGraph.from_graph(graph), m, pairs, SbmPriors(), make_rng(seed),
                audit=lambda c, value: audit.append((c.tolist(), value)))
            runs.append((comm.tolist(), start, audit))
    assert runs[:3] == runs[3:]


@pytest.mark.parametrize("seed", range(4))
def test_scan_equals_the_reference(seed):
    # From the partition a gSBM moving phase stalls at, as the bootstrap scans.
    graph = dict(LOUVAIN_GRAPHS)["w1-shaped-dcbm"]
    sup = _SuperGraph.from_graph(graph)
    comm, _, _ = global_search._move_phase_gsbm(sup, graph.edge_count,
                                                global_search._pairs(graph.node_count),
                                                SbmPriors(), make_rng(seed))
    sup, _ = global_search._aggregate(sup, comm)
    m, pairs = graph.edge_count, global_search._pairs(graph.node_count)
    got = global_search._scan_merges(sup, _SbmGain(sup, m, pairs, SbmPriors()),
                                     _PriorTracker(2.0, sup.size))
    ref = ref_scan_merges(sup, _SbmGain(sup, m, pairs, SbmPriors()),
                          _PriorTracker(2.0, sup.size))
    assert got == ref


class _UnitMergeGain:
    """Prices every merge at 1.0."""

    def merge(self, a, b, e_ab, s_a, s_b):
        return 1.0

    def apply_merge(self, *args):
        pass


def test_scan_adds_the_prior_terms_in_the_reference_order():
    # Two linked super-nodes of sizes 1 and 2 under a prior table whose
    # terms are far apart in magnitude: ((1 + 2**53) - 2**53) - 0.75 is
    # -0.75, while 1 + ((2**53 - 2**53) - 0.75) would be 0.25 and merge.
    sup = _SuperGraph(sparse.csr_array(np.array([[0, 1], [1, 0]])), [1, 2], [0, 1])
    runs = []
    for scan in (global_search._scan_merges, ref_scan_merges):
        prior = _PriorTracker(2.0, sup.size)
        prior.table = [0.0, 2.0 ** 53, 0.75, 2.0 ** 53]
        runs.append(scan(sup, _UnitMergeGain(), prior))
    assert runs == [None, None]


class _TieGain:
    """Prices node 0's moves by price(d_e, s_b) and every other move at -1.

    Its change depends on the target only through (links, size), as the
    grouped sweep requires. Records the targets it was asked to price.
    """

    def __init__(self, price):
        self.price, self.priced = price, []

    def move(self, u, a, b, d_e, s_u, s_a, s_b):
        if u != 0:
            return -1.0
        self.priced.append(b)
        return self.price(d_e, s_b)

    def apply_move(self, *args):
        pass


def tie_sweep(sweep, price, **kwargs):
    """Node 0 (community 0 with the isolated node 6) sees communities 2 =
    {1, 2} and 1 = {3, 4}, with equal links and size, 3 = {5}, and a fresh
    singleton. The prior table is zero, so price alone decides. Returns
    (node 0's community after one sweep, the targets priced for it)."""
    graph = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    sup = _SuperGraph.from_graph(graph)
    comm = np.array([0, 2, 2, 1, 1, 3, 0], dtype=np.int64)
    csize = dict(enumerate(np.bincount(comm).tolist()))
    prior = _PriorTracker(2.0, sup.size)
    prior.table = [0.0] * len(prior.table)
    gain = _TieGain(price)
    assert sweep(sup, comm, csize, prior, gain, make_rng(0), **kwargs) == 1
    return int(comm[0]), gain.priced


SWEEPS = [(ref_sweep, {}), (_sweep, {}), (_sweep, {"_by_links_size": True})]
SWEEP_IDS = ["reference", "every-candidate", "by-links-size"]


@pytest.mark.parametrize("sweep, kwargs", SWEEPS, ids=SWEEP_IDS)
def test_equal_links_and_size_go_to_the_lower_id(sweep, kwargs):
    # Communities 1 and 2 both take two links and tie; 1 wins though its
    # members come second in node 0's row.
    assert tie_sweep(sweep, lambda d_e, s_b: float(d_e), **kwargs)[0] == 1


@pytest.mark.parametrize("sweep, kwargs", SWEEPS, ids=SWEEP_IDS)
def test_a_fresh_singleton_loses_an_exact_tie(sweep, kwargs):
    # Community 3 (size 1) and the fresh singleton (size 0) tie at the top.
    assert tie_sweep(sweep, lambda d_e, s_b: 1.0 if s_b < 2 else 0.5, **kwargs)[0] == 3


def test_grouped_sweep_prices_each_group_once_by_its_lowest_id():
    _, every = tie_sweep(_sweep, lambda d_e, s_b: float(d_e))
    _, grouped = tie_sweep(_sweep, lambda d_e, s_b: float(d_e), _by_links_size=True)
    assert every == [1, 2, 3, -1]
    assert grouped == [1, 3, -1]


@pytest.mark.parametrize("name, graph", LOUVAIN_GRAPHS, ids=[n for n, _ in LOUVAIN_GRAPHS])
def test_no_gsbm_visit_prices_a_shift_twice(name, graph, monkeypatch):
    visits = []

    def counted_weights(sup, comm, u):
        visits.append([])
        return count_weights(sup, comm, u)

    class RecordingGain(_SbmGain):
        def move(self, u, a, b, d_e, s_u, s_a, s_b):
            visits[-1].append((d_e, s_u * (s_b + s_u - s_a)))
            return super().move(u, a, b, d_e, s_u, s_a, s_b)

    count_weights = global_search._neighbor_comm_weights
    monkeypatch.setattr(global_search, "_neighbor_comm_weights", counted_weights)
    monkeypatch.setattr(global_search, "_SbmGain", RecordingGain)
    for seed in range(3):
        louvain(graph, "gsbm", SbmPriors(), make_rng(seed))
    assert sum(map(len, visits)) > 0
    assert all(len(set(shifts)) == len(shifts) for shifts in visits)


def test_grouped_sweep_never_applies_a_nan_move():
    graph = dict(LOUVAIN_GRAPHS)["two-4-cliques"]
    sup = _SuperGraph.from_graph(graph)
    comm = np.arange(sup.n, dtype=np.int64)
    csize = dict(enumerate(sup.size))
    prior = _PriorTracker(2.0, sup.size)
    assert _sweep(sup, comm, csize, prior, _NanGain(), make_rng(0), _by_links_size=True) == 0
    assert np.array_equal(comm, np.arange(sup.n))
