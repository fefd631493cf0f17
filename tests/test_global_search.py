"""Louvain ascent of the exact SBM posterior and the DC-SBM bound."""

import math
import warnings

import numpy as np
import pytest

from blockcomm.dcbm import (
    DcbmPriors,
    VbPartition,
    _pair_sums,
    initial_variational_state,
    vb_bound,
    vb_update,
)
from blockcomm import global_search
from blockcomm.global_search import (
    Partition,
    _aggregate,
    _converge_vb,
    _FrozenDcbmGain,
    _merge_bootstrap,
    _move_phase_gsbm,
    _PriorTracker,
    _resolve_merges,
    _SbmGain,
    _SuperGraph,
    _sweep,
    _VbFits,
    louvain,
    objective_value,
)
from blockcomm.graph import Graph, dense_labels
from blockcomm.generators import PlantedSpec, sample_sbm
from blockcomm.rng import make_rng
from blockcomm.sbm import SbmPriors, log_partition_prior

from conftest import (
    assignment_of,
    clique_edges,
    disjoint_cliques,
    graph_from_edges,
    partition_f1,
    random_gnp,
    set_partitions,
)


def brute_force_partition(graph, objective, priors):
    best, best_blocks = -float("inf"), None
    for blocks in set_partitions(list(range(graph.node_count))):
        a = assignment_of([set(b) for b in blocks], graph.node_count)
        v = objective_value(graph, a, objective, priors)
        if v > best:
            best, best_blocks = v, [sorted(b) for b in blocks]
    return best, best_blocks


def check_valid(partition, n):
    assert isinstance(partition, Partition)
    assert len(partition.assignment) == n
    ids = np.unique(partition.assignment)
    assert ids.min() == 0 and ids.max() == len(ids) - 1
    assert np.array_equal(np.bincount(partition.assignment), partition.sizes)


class TestPartitionType:
    def test_from_assignment_densifies(self):
        p = Partition.from_assignment([5, 5, 9, 2])
        check_valid(p, 4)
        assert p.communities() == [{3}, {0, 1}, {2}]

    def test_sizes_consistent(self):
        p = Partition.from_assignment([0, 0, 0, 1, 1])
        assert p.sizes.tolist() == [3, 2]


class TestObjectiveValue:
    def test_edgeless_all_in_one(self):
        # N=6 edgeless graph in a single community: within term is
        # B(1, 15+1), between term is B(1, 1), prior is -2 log 6.
        g = Graph.from_edges(6, [])
        val = objective_value(g, np.zeros(6, dtype=int), "gsbm", SbmPriors())
        assert val == pytest.approx(-math.log(16.0) - 2.0 * math.log(6.0), rel=1e-12)

    def test_rejects_unknown_objective(self):
        g = disjoint_cliques(2, 3)
        with pytest.raises(ValueError, match="objective"):
            objective_value(g, np.zeros(6, dtype=int), "modularity", SbmPriors())

    @pytest.mark.parametrize("objective, priors", [("gsbm", SbmPriors()),
                                                   ("gdcbm", DcbmPriors())])
    @pytest.mark.parametrize("partition", [[0, 0, 1, 1, 7, 7, 7],
                                           np.zeros((2, 2), dtype=int)],
                             ids=["longer-than-graph", "2-D"])
    def test_rejects_a_partition_of_another_shape(self, objective, priors, partition):
        # Relabelled against len(partition), the first would score the
        # graph's 4 nodes plus a phantom community of 3.
        g = Graph(4, [(0, 1), (2, 3)])
        shape = r"\(7,\)" if len(partition) == 7 else r"\(2, 2\)"
        with pytest.raises(ValueError, match=rf"partition has shape {shape}; expected \(4,\)"):
            objective_value(g, partition, objective, priors)

    def test_accepts_partition_or_assignment(self):
        g = disjoint_cliques(2, 3)
        a = np.array([0, 0, 0, 1, 1, 1])
        v1 = objective_value(g, a, "gsbm", SbmPriors())
        v2 = objective_value(g, Partition.from_assignment(a), "gsbm", SbmPriors())
        assert v1 == v2

    def test_incremental_moves_match_from_scratch(self):
        # Every accepted move inside the moving phase reports its running
        # objective; re-evaluating the emitted partition from scratch must
        # agree (the move deltas are exact integer count bookkeeping).
        # From all singletons the first pair only forms when
        # log((T+1)/(8M)) > 0 (T total pairs, M edges), so draw sparse
        # fixtures until that holds and moves are guaranteed to happen.
        priors = SbmPriors()
        rng = make_rng(300)
        for trial in range(6):
            g = None
            while g is None:
                edges = random_gnp(rng, 20, 0.05)
                if not edges:
                    continue
                cand = graph_from_edges(edges)
                total = cand.node_count * (cand.node_count - 1) // 2
                if total + 1 > 8 * cand.edge_count:
                    g = cand
            sup = _SuperGraph.from_graph(g)
            seen = []
            _move_phase_gsbm(sup, g.edge_count, g.node_count * (g.node_count - 1) // 2,
                             priors, make_rng(trial),
                             audit=lambda comm, obj: seen.append((comm, obj)))
            assert seen, "no move accepted; fixture too sparse"
            for comm, obj in seen:
                assert obj == pytest.approx(
                    objective_value(g, comm, "gsbm", priors), abs=1e-9)
            objs = [obj for _, obj in seen]
            assert all(b > a for a, b in zip(objs, objs[1:]))

    def test_gdcbm_value_below_importance_sampled_likelihood(self):
        # The converged bound plus the (non-positive) prior can never exceed
        # log P(A | C); check against a 1e6-sample prior Monte Carlo estimate.
        priors = DcbmPriors()
        rng = np.random.default_rng(515)
        for edges, assignment in [
            ([(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1]),
            ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [0, 0, 0, 0]),
            ([(0, 1), (2, 3), (0, 2)], [0, 1, 0, 1]),
        ]:
            g = Graph.from_edges(4, edges)
            a = np.asarray(assignment)
            val = objective_value(g, a, "gdcbm", priors)
            sizes = np.bincount(a).tolist()
            bound = val - log_partition_prior(sizes, priors.gamma_exp)

            n_samp = 1_000_000
            d = rng.gamma(priors.alpha, priors.theta, size=(n_samp, 4))
            lam_in = rng.gamma(priors.alpha, priors.theta, size=n_samp)
            lam_out = rng.gamma(priors.alpha, priors.theta, size=n_samp)
            loglik = np.zeros(n_samp)
            adj = {(min(i, j), max(i, j))
                   for i in range(4) for j in g.neighbors(i)}
            for i in range(4):
                for j in range(i + 1, 4):
                    lam = np.where(a[i] == a[j], lam_in, lam_out)
                    rate = d[:, i] * d[:, j] * lam
                    if (i, j) in adj:
                        loglik += np.log(rate) - rate
                    else:
                        loglik += -rate
            mx = loglik.max()
            w = np.exp(loglik - mx)
            est = mx + np.log(w.mean())
            stderr = w.std() / (w.mean() * math.sqrt(n_samp))
            assert bound <= est + 3.0 * stderr


class TestConvergeVb:
    # _converge_vb builds one VbPartition and shares it across sweeps; a
    # loop of public vb_update / vb_bound calls, each on a fresh VbPartition,
    # must give the same bits.

    @staticmethod
    def reference(g, labels, priors, tol=1e-8, max_sweeps=200):
        state = initial_variational_state(g, priors)
        bound = vb_bound(VbPartition(g, labels, priors), state)
        for _ in range(max_sweeps):
            state = vb_update(VbPartition(g, labels, priors), state)
            new_bound = vb_bound(VbPartition(g, labels, priors), state)
            if abs(new_bound - bound) < tol:
                bound = new_bound
                break
            bound = new_bound
        return state, bound

    @pytest.mark.parametrize("partition", ["planted", "singletons"])
    def test_bit_identical_to_public_calls(self, partition):
        spec = PlantedSpec(communities=4, size=15, lambda_in=0.4, lambda_out=0.03)
        g, truth = sample_sbm(spec, make_rng(77))
        labels = (assignment_of(truth, g.node_count) if partition == "planted"
                  else np.arange(g.node_count))
        priors = DcbmPriors()
        state, bound = _converge_vb(g, labels, priors)
        ref_state, ref_bound = self.reference(g, labels, priors)
        assert bound == ref_bound
        assert np.array_equal(state.theta_d, ref_state.theta_d)
        assert state[1:] == ref_state[1:]  # a_in, s_in, a_out, s_out

    def test_warns_when_the_sweep_cap_is_reached(self):
        spec = PlantedSpec(communities=4, size=15, lambda_in=0.4, lambda_out=0.03)
        g, _ = sample_sbm(spec, make_rng(77))
        labels = np.arange(g.node_count)
        with pytest.warns(UserWarning, match="cap of 1 sweeps; last bound change"):
            _, bound = _converge_vb(g, labels, DcbmPriors(), max_sweeps=1)
        assert bound == self.reference(g, labels, DcbmPriors(), max_sweeps=1)[1]


class TestAggregate:
    # Two levels of aggregation over random partitions, each checked
    # against counts taken from scratch on the original graph.

    @pytest.mark.parametrize("seed", [21, 22])
    def test_two_levels_match_counts_from_scratch(self, seed):
        rng = make_rng(seed)
        g = graph_from_edges(random_gnp(rng, 40, 0.15))
        sup = _SuperGraph.from_graph(g)
        labels = np.arange(g.node_count)
        for groups in (15, 6):
            sup, dense = _aggregate(sup, rng.integers(0, groups, sup.n))
            labels = dense[labels]
            k = sup.n
            between = np.zeros((k, k), dtype=np.int64)
            inside = [0] * k
            for i in range(g.node_count):
                for j in g.neighbors(i):
                    a, b = labels[i], labels[j]
                    if a != b:
                        between[a, b] += 1
                    elif i < j:
                        inside[a] += 1
            assert sup.size == np.bincount(labels, minlength=k).tolist()
            assert sup.internal == inside
            assert all(type(x) is int for x in sup.size + sup.internal)
            assert np.array_equal(sup.adj.toarray(), between)
            assert (sup.adj != sup.adj.T).nnz == 0
            assert not sup.adj.diagonal().any()
            assert sup.adj.data.all()  # no stored zeros


def union_find_merges(n, ops):
    """Reference resolution of merge ops: each absorbed node points at its keeper."""
    parent = list(range(n))
    for keep, absorb in ops:
        parent[absorb] = keep
    comm = np.empty(n, dtype=np.int64)
    for u in range(n):
        r = u
        while parent[r] != r:
            r = parent[r]
        comm[u] = r
    return comm


class TestResolveMerges:
    def test_matches_union_find(self):
        # Ops as the merge scan emits them: keep < absorb, both still live.
        rng = make_rng(808)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            live, ops = list(range(n)), []
            for _ in range(int(rng.integers(1, n))):
                keep, absorb = sorted(rng.choice(live, 2, replace=False).tolist())
                ops.append((keep, absorb))
                live.remove(absorb)
            roots = union_find_merges(n, ops)
            # the roots are the components' lowest nodes, so ranks must match
            want = np.unique(roots, return_inverse=True)[1]
            assert _resolve_merges(n, ops).tolist() == want.tolist()


class TestGains:
    # Each model's gain prices the steps its callers take: the SBM gain a
    # single-node move (moving sweep) and a community merge (merge scan),
    # the frozen gDCBM gain a move only. Walk random steps of those kinds
    # over random super-nodes of one random graph and compare every priced
    # change with the from-scratch change of the objective it stands for.

    def setup_method(self):
        self.rng = make_rng(606)
        self.graph = graph_from_edges(random_gnp(self.rng, 40, 0.12))
        self.sup, self.orig_to_super = _aggregate(
            _SuperGraph.from_graph(self.graph),
            self.rng.integers(0, 16, self.graph.node_count))

    def labels(self, comm):
        return comm[self.orig_to_super]

    def walk(self, gain, value, kinds, steps=40):
        sup, rng = self.sup, self.rng
        comm = np.arange(sup.n, dtype=np.int64)

        def size(c):
            return sum(s for s, k in zip(sup.size, comm) if k == c)

        def edges(members, c):
            return int(sup.adj[members][:, comm == c].sum())

        checked = 0
        for step in range(steps):
            new = comm.copy()
            if kinds[step % len(kinds)] == "move":
                u = int(rng.integers(sup.n))
                a, b = int(comm[u]), int(rng.integers(sup.n + 1))
                if b == a:
                    continue
                args = (u, a, b, edges([u], b) - edges([u], a),
                        sup.size[u], size(a), size(b))
                new[u] = b
                priced = gain.move(*args)
                gain.apply_move(*args)
            else:
                live = sorted(set(comm.tolist()))
                a, b = (int(c) for c in rng.choice(live, 2, replace=False))
                members_a = [u for u in range(sup.n) if comm[u] == a]
                args = (a, b, edges(members_a, b), size(a), size(b))
                new[new == b] = a
                priced = gain.merge(*args)
                gain.apply_merge(*args)
            assert priced == pytest.approx(value(new) - value(comm), abs=1e-9)
            comm = new
            checked += 1
        assert checked >= steps // 2

    def test_sbm_gain_matches_exact_likelihood(self):
        g, priors = self.graph, SbmPriors()

        def likelihood(comm):
            labels = self.labels(comm)
            sizes = [int(s) for s in np.bincount(labels) if s > 0]
            return (objective_value(g, labels, "gsbm", priors)
                    - log_partition_prior(sizes, priors.gamma_exp))

        gain = _SbmGain(self.sup, g.edge_count, g.node_count * (g.node_count - 1) // 2,
                        priors)
        self.walk(gain, likelihood, ("move", "merge"))

    def test_frozen_dcbm_gain_matches_frozen_surrogate(self):
        g, priors = self.graph, DcbmPriors()
        start = np.arange(self.sup.n, dtype=np.int64)
        gain = _FrozenDcbmGain(g, self.orig_to_super, start, priors)
        state, _ = _converge_vb(g, self.labels(start), priors)
        e_d = (priors.alpha + g.degrees.astype(float)) * state.theta_d

        def surrogate(comm):
            labels = self.labels(comm)
            same_pairs, _ = _pair_sums(labels, e_d)
            return g.within_edges(labels) * gain.d_log - gain.d_mean * same_pairs

        self.walk(gain, surrogate, ("move",))


class TestPriorTracker:
    # The tracker reads the prior's per-community terms from a table; every
    # entry and every move change must equal the formula it replaces.

    @pytest.mark.parametrize("gamma_exp", [2.0, 2.7])
    def test_table_matches_formula(self, gamma_exp):
        g = graph_from_edges(random_gnp(make_rng(31), 40, 0.1))
        n = g.node_count
        tracker = _PriorTracker(gamma_exp, _SuperGraph.from_graph(g).size)
        lg = math.log(gamma_exp - 1.0)

        def term(s):
            return lg - gamma_exp * math.log(s) if s > 0 else 0.0

        assert [tracker.term(s) for s in range(n + 1)] == [term(s) for s in range(n + 1)]
        assert tracker.total == sum(term(1) for _ in range(n))
        for s_a in range(1, n + 1):
            for s_u in range(1, s_a + 1):
                for s_b in range(n - s_u + 1):
                    assert tracker.move_delta(s_a, s_b, s_u) == (
                        term(s_a - s_u) - term(s_a) + term(s_b + s_u) - term(s_b))


class _NanGain:
    """A gain that prices every move as NaN and must never apply one."""

    def move(self, *args):
        return math.nan

    def apply_move(self, *args):
        raise AssertionError("a NaN-priced move was applied")


class TestSweep:
    def test_nan_delta_is_never_accepted(self):
        g = disjoint_cliques(2, 4)
        sup = _SuperGraph.from_graph(g)
        comm = np.arange(sup.n, dtype=np.int64)
        csize = dict(enumerate(sup.size))
        prior = _PriorTracker(2.0, sup.size)
        assert _sweep(sup, comm, csize, prior, _NanGain(), make_rng(0)) == 0
        assert np.array_equal(comm, np.arange(sup.n))


class TestLouvain:
    def test_two_cliques_is_the_exhaustive_argmax(self):
        # Over all Bell(8) = 4,140 partitions, under either objective.
        g = disjoint_cliques(2, 4)
        for objective, priors in (("gsbm", SbmPriors()), ("gdcbm", DcbmPriors())):
            best, blocks = brute_force_partition(g, objective, priors)
            assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7]]
            p = louvain(g, objective, priors, make_rng(0))
            check_valid(p, 8)
            assert sorted(sorted(c) for c in p.communities()) == blocks
            assert objective_value(g, p, objective, priors) == pytest.approx(best, rel=1e-12)

    def test_single_clique_argmax_is_all_singletons(self):
        # With every pair present the likelihood cannot distinguish "all
        # within" from "all between" (both saturate one Beta bucket), and the
        # size prior then strictly prefers singletons: exhaustive scan puts
        # the all-singleton partition on top, and the ascent agrees.
        g = graph_from_edges(clique_edges(range(5)))
        priors = SbmPriors()
        best, blocks = brute_force_partition(g, "gsbm", priors)
        assert blocks == [[0], [1], [2], [3], [4]]
        p = louvain(g, "gsbm", priors, make_rng(0))
        assert len(p.communities()) == 5
        assert objective_value(g, p, "gsbm", priors) == pytest.approx(best, rel=1e-12)

    def test_gdcbm_two_cliques(self):
        g = disjoint_cliques(2, 4)
        p = louvain(g, "gdcbm", DcbmPriors(), make_rng(0))
        check_valid(p, 8)
        assert sorted(sorted(c) for c in p.communities()) == [
            [0, 1, 2, 3], [4, 5, 6, 7]]

    def test_gdcbm_bootstrap_falls_back_to_the_scan(self):
        # On two 4-cliques no single gSBM move pays the prior's cost of a
        # pair, so the gDCBM bootstrap finds the cliques by the SBM scan.
        g = disjoint_cliques(2, 4)
        priors = DcbmPriors()
        sup, ids = _SuperGraph.from_graph(g), np.arange(8)
        sbm = SbmPriors(gamma_exp=priors.gamma_exp)
        _, moved, _ = _move_phase_gsbm(sup, g.edge_count, 28, sbm, make_rng(0))
        assert not moved
        start = objective_value(g, ids, "gdcbm", priors)
        comm = _merge_bootstrap(g, sup, ids, "gdcbm", priors, start, make_rng(0),
                                _VbFits(g, priors))
        assert sorted(sorted(c) for c in Partition.from_assignment(comm).communities()) == [
            [0, 1, 2, 3], [4, 5, 6, 7]]

    @pytest.mark.parametrize("level", ["singletons", "pairs"])
    def test_gdcbm_bootstrap_starts_from_gsbm_moves(self, level, monkeypatch):
        # When the gSBM moving phase moves, its partition is the candidate
        # and the quadratic scan never runs, at the all-singletons start as
        # at a level whose super-nodes already hold within-community edges.
        spec = PlantedSpec(communities=5, size=20, lambda_in=0.4, lambda_out=0.01)
        g, _ = sample_sbm(spec, make_rng(100))
        priors = DcbmPriors()
        sup, ids = _SuperGraph.from_graph(g), np.arange(g.node_count)
        if level == "pairs":  # nodes 2k and 2k+1 share a planted community
            sup, ids = _aggregate(sup, ids // 2)
            assert sum(sup.internal) > 0
        sbm = SbmPriors(gamma_exp=priors.gamma_exp)
        moves, moved, _ = _move_phase_gsbm(sup, g.edge_count, 4950, sbm, make_rng(3))
        assert moved

        def no_scan(*args):
            raise AssertionError("the merge scan ran")

        monkeypatch.setattr(global_search, "_scan_merges", no_scan)
        start = objective_value(g, ids, "gdcbm", priors)
        comm = _merge_bootstrap(g, sup, ids, "gdcbm", priors, start, make_rng(3),
                                _VbFits(g, priors))
        assert np.array_equal(comm, moves)

    @pytest.mark.parametrize("graph, fits", [
        (disjoint_cliques(2, 4), 1),                    # the scan's candidate
        (graph_from_edges(clique_edges(range(5))), 0),  # no candidate
    ], ids=["two-4-cliques", "K5"])
    def test_gdcbm_bootstrap_fits_only_its_candidate(self, graph, fits, monkeypatch):
        priors = DcbmPriors()
        sup, ids = _SuperGraph.from_graph(graph), np.arange(graph.node_count)
        start = objective_value(graph, ids, "gdcbm", priors)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _converge_vb(*args, **kwargs)

        monkeypatch.setattr(global_search, "_converge_vb", counted)
        _merge_bootstrap(graph, sup, ids, "gdcbm", priors, start, make_rng(0),
                         _VbFits(graph, priors))
        assert len(calls) == fits

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_gdcbm_fits_each_labelling_once(self, seed, monkeypatch):
        # A fit is a pure function of the dense labels, so louvain keeps its
        # fits and a level that starts at the partition the previous one
        # ended on (its last refit, a rolled-back sweep's snapshot or an
        # adopted bootstrap candidate) takes that fit instead of refitting.
        fitted = []

        def counted(graph, assignment, *args, **kwargs):
            fitted.append(dense_labels(assignment, graph.node_count).tobytes())
            return _converge_vb(graph, assignment, *args, **kwargs)

        monkeypatch.setattr(global_search, "_converge_vb", counted)
        spec = PlantedSpec(communities=6, size=20, lambda_in=0.3, lambda_out=0.03)
        g, _ = sample_sbm(spec, make_rng(120))
        louvain(g, "gdcbm", DcbmPriors(), make_rng(seed))
        assert len(fitted) > 2
        assert len(set(fitted)) == len(fitted)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_objective_value_takes_the_louvain_fits(self, seed, monkeypatch):
        # The Partition a gDCBM louvain returns carries the call's fits, so
        # objective_value on it fits no labelling again; the value equals a
        # fresh fit of the bare assignment. Other priors fit afresh.
        fitted = []

        def counted(graph, assignment, *args, **kwargs):
            fitted.append(dense_labels(assignment, graph.node_count).tobytes())
            return _converge_vb(graph, assignment, *args, **kwargs)

        monkeypatch.setattr(global_search, "_converge_vb", counted)
        spec = PlantedSpec(communities=6, size=20, lambda_in=0.3, lambda_out=0.03)
        g, _ = sample_sbm(spec, make_rng(120))
        p = louvain(g, "gdcbm", DcbmPriors(), make_rng(seed))
        value = objective_value(g, p, "gdcbm", DcbmPriors())
        assert len(set(fitted)) == len(fitted)
        count = len(fitted)
        assert value == objective_value(g, p.assignment, "gdcbm", DcbmPriors())
        assert len(fitted) == count + 1
        objective_value(g, p, "gdcbm", DcbmPriors(alpha=2.0))
        assert len(fitted) == count + 2

    def test_planted_sbm_recovery(self):
        spec = PlantedSpec(communities=5, size=20, lambda_in=0.4, lambda_out=0.01)
        priors = SbmPriors()
        for trial in range(3):
            g, truth = sample_sbm(spec, make_rng(100 + trial))
            p = louvain(g, "gsbm", priors, make_rng(trial))
            check_valid(p, 100)
            assert partition_f1(truth, p.communities()) >= 0.95

    def test_gdcbm_planted_recovery(self):
        spec = PlantedSpec(communities=5, size=20, lambda_in=0.4, lambda_out=0.01)
        g, truth = sample_sbm(spec, make_rng(100))
        p = louvain(g, "gdcbm", DcbmPriors(), make_rng(1))
        assert partition_f1(truth, p.communities()) >= 0.9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gdcbm_recovery_under_a_sharper_prior(self, seed):
        # The golden graph under alpha = 2: a stalled level that already
        # holds within-community edges must still coarsen through the SBM
        # contrast, not stop at about 30 fragments of the 6 planted blocks.
        spec = PlantedSpec(communities=6, size=20, lambda_in=0.3, lambda_out=0.03)
        g, truth = sample_sbm(spec, make_rng(120))
        p = louvain(g, "gdcbm", DcbmPriors(alpha=2.0), make_rng(seed))
        assert partition_f1(truth, p.communities()) >= 0.85

    def test_objective_never_below_start(self):
        # The level sequence only ever adopts improvements, so the final
        # partition cannot score below the all-singleton start.
        for objective, priors in (("gsbm", SbmPriors()), ("gdcbm", DcbmPriors())):
            for trial in range(3):
                g = graph_from_edges(random_gnp(make_rng(40 + trial), 12, 0.3))
                p = louvain(g, objective, priors, make_rng(trial))
                check_valid(p, 12)
                start = objective_value(
                    g, np.arange(12), objective, priors)
                assert objective_value(g, p, objective, priors) >= start - 1e-9

    def test_deterministic_under_fixed_rng(self):
        # gdcbm draws from the rng in its moving phase and in the gSBM moves
        # that propose a coarser partition when a level stalls.
        g = graph_from_edges(random_gnp(make_rng(9), 20, 0.2))
        for objective, priors in (("gsbm", SbmPriors()), ("gdcbm", DcbmPriors())):
            a = louvain(g, objective, priors, make_rng(5))
            b = louvain(g, objective, priors, make_rng(5))
            assert np.array_equal(a.assignment, b.assignment)

    def test_rejects_unknown_objective(self):
        g = disjoint_cliques(2, 3)
        with pytest.raises(ValueError, match="objective"):
            louvain(g, "walktrap", SbmPriors(), make_rng(0))

    # Louvain on a seeded 120-node planted graph, pinned with == to the
    # assignment (one base-36 digit per node) and objective. gsbm is pinned
    # to the search before the likelihood kernel and the prior table were
    # rewritten; gdcbm to the conjugate surrogate with its gauge step (9
    # communities, F1 0.930 against the planted blocks). A rewrite that is
    # not bit-identical moves a decision or the objective's last bits.
    GOLDEN = {
        "gsbm": ("000003000000000000002232322223622426303511111511110111116111"
                 "666666666666666666667707777777777777777788888888888888888888",
                 -1552.6790032274785),
        "gdcbm": ("000000040000400000001121211112111611212533333533330343333333"
                  "666666666666666666667777277777777777777788888888888888888888",
                  -1695.621251092283),
    }

    @pytest.mark.parametrize("objective", sorted(GOLDEN))
    def test_golden_planted_partition(self, objective):
        spec = PlantedSpec(communities=6, size=20, lambda_in=0.3, lambda_out=0.03)
        g, _ = sample_sbm(spec, make_rng(120))
        priors = SbmPriors() if objective == "gsbm" else DcbmPriors()
        p = louvain(g, objective, priors, make_rng(7))
        digits, value = self.GOLDEN[objective]
        assert "".join(np.base_repr(c, 36).lower() for c in p.assignment) == digits
        assert objective_value(g, p, objective, priors) == value

    def test_gdcbm_fits_stop_on_tolerance(self, monkeypatch):
        # Every surrogate fit of the golden gDCBM search reaches its fixed
        # point (the bound stalls below tol) before the 200-sweep cap.
        sweeps = []

        def counted_update(*args):
            sweeps[-1] += 1
            return vb_update(*args)

        def counted_fit(*args, **kwargs):
            sweeps.append(0)
            return _converge_vb(*args, **kwargs)

        monkeypatch.setattr(global_search, "vb_update", counted_update)
        monkeypatch.setattr(global_search, "_converge_vb", counted_fit)
        spec = PlantedSpec(communities=6, size=20, lambda_in=0.3, lambda_out=0.03)
        g, _ = sample_sbm(spec, make_rng(120))
        louvain(g, "gdcbm", DcbmPriors(), make_rng(7))
        assert sweeps and max(sweeps) < 200

    def test_golden_gdcbm_search_raises_no_warning(self):
        # A fit stopped at its sweep cap warns, so none of them did.
        spec = PlantedSpec(communities=6, size=20, lambda_in=0.3, lambda_out=0.03)
        g, _ = sample_sbm(spec, make_rng(120))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = louvain(g, "gdcbm", DcbmPriors(), make_rng(7))
            objective_value(g, p, "gdcbm", DcbmPriors())

    @pytest.mark.parametrize("max_levels", [0, -1])
    def test_rejects_max_levels_below_one(self, max_levels):
        g = disjoint_cliques(2, 4)
        with pytest.raises(ValueError, match="max_levels must be >= 1"):
            louvain(g, "gsbm", SbmPriors(), make_rng(0), max_levels=max_levels)

    def test_max_levels_one_still_valid(self):
        g = disjoint_cliques(2, 4)
        p = louvain(g, "gsbm", SbmPriors(), make_rng(0), max_levels=1)
        check_valid(p, 8)
