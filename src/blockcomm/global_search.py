"""Global community detection: Louvain-style ascent of the exact SBM
posterior (gSBM) or the degree-corrected variational bound (gDCBM).

Two phases alternate: local moving and aggregation into a community graph
(a scipy CSR matrix of edge counts; each aggregation is one sparse product).
Both objectives share one moving sweep (each node greedily joins the
neighboring community, or a fresh singleton, with the best objective gain);
they differ only in a small per-model gain that prices a move. The gSBM
gain is exact, from the within-edge and within-pair totals. The gDCBM gain
holds the variational surrogate fixed; it is refitted between sweeps, and
a sweep whose refitted objective went down is rolled back. Each refit runs
gauge-stepped VB sweeps (see dcbm) to their fixed point, and prepares its
partition's invariants once for all of them.

A level whose moving phase stalls tries a coarser partition, proposed for
both objectives through the scale-free SBM contrast: gSBM runs a greedy
merge scan (its merges resolve as connected components) priced by its own
gain; gDCBM runs the gSBM moving phase, and the SBM-priced scan only when
no node moves there. The candidate is adopted only if its true objective
is higher.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .dcbm import prepare_partition, vb_bound, vb_update
from .graph import dense_labels
from .sbm import SbmPriors, exact_edge_counts, log_partition_prior, sbm_log_marginal

_ACCEPT_EPS = 1e-9


@dataclass(frozen=True)
class Partition:
    """Total assignment of nodes to dense community ids."""

    assignment: np.ndarray
    sizes: np.ndarray

    @staticmethod
    def from_assignment(assignment):
        dense = dense_labels(assignment, len(assignment))
        return Partition(dense, np.bincount(dense))

    def communities(self):
        """Community node sets, indexed by community id."""
        out = [set() for _ in range(len(self.sizes))]
        for i, c in enumerate(self.assignment):
            out[int(c)].add(i)
        return out


def _converge_vb(graph, assignment, priors, tol=1e-8, max_sweeps=200):
    """Run vb_update sweeps until the bound stalls; returns (state, bound).

    The partition is prepared once, so the sweeps share its invariants. A
    fit that reaches max_sweeps without meeting tol warns, giving the last
    bound change.
    """
    fit = prepare_partition(graph, assignment, priors)
    state = fit.start
    bound = vb_bound(graph, fit, state, priors)
    for _ in range(max_sweeps):
        state = vb_update(graph, fit, state, priors)
        new_bound = vb_bound(graph, fit, state, priors)
        change, bound = new_bound - bound, new_bound
        if abs(change) < tol:
            break
    else:
        warnings.warn(f"VB fit stopped at its cap of {max_sweeps} sweeps; "
                      f"last bound change {change:.3g} (tol {tol:g})")
    return state, bound


def objective_value(graph, partition, objective, priors):
    """Objective of a full partition.

    gSBM: exact marginal likelihood plus the partition prior. gDCBM: the
    variational bound after converging the surrogate (tol 1e-8, at most 200
    sweeps) plus the partition prior.
    """
    assignment = partition.assignment if isinstance(partition, Partition) else partition
    labels = dense_labels(assignment, graph.node_count)
    prior = log_partition_prior(np.bincount(labels).tolist(), priors.gamma_exp)
    if objective == "gsbm":
        counts = exact_edge_counts(graph, labels)
        return sbm_log_marginal(*counts, priors.alpha_plus, priors.alpha_minus) + prior
    if objective == "gdcbm":
        _, bound = _converge_vb(graph, labels, priors)
        return bound + prior
    raise ValueError(f"unknown objective {objective!r}; expected 'gsbm' or 'gdcbm'")


class _SuperGraph:
    """Aggregated working graph of super-nodes (groups of original nodes)."""

    __slots__ = ("n", "adj", "size", "internal")

    def __init__(self, adj, size, internal):
        self.n = adj.shape[0]
        self.adj = adj            # symmetric CSR, edges between super-nodes, empty diagonal
        self.size = size          # original nodes per super-node
        self.internal = internal  # original edges inside each super-node

    @staticmethod
    def from_graph(graph):
        n = graph.node_count
        adj = sparse.csr_array((np.ones(len(graph.indices), dtype=np.int64),
                                graph.indices, graph.indptr), shape=(n, n))
        return _SuperGraph(adj, [1] * n, [0] * n)


def _pairs(s):
    return s * (s - 1) // 2


def _aggregate(sup, comm):
    """Collapse communities into super-nodes; returns (new graph, dense map).

    With M the one-hot membership matrix, the new adjacency is M^T A M off
    its diagonal; the diagonal counts twice the edges that join two
    super-nodes of one community.
    """
    ids, dense = np.unique(comm, return_inverse=True)
    member = sparse.csr_array((np.ones(sup.n, dtype=np.int64), (np.arange(sup.n), dense)),
                              shape=(sup.n, len(ids)))
    adj = (member.T @ sup.adj @ member).tocsr()
    joined = adj.diagonal() // 2
    adj.setdiag(0)
    adj.eliminate_zeros()
    adj.sort_indices()
    size = member.T @ np.asarray(sup.size, dtype=np.int64)
    internal = member.T @ np.asarray(sup.internal, dtype=np.int64) + joined
    return _SuperGraph(adj, size.tolist(), internal.tolist()), dense


class _PriorTracker:
    """Incremental power-law partition prior over community sizes.

    term(s), log(gamma-1) - gamma log(s) and 0 for an empty community, is
    read from a table over every size up to the number of original nodes.
    """

    def __init__(self, gamma_exp, sizes):
        lg = math.log(gamma_exp - 1.0)
        self.table = [0.0] + [lg - gamma_exp * math.log(s) for s in range(1, sum(sizes) + 1)]
        self.total = sum(self.table[s] for s in sizes)

    def term(self, s):
        return self.table[s]

    def move_delta(self, s_a, s_b, s_u):
        """Prior change when s_u original nodes leave A (size s_a) for B (size s_b)."""
        t = self.table
        return t[s_a - s_u] - t[s_a] + t[s_b + s_u] - t[s_b]


class _SbmGain:
    """Exact SBM log-likelihood change of a move or a merge.

    Tracks the within-community edge and pair totals and the likelihood at
    them; a change is the likelihood at the shifted totals minus the current
    one. Sizes are in original nodes.
    """

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
        """Change when super-node u (size s_u) leaves community a for b.

        Within pairs change by pairs(s_a - s_u) - pairs(s_a) + pairs(s_b +
        s_u) - pairs(s_b), which is the integer s_u * (s_b + s_u - s_a).
        """
        return self._lik(d_e, s_u * (s_b + s_u - s_a)) - self.lik

    def apply_move(self, u, a, b, d_e, s_u, s_a, s_b):
        self._apply(d_e, s_u * (s_b + s_u - s_a))

    def merge(self, a, b, e_ab, s_a, s_b):
        """Change when communities a and b, joined by e_ab edges, merge."""
        return self._lik(e_ab, s_a * s_b) - self.lik

    def apply_merge(self, a, b, e_ab, s_a, s_b):
        self._apply(e_ab, s_a * s_b)


class _FrozenDcbmGain:
    """gDCBM bound change of a single-node move under a frozen surrogate.

    Fits the surrogate on the partition comm[orig_to_super]; bound is the
    fitted bound. With the factors frozen, the bound gains d_log =
    E[log lambda_in] - E[log lambda_out] per within-community edge and
    loses d_mean = E[lambda_in] - E[lambda_out] per unit of
    within-community sum of E[d_i] E[d_j], tracked through per-super-node
    and per-community sums of E[d] and E[d]^2. Both rate shapes are at
    least alpha, so the moments are finite at every partition.
    """

    def __init__(self, graph, orig_to_super, comm, priors):
        state, self.bound = _converge_vb(graph, comm[orig_to_super], priors)
        self.d_log = state.lambda_in.mean_log - state.lambda_out.mean_log
        self.d_mean = state.lambda_in.mean - state.lambda_out.mean
        e_d = state.alpha_d * state.theta_d
        s_u = np.bincount(orig_to_super, weights=e_d, minlength=len(comm))
        q_u = np.bincount(orig_to_super, weights=e_d * e_d, minlength=len(comm))
        self.s_u, self.q_u = s_u.tolist(), q_u.tolist()
        self.c_s = dict(enumerate(np.bincount(comm, weights=s_u).tolist()))
        self.c_q = dict(enumerate(np.bincount(comm, weights=q_u).tolist()))

    def move(self, u, a, b, d_e, s_u, s_a, s_b):
        """Change when super-node u leaves community a for b (-1: a new one)."""
        su, qu = self.s_u[u], self.q_u[u]
        sa, qa = self.c_s[a], self.c_q[a]
        sb, qb = self.c_s.get(b, 0.0), self.c_q.get(b, 0.0)
        d_same = (((sa - su) ** 2 - (qa - qu)) / 2.0 - (sa * sa - qa) / 2.0
                  + ((sb + su) ** 2 - (qb + qu)) / 2.0 - (sb * sb - qb) / 2.0)
        return d_e * self.d_log - self.d_mean * d_same

    def apply_move(self, u, a, b, d_e, s_u, s_a, s_b):
        self.c_s[a] -= self.s_u[u]
        self.c_q[a] -= self.q_u[u]
        self.c_s[b] = self.c_s.get(b, 0.0) + self.s_u[u]
        self.c_q[b] = self.c_q.get(b, 0.0) + self.q_u[u]


def _neighbor_comm_weights(sup, comm, u):
    lo, hi = sup.adj.indptr[u], sup.adj.indptr[u + 1]
    wsum = {}
    for c, wt in zip(comm[sup.adj.indices[lo:hi]].tolist(), sup.adj.data[lo:hi].tolist()):
        wsum[c] = wsum.get(c, 0) + wt
    return wsum


def _sweep(sup, comm, csize, prior, gain, rng, on_move=None):
    """One pass of greedy single-node moves in random order.

    Each super-node joins the neighboring community, or a fresh singleton,
    whose gain plus prior change is largest, when that exceeds _ACCEPT_EPS.
    comm, csize (original nodes per community id; a fresh community takes id
    len(csize)), prior and gain are updated in place, and on_move, if given,
    is called after every accepted move. Returns the number of moves.
    """
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


def _move_phase_gsbm(sup, m, total_pairs, priors, rng, audit=None):
    """Local moving under the exact SBM gain, sweeping until nothing moves.

    Returns (community array over super-nodes, improved flag, objective of
    the starting partition). audit, if given, is called after every accepted
    move with (comm copy, objective) so tests can compare against
    from-scratch evaluation.
    """
    comm = np.arange(sup.n, dtype=np.int64)
    csize = dict(enumerate(sup.size))
    prior = _PriorTracker(priors.gamma_exp, sup.size)
    gain = _SbmGain(sup, m, total_pairs, priors)
    start = gain.lik + prior.total
    on_move = None if audit is None else (
        lambda: audit(comm.copy(), gain.lik + prior.total))
    improved = False
    while _sweep(sup, comm, csize, prior, gain, rng, on_move):
        improved = True
    return comm, improved, start


def _move_phase_gdcbm(graph, sup, orig_to_super, priors, rng):
    """Local moving under the frozen gDCBM gain, refitting between sweeps.

    Each sweep runs at the surrogate fitted before it. The sweep is kept
    only if the refitted objective improved; otherwise its moves are rolled
    back and the phase ends. Returns (community array over super-nodes,
    improved flag, objective of the starting partition).
    """
    comm = np.arange(sup.n, dtype=np.int64)
    csize = dict(enumerate(sup.size))
    prior = _PriorTracker(priors.gamma_exp, sup.size)
    gain = _FrozenDcbmGain(graph, orig_to_super, comm, priors)
    start = obj_prev = gain.bound + prior.total
    improved = False
    while True:
        snapshot = comm.copy()
        if not _sweep(sup, comm, csize, prior, gain, rng):
            break
        gain = _FrozenDcbmGain(graph, orig_to_super, comm, priors)
        obj_new = gain.bound + prior.total
        if obj_new <= obj_prev + _ACCEPT_EPS:
            return snapshot, improved, start
        obj_prev = obj_new
        improved = True
    return comm, improved, start


def _scan_merges(sup, gain, prior):
    """Greedy agglomerative pass over connected communities.

    Starting from one community per super-node, repeatedly applies the
    highest-delta merge even when negative, remembering the best prefix of
    the merge path. Single moves cannot cross the prior's fixed cost of
    creating a two-node community, so a stalled moving phase can sit far
    below a coarser partition; the merge path walks through it if one exists.

    A merge's delta is gain.merge(...) plus the change of prior.term over
    the original-node sizes; gain.apply_merge advances the gain's state when
    a merge is applied. Returns [(keep, absorb), ...] for the best
    strictly-improving prefix, or None.
    """
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


def _resolve_merges(n, ops):
    """Community array over super-nodes after merge ops, ordered by lowest member."""
    keep, absorb = zip(*ops)
    merged = sparse.coo_array((np.ones(len(ops)), (keep, absorb)), shape=(n, n))
    return connected_components(merged, directed=False)[1]


def _merge_bootstrap(graph, sup, orig_to_super, objective, priors, cur, rng):
    """Escape a stalled moving phase by adopting a better coarser partition.

    Both objectives propose through the SBM contrast. For gsbm the greedy
    merge scan, priced by the level's exact gain, proposes the candidate.
    For gdcbm the gSBM moving phase under default Beta priors, drawing from
    rng, proposes it: the SBM contrast is scale-free, while a surrogate
    frozen at the stalled partition is not. Only when no node moves there
    does the scan, priced by that SBM gain, look for one (single moves
    cannot pay the prior's cost of a pair on small dense graphs). Either way
    the candidate is adopted only when its true objective beats cur, the
    objective of the current partition.
    """
    m, total_pairs = graph.edge_count, _pairs(graph.node_count)
    if objective == "gsbm":
        gain = _SbmGain(sup, m, total_pairs, priors)
    else:
        sbm = SbmPriors(gamma_exp=priors.gamma_exp)
        comm, moved, _ = _move_phase_gsbm(sup, m, total_pairs, sbm, rng)
        gain = None if moved else _SbmGain(sup, m, total_pairs, sbm)
    if gain is not None:
        ops = _scan_merges(sup, gain, _PriorTracker(priors.gamma_exp, sup.size))
        if ops is None:
            return None
        comm = _resolve_merges(sup.n, ops)
    cand = objective_value(graph, comm[orig_to_super], objective, priors)
    if cand > cur + _ACCEPT_EPS:
        return comm
    return None


def louvain(graph, objective, priors, rng, max_levels=10):
    """Two-phase Louvain ascent of the chosen objective.

    Returns the flattened Partition over original nodes. Each level runs the
    shared moving sweep with the objective's gain (gSBM: exact, until no node
    moves; gDCBM: frozen surrogate, refitted between sweeps). When a level's
    moving phase finds no improving single move, _merge_bootstrap looks for
    a coarser partition with a strictly better objective before giving up.
    It proposes through the SBM contrast: for gSBM a greedy merge scan priced
    by the same gain (single moves cannot cross the prior's fixed merge cost
    on small dense graphs); for gDCBM the gSBM moving phase, drawing from
    rng, and the SBM-priced scan only if no node moved. Stops when neither
    phase improves, the graph collapses to one community, or max_levels is
    reached.
    """
    if objective not in ("gsbm", "gdcbm"):
        raise ValueError(f"unknown objective {objective!r}; expected 'gsbm' or 'gdcbm'")
    sup = _SuperGraph.from_graph(graph)
    orig_to_super = np.arange(graph.node_count, dtype=np.int64)
    m = graph.edge_count
    total_pairs = _pairs(graph.node_count)
    for _ in range(max_levels):
        if objective == "gsbm":
            comm, improved, start = _move_phase_gsbm(sup, m, total_pairs, priors, rng)
        else:
            comm, improved, start = _move_phase_gdcbm(graph, sup, orig_to_super, priors, rng)
        if not improved:
            merged = _merge_bootstrap(graph, sup, orig_to_super, objective, priors, start, rng)
            if merged is None:
                break
            comm = merged
        sup, dense = _aggregate(sup, comm)
        orig_to_super = dense[orig_to_super]
        if sup.n <= 1:
            break
    return Partition.from_assignment(orig_to_super)
