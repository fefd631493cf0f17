"""Global community detection: Louvain-style ascent of the exact SBM
posterior (gSBM) or the degree-corrected variational bound (gDCBM).

Two phases alternate: local moving and aggregation into a community graph
(a scipy CSR matrix of edge counts; each aggregation is one sparse product).
Both objectives share one moving sweep (each node greedily joins the
neighboring community, or a fresh singleton, with the best objective gain;
on the unweighted first level collections.Counter counts a node's links to
each community); they differ only in a small per-model gain that prices a
move. The gSBM gain is exact, from the within-edge and within-pair totals
and the one likelihood kernel sbm_log_marginal; a change depends only on
the totals and its shift of them, so each distinct shift is priced once
between applied changes, and a node visit prices only the lowest id of
each group of candidates with equal (links, size), which shift the totals
alike. The gDCBM gain holds the variational surrogate fixed; it is
refitted between sweeps, and a sweep whose refitted objective went down is
rolled back. Each refit runs gauge-stepped VB sweeps (see dcbm) to their
fixed point on one VbPartition, which derives the partition's fixed inputs
once for all of them. A louvain call keeps its fits by dense labelling, so
the partition a level ends on is not fitted again when the next one
starts, nor by objective_value on the Partition it returns.

A level whose moving phase stalls tries a coarser partition, proposed for
both objectives through the scale-free SBM contrast: gSBM runs a greedy
merge scan (its merges resolve as connected components) priced by its own
gain; gDCBM runs the gSBM moving phase, and the SBM-priced scan only when
no node moves there. The candidate is adopted only if its true objective
is higher.
"""

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.special import psi

from .dcbm import VbPartition, initial_variational_state, vb_bound, vb_update
from .graph import dense_labels
from .sbm import SbmPriors, exact_edge_counts, log_partition_prior, sbm_log_marginal

_ACCEPT_EPS = 1e-9


@dataclass(frozen=True)
class Partition:
    """Total assignment of nodes to dense community ids.

    A louvain result also holds the call's gDCBM surrogate fits (_fits, a
    _VbFits; empty for gSBM), out of comparison and repr, so that
    objective_value does not fit its labelling again.
    """

    assignment: np.ndarray
    sizes: np.ndarray
    _fits: object = field(default=None, compare=False, repr=False)

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

    One VbPartition holds the partition's fixed inputs for every sweep. A
    fit that reaches max_sweeps without meeting tol warns, giving the last
    bound change.
    """
    fit = VbPartition(graph, assignment, priors)
    state = initial_variational_state(graph, priors)
    bound = vb_bound(fit, state)
    for _ in range(max_sweeps):
        state = vb_update(fit, state)
        new_bound = vb_bound(fit, state)
        change, bound = new_bound - bound, new_bound
        if abs(change) < tol:
            break
    else:
        warnings.warn(f"VB fit stopped at its cap of {max_sweeps} sweeps; "
                      f"last bound change {change:.3g} (tol {tol:g})")
    return state, bound


class _VbFits:
    """The surrogate fits of one louvain call, by dense labelling.

    _converge_vb starts every fit from initial_variational_state, so its
    (state, bound) is a pure function of the graph, the dense labels and the
    priors: a labelling fitted before is returned as it was fitted.
    """

    def __init__(self, graph, priors):
        self.graph, self.priors = graph, priors
        self.done = {}

    def fit(self, assignment):
        labels = dense_labels(assignment, self.graph.node_count)
        key = labels.tobytes()
        if key not in self.done:
            self.done[key] = _converge_vb(self.graph, labels, self.priors)
        return self.done[key]


def objective_value(graph, partition, objective, priors):
    """Objective of a full partition.

    gSBM: exact marginal likelihood plus the partition prior. gDCBM: the
    variational bound after converging the surrogate (tol 1e-8, at most 200
    sweeps) plus the partition prior. A Partition from louvain on the same
    graph object with equal priors lends its fits, so a labelling that
    louvain fitted is not fitted again.
    """
    if isinstance(partition, Partition):
        assignment, fits = partition.assignment, partition._fits
    else:
        assignment, fits = partition, None
    if fits is None or fits.graph is not graph or fits.priors != priors:
        fits = _VbFits(graph, priors)
    return _objective(graph, assignment, objective, priors, fits)


def _objective(graph, assignment, objective, priors, fits):
    """objective_value of an assignment, taking a gDCBM fit from fits."""
    labels = dense_labels(assignment, graph.node_count)
    prior = log_partition_prior(np.bincount(labels).tolist(), priors.gamma_exp)
    if objective == "gsbm":
        counts = exact_edge_counts(graph, labels)
        return sbm_log_marginal(*counts, priors.alpha_plus, priors.alpha_minus) + prior
    if objective == "gdcbm":
        _, bound = fits.fit(labels)
        return bound + prior
    raise ValueError(f"unknown objective {objective!r}; expected 'gsbm' or 'gdcbm'")


class _SuperGraph:
    """Aggregated working graph of super-nodes (groups of original nodes)."""

    __slots__ = ("n", "adj", "size", "internal", "indptr", "unit")

    def __init__(self, adj, size, internal):
        self.n = adj.shape[0]
        self.adj = adj            # symmetric CSR, edges between super-nodes, empty diagonal
        self.size = size          # original nodes per super-node
        self.internal = internal  # original edges inside each super-node
        self.indptr = adj.indptr.tolist()          # row bounds, read once per node visit
        self.unit = bool((adj.data == 1).all())  # one edge per linked pair (level 0)

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
    The sweep and the merge scan read the table directly, adding its terms
    in the order move_delta and term do.
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
    them; a change is the likelihood at the shifted totals, from the one
    kernel sbm_log_marginal, minus the current one. A change depends only
    on the totals and on its shift of them, so each distinct shift is
    priced once between applied changes: the deltas are kept by shift and
    dropped when a change is applied. Sizes are in original nodes.
    """

    def __init__(self, sup, m, total_pairs, priors):
        self.m, self.total_pairs = m, total_pairs
        self.ap, self.am = priors.alpha_plus, priors.alpha_minus
        self.ai = sum(sup.internal)
        self.wp = sum(_pairs(s) for s in sup.size)
        self.lik = self._lik(0, 0)
        self.deltas = {}  # (d_ai, d_wp) -> change, at the current totals

    def _lik(self, d_ai, d_wp):
        ai, wp = self.ai + d_ai, self.wp + d_wp
        ab = self.m - ai
        return sbm_log_marginal(ai, wp - ai, ab, self.total_pairs - wp - ab, self.ap, self.am)

    def _delta(self, d_ai, d_wp):
        key = (d_ai, d_wp)
        delta = self.deltas.get(key)
        if delta is None:
            delta = self.deltas[key] = self._lik(d_ai, d_wp) - self.lik
        return delta

    def _apply(self, d_ai, d_wp):
        self.ai += d_ai
        self.wp += d_wp
        self.lik = self._lik(0, 0)
        self.deltas = {}

    def move(self, u, a, b, d_e, s_u, s_a, s_b):
        """Change when super-node u (size s_u) leaves community a for b.

        Within pairs change by pairs(s_a - s_u) - pairs(s_a) + pairs(s_b +
        s_u) - pairs(s_b), which is the integer s_u * (s_b + s_u - s_a).
        """
        return self._delta(d_e, s_u * (s_b + s_u - s_a))

    def apply_move(self, u, a, b, d_e, s_u, s_a, s_b):
        self._apply(d_e, s_u * (s_b + s_u - s_a))

    def merge(self, a, b, e_ab, s_a, s_b):
        """Change when communities a and b, joined by e_ab edges, merge."""
        return self._delta(e_ab, s_a * s_b)

    def apply_merge(self, a, b, e_ab, s_a, s_b):
        self._apply(e_ab, s_a * s_b)


class _FrozenDcbmGain:
    """gDCBM bound change of a single-node move under a frozen surrogate.

    Fits the surrogate on the partition comm[orig_to_super], or takes the
    fit from fits (a _VbFits) when given; bound is the fitted bound. With
    the factors frozen, the bound gains d_log = E[log lambda_in] -
    E[log lambda_out] per within-community edge and loses d_mean =
    E[lambda_in] - E[lambda_out] per unit of within-community sum of
    E[d_i] E[d_j], tracked through per-super-node and per-community sums of
    E[d] and E[d]^2. Both rate shapes are at least alpha, so the moments
    are finite at every partition.
    """

    def __init__(self, graph, orig_to_super, comm, priors, fits=None):
        fits = fits or _VbFits(graph, priors)
        state, self.bound = fits.fit(comm[orig_to_super])
        self.d_log = ((float(psi(state.a_in)) + math.log(state.s_in))
                      - (float(psi(state.a_out)) + math.log(state.s_out)))
        self.d_mean = state.a_in * state.s_in - state.a_out * state.s_out
        e_d = (priors.alpha + graph.degrees.astype(float)) * state.theta_d
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
    """Edges from super-node u to each community id, a dict in the order of
    u's row (by neighbour id); empty for an isolated node.

    With one edge per linked pair collections.Counter counts the row's
    community ids in C; a weighted row sums its edge counts.
    """
    lo, hi = sup.indptr[u], sup.indptr[u + 1]
    ids = comm[sup.adj.indices[lo:hi]].tolist()
    if sup.unit:
        return Counter(ids)
    wsum = {}
    for c, wt in zip(ids, sup.adj.data[lo:hi].tolist()):
        wsum[c] = wsum.get(c, 0) + wt
    return wsum


def _sweep(sup, comm, csize, prior, gain, rng, on_move=None, _by_links_size=False):
    """One pass of greedy single-node moves in random order.

    Each super-node joins the neighboring community, or a fresh singleton,
    whose gain plus prior change is largest, when that exceeds _ACCEPT_EPS;
    of equal changes the first in id order wins, the fresh singleton last.
    comm, csize (original nodes per community id; a fresh community takes id
    len(csize)), prior and gain are updated in place, and on_move, if given,
    is called after every accepted move. Returns the number of moves.

    _by_links_size is for a gain whose change depends on the target b only
    through its links from the node and its size (the gSBM gain): candidates
    with equal (links, size) then change the objective by the same bits, so
    only the lowest id of each such group is priced, which picks the same
    community as pricing them all. The fresh singleton is the group (0, 0).
    """
    t = prior.table
    size = sup.size
    moved = 0
    for u in rng.permutation(sup.n).tolist():
        a = int(comm[u])
        s_u, s_a = size[u], csize[a]
        wsum = _neighbor_comm_weights(sup, comm, u)
        e_ua = wsum.pop(a, 0)
        if _by_links_size:
            first = {}
            for b in sorted(wsum):
                first.setdefault((wsum[b], csize[b]), b)
            candidates = list(first.items())
        else:
            candidates = [((wsum[b], csize[b]), b) for b in sorted(wsum)]
        if s_a > s_u:
            candidates.append(((0, 0), -1))  # fresh singleton community
        leave = t[s_a - s_u] - t[s_a]
        best = None
        for (w_b, s_b), b in candidates:
            d_e = w_b - e_ua
            d_prior = leave + t[s_b + s_u] - t[s_b]
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
    while _sweep(sup, comm, csize, prior, gain, rng, on_move, _by_links_size=True):
        improved = True
    return comm, improved, start


def _move_phase_gdcbm(graph, sup, orig_to_super, priors, rng, fits):
    """Local moving under the frozen gDCBM gain, refitting between sweeps.

    Each sweep runs at the surrogate fitted before it, taken from fits (a
    _VbFits). The sweep is kept only if the refitted objective improved;
    otherwise its moves are rolled back and the phase ends. Returns
    (community array over super-nodes, improved flag, objective of the
    starting partition).
    """
    comm = np.arange(sup.n, dtype=np.int64)
    csize = dict(enumerate(sup.size))
    prior = _PriorTracker(priors.gamma_exp, sup.size)
    gain = _FrozenDcbmGain(graph, orig_to_super, comm, priors, fits)
    start = obj_prev = gain.bound + prior.total
    improved = False
    while True:
        snapshot = comm.copy()
        if not _sweep(sup, comm, csize, prior, gain, rng):
            break
        gain = _FrozenDcbmGain(graph, orig_to_super, comm, priors, fits)
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

    A merge's delta is gain.merge(...) plus the change of the prior's
    per-community terms (prior.table) over the original-node sizes;
    gain.apply_merge advances the gain's state when a merge is applied.
    Returns [(keep, absorb), ...] for the best strictly-improving prefix, or
    None.
    """
    n = sup.n
    own = np.arange(n)  # every super-node its own community
    weights = [_neighbor_comm_weights(sup, own, u) for u in range(n)]
    size = list(sup.size)
    ops = []
    cum = 0.0
    best_cum, best_len = 0.0, 0
    t = prior.table
    while True:
        best = None
        for a in range(n):  # an absorbed community's weights are empty
            s_a = size[a]
            for b, e_ab in weights[a].items():
                if b <= a:
                    continue
                s_b = size[b]
                d = ((gain.merge(a, b, e_ab, s_a, s_b) + t[s_a + s_b]) - t[s_a]) - t[s_b]
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


def _merge_bootstrap(graph, sup, orig_to_super, objective, priors, cur, rng, fits):
    """Escape a stalled moving phase by adopting a better coarser partition.

    Both objectives propose through the SBM contrast. For gsbm the greedy
    merge scan, priced by the level's exact gain, proposes the candidate.
    For gdcbm the gSBM moving phase under default Beta priors, drawing from
    rng, proposes it: the SBM contrast is scale-free, while a surrogate
    frozen at the stalled partition is not. Only when no node moves there
    does the scan, priced by that SBM gain, look for one (single moves
    cannot pay the prior's cost of a pair on small dense graphs). Either way
    the candidate is adopted only when its true objective beats cur, the
    objective of the current partition; a gDCBM candidate's fit is taken
    from fits (a _VbFits), where the next level finds it.
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
    cand = _objective(graph, comm[orig_to_super], objective, priors, fits)
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
    rng, and the SBM-priced scan only if no node moved. The gDCBM surrogate
    fits of the call are kept in one _VbFits, which the returned Partition
    carries to objective_value, so no labelling is fitted twice. Stops when
    neither phase improves, the graph collapses to one community, or
    max_levels is reached.

    Raises:
        ValueError: for an unknown objective or max_levels below 1.
    """
    if objective not in ("gsbm", "gdcbm"):
        raise ValueError(f"unknown objective {objective!r}; expected 'gsbm' or 'gdcbm'")
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    sup = _SuperGraph.from_graph(graph)
    orig_to_super = np.arange(graph.node_count, dtype=np.int64)
    m = graph.edge_count
    total_pairs = _pairs(graph.node_count)
    fits = _VbFits(graph, priors)
    for _ in range(max_levels):
        if objective == "gsbm":
            comm, improved, start = _move_phase_gsbm(sup, m, total_pairs, priors, rng)
        else:
            comm, improved, start = _move_phase_gdcbm(graph, sup, orig_to_super, priors, rng,
                                                      fits)
        if not improved:
            merged = _merge_bootstrap(graph, sup, orig_to_super, objective, priors, start, rng,
                                      fits)
            if merged is None:
                break
            comm = merged
        sup, dense = _aggregate(sup, comm)
        orig_to_super = dense[orig_to_super]
        if sup.n <= 1:
            break
    result = Partition.from_assignment(orig_to_super)
    return Partition(result.assignment, result.sizes, fits)
