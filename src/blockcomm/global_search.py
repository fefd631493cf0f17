"""Global community detection: Louvain-style ascent of the exact SBM
posterior (gSBM) or the degree-corrected variational bound (gDCBM).

Two phases alternate: local moving (each node greedily joins the neighboring
community, or a fresh singleton, with the best objective gain) and
aggregation into a community graph. The SBM objective moves are evaluated
exactly from integer count deltas. The DCBM bound depends on variational
parameters, which are frozen during a moving sweep and re-converged between
sweeps; a sweep whose refreshed objective went down is rolled back.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dcbm import SHAPE_FLOOR, initial_variational_state, vb_bound, vb_update
from .distributions import GammaParams
from .graph import dense_labels
from .sbm import (EdgeCounts, SbmPriors, exact_edge_counts, log_partition_prior,
                  sbm_log_likelihood)

_ACCEPT_EPS = 1e-9


def _lambda_moments(block, priors):
    """(E[lambda], E[log lambda]) for a rate block, at the prior when empty.

    A bucket with no observed edges has its posterior shape clamped at the
    floor, where psi(shape) is a huge negative number that would dominate
    every frozen move delta. Rating such blocks at the prior mean instead
    mirrors the prior-mean initialization of the local fit.
    """
    if block.shape <= SHAPE_FLOOR:
        block = GammaParams(priors.alpha, priors.theta)
    return block.mean, block.mean_log


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
    """Run vb_update sweeps until the bound stalls; returns (state, bound)."""
    state = initial_variational_state(graph, priors)
    bound = vb_bound(graph, assignment, state, priors)
    for _ in range(max_sweeps):
        state = vb_update(graph, assignment, state, priors)
        new_bound = vb_bound(graph, assignment, state, priors)
        if abs(new_bound - bound) < tol:
            bound = new_bound
            break
        bound = new_bound
    return state, bound


def objective_value(graph, partition, objective, priors):
    """Objective of a full partition.

    gSBM: exact marginal likelihood plus the partition prior. gDCBM: the
    variational bound after converging the surrogate (tol 1e-8, at most 200
    sweeps) plus the partition prior.
    """
    assignment = partition.assignment if isinstance(partition, Partition) else partition
    part = Partition.from_assignment(assignment)
    prior = log_partition_prior([int(s) for s in part.sizes], priors.gamma_exp)
    if objective == "gsbm":
        counts = exact_edge_counts(graph, part.assignment)
        return sbm_log_likelihood(counts, priors) + prior
    if objective == "gdcbm":
        _, bound = _converge_vb(graph, part.assignment, priors)
        return bound + prior
    raise ValueError(f"unknown objective {objective!r}; expected 'gsbm' or 'gdcbm'")


class _SuperGraph:
    """Aggregated working graph: nodes are groups of original nodes."""

    __slots__ = ("n", "size", "internal", "weights")

    def __init__(self, n, size, internal, weights):
        self.n = n
        self.size = size          # original nodes per super-node
        self.internal = internal  # original edges inside each super-node
        self.weights = weights    # list of {neighbor super-node: edge weight}

    @staticmethod
    def from_graph(graph):
        weights = [{int(j): 1 for j in graph.neighbors(i)} for i in range(graph.node_count)]
        return _SuperGraph(graph.node_count, [1] * graph.node_count,
                           [0] * graph.node_count, weights)


def _pairs(s):
    return s * (s - 1) // 2


def _aggregate(sup, comm):
    """Collapse communities into super-nodes; returns (new graph, dense map)."""
    ids, dense = np.unique(comm, return_inverse=True)
    k = len(ids)
    size = [0] * k
    internal = [0] * k
    weights = [dict() for _ in range(k)]
    for u in range(sup.n):
        c = dense[u]
        size[c] += sup.size[u]
        internal[c] += sup.internal[u]
        for vtx, wt in sup.weights[u].items():
            cv = dense[vtx]
            if cv == c:
                if u < vtx:
                    internal[c] += wt
            else:
                weights[c][cv] = weights[c].get(cv, 0) + wt
    return _SuperGraph(k, size, internal, weights), dense


class _PriorTracker:
    """Incremental power-law partition prior over community sizes."""

    def __init__(self, gamma_exp, sizes):
        self.g = gamma_exp
        self.lg = math.log(gamma_exp - 1.0)
        self.total = sum(self.lg - self.g * math.log(s) for s in sizes.values() if s > 0)

    def term(self, s):
        return self.lg - self.g * math.log(s) if s > 0 else 0.0

    def move_delta(self, s_a, s_b, s_u):
        """Prior change when s_u original nodes leave A (size s_a) for B (size s_b)."""
        return (self.term(s_a - s_u) - self.term(s_a)
                + self.term(s_b + s_u) - self.term(s_b))


def _neighbor_comm_weights(sup, comm, u):
    wsum = {}
    for vtx, wt in sup.weights[u].items():
        c = int(comm[vtx])
        wsum[c] = wsum.get(c, 0) + wt
    return wsum


def _move_phase_gsbm(sup, m, total_pairs, priors, rng, audit=None):
    """Local moving with exact count-delta evaluation.

    Returns (community array over super-nodes, improved flag). audit, if
    given, is called after every accepted move with (comm copy, objective)
    so tests can compare against from-scratch evaluation.
    """
    n = sup.n
    comm = np.arange(n, dtype=np.int64)
    csize = {u: sup.size[u] for u in range(n)}
    ai_plus = sum(sup.internal)
    within_pairs = sum(_pairs(s) for s in csize.values())
    prior = _PriorTracker(priors.gamma_exp, csize)
    cur_lik = sbm_log_likelihood(
        EdgeCounts.from_totals(ai_plus, within_pairs, m, total_pairs), priors)
    next_id = n
    improved = False
    while True:
        moved = 0
        for u in rng.permutation(n):
            u = int(u)
            a = int(comm[u])
            s_u = sup.size[u]
            wsum = _neighbor_comm_weights(sup, comm, u)
            e_ua = wsum.get(a, 0)
            s_a = csize[a]
            candidates = sorted(c for c in wsum if c != a)
            if s_a > s_u:
                candidates.append(-1)  # fresh singleton community
            best = None
            for b in candidates:
                e_ub = wsum.get(b, 0)
                s_b = csize.get(b, 0) if b != -1 else 0
                d_ai = e_ub - e_ua
                d_wp = (_pairs(s_a - s_u) - _pairs(s_a)
                        + _pairs(s_b + s_u) - _pairs(s_b))
                lik_new = sbm_log_likelihood(EdgeCounts.from_totals(
                    ai_plus + d_ai, within_pairs + d_wp, m, total_pairs), priors)
                d_prior = prior.move_delta(s_a, s_b, s_u)
                delta = (lik_new - cur_lik) + d_prior
                if best is None or delta > best[0]:
                    best = (delta, b, lik_new, d_ai, d_wp, d_prior)
            if best is None or best[0] <= _ACCEPT_EPS:
                continue
            _, b, lik_new, d_ai, d_wp, d_prior = best
            if b == -1:
                b = next_id
                next_id += 1
                csize[b] = 0
            comm[u] = b
            csize[a] -= s_u
            csize[b] += s_u
            prior.total += d_prior
            ai_plus += d_ai
            within_pairs += d_wp
            cur_lik = lik_new
            moved += 1
            improved = True
            if audit is not None:
                audit(comm.copy(), cur_lik + prior.total)
        if moved == 0:
            break
    return comm, improved


def _frozen_aggregates(graph, orig_to_super, n_super, state):
    """Per-super-node sums of E[d] and E[d]^2 under the frozen surrogate."""
    e_d = state.alpha_d * state.theta_d
    s_u = np.zeros(n_super)
    q_u = np.zeros(n_super)
    np.add.at(s_u, orig_to_super, e_d)
    np.add.at(q_u, orig_to_super, e_d * e_d)
    return s_u, q_u


def _move_phase_gdcbm(graph, sup, orig_to_super, priors, rng):
    """Local moving under the frozen variational bound, refresh between sweeps.

    Accepting a sweep requires the re-converged objective to have improved;
    otherwise the sweep's moves are rolled back and the phase ends.
    """
    n = sup.n
    comm = np.arange(n, dtype=np.int64)
    csize = {u: sup.size[u] for u in range(n)}
    prior = _PriorTracker(priors.gamma_exp, csize)
    next_id = n
    improved = False

    def refresh():
        assignment = comm[orig_to_super]
        state, bound = _converge_vb(graph, assignment, priors)
        s_u, q_u = _frozen_aggregates(graph, orig_to_super, n, state)
        mean_in, log_in = _lambda_moments(state.lambda_in, priors)
        mean_out, log_out = _lambda_moments(state.lambda_out, priors)
        return bound + prior.total, s_u, q_u, log_in - log_out, mean_in - mean_out

    obj_prev, s_sup, q_sup, d_log, d_mean = refresh()
    c_s = {u: float(s_sup[u]) for u in range(n)}
    c_q = {u: float(q_sup[u]) for u in range(n)}

    while True:
        snapshot = (comm.copy(), dict(csize), dict(c_s), dict(c_q),
                    prior.total, next_id)
        moved = 0
        for u in rng.permutation(n):
            u = int(u)
            a = int(comm[u])
            s_u_nodes = sup.size[u]
            su, qu = float(s_sup[u]), float(q_sup[u])
            wsum = _neighbor_comm_weights(sup, comm, u)
            e_ua = wsum.get(a, 0)
            s_a = csize[a]
            candidates = sorted(c for c in wsum if c != a)
            if s_a > s_u_nodes:
                candidates.append(-1)
            sa_e, qa_e = c_s[a], c_q[a]
            same_a_old = (sa_e * sa_e - qa_e) / 2.0
            same_a_new = ((sa_e - su) ** 2 - (qa_e - qu)) / 2.0
            best = None
            for b in candidates:
                e_ub = wsum.get(b, 0)
                if b == -1:
                    s_b, sb_e, qb_e = 0, 0.0, 0.0
                else:
                    s_b, sb_e, qb_e = csize[b], c_s[b], c_q[b]
                d_same = (same_a_new - same_a_old
                          + ((sb_e + su) ** 2 - (qb_e + qu)) / 2.0
                          - (sb_e * sb_e - qb_e) / 2.0)
                d_prior = prior.move_delta(s_a, s_b, s_u_nodes)
                delta = (e_ub - e_ua) * d_log - d_mean * d_same + d_prior
                if best is None or delta > best[0]:
                    best = (delta, b, d_prior)
            if best is None or best[0] <= _ACCEPT_EPS:
                continue
            _, b, d_prior = best
            if b == -1:
                b = next_id
                next_id += 1
                csize[b] = 0
                c_s[b] = 0.0
                c_q[b] = 0.0
            prior.total += d_prior
            comm[u] = b
            csize[a] -= s_u_nodes
            csize[b] += s_u_nodes
            c_s[a] -= su
            c_q[a] -= qu
            c_s[b] += su
            c_q[b] += qu
            moved += 1
        if moved == 0:
            break
        obj_new, s_sup2, q_sup2, d_log2, d_mean2 = refresh()
        if obj_new <= obj_prev + _ACCEPT_EPS:
            comm, csize, c_s, c_q, prior.total, next_id = snapshot
            break
        obj_prev = obj_new
        s_sup, q_sup, d_log, d_mean = s_sup2, q_sup2, d_log2, d_mean2
        c_s = {}
        c_q = {}
        for u in range(n):
            c = int(comm[u])
            c_s[c] = c_s.get(c, 0.0) + float(s_sup[u])
            c_q[c] = c_q.get(c, 0.0) + float(q_sup[u])
        improved = True
    return comm, improved


def _scan_merges(sup, delta_fn, apply_fn):
    """Greedy agglomerative pass over connected communities.

    Starting from one community per super-node, repeatedly applies the
    highest-delta merge even when negative, remembering the best prefix of
    the merge path. Single moves cannot cross the prior's fixed cost of
    creating a two-node community, so a stalled moving phase can sit far
    below a coarser partition; the merge path walks through it if one exists.

    delta_fn(a, b, e_ab, size) ranks merging connected communities a and b
    (e_ab joining edges, original-node sizes in size[]), prior change
    included. apply_fn(a, b, e_ab, size) advances objective-specific state
    when a merge is applied. Returns [(keep, absorb), ...] for the best
    strictly-improving prefix, or None.
    """
    n = sup.n
    weights = [dict(w) for w in sup.weights]
    size = list(sup.size)
    active = set(range(n))
    ops = []
    cum = 0.0
    best_cum, best_len = 0.0, 0
    while True:
        best = None
        for a in active:
            for b, e_ab in weights[a].items():
                if b <= a:
                    continue
                d = delta_fn(a, b, e_ab, size)
                if best is None or d > best[0]:
                    best = (d, a, b)
        if best is None:
            break
        d, a, b = best
        apply_fn(a, b, weights[a][b], size)
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
        active.discard(b)
        if cum > best_cum:
            best_cum, best_len = cum, len(ops)
    return ops[:best_len] if best_cum > _ACCEPT_EPS else None


def _resolve_merges(n, ops):
    """Community array over super-nodes after applying merge ops."""
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


def _merge_bootstrap(graph, sup, orig_to_super, objective, priors):
    """Escape a stalled moving phase by adopting a better merged partition.

    Merge deltas are exact SBM posterior changes for gsbm, and frozen
    variational-surrogate changes for gdcbm. When the gdcbm bound is
    degenerate because the partition has no within-community edges at all
    (the clamped rate shape poisons every surrogate delta), merges are ranked
    by a plain-SBM density contrast instead; the rate/degree gauge makes the
    empty bucket incomparable with the fitted one, while the SBM contrast is
    scale-free. Either way adoption happens only when the true objective of
    the merged partition beats the current one.
    """
    prior = _PriorTracker(priors.gamma_exp, dict(enumerate(sup.size)))
    sbm_priors = priors if objective == "gsbm" else None
    if objective == "gdcbm":
        vb_state, _ = _converge_vb(graph, orig_to_super, priors)
        if vb_state.lambda_in.shape <= SHAPE_FLOOR:
            sbm_priors = SbmPriors(gamma_exp=priors.gamma_exp)
    if sbm_priors is not None:
        m = graph.edge_count
        total_pairs = _pairs(graph.node_count)
        state = {"ai": sum(sup.internal),
                 "wp": sum(_pairs(s) for s in sup.size)}
        state["lik"] = sbm_log_likelihood(EdgeCounts.from_totals(
            state["ai"], state["wp"], m, total_pairs), sbm_priors)

        def delta_fn(a, b, e_ab, size):
            lik_new = sbm_log_likelihood(EdgeCounts.from_totals(
                state["ai"] + e_ab, state["wp"] + size[a] * size[b], m, total_pairs),
                sbm_priors)
            return (lik_new - state["lik"] + prior.term(size[a] + size[b])
                    - prior.term(size[a]) - prior.term(size[b]))

        def apply_fn(a, b, e_ab, size):
            state["ai"] += e_ab
            state["wp"] += size[a] * size[b]
            state["lik"] = sbm_log_likelihood(EdgeCounts.from_totals(
                state["ai"], state["wp"], m, total_pairs), sbm_priors)
    else:
        s_u, _ = _frozen_aggregates(graph, orig_to_super, sup.n, vb_state)
        mean_in, log_in = _lambda_moments(vb_state.lambda_in, priors)
        mean_out, log_out = _lambda_moments(vb_state.lambda_out, priors)
        d_log, d_mean = log_in - log_out, mean_in - mean_out
        sums = [float(x) for x in s_u]

        def delta_fn(a, b, e_ab, size):
            return (e_ab * d_log - d_mean * sums[a] * sums[b]
                    + prior.term(size[a] + size[b])
                    - prior.term(size[a]) - prior.term(size[b]))

        def apply_fn(a, b, e_ab, size):
            sums[a] += sums[b]

    ops = _scan_merges(sup, delta_fn, apply_fn)
    if ops is None:
        return None
    comm = _resolve_merges(sup.n, ops)
    cur = objective_value(graph, orig_to_super, objective, priors)
    cand = objective_value(graph, comm[orig_to_super], objective, priors)
    if cand > cur + _ACCEPT_EPS:
        return comm
    return None


def louvain(graph, objective, priors, rng, max_levels=10):
    """Two-phase Louvain ascent of the chosen objective.

    Returns the flattened Partition over original nodes. When a level's
    moving phase finds no improving single move, a greedy merge scan looks
    for a coarser partition with a strictly better objective before giving
    up (single moves cannot cross the prior's fixed merge cost on small
    dense graphs). Stops when neither phase improves, the graph collapses
    to one community, or max_levels is reached.
    """
    if objective not in ("gsbm", "gdcbm"):
        raise ValueError(f"unknown objective {objective!r}; expected 'gsbm' or 'gdcbm'")
    sup = _SuperGraph.from_graph(graph)
    orig_to_super = np.arange(graph.node_count, dtype=np.int64)
    m = graph.edge_count
    total_pairs = _pairs(graph.node_count)
    for _ in range(max_levels):
        if objective == "gsbm":
            comm, improved = _move_phase_gsbm(sup, m, total_pairs, priors, rng)
        else:
            comm, improved = _move_phase_gdcbm(graph, sup, orig_to_super, priors, rng)
        if not improved:
            merged = _merge_bootstrap(graph, sup, orig_to_super, objective, priors)
            if merged is None:
                break
            comm = merged
        sup, dense = _aggregate(sup, comm)
        orig_to_super = dense[orig_to_super]
        if sup.n <= 1:
            break
    return Partition.from_assignment(orig_to_super)
