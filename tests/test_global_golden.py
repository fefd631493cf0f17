"""Byte-identity pins of the global gDCBM fit, recorded before its rate
factors became four plain floats on one prepared partition.

Each fit is compared with == against a copy of the code it replaced (code
verbatim, docstrings cut to one line): the dataclass VariationalState with
its per-node shape array and GammaParams rate factors, the VbPartition built
by prepare_partition, vb_update, vb_bound and _converge_vb. Seeded planted
graphs are fitted at planted, all-singleton, random three-label and
all-in-one partitions under two prior sets, and so are the graphs with no
node, one node and one edge. At each of these fits, every move the frozen
gDCBM gain prices equals the from-scratch change of the frozen surrogate.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import psi

from blockcomm.dcbm import (
    ROOT_MAX_STEPS,
    ROOT_RTOL,
    DcbmPriors,
    VariationalState,
    VbPartition,
    initial_variational_state,
    vb_bound,
    vb_update,
)
from blockcomm.distributions import (GammaParams, gamma_kl, gamma_kl_shape_terms,
                                     gamma_kl_terms)
from blockcomm.generators import PlantedSpec, sample_dcbm, sample_sbm
from blockcomm.global_search import _converge_vb, _FrozenDcbmGain, _VbFits, objective_value
from blockcomm.graph import Graph, dense_labels
from blockcomm.rng import make_rng
from blockcomm.sbm import log_partition_prior

from conftest import assignment_of


# The reference: the global fit as it was before the change.
@dataclass
class RefVariationalState:
    """Factorized Gamma surrogate for the global model."""

    alpha_d: np.ndarray
    theta_d: np.ndarray
    lambda_in: GammaParams
    lambda_out: GammaParams


def ref_pair_sums(assign, e_d):
    """Sums of E[d_i] E[d_j] over within-community and between-community pairs."""
    n_comms = int(assign.max()) + 1
    s_c = np.bincount(assign, weights=e_d, minlength=n_comms)
    q_c = np.bincount(assign, weights=e_d * e_d, minlength=n_comms)
    s_tot = float(e_d.sum())
    same_pairs = float(((s_c * s_c - q_c) / 2.0).sum())
    cross_pairs = (s_tot * s_tot - float((s_c * s_c).sum())) / 2.0
    return same_pairs, cross_pairs


def ref_initial_variational_state(graph, priors):
    """Starting state: conjugate degree shapes, prior scales and rate factors."""
    a = priors.alpha + graph.degrees.astype(float)
    theta_d = np.full(graph.node_count, priors.theta)
    lam = GammaParams(priors.alpha, priors.theta)
    return RefVariationalState(a, theta_d, lam, lam)


class RefVbPartition:
    """A partition with everything vb_update and vb_bound derive from it alone."""

    def __init__(self, graph, partition, priors):
        self.graph, self.priors = graph, priors
        self.labels = dense_labels(partition, graph.node_count)
        self.within = graph.within_edges(self.labels)
        self.start = ref_initial_variational_state(graph, priors)
        self.start.alpha_d.setflags(write=False)  # shared by every state of the fit
        self.start_psi = psi(self.start.alpha_d)
        self.start_kl_shape = gamma_kl_shape_terms(self.start.alpha_d, priors.alpha)


def ref_prepare_partition(graph, partition, priors):
    """The VbPartition of partition on graph under priors (itself if it is one)."""
    if isinstance(partition, RefVbPartition):
        if partition.graph is graph and partition.priors == priors:
            return partition
        partition = partition.labels
    return RefVbPartition(graph, partition, priors)


def ref_gauge_scale(a, k, b):
    """The positive root c of a c^3 - k c^2 - 2b, for a, b > 0."""
    c = max(k, 0.0) / a + (2.0 * b / a) ** (1.0 / 3.0)
    for _ in range(ROOT_MAX_STEPS):
        step = ((a * c - k) * c * c - 2.0 * b) / ((3.0 * a * c - 2.0 * k) * c)
        c -= step
        if step <= ROOT_RTOL * c:
            break
    return c


def ref_vb_update(graph, partition, state, priors):
    """One synchronous coordinate-ascent sweep, closed by a gauge step."""
    if graph.node_count == 0:
        lam = GammaParams(priors.alpha, priors.theta)
        return RefVariationalState(np.empty(0), np.empty(0), lam, lam)
    fit = ref_prepare_partition(graph, partition, priors)
    assign = fit.labels
    alpha, theta = priors.alpha, priors.theta
    a_d = fit.start.alpha_d

    e_lambda_in = state.lambda_in.mean
    e_lambda_out = state.lambda_out.mean
    e_d_old = state.alpha_d * state.theta_d
    n_comms = int(assign.max()) + 1
    s_old = np.bincount(assign, weights=e_d_old, minlength=n_comms)
    s_tot_old = float(e_d_old.sum())
    denom = (1.0 / theta
             + e_lambda_in * (s_old[assign] - e_d_old)
             + e_lambda_out * (s_tot_old - s_old[assign]))
    if not np.all(np.isfinite(denom)) or (denom <= 0.0).any():
        bad = int(np.argmin(denom))
        raise ValueError(
            f"non-positive scale denominator {denom[bad]} at node {bad} "
            f"(E[lambda_in]={e_lambda_in}, E[lambda_out]={e_lambda_out})")
    theta_d = 1.0 / denom

    e_d = a_d * theta_d
    same_pairs, cross_pairs = ref_pair_sums(assign, e_d)
    a_in = alpha + fit.within
    a_out = alpha + (graph.edge_count - fit.within)
    theta_in = 1.0 / (1.0 / theta + same_pairs)
    theta_out = 1.0 / (1.0 / theta + cross_pairs)
    c = ref_gauge_scale(float(e_d.sum()) / theta, (graph.node_count - 4) * alpha,
                        (a_in * theta_in + a_out * theta_out) / theta)
    return RefVariationalState(a_d, theta_d * c, GammaParams(a_in, theta_in / (c * c)),
                               GammaParams(a_out, theta_out / (c * c)))


def ref_vb_bound(graph, partition, state, priors):
    """Variational lower bound on the log marginal likelihood."""
    if graph.node_count == 0:
        return 0.0
    fit = ref_prepare_partition(graph, partition, priors)
    assign = fit.labels
    prior = GammaParams(priors.alpha, priors.theta)

    if state.alpha_d is fit.start.alpha_d:
        psi_d, kl_shape = fit.start_psi, fit.start_kl_shape
    else:
        psi_d, kl_shape = psi(state.alpha_d), None
    e_log_d = psi_d + np.log(state.theta_d)
    w_in = fit.within
    m = graph.edge_count
    edge_term = float((graph.degrees * e_log_d).sum())
    edge_term += w_in * state.lambda_in.mean_log
    edge_term += (m - w_in) * state.lambda_out.mean_log

    same_pairs, cross_pairs = ref_pair_sums(assign, state.alpha_d * state.theta_d)
    quad = state.lambda_in.mean * same_pairs + state.lambda_out.mean * cross_pairs

    kl = (gamma_kl(state.lambda_in, prior) + gamma_kl(state.lambda_out, prior)
          + float(gamma_kl_terms(state.alpha_d, state.theta_d, prior.shape,
                                 prior.scale, kl_shape).sum()))
    return edge_term - quad - kl


def ref_converge_vb(graph, assignment, priors, tol=1e-8, max_sweeps=200):
    """Run vb_update sweeps until the bound stalls; returns (state, bound)."""
    fit = ref_prepare_partition(graph, assignment, priors)
    state = fit.start
    bound = ref_vb_bound(graph, fit, state, priors)
    for _ in range(max_sweeps):
        state = ref_vb_update(graph, fit, state, priors)
        new_bound = ref_vb_bound(graph, fit, state, priors)
        change, bound = new_bound - bound, new_bound
        if abs(change) < tol:
            break
    else:
        warnings.warn(f"VB fit stopped at its cap of {max_sweeps} sweeps; "
                      f"last bound change {change:.3g} (tol {tol:g})")
    return state, bound


def assert_same_state(got, ref, graph, priors):
    """got (four floats) holds ref's factors to the bit; ref's shapes are alpha + deg."""
    assert np.array_equal(ref.alpha_d, priors.alpha + graph.degrees.astype(float))
    assert np.array_equal(got.theta_d, ref.theta_d)
    assert (got.a_in, got.s_in, got.a_out, got.s_out) == (
        ref.lambda_in.shape, ref.lambda_in.scale, ref.lambda_out.shape, ref.lambda_out.scale)


PRIOR_CASES = [DcbmPriors(), DcbmPriors(alpha=1.7, theta=0.6, gamma_exp=2.5)]
PRIOR_IDS = ["uniform", "skew"]


def planted_graphs():
    """Two seeded planted graphs, with their planted labels."""
    sbm = PlantedSpec(communities=4, size=15, lambda_in=0.4, lambda_out=0.03)
    dcbm = PlantedSpec(communities=5, size=12, lambda_in=0.3, lambda_out=0.02,
                       model="dcbm", dcbm_alpha=2.0, dcbm_theta=1.0)
    out = []
    for (g, truth) in (sample_sbm(sbm, make_rng(77)), sample_dcbm(dcbm, make_rng(5))):
        out.append((g, assignment_of(truth, g.node_count)))
    return out


def partitions(graph, planted, seed):
    n = graph.node_count
    return {"planted": planted, "singletons": np.arange(n),
            "random-3": np.random.default_rng(seed).integers(0, 3, size=n),
            "all-in-one": np.zeros(n, dtype=np.int64)}


def cases():
    """(name, graph, labels): every partition kind on each planted graph,
    plus the graphs with no node, one node and one edge."""
    out = []
    for i, (g, planted) in enumerate(planted_graphs()):
        out += [(f"g{i}-{kind}", g, labels)
                for kind, labels in partitions(g, planted, i).items()]
    out += [("no-node", Graph(0, []), np.zeros(0, dtype=np.int64)),
            ("one-node", Graph.from_edges(1, []), np.zeros(1, dtype=np.int64)),
            ("one-edge-together", Graph.from_edges(2, [(0, 1)]), np.array([0, 0])),
            ("one-edge-apart", Graph.from_edges(2, [(0, 1)]), np.array([0, 1]))]
    return out


CASES = cases()


@pytest.mark.parametrize("priors", PRIOR_CASES, ids=PRIOR_IDS)
@pytest.mark.parametrize("name, graph, labels", CASES, ids=[c[0] for c in CASES])
def test_sweeps_and_bound_equal_the_dataclass_fit(name, graph, labels, priors):
    # Sweep by sweep from the prior start, then the converged fit.
    fit = VbPartition(graph, labels, priors)
    state = initial_variational_state(graph, priors)
    ref_fit = ref_prepare_partition(graph, labels, priors)
    ref = ref_fit.start
    for _ in range(6):
        assert_same_state(state, ref, graph, priors)
        assert vb_bound(fit, state) == ref_vb_bound(graph, ref_fit, ref, priors)
        state = vb_update(fit, state)
        ref = ref_vb_update(graph, ref_fit, ref, priors)
    got, bound = _converge_vb(graph, labels, priors)
    ref, ref_bound = ref_converge_vb(graph, labels, priors)
    assert_same_state(got, ref, graph, priors)
    assert bound == ref_bound


@pytest.mark.parametrize("priors", PRIOR_CASES, ids=PRIOR_IDS)
@pytest.mark.parametrize("name, graph, labels", CASES, ids=[c[0] for c in CASES])
def test_objective_and_frozen_gain_equal_the_dataclass_fit(name, graph, labels, priors):
    dense = dense_labels(labels, graph.node_count)
    ref, ref_bound = ref_converge_vb(graph, dense, priors)
    prior = log_partition_prior(np.bincount(dense).tolist(), priors.gamma_exp)
    assert objective_value(graph, labels, "gdcbm", priors) == ref_bound + prior

    # The frozen gain with every node its own super-node, as a level starts.
    gain = _FrozenDcbmGain(dense, np.arange(len(np.bincount(dense))), _VbFits(graph, priors))
    assert gain.bound == ref_bound
    assert gain.d_log == ref.lambda_in.mean_log - ref.lambda_out.mean_log
    assert gain.d_mean == ref.lambda_in.mean - ref.lambda_out.mean
    e_d = ref.alpha_d * ref.theta_d
    count = len(np.bincount(dense))
    s_u = np.bincount(dense, weights=e_d, minlength=count)
    assert gain.s_u == s_u.tolist()
    assert gain.c_s == dict(enumerate(s_u.tolist()))

    # Every move of a super-node to another community or a fresh one
    # changes the frozen surrogate as it changes from scratch.
    def surrogate(comm):
        labels = comm[dense]
        same_pairs, _ = ref_pair_sums(labels, e_d)
        return graph.within_edges(labels) * gain.d_log - gain.d_mean * same_pairs

    comm = np.arange(count)
    sizes = np.bincount(dense).tolist()
    for u in range(count):
        for b in [c for c in range(count) if c != u] + [-1]:
            new = comm.copy()
            new[u] = count if b == -1 else b
            d_e = graph.within_edges(new[dense]) - graph.within_edges(dense)
            priced = gain.move(u, u, b, d_e, sizes[u], sizes[u], 0 if b == -1 else sizes[b])
            assert priced == pytest.approx(surrogate(new) - surrogate(comm), abs=1e-9)


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("theta_d, e_in", [
    ([1.0, 1.0], 1e308),   # E[lambda_in] overflows: an infinite denominator
    ([-1.0, 1.0], 1.0),    # a negative degree mean: a negative denominator
])
def test_denominator_error_equals_the_dataclass_fit(theta_d, e_in):
    g, priors = Graph.from_edges(2, [(0, 1)]), DcbmPriors()
    labels = np.array([0, 0])
    theta_d = np.array(theta_d)
    state = VariationalState(theta_d, e_in, e_in, 1.0, 1.0)
    ref = RefVariationalState(priors.alpha + g.degrees.astype(float), theta_d,
                              GammaParams(e_in, e_in), GammaParams(1.0, 1.0))
    want = outcome(ref_vb_update, g, labels, ref, priors)
    assert want.startswith("ValueError: non-positive scale denominator")
    assert outcome(vb_update, VbPartition(g, labels, priors), state) == want
