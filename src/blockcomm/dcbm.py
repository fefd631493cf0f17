"""Degree-corrected block model: variational bound and local score (aDCBM).

Edge counts are Poisson with mean d_i d_j lambda_block, with Gamma priors on
the per-node propensities d_i and on both rates. Exact marginalization is
intractable, so inference maximizes a variational lower bound built from a
fully factorized Gamma surrogate. The local score evaluates the same bound
under the uniformity assumption that the graph is tiled by k = 2M/v copies
of the candidate community, which collapses the per-node parameters to one
shared scale theta_d with a quadratic fixed-point equation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import psi

from .distributions import GammaParams, gamma_kl, gamma_kl_shape_terms, gamma_kl_terms
from .graph import dense_labels

# Gamma shapes hit alpha - 1 + count = 0 for edgeless candidates under the
# uninformative prior; a tiny positive floor keeps them scorable.
SHAPE_FLOOR = 1e-9


@dataclass(frozen=True)
class DcbmPriors:
    """Gamma(alpha, theta) priors for degrees and rates, power-law exponent."""

    alpha: float = 1.0
    theta: float = 1.0
    gamma_exp: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0.0 or not self.theta > 0.0:
            raise ValueError("Gamma prior parameters must be positive")
        if not self.gamma_exp > 1.0:
            raise ValueError(f"gamma_exp must exceed 1, got {self.gamma_exp}")
        if not all(map(math.isfinite, (self.alpha, self.theta, self.gamma_exp))):
            raise ValueError("DCBM prior parameters must be finite")


@dataclass
class VariationalState:
    """Factorized Gamma surrogate for the global model.

    alpha_d/theta_d: per-node shape and scale arrays for the degree factors;
    lambda_in/lambda_out: shared within/between rate factors. clamped is set
    when any shape had to be floored at SHAPE_FLOOR.
    """

    alpha_d: np.ndarray
    theta_d: np.ndarray
    lambda_in: GammaParams
    lambda_out: GammaParams
    clamped: bool = False


@dataclass(frozen=True)
class LocalDcbmState:
    """Converged parameters of the local (uniformity-assumption) fit."""

    v_hat: float
    m_hat: float
    k_hat_sq: float
    theta_d: float
    lambda_in: GammaParams
    lambda_out: GammaParams
    k: float
    degenerate: bool = False
    clamped: bool = False
    converged: bool = True
    iterations: int = 0


def _clamp_shape(x):
    return (max(x, SHAPE_FLOOR), x < SHAPE_FLOOR)


def _pair_sums(assign, e_d):
    """Sums of E[d_i] E[d_j] over within-community and between-community pairs."""
    n_comms = int(assign.max()) + 1
    s_c = np.bincount(assign, weights=e_d, minlength=n_comms)
    q_c = np.bincount(assign, weights=e_d * e_d, minlength=n_comms)
    s_tot = float(e_d.sum())
    same_pairs = float(((s_c * s_c - q_c) / 2.0).sum())
    cross_pairs = (s_tot * s_tot - float((s_c * s_c).sum())) / 2.0
    return same_pairs, cross_pairs


def initial_variational_state(graph, priors):
    """Starting state: degree-matched shapes, prior scales and rate factors."""
    a = priors.alpha - 1.0 + graph.degrees.astype(float)
    clamped = bool((a < SHAPE_FLOOR).any())
    a = np.maximum(a, SHAPE_FLOOR)
    theta_d = np.full(graph.node_count, priors.theta)
    lam = GammaParams(priors.alpha, priors.theta)
    return VariationalState(a, theta_d, lam, lam, clamped)


class VbPartition:
    """A partition with everything vb_update and vb_bound derive from it alone.

    Built by prepare_partition. vb_update and vb_bound take one wherever
    they take a partition, so a fit that holds one partition for many
    sweeps computes these once: the dense labels, the within-community edge
    count, the starting state (its floored degree shapes are the shapes
    every sweep sets), and psi and the Gamma-KL head of those shapes.
    """

    def __init__(self, graph, partition, priors):
        self.graph, self.priors = graph, priors
        self.labels = dense_labels(partition, graph.node_count)
        self.within = graph.within_edges(self.labels)
        self.start = initial_variational_state(graph, priors)
        self.start.alpha_d.setflags(write=False)  # shared by every state of the fit
        self.start_psi = psi(self.start.alpha_d)
        self.start_kl_shape = gamma_kl_shape_terms(self.start.alpha_d, priors.alpha)


def prepare_partition(graph, partition, priors):
    """The VbPartition of partition on graph under priors (itself if it is one)."""
    if isinstance(partition, VbPartition):
        if partition.graph is graph and partition.priors == priors:
            return partition
        partition = partition.labels
    return VbPartition(graph, partition, priors)


def vb_update(graph, partition, state, priors):
    """One synchronous coordinate-ascent sweep over all surrogate factors.

    Update order: per-node shapes, per-node scales (all from the pre-sweep
    degree means), then the within rate factor and the between rate factor
    (from the fresh degree means). Per-node sums are formed from community
    aggregates so a sweep costs O(N + M). partition may be a VbPartition.

    Raises:
        ValueError: if a scale denominator is not positive and finite.
    """
    if graph.node_count == 0:
        lam = GammaParams(priors.alpha, priors.theta)
        return VariationalState(np.empty(0), np.empty(0), lam, lam, False)
    fit = prepare_partition(graph, partition, priors)
    assign = fit.labels
    alpha, theta = priors.alpha, priors.theta
    a_d, clamped = fit.start.alpha_d, fit.start.clamped

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

    same_pairs, cross_pairs = _pair_sums(assign, a_d * theta_d)

    w_in = fit.within
    ai, c1 = _clamp_shape(alpha - 1.0 + w_in)
    theta_i = 1.0 / (1.0 / theta + same_pairs)
    ab, c2 = _clamp_shape(alpha - 1.0 + (graph.edge_count - w_in))
    theta_b = 1.0 / (1.0 / theta + cross_pairs)
    return VariationalState(a_d, theta_d, GammaParams(ai, theta_i),
                            GammaParams(ab, theta_b), clamped or c1 or c2)


def vb_bound(graph, partition, state, priors):
    """Variational lower bound on the log marginal likelihood.

    Sum over pairs of a_ij (E[log d_i] + E[log d_j] + E[log lambda]) minus
    E[d_i] E[d_j] E[lambda], minus all KL divergences of surrogate factors
    from their priors. Pair sums use per-community aggregates. partition may
    be a VbPartition.
    """
    if graph.node_count == 0:
        return 0.0
    fit = prepare_partition(graph, partition, priors)
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

    same_pairs, cross_pairs = _pair_sums(assign, state.alpha_d * state.theta_d)
    quad = state.lambda_in.mean * same_pairs + state.lambda_out.mean * cross_pairs

    kl = (gamma_kl(state.lambda_in, prior) + gamma_kl(state.lambda_out, prior)
          + float(gamma_kl_terms(state.alpha_d, state.theta_d, prior.shape,
                                 prior.scale, kl_shape).sum()))
    return edge_term - quad - kl


def solve_theta_d(v_hat, m_hat, mean_lambda_in, mean_lambda_out, theta):
    """Shared degree scale of the local fit.

    Solves the fixed point theta_d = 1 / (1/theta + theta_d * c) with
    c = mean_lambda_in * v_hat + mean_lambda_out * (m_hat - v_hat), i.e. the
    positive root of c x^2 + x/theta - 1 = 0. The root is written in the
    cancellation-free form 2 / (1/theta + sqrt(1/theta^2 + 4c)).
    """
    c = mean_lambda_in * v_hat + mean_lambda_out * (m_hat - v_hat)
    return _theta_d_root(c, theta, 1.0 / theta)


def _theta_d_root(c, theta, inv_t):
    """Positive root of c x^2 + x/theta - 1 = 0, given inv_t = 1/theta."""
    if c == 0.0:
        return theta
    return 2.0 / (inv_t + math.sqrt(inv_t * inv_t + 4.0 * c))


def adcbm_local_fit(stats, N, M, priors, max_iter=50, tol=1e-10):
    """Fit the collapsed surrogate parameters for one candidate community.

    Alternates the theta_d root with the two rate-factor updates until the
    relative change of (theta_d, E[lambda_in], E[lambda_out]) drops below
    tol. Deterministic: always initialized at the prior means.

    Returns:
        LocalDcbmState; degenerate is set when the community is inconsistent
        with the uniform tiling (k < 1 or m_hat^2 < k v_hat^2, or zero
        volume), clamped when an edgeless community floored a shape.

    Raises:
        ValueError: if M < w or v > 2M (inconsistent totals).
    """
    alpha, theta = priors.alpha, priors.theta
    n, w, v = stats.n, stats.w, stats.v
    if M < w:
        raise ValueError(f"total edge count {M} is below the community's {w}")
    if v > 2 * M:
        raise ValueError(f"community volume {v} exceeds twice the edge count {M}")
    prior_mean = alpha * theta
    if v <= 0:
        return LocalDcbmState(0.0, 2.0 * M + N * (alpha - 1.0), stats.sumsq_alpha_d,
                              theta, GammaParams(SHAPE_FLOOR, theta),
                              GammaParams(SHAPE_FLOOR, theta), 0.0,
                              degenerate=True, clamped=True)
    k = 2.0 * M / v
    v_hat = v + n * (alpha - 1.0)
    m_hat = 2.0 * M + N * (alpha - 1.0)
    k_sq = stats.sumsq_alpha_d

    ai, c1 = _clamp_shape(alpha - 1.0 + k * w)
    ab, c2 = _clamp_shape(alpha - 1.0 + (M - k * w))
    clamped = c1 or c2
    degenerate = k < 1.0 or m_hat * m_hat < k * v_hat * v_hat
    if degenerate:
        return LocalDcbmState(v_hat, m_hat, k_sq, theta,
                              GammaParams(ai, theta), GammaParams(ab, theta), k,
                              degenerate=True, clamped=clamped)

    # Loop invariants, each grouped exactly as the update formulas evaluate
    # them, so the iterates are the same to the bit as without hoisting.
    inv_theta = 1.0 / theta
    pairs_in = k * (v_hat * v_hat - k_sq)
    pairs_out = m_hat * m_hat - k * v_hat * v_hat
    v_out = m_hat - v_hat
    e_in = prior_mean
    e_out = prior_mean
    theta_d = theta
    theta_i = theta
    theta_b = theta
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        theta_d_new = _theta_d_root(e_in * v_hat + e_out * v_out, theta, inv_theta)
        td2 = theta_d_new * theta_d_new
        theta_i = 1.0 / (inv_theta + pairs_in * td2 / 2.0)
        theta_b = 1.0 / (inv_theta + pairs_out * td2 / 2.0)
        e_in_new = ai * theta_i
        e_out_new = ab * theta_b
        done = (abs(theta_d_new - theta_d) / max(theta_d, 1e-300) < tol
                and abs(e_in_new - e_in) / max(e_in, 1e-300) < tol
                and abs(e_out_new - e_out) / max(e_out, 1e-300) < tol)
        theta_d, e_in, e_out = theta_d_new, e_in_new, e_out_new
        if done:
            converged = True
            break
    return LocalDcbmState(v_hat, m_hat, k_sq, theta_d,
                          GammaParams(ai, theta_i), GammaParams(ab, theta_b), k,
                          degenerate=False, clamped=clamped,
                          converged=converged, iterations=iterations)


def local_bound_value(stats, state, N, M, priors):
    """The collapsed variational bound at a fitted LocalDcbmState.

    Omits the additive constant that depends only on the graph's degrees and
    the priors, so values are comparable across communities of one graph.
    """
    alpha, theta = priors.alpha, priors.theta
    k, w = state.k, stats.w
    v_hat, m_hat, k_sq = state.v_hat, state.m_hat, state.k_hat_sq
    td = state.theta_d
    td2 = td * td
    lam_i, lam_b = state.lambda_in, state.lambda_out
    prior = GammaParams(alpha, theta)
    return (
        2.0 * M * math.log(td)
        + k * w * lam_i.mean_log
        + (M - k * w) * lam_b.mean_log
        - k * ((v_hat * v_hat - k_sq) / 2.0) * td2 * lam_i.mean
        - ((m_hat * m_hat - k * v_hat * v_hat) / 2.0) * td2 * lam_b.mean
        + N * alpha * math.log(td)
        - m_hat * td / theta
        - gamma_kl(lam_i, prior)
        - gamma_kl(lam_b, prior)
    )


def adcbm_log_score(stats, N, M, priors, max_iter=50, tol=1e-10):
    """Local DCBM log score: collapsed bound plus the partition-prior part.

    Degenerate fits score -inf; edgeless candidates are scorable (their
    rate shapes sit at the clamp floor) so a search can leave a singleton.
    """
    state = adcbm_local_fit(stats, N, M, priors, max_iter=max_iter, tol=tol)
    if state.degenerate:
        return float("-inf")
    g = priors.gamma_exp
    prior_part = state.k * math.log(g - 1.0) - state.k * g * math.log(stats.n)
    return local_bound_value(stats, state, N, M, priors) + prior_part


def formal_n_totals(graph, formal_N):
    """Totals (N, M) rescaled to a formal node count, preserving mean degree.

    Shrinking the formal N makes the score prefer smaller communities,
    which gives a resolution knob without touching the priors.
    """
    if formal_N < 1:
        raise ValueError(f"formal_N must be >= 1, got {formal_N}")
    mean_degree = 2.0 * graph.edge_count / graph.node_count
    return float(formal_N), formal_N * mean_degree / 2.0
