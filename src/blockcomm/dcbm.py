"""Degree-corrected block model: variational bound and local score (aDCBM).

Edge counts are Poisson with mean d_i d_j lambda_block, with Gamma priors on
the per-node propensities d_i and on both rates. Exact marginalization is
intractable, so inference maximizes a variational lower bound built from a
fully factorized Gamma surrogate with conjugate shapes: alpha + deg_i for a
node's degree factor, alpha + count for a rate factor. No shape falls below
alpha, so every partition, edgeless buckets included, scores finitely.

The global fit sweeps the factors by coordinate ascent and ends each sweep
with a gauge step. Scaling every E[d_i] by c and both rate scales by 1/c^2
leaves the likelihood terms unchanged and moves the bound by
(N - 4) alpha ln c - c A - B / c^2, with A = sum E[d_i] / theta and
B = (E[lambda_in] + E[lambda_out]) / theta; the step takes the maximiser,
the unique positive root of A c^3 - (N - 4) alpha c^2 - 2B.

The local score evaluates the same bound under the uniformity assumption
that the graph is tiled by k = 2M/v copies of the candidate community,
which collapses the per-node parameters to one shared scale theta_d. With
both rate factors at their optimum the bound depends on theta_d alone; its
maximiser is the unique root of a rational function F (the bound's slope
in log theta_d), found by bracketed Newton steps, and the score is the
bound there.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import psi

from .distributions import GammaParams, gamma_kl, gamma_kl_shape_terms, gamma_kl_terms
from .graph import dense_labels

# Newton root solves (the global gauge step, the local bound's slope): steps
# allowed, and the relative step that ends them.
ROOT_MAX_STEPS = 100
ROOT_RTOL = 1e-12


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

    alpha_d/theta_d: per-node shape and scale arrays for the degree factors
    (the shapes are alpha + deg); lambda_in/lambda_out: shared
    within/between rate factors.
    """

    alpha_d: np.ndarray
    theta_d: np.ndarray
    lambda_in: GammaParams
    lambda_out: GammaParams


class LocalDcbmState(NamedTuple):
    """The local fit at its bound's maximum.

    theta_d is the shared degree scale, the root of the bound's slope. The
    rate factors at their optimum given it are Gamma(a_in, s_in) and
    Gamma(a_out, s_out), held as four floats. iterations counts the root's
    Newton or bisection steps, and converged is False only when the step
    cap stopped it first. A named tuple, so the search builds one per
    candidate cheaply.
    """

    v_hat: float
    m_hat: float
    k_hat_sq: float
    theta_d: float
    a_in: float
    s_in: float
    a_out: float
    s_out: float
    k: float
    degenerate: bool = False
    converged: bool = True
    iterations: int = 0


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
    """Starting state: conjugate degree shapes, prior scales and rate factors."""
    a = priors.alpha + graph.degrees.astype(float)
    theta_d = np.full(graph.node_count, priors.theta)
    lam = GammaParams(priors.alpha, priors.theta)
    return VariationalState(a, theta_d, lam, lam)


class VbPartition:
    """A partition with everything vb_update and vb_bound derive from it alone.

    Built by prepare_partition. vb_update and vb_bound take one wherever
    they take a partition, so a fit that holds one partition for many
    sweeps computes these once: the dense labels, the within-community edge
    count, the starting state (its conjugate degree shapes are the shapes
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


def _gauge_scale(a, k, b):
    """The positive root c of a c^3 - k c^2 - 2b, for a, b > 0.

    Newton steps start at max(k, 0)/a + (2b/a)^(1/3), at or above the root;
    there the cubic is convex and increasing, so the iterates fall
    monotonically to it.
    """
    c = max(k, 0.0) / a + (2.0 * b / a) ** (1.0 / 3.0)
    for _ in range(ROOT_MAX_STEPS):
        step = ((a * c - k) * c * c - 2.0 * b) / ((3.0 * a * c - 2.0 * k) * c)
        c -= step
        if step <= ROOT_RTOL * c:
            break
    return c


def vb_update(graph, partition, state, priors):
    """One synchronous coordinate-ascent sweep, closed by a gauge step.

    Update order: per-node scales (from the pre-sweep degree means), then
    the within and the between rate factor (from the fresh degree means);
    the shapes are the conjugate alpha + deg and alpha + count throughout.
    The gauge step then scales every degree scale by c and both rate scales
    by 1/c^2, with c the bound's maximiser along that direction (see the
    module docstring). Per-node sums are formed from community aggregates
    so a sweep costs O(N + M). partition may be a VbPartition.

    Raises:
        ValueError: if a scale denominator is not positive and finite.
    """
    if graph.node_count == 0:
        lam = GammaParams(priors.alpha, priors.theta)
        return VariationalState(np.empty(0), np.empty(0), lam, lam)
    fit = prepare_partition(graph, partition, priors)
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
    same_pairs, cross_pairs = _pair_sums(assign, e_d)
    a_in = alpha + fit.within
    a_out = alpha + (graph.edge_count - fit.within)
    theta_in = 1.0 / (1.0 / theta + same_pairs)
    theta_out = 1.0 / (1.0 / theta + cross_pairs)
    c = _gauge_scale(float(e_d.sum()) / theta, (graph.node_count - 4) * alpha,
                     (a_in * theta_in + a_out * theta_out) / theta)
    return VariationalState(a_d, theta_d * c, GammaParams(a_in, theta_in / (c * c)),
                            GammaParams(a_out, theta_out / (c * c)))


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


def _slope_root(m_hat, a_in, p_in, a_out, p_out, theta):
    """Root on (0, theta] of the local bound's slope in log theta_d.

    F(t) = m_hat (1 - t/theta) - sum_r a_r P_r t^2 / (1/theta + P_r t^2 / 2)
    falls strictly from m_hat > 0 at 0+ to F(theta) <= 0. Newton steps start
    at the saturation point, where every rate term reaches its ceiling 2 a_r
    (F is positive there, so it is a lower bracket), and a step that leaves
    the bracket bisects it instead.

    Returns:
        (root, steps, converged).
    """
    inv_t = 1.0 / theta
    lo, hi = 0.0, theta
    t = theta * (m_hat - 2.0 * (a_in + a_out)) / m_hat
    if not 0.0 < t < theta:
        t = 0.5 * theta
    for steps in range(1, ROOT_MAX_STEPS + 1):
        t2 = t * t
        d_in = inv_t + p_in * t2 / 2.0
        d_out = inv_t + p_out * t2 / 2.0
        f = m_hat * (1.0 - t * inv_t) - a_in * p_in * t2 / d_in - a_out * p_out * t2 / d_out
        if f > 0.0:
            lo = t
        else:
            hi = t
        slope = -inv_t * (m_hat + 2.0 * t * (a_in * p_in / (d_in * d_in)
                                             + a_out * p_out / (d_out * d_out)))
        new = t - f / slope
        if not lo < new <= hi:
            new = 0.5 * (lo + hi)
        if abs(new - t) <= ROOT_RTOL * new:
            return new, steps, True
        t = new
    return t, ROOT_MAX_STEPS, False


def adcbm_local_fit(stats, N, M, priors):
    """Fit the collapsed surrogate for one candidate community at its maximum.

    Conjugate shapes alpha + count: v_hat = v + n alpha, m_hat = 2M + N alpha
    and k_hat_sq = sum of (alpha + deg)^2 over the members; the rate shapes
    are alpha + k w and alpha + M - k w, with k = 2M / v. With both rate
    factors at their optimum the bound depends on theta_d alone, and its
    maximiser is the unique root of its slope (_slope_root). No shape can
    reach zero, so an edgeless candidate, a bare seed included, scores
    finitely; the greedy search's first-step fallback leans on that.

    The search calls this once per distinct candidate, so it works on plain
    floats and builds no GammaParams; it checks their domain itself.

    Returns:
        LocalDcbmState; degenerate is set when the community is inconsistent
        with the uniform tiling (zero volume or m_hat^2 < k v_hat^2).

    Raises:
        ValueError: if M < w or v > 2M (inconsistent totals), or if a rate
        factor's shape or scale is not positive and finite.
    """
    alpha, theta = priors.alpha, priors.theta
    n, w, v, k_sq = stats
    if M < w:
        raise ValueError(f"total edge count {M} is below the community's {w}")
    if v > 2 * M:
        raise ValueError(f"community volume {v} exceeds twice the edge count {M}")
    k = 2.0 * M / v if v > 0 else 0.0
    v_hat = v + n * alpha
    m_hat = 2.0 * M + N * alpha
    p_in = k * (v_hat * v_hat - k_sq)
    p_out = m_hat * m_hat - k * v_hat * v_hat
    if v <= 0 or p_out < 0.0:
        return LocalDcbmState(v_hat, m_hat, k_sq, theta, alpha, theta, alpha, theta, k,
                              degenerate=True)
    a_in = alpha + k * w
    a_out = alpha + (M - k * w)
    td, steps, converged = _slope_root(m_hat, a_in, p_in, a_out, p_out, theta)
    td2 = td * td
    inv_t = 1.0 / theta
    s_in = 1.0 / (inv_t + p_in * td2 / 2.0)
    s_out = 1.0 / (inv_t + p_out * td2 / 2.0)
    if not (0.0 < a_in < math.inf and 0.0 < s_in < math.inf
            and 0.0 < a_out < math.inf and 0.0 < s_out < math.inf):
        # Outside the domain the checked form raises, naming the value.
        GammaParams(a_in, s_in), GammaParams(a_out, s_out)
    return LocalDcbmState(v_hat, m_hat, k_sq, td, a_in, s_in, a_out, s_out, k,
                          converged=converged, iterations=steps)


def local_bound_value(state, priors):
    """The collapsed variational bound at a fitted LocalDcbmState.

    With each rate factor at its optimum Gamma(a_r, s_r) given theta_d, the
    bound is m_hat (ln theta_d - theta_d/theta) + sum_r [lgamma(a_r) +
    a_r ln s_r] - 2 (lgamma(alpha) + alpha ln theta). Omits the additive
    constant that depends only on the graph's degrees and the priors, so
    values are comparable across communities of one graph.
    """
    alpha, theta = priors.alpha, priors.theta
    td, a_in, a_out = state.theta_d, state.a_in, state.a_out
    return (state.m_hat * (math.log(td) - td / theta)
            + math.lgamma(a_in) + a_in * math.log(state.s_in)
            + math.lgamma(a_out) + a_out * math.log(state.s_out)
            - 2.0 * (math.lgamma(alpha) + alpha * math.log(theta)))


def adcbm_log_score(stats, N, M, priors):
    """Local DCBM log score: the bound's maximum plus the partition-prior part.

    Degenerate fits score -inf. Every other candidate, edgeless ones and the
    bare seed included, scores finitely, so a search can weigh the seed
    against its first additions (see local_search's first-step fallback).
    """
    state = adcbm_local_fit(stats, N, M, priors)
    if state.degenerate:
        return float("-inf")
    g = priors.gamma_exp
    prior_part = state.k * math.log(g - 1.0) - state.k * g * math.log(stats.n)
    return local_bound_value(state, priors) + prior_part


def formal_n_totals(graph, formal_N):
    """Totals (N, M) rescaled to a formal node count, preserving mean degree.

    Shrinking the formal N makes the score prefer smaller communities,
    which gives a resolution knob without touching the priors.
    """
    if formal_N < 1:
        raise ValueError(f"formal_N must be >= 1, got {formal_N}")
    mean_degree = 2.0 * graph.edge_count / graph.node_count
    return float(formal_N), formal_N * mean_degree / 2.0
