"""Two-rate stochastic block model: exact marginal likelihood and the local
approximation score (aSBM).

Edges appear with probability lambda_in inside communities and lambda_out
between them; Beta priors on both rates integrate out exactly, leaving a
likelihood that depends on the partition only through four edge/non-edge
counts. Those counts come from one piece of algebra, EdgeCounts.from_totals,
and the likelihood is written once, as the scalar kernel sbm_log_marginal:
six math.lgamma calls, the prior constant 2 log B(a+, a-) computed inline,
and one domain check per Beta argument. The global objective feeds it the
exact counts of a partition; the local score feeds it counts extrapolated
from one candidate community under the assumption that the rest of the
graph is tiled by k = N/n identical copies of it.
"""

import math
from dataclasses import dataclass
from math import lgamma
from typing import NamedTuple

import numpy as np

from .distributions import BetaParams, log_beta
from .graph import dense_labels


@dataclass(frozen=True)
class SbmPriors:
    """Beta(alpha_plus, alpha_minus) rate priors and power-law exponent."""

    alpha_plus: float = 1.0
    alpha_minus: float = 1.0
    gamma_exp: float = 2.0

    def __post_init__(self):
        if not self.alpha_plus > 0.0 or not self.alpha_minus > 0.0:
            raise ValueError("Beta prior parameters must be positive")
        if not self.gamma_exp > 1.0:
            raise ValueError(f"gamma_exp must exceed 1, got {self.gamma_exp}")
        if not all(map(math.isfinite, (self.alpha_plus, self.alpha_minus, self.gamma_exp))):
            raise ValueError("SBM prior parameters must be finite")


class EdgeCounts(NamedTuple):
    """Within/between edge and non-edge totals, in sbm_log_marginal's
    argument order.

    ai_plus: within edges; ai_minus: within non-edges; ab_plus: between
    edges; ab_minus: between non-edges.
    """

    ai_plus: float
    ai_minus: float
    ab_plus: float
    ab_minus: float

    @staticmethod
    def from_totals(within_edges, within_pairs, edges, pairs):
        """Counts of a partition from its within-community edge and pair
        totals and the graph's edge and pair totals."""
        between_edges = edges - within_edges
        return EdgeCounts(within_edges, within_pairs - within_edges, between_edges,
                          pairs - within_pairs - between_edges)


def exact_edge_counts(graph, partition):
    """Exact EdgeCounts of a full partition.

    Args:
        graph: Graph.
        partition: per-node community id, indexable by dense node index
            (dict, list, or array). Every node must be covered.

    Returns:
        Integer-valued EdgeCounts satisfying
        ai+ + ai- + ab+ + ab- = N(N-1)/2 and ai+ + ab+ = M.
    """
    n = graph.node_count
    labels = dense_labels(partition, n)
    sizes = np.bincount(labels)
    within_pairs = int((sizes * (sizes - 1) // 2).sum())
    return EdgeCounts.from_totals(graph.within_edges(labels), within_pairs,
                                  graph.edge_count, n * (n - 1) // 2)


def sbm_log_marginal(ai_plus, ai_minus, ab_plus, ab_minus, alpha_plus, alpha_minus):
    """Log marginal likelihood of a graph from its four edge/non-edge counts.

    log B(a+ + ai+, a- + ai-) + log B(a+ + ab+, a- + ab-) - 2 log B(a+, a-),
    each log B written out as math.lgamma terms. Every Beta argument must be
    positive and finite; otherwise BetaParams raises the ValueError.
    """
    a1, b1 = alpha_plus + ai_plus, alpha_minus + ai_minus
    a2, b2 = alpha_plus + ab_plus, alpha_minus + ab_minus
    if not (0.0 < a1 < math.inf and 0.0 < b1 < math.inf
            and 0.0 < a2 < math.inf and 0.0 < b2 < math.inf):
        # Outside the domain the checked form raises, naming the argument.
        return log_beta(BetaParams(a1, b1)) + log_beta(BetaParams(a2, b2))
    return ((lgamma(a1) + lgamma(b1) - lgamma(a1 + b1))
            + (lgamma(a2) + lgamma(b2) - lgamma(a2 + b2))
            - 2.0 * (lgamma(alpha_plus) + lgamma(alpha_minus)
                     - lgamma(alpha_plus + alpha_minus)))


def log_partition_prior(community_sizes, gamma_exp):
    """Log of the power-law partition prior, in product form.

    Each community of size s contributes log(gamma-1) - gamma * log(s);
    the overall normalization over partitions is unknown and dropped, so
    values are only comparable across partitions of the same graph.
    """
    if not gamma_exp > 1.0:
        raise ValueError(f"gamma_exp must exceed 1, got {gamma_exp}")
    total = 0.0
    log_gm1 = math.log(gamma_exp - 1.0)
    for s in community_sizes:
        if s < 1:
            raise ValueError(f"community sizes must be >= 1, got {s}")
        total += log_gm1 - gamma_exp * math.log(s)
    return total


def asbm_log_score(stats, N, M, priors):
    """Local SBM log score of one candidate community.

    The graph is taken as tiled by k = N/n communities that all look like the
    candidate, which extrapolates the four global counts from its n and w.
    The score is k log(gamma-1) - k gamma log(n) plus the marginal likelihood
    of those counts. A negative count describes no graph (ab+ < 0 when
    k*w > M: the community is denser than the tiling allows) and scores
    -inf, so it can never win an argmax.
    """
    n, w = stats.n, stats.w
    if n < 1:
        raise ValueError("community must have at least one node")
    if n > N:
        raise ValueError(f"community size {n} exceeds total node count {N}")
    if w > M:
        raise ValueError(f"community edge count {w} exceeds total edge count {M}")
    k = N / n
    counts = EdgeCounts.from_totals(k * w, k * n * (n - 1) / 2.0, M, N * (N - 1) / 2.0)
    if min(counts) < 0.0:
        return float("-inf")
    g = priors.gamma_exp
    prior_part = k * math.log(g - 1.0) - k * g * math.log(n)
    return prior_part + sbm_log_marginal(*counts, priors.alpha_plus, priors.alpha_minus)
