"""Byte-identity pins of the local search, recorded before its candidate
stats, local fit and aSBM counts became tuples and plain numbers.

The detect goldens were recorded on a seeded planted DCBM graph: members,
repr(log_score), every stats field, passes and restart_index. Each local
score is compared with == against a copy of the code it replaced (code
verbatim, docstrings cut to one line): the dataclass-based aDCBM fit and
bound, and the aSBM score over a frozen EdgeCounts, its clamped tilde counts
and the likelihood adapter. The random stats include degenerate, edgeless,
singleton and inconsistent ones.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from blockcomm.dcbm import (
    ROOT_MAX_STEPS,
    ROOT_RTOL,
    DcbmPriors,
    adcbm_local_fit,
    adcbm_log_score,
    local_bound_value,
)
from blockcomm.distributions import GammaParams
from blockcomm.generators import PlantedSpec, sample_dcbm
from blockcomm.graph import CommunityStats
from blockcomm.local_search import SearchConfig, detect
from blockcomm.rng import make_rng
from blockcomm.sbm import SbmPriors, asbm_log_score, sbm_log_marginal


# The reference: the fit, root and bound as they were before the change.
@dataclass(frozen=True)
class RefLocalDcbmState:
    """The local fit at its bound's maximum."""

    v_hat: float
    m_hat: float
    k_hat_sq: float
    theta_d: float
    lambda_in: GammaParams
    lambda_out: GammaParams
    k: float
    degenerate: bool = False
    converged: bool = True
    iterations: int = 0


def ref_slope_root(m_hat, a_in, p_in, a_out, p_out, theta):
    """Root on (0, theta] of the local bound's slope in log theta_d."""
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


def ref_adcbm_local_fit(stats, N, M, priors):
    """Fit the collapsed surrogate for one candidate community at its maximum."""
    alpha, theta = priors.alpha, priors.theta
    n, w, v = stats.n, stats.w, stats.v
    if M < w:
        raise ValueError(f"total edge count {M} is below the community's {w}")
    if v > 2 * M:
        raise ValueError(f"community volume {v} exceeds twice the edge count {M}")
    k = 2.0 * M / v if v > 0 else 0.0
    v_hat = v + n * alpha
    m_hat = 2.0 * M + N * alpha
    k_sq = stats.sumsq_alpha_d
    p_in = k * (v_hat * v_hat - k_sq)
    p_out = m_hat * m_hat - k * v_hat * v_hat
    if v <= 0 or k < 1.0 or p_out < 0.0:
        prior = GammaParams(alpha, theta)
        return RefLocalDcbmState(v_hat, m_hat, k_sq, theta, prior, prior, k, degenerate=True)
    a_in = alpha + k * w
    a_out = alpha + (M - k * w)
    td, steps, converged = ref_slope_root(m_hat, a_in, p_in, a_out, p_out, theta)
    td2 = td * td
    inv_t = 1.0 / theta
    return RefLocalDcbmState(v_hat, m_hat, k_sq, td,
                             GammaParams(a_in, 1.0 / (inv_t + p_in * td2 / 2.0)),
                             GammaParams(a_out, 1.0 / (inv_t + p_out * td2 / 2.0)), k,
                             converged=converged, iterations=steps)


def ref_local_bound_value(state, priors):
    """The collapsed variational bound at a fitted RefLocalDcbmState."""
    alpha, theta = priors.alpha, priors.theta
    td = state.theta_d
    lam_i, lam_b = state.lambda_in, state.lambda_out
    return (state.m_hat * (math.log(td) - td / theta)
            + math.lgamma(lam_i.shape) + lam_i.shape * math.log(lam_i.scale)
            + math.lgamma(lam_b.shape) + lam_b.shape * math.log(lam_b.scale)
            - 2.0 * (math.lgamma(alpha) + alpha * math.log(theta)))


def ref_adcbm_log_score(stats, N, M, priors):
    """Local DCBM log score: the bound's maximum plus the partition-prior part."""
    state = ref_adcbm_local_fit(stats, N, M, priors)
    if state.degenerate:
        return float("-inf")
    g = priors.gamma_exp
    prior_part = state.k * math.log(g - 1.0) - state.k * g * math.log(stats.n)
    return ref_local_bound_value(state, priors) + prior_part


SKEW = DcbmPriors(alpha=1.7, theta=0.6)

# (method, seed, rng_seed, priors) -> (sorted members, repr(log_score),
# (n, w, v, sumsq_alpha_d), passes, restart_index); restarts=4.
GOLDEN_DETECT = {
    ("asbm", 0, 0, None): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19),
        "-850.337109199256", (19, 153, 433, 11364.0), 4, 0),
    ("asbm", 23, 4, None): (
        (20, 21, 23, 24, 25, 26, 27, 29, 30, 31, 33, 35, 36, 37),
        "-1687.0689030361923", (14, 73, 256, 6086.0), 3, 0),
    ("asbm", 47, 9, None): (
        (40, 41, 42, 43, 44, 45, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59),
        "-1199.0379115752578", (19, 140, 392, 9715.0), 4, 0),
    ("asbm", 71, 2, None): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 71),
        "-1078.1967125395618", (20, 156, 451, 11725.0), 4, 2),
    ("asbm", 99, 13, None): (
        (80, 81, 82, 83, 84, 85, 86, 88, 92, 93, 96, 97, 98, 99),
        "-1453.436217783507", (14, 81, 286, 7532.0), 4, 1),
    ("adcbm", 0, 0, None): (
        (0, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39),
        "-7738.100216854153", (21, 119, 342, 7369.0), 4, 0),
    ("adcbm", 23, 4, None): (
        (20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39),
        "-7632.4139081746025", (20, 118, 324, 7008.0), 5, 0),
    ("adcbm", 47, 9, None): (
        (40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59),
        "-7734.103632500329", (20, 145, 397, 9751.0), 3, 1),
    ("adcbm", 71, 2, None): (
        (71, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99),
        "-7785.8979100210645", (20, 98, 304, 6360.0), 7, 1),
    ("adcbm", 99, 13, None): (
        (81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99),
        "-7679.84246095432", (19, 97, 286, 5999.0), 4, 0),
    ("adcbm", 5, 1, SKEW): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 32),
        "-8169.589746023251", (21, 165, 457, 12383.490000000002), 5, 0),
    ("adcbm", 64, 6, SKEW): (
        (60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79),
        "-7999.799561386204", (20, 123, 337, 7858.6), 4, 0),
}


def golden_graph():
    spec = PlantedSpec(communities=5, size=20, lambda_in=0.15, lambda_out=0.004,
                       model="dcbm", dcbm_alpha=2.0, dcbm_theta=2.0)
    return sample_dcbm(spec, make_rng(18))[0]


@pytest.mark.parametrize("case", list(GOLDEN_DETECT), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_detect_matches_golden(case):
    method, seed, rng_seed, priors = case
    members, score, stats, passes, restart = GOLDEN_DETECT[case]
    cfg = SearchConfig(method=method, restarts=4, rng_seed=rng_seed, priors=priors)
    got = detect(golden_graph(), seed, cfg)
    assert tuple(sorted(got.members)) == members
    assert repr(got.log_score) == score
    s = got.stats
    assert tuple(map(repr, (s.n, s.w, s.v, s.sumsq_alpha_d))) == tuple(map(repr, stats))
    assert (got.passes, got.restart_index) == (passes, restart)


def random_cases(count=600):
    """(stats, N, M, priors, kind) drawn from numpy seed 17.

    Kinds: consistent stats from a random degree sequence (singletons and
    edgeless sets among them), zero volume, a concentrated prior that makes
    the tiling inconsistent, an arbitrary sum of squares (a negative rate
    precision), and totals below the community's.
    """
    rng = np.random.default_rng(17)
    kinds = ["consistent"] * 6 + ["singleton", "edgeless", "zero-volume", "concentrated",
                                  "arbitrary-sumsq", "inconsistent-totals"]
    cases = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        alpha = float(rng.uniform(0.1, 10.0))
        if kind == "concentrated":
            alpha = float(rng.uniform(30.0, 80.0))
        priors = DcbmPriors(alpha=alpha, theta=float(rng.uniform(0.01, 10.0)),
                            gamma_exp=float(rng.uniform(1.05, 4.0)))
        n = 1 if kind == "singleton" else int(rng.integers(1, 60))
        top = {"zero-volume": 1, "concentrated": 4}.get(kind, 120)
        degs = rng.integers(1 if kind == "concentrated" else 0, top, size=n)
        v = int(degs.sum())
        w = 0
        if kind not in ("singleton", "edgeless", "zero-volume"):
            w = int(rng.integers(0, min(n * (n - 1) // 2, v // 2) + 1))
        sumsq = float(((alpha + degs) ** 2).sum())
        if kind == "arbitrary-sumsq":
            sumsq = float(rng.uniform(0.0, 4.0)) * (v + n * alpha) ** 2
        N = float(rng.integers(n, 5000)) if i % 2 else int(rng.integers(n, 5000))
        M = float(rng.uniform(max(w, v / 2.0), 40.0 * N + v))
        if kind == "concentrated":
            N = float(n + rng.integers(0, 10))
            M = float(rng.uniform(max(w, v / 2.0), 30.0 * n))
        if kind == "inconsistent-totals":
            M = float(rng.uniform(0.0, max(w, v / 2.0)))
        cases.append((CommunityStats(n, w, v, sumsq), N, M, priors, kind))
    return cases


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_score_equals_the_dataclass_fit_and_bound():
    seen = {"degenerate": 0, "raised": 0, "edgeless": 0, "singleton": 0, "solved": 0}
    for stats, N, M, priors, _ in random_cases():
        want = outcome(ref_adcbm_log_score, stats, N, M, priors)
        got = outcome(adcbm_log_score, stats, N, M, priors)
        assert got == want, (stats, N, M, priors)
        if isinstance(want, str):
            seen["raised"] += 1
            continue
        fit, ref = adcbm_local_fit(stats, N, M, priors), ref_adcbm_local_fit(stats, N, M, priors)
        assert (fit.v_hat, fit.m_hat, fit.k_hat_sq, fit.theta_d, fit.k) == (
            ref.v_hat, ref.m_hat, ref.k_hat_sq, ref.theta_d, ref.k)
        assert (fit.a_in, fit.s_in, fit.a_out, fit.s_out) == (
            ref.lambda_in.shape, ref.lambda_in.scale, ref.lambda_out.shape, ref.lambda_out.scale)
        assert (fit.degenerate, fit.converged, fit.iterations) == (
            ref.degenerate, ref.converged, ref.iterations)
        if ref.degenerate:
            seen["degenerate"] += 1
            continue
        assert local_bound_value(fit, priors) == ref_local_bound_value(ref, priors)
        seen["solved"] += 1
        seen["edgeless"] += stats.w == 0
        seen["singleton"] += stats.n == 1
    assert min(seen.values()) >= 20, seen


# The aSBM reference: the counts, tiling and adapter as they were before the
# score moved to plain numbers.
@dataclass(frozen=True)
class RefEdgeCounts:
    """Within/between edge and non-edge totals."""

    ai_plus: float
    ai_minus: float
    ab_plus: float
    ab_minus: float
    degenerate: bool = False

    @staticmethod
    def from_totals(within_edges, within_pairs, edges, pairs):
        """Counts of a partition from its within-community edge and pair totals."""
        between_edges = edges - within_edges
        return RefEdgeCounts(within_edges, within_pairs - within_edges, between_edges,
                             pairs - within_pairs - between_edges)


def ref_sbm_log_likelihood(counts, priors):
    """sbm_log_marginal of an EdgeCounts under SbmPriors."""
    return sbm_log_marginal(counts.ai_plus, counts.ai_minus, counts.ab_plus,
                            counts.ab_minus, priors.alpha_plus, priors.alpha_minus)


def ref_asbm_tilde_counts(stats, N, M):
    """Approximate global EdgeCounts from one community's statistics."""
    n, w = stats.n, stats.w
    if n < 1:
        raise ValueError("community must have at least one node")
    if n > N:
        raise ValueError(f"community size {n} exceeds total node count {N}")
    if w > M:
        raise ValueError(f"community edge count {w} exceeds total edge count {M}")
    k = N / n
    tilde = RefEdgeCounts.from_totals(k * w, k * n * (n - 1) / 2.0, M, N * (N - 1) / 2.0)
    values = (tilde.ai_plus, tilde.ai_minus, tilde.ab_plus, tilde.ab_minus)
    return RefEdgeCounts(*(max(v, 0.0) for v in values), degenerate=min(values) < 0.0), k


def ref_asbm_log_score(stats, N, M, priors):
    """Local SBM log score of one candidate community."""
    counts, k = ref_asbm_tilde_counts(stats, N, M)
    if counts.degenerate:
        return float("-inf")
    g = priors.gamma_exp
    prior_part = k * math.log(g - 1.0) - k * g * math.log(stats.n)
    return prior_part + ref_sbm_log_likelihood(counts, priors)


ASBM_PRIORS = [SbmPriors(), SbmPriors(alpha_plus=0.3, alpha_minus=2.5)]


def asbm_cases(count=1200):
    """(stats, N, M, priors, kind) drawn from numpy seed 23.

    Kinds: realizable tilings (N/n mostly fractional), singletons, tilings
    denser than the graph (k w > M, so ab+ < 0, some barely), more within
    edges than pairs (w > n(n-1)/2, so ai- < 0), more edges than the
    between pairs hold (ab- < 0), and the three rejected inputs: an empty
    community, one larger than the graph, and one with more edges.
    """
    rng = np.random.default_rng(23)
    kinds = ["realizable"] * 4 + ["singleton", "dense", "inconsistent", "crowded",
                                  "empty", "oversized", "edge-surplus"]
    cases = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        priors = ASBM_PRIORS[i % 2]
        if i % 4 >= 2:
            priors = SbmPriors(priors.alpha_plus, priors.alpha_minus,
                               gamma_exp=float(rng.uniform(1.05, 4.0)))
        n = {"singleton": 1, "empty": 0}.get(kind, int(rng.integers(2, 60)))
        pairs = n * (n - 1) // 2
        w = int(rng.integers(0, pairs + 1))
        if kind in ("dense", "edge-surplus"):
            w = int(rng.integers(1, pairs + 1))
        elif kind == "inconsistent":
            w = pairs + int(rng.integers(1, 50))
        N = int(rng.integers(max(n, 1) + 1, 5000))
        k = N / max(n, 1)
        # Between pairs of the tiling: N(N-1)/2 - k n(n-1)/2.
        between = N * (N - n) / 2.0
        M = k * w + float(rng.uniform(0.0, 0.9)) * min(20.0 * N, between)
        if kind == "dense":
            M = float(rng.uniform(w, k * w))
            if i % 2 == 0:
                # Within one edge of k w, where ab+ is barely negative.
                M = max(w, k * w - float(rng.uniform(0.0, 1.0)))
        elif kind == "crowded":
            M = k * w + between + float(rng.uniform(1.0, 100.0))
        elif kind == "oversized":
            N = int(rng.integers(1, n))
        elif kind == "edge-surplus":
            M = float(rng.uniform(0.0, w))
        if i % 3 == 0:
            N = float(N)
            if kind in ("realizable", "singleton", "inconsistent", "crowded"):
                M = math.ceil(M)
        cases.append((CommunityStats(n, w, 0, 0.0), N, M, priors, kind))
    return cases


def test_asbm_score_equals_the_dataclass_counts_and_adapter():
    seen = {"raised": 0, "-inf": 0, "finite": 0, "singleton": 0, "fractional-k": 0}
    for stats, N, M, priors, kind in asbm_cases():
        want = outcome(ref_asbm_log_score, stats, N, M, priors)
        got = outcome(asbm_log_score, stats, N, M, priors)
        assert got == want, (stats, N, M, priors, kind)
        if isinstance(want, str):
            seen["raised"] += 1
            assert kind in ("empty", "oversized", "edge-surplus"), (kind, want)
        elif want == float("-inf"):
            seen["-inf"] += 1
            assert kind in ("dense", "inconsistent", "crowded"), kind
        else:
            seen["finite"] += 1
            assert kind in ("realizable", "singleton"), kind
            seen["singleton"] += stats.n == 1
            seen["fractional-k"] += N % stats.n != 0
    assert min(seen.values()) >= 100, seen
