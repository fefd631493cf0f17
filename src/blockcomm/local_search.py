"""Greedy seed expansion under either local score, with restarts.

The search grows a community from the seed by repeatedly scanning the
frontier (neighbors of current members) in a shuffled order and keeping any
node whose addition strictly improves the score. It touches only members,
the frontier, and the frontier's neighbors, so the cost scales with the
recovered community's volume rather than the graph size. Restarts from
one seed, and the repeated scans of a frontier, offer many of the same
candidates, so detect scores each distinct candidate once per call.
"""

import time
import warnings
from dataclasses import dataclass

from .dcbm import DcbmPriors, adcbm_log_score, formal_n_totals
from .graph import add_node_delta, singleton_stats
from .rng import derived_rng
from .sbm import SbmPriors, asbm_log_score


@dataclass
class SearchConfig:
    """Knobs of one detection run.

    method: 'asbm' or 'adcbm'. priors defaults to the uninformative bundle
    of the chosen method. formal_N rescales the score's totals (resolution
    control); None uses the actual graph totals.
    """

    method: str = "adcbm"
    restarts: int = 10
    rng_seed: int = 0
    formal_N: int | None = None
    max_passes: int = 100
    priors: object = None

    def __post_init__(self):
        if self.method not in ("asbm", "adcbm"):
            raise ValueError(f"unknown method {self.method!r}; expected 'asbm' or 'adcbm'")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.formal_N is not None and self.formal_N < 1:
            raise ValueError(f"formal_N must be >= 1, got {self.formal_N}")
        if self.priors is None:
            self.priors = SbmPriors() if self.method == "asbm" else DcbmPriors()


@dataclass
class DetectionResult:
    """Recovered community plus bookkeeping of the search run."""

    members: set
    log_score: float
    stats: object
    restart_index: int = 0
    passes: int = 0
    elapsed: float = 0.0


def greedy_expand(graph, seed, scorer, rng, alpha=1.0, max_passes=100):
    """One greedy expansion from a single seed node.

    Args:
        graph: Graph.
        seed: dense node index to grow from.
        scorer: callable CommunityStats -> float (higher is better).
        rng: numpy Generator driving the frontier shuffles.
        alpha: Gamma shape used in the incremental sufficient statistics.
        max_passes: hard cap on frontier sweeps.

    Returns:
        DetectionResult. An isolated seed returns its singleton with a
        warning instead of failing.
    """
    start = time.perf_counter()
    stats = singleton_stats(graph, seed, alpha)
    score = scorer(stats)
    members = {seed}
    if graph.degree(seed) == 0:
        warnings.warn(f"seed node {seed} is isolated; returning the singleton")
        return DetectionResult({seed}, score, stats, passes=0,
                               elapsed=time.perf_counter() - start)

    frontier = set(int(j) for j in graph.neighbors(seed))
    passes = 0
    while passes < max_passes:
        passes += 1
        order = sorted(frontier)
        rng.shuffle(order)
        added_any = False
        for u in order:
            if u in members:
                continue
            cand = add_node_delta(stats, graph, u, members, alpha)
            cand_score = scorer(cand)
            if cand_score > score:
                members.add(u)
                stats = cand
                score = cand_score
                added_any = True
                frontier.discard(u)
                for x in graph.neighbors(u):
                    x = int(x)
                    if x not in members:
                        frontier.add(x)
        if not added_any:
            break
    return DetectionResult(members, score, stats, passes=passes,
                           elapsed=time.perf_counter() - start)


def make_scorer(graph, cfg):
    """Build (scorer, alpha) for a config, honoring formal_N totals."""
    if cfg.formal_N is not None:
        N, M = formal_n_totals(graph, cfg.formal_N)
    else:
        N, M = float(graph.node_count), float(graph.edge_count)
    if cfg.method == "asbm":
        priors = cfg.priors
        return (lambda stats: asbm_log_score(stats, N, M, priors)), 1.0
    priors = cfg.priors
    return (lambda stats: adcbm_log_score(stats, N, M, priors)), priors.alpha


def detect(graph, seed, cfg):
    """Best-of-restarts greedy detection.

    Restart r draws its shuffles from the stream rng_seed XOR r; ties in the
    final score go to the lower restart index, which keeps the outcome
    deterministic even if restarts were run concurrently. Each distinct
    candidate is scored once per call: the score is a pure function of the
    candidate's CommunityStats, so restarts and repeated frontier scans reuse
    it, and the result is the same as scoring every candidate afresh.
    """
    score_of, alpha = make_scorer(graph, cfg)
    memo = {}

    def scorer(stats):
        score = memo.get(stats)
        if score is None:
            score = memo[stats] = score_of(stats)
        return score

    best = None
    for r in range(cfg.restarts):
        rng = derived_rng(cfg.rng_seed, r)
        result = greedy_expand(graph, seed, scorer, rng,
                               alpha=alpha, max_passes=cfg.max_passes)
        result.restart_index = r
        if best is None or result.log_score > best.log_score:
            best = result
    return best
