"""Greedy seed expansion under either local score, with restarts.

The search grows a community from the seed by repeatedly scanning the
frontier (neighbors of current members) in a shuffled order and keeping any
node whose addition strictly improves the score. Each frontier node carries
its count of edges into the community, so a candidate's stats cost O(1).
The search reads only the members' neighbor lists and the frontier's
degrees, so its cost scales with the recovered community's volume rather
than the graph size. A search stalled at the bare seed tries a few losing
first additions before it gives up (the first-step fallback of
greedy_expand), since a score's per-community prior can price every pair
below the seed.

Most candidates repeat work already done, and two exact reductions skip it.
At one community a candidate's stats depend only on its (links, degree)
class, so an expansion skips a frontier node whose class has already lost
there; the set of lost classes empties whenever the community changes.
Restarts from one seed offer many of the same candidates again, and many
candidates differ only in fields their score does not read, so detect
scores each distinct value of those fields (SCORE_READS) once per call.

A candidate is a CommunityStats named tuple built by add_node_delta; the
memo keys on a plain tuple of its fields, hashed and compared in C.
add_node_delta and the two scores are looked up as module globals at each
call, never bound once in a closure, so a wrapper installed on this
module's names (a tracer, a test's monkeypatch) sees every call.
"""

import warnings
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .dcbm import DcbmPriors, adcbm_log_score, formal_n_totals
from .graph import add_node_delta, community_stats
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


# Frontier passes one greedy expansion may make, and additions its
# first-step fallback may make from a bare seed, at a loss.
MAX_PASSES = 100
FIRST_STEP_CAP = 4

# The CommunityStats fields each method's score reads, which key detect's
# memo: asbm_log_score reads n and w only, adcbm_log_score all four fields.
SCORE_READS = {"asbm": itemgetter(0, 1), "adcbm": itemgetter(0, 1, 2, 3)}


def _grow(graph, members, links, u):
    """Add frontier node u to members and move its edges into links."""
    members.add(u)
    del links[u]
    for x in graph.neighbors(u).tolist():
        if x not in members:
            links[x] += 1


def _first_step(graph, members, links, stats, score, scorer, alpha, priced):
    """Leave a bare seed whose every single addition scores below it.

    Adds the best-scoring frontier node (the lowest id among ties), even at
    a loss, up to FIRST_STEP_CAP times, on copies of members and links.
    Nodes of one (links, degree) class score alike, so each step prices
    only its lowest id; the first step takes its classes' scores from
    priced ({class: score} at the bare seed) instead of pricing them again.

    Returns:
        (members, links, stats, score) of the first prefix that scores above
        score, or None when no prefix within the cap does.
    """
    members, links = set(members), Counter(links)
    for _ in range(FIRST_STEP_CAP):
        lowest = {}
        for u in sorted(links):
            lowest.setdefault((links[u], graph.degree(u)), u)
        best = None
        for cls, u in lowest.items():
            cand_score = priced.get(cls)
            if cand_score is None:
                cand_score = scorer(add_node_delta(stats, graph, u, cls[0], alpha))
            if best is None or cand_score > best[0]:
                best = (cand_score, u)
        if best is None:
            return None
        cand_score, u = best
        stats = add_node_delta(stats, graph, u, links[u], alpha)
        _grow(graph, members, links, u)
        if cand_score > score:
            return members, links, stats, cand_score
        priced = {}
    return None


def greedy_expand(graph, seed, scorer, rng, alpha=1.0):
    """One greedy expansion from a single seed node.

    A pass that adds nothing ends the expansion, except when the community
    is still the bare seed: then the first-step fallback (_first_step) adds
    the best frontier nodes even at a loss, adopts the first prefix that
    scores above the seed, and the passes resume from it. A score's
    per-community prior can make every pair score below the seed even when
    the seed's whole community scores above it.

    A frontier node whose (links, degree) class already lost at the current
    community is skipped without building its stats: it would build the
    same stats and, for a pure scorer, get the same score.

    Args:
        graph: Graph.
        seed: dense node index to grow from.
        scorer: callable CommunityStats -> float (higher is better); a pure
            function of the stats, which the skip relies on.
        rng: numpy Generator driving the frontier shuffles.
        alpha: Gamma shape used in the incremental sufficient statistics.

    Returns:
        DetectionResult. An isolated seed returns its singleton with a
        warning, naming its external id, instead of failing.

    Raises:
        ValueError: if seed is outside [0, N).
    """
    if not 0 <= seed < graph.node_count:
        raise ValueError(f"seed {seed} is outside [0, {graph.node_count})")
    stats = community_stats(graph, {seed}, alpha)
    score = scorer(stats)
    members = {seed}
    if graph.degree(seed) == 0:
        warnings.warn(f"seed node {graph.external_ids[seed]} is isolated; "
                      "returning the singleton")
        return DetectionResult({seed}, score, stats, passes=0)

    # Frontier node -> number of its edges into the community.
    links = Counter(graph.neighbors(seed).tolist())
    # (links, degree) class -> its losing score at the current community:
    # any node of such a class would build the same stats there and lose
    # again.
    rejected = {}
    passes = 0
    while passes < MAX_PASSES:
        passes += 1
        order = sorted(links)
        rng.shuffle(order)
        added_any = False
        for u in order:
            link = links[u]
            cls = (link, graph.degree(u))
            if cls in rejected:
                continue
            cand = add_node_delta(stats, graph, u, link, alpha)
            cand_score = scorer(cand)
            if cand_score > score:
                _grow(graph, members, links, u)
                stats = cand
                score = cand_score
                added_any = True
                rejected.clear()
            else:
                rejected[cls] = cand_score
        if not added_any:
            grown = None
            if len(members) == 1:
                grown = _first_step(graph, members, links, stats, score, scorer, alpha,
                                    rejected)
            if grown is None:
                break
            members, links, stats, score = grown
            rejected.clear()
    return DetectionResult(members, score, stats, passes=passes)


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
    deterministic even if restarts were run concurrently. The score is a
    pure function of the CommunityStats fields it reads (SCORE_READS: n and
    w for aSBM, all four for aDCBM), so each distinct value of them is
    scored once per call and reused by every restart; the result is the
    same as scoring every candidate afresh.

    Raises:
        ValueError: if seed is outside [0, N) (greedy_expand checks it
        before the first candidate).
    """
    score_of, alpha = make_scorer(graph, cfg)
    key_of = SCORE_READS[cfg.method]
    memo = {}

    def scorer(stats):
        key = key_of(stats)
        score = memo.get(key)
        if score is None:
            score = memo[key] = score_of(stats)
        return score

    best = None
    for r in range(cfg.restarts):
        rng = derived_rng(cfg.rng_seed, r)
        result = greedy_expand(graph, seed, scorer, rng, alpha=alpha)
        result.restart_index = r
        if best is None or result.log_score > best.log_score:
            best = result
    return best
