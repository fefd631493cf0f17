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
At one community a candidate's n and w depend only on its links, and its v
and sumsq_alpha_d also on its degree. A score reads some of these fields
(SCORE_READS), so a frontier node's class of the fields the score reads is
its links when the score reads only n and w (aSBM), and its (links,
degree) otherwise (aDCBM, and any scorer passed without that knowledge).
An expansion skips a frontier node whose class has already lost there; the
set of lost classes empties whenever the community changes. Restarts from
one seed offer many of the same candidates again, so detect scores each
distinct value of the fields read once per call.

A candidate is a CommunityStats named tuple built by add_node_delta; the
memo keys on a plain tuple of its fields, hashed and compared in C.
add_node_delta and the two scores are looked up as module globals at each
call, never bound once in a closure, so a wrapper installed on this
module's names (a tracer, a test's monkeypatch) sees every call.
"""

import warnings
from dataclasses import dataclass
from operator import itemgetter

from .dcbm import DcbmPriors, adcbm_log_score, formal_n_totals
from .graph import CommunityStats, add_node_delta, community_stats
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
# memo and choose the skip's classes: asbm_log_score reads n and w only,
# adcbm_log_score all four fields.
SCORE_READS = {"asbm": ("n", "w"), "adcbm": CommunityStats._fields}
# The fields a candidate's degree sets; a score that reads neither prices
# frontier nodes by their links alone.
_DEGREE_FIELDS = {"v", "sumsq_alpha_d"}


def _grow(graph, members, links, u):
    """Add frontier node u to members and move its edges into links."""
    members.add(u)
    del links[u]
    get = links.get
    for x in graph.neighbors(u).tolist():
        if x not in members:
            links[x] = get(x, 0) + 1


def _first_step(graph, members, links, stats, score, scorer, alpha, priced, reads_degree):
    """Leave a bare seed whose every single addition scores below it.

    Adds the best-scoring frontier node (the lowest id among ties), even at
    a loss, up to FIRST_STEP_CAP times, on copies of members and links.
    Nodes of one class of the fields the score reads (links, with the
    degree when reads_degree) score alike, so each step prices only its
    lowest id; the first step takes its classes' scores from priced
    ({class: score} at the bare seed) instead of pricing them again.

    Returns:
        (members, links, stats, score) of the first prefix that scores above
        score, or None when no prefix within the cap does.
    """
    members, links = set(members), dict(links)
    for _ in range(FIRST_STEP_CAP):
        lowest = {}
        for u in sorted(links):
            lowest.setdefault((links[u], graph.degree(u)) if reads_degree else links[u], u)
        best = None
        for cls, u in lowest.items():
            cand_score = priced.get(cls)
            if cand_score is None:
                cand_score = scorer(add_node_delta(stats, graph, u, links[u], alpha))
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


def greedy_expand(graph, seed, scorer, rng, alpha=1.0, reads_degree=True):
    """One greedy expansion from a single seed node.

    A pass that adds nothing ends the expansion, except when the community
    is still the bare seed: then the first-step fallback (_first_step) adds
    the best frontier nodes even at a loss, adopts the first prefix that
    scores above the seed, and the passes resume from it. A score's
    per-community prior can make every pair score below the seed even when
    the seed's whole community scores above it.

    A frontier node whose class of the fields the score reads already lost
    at the current community is skipped without building its stats: it
    would build the same values of those fields and, for a pure scorer, get
    the same score. The class is (links, degree), or links alone when
    reads_degree is False.

    Args:
        graph: Graph.
        seed: dense node index to grow from.
        scorer: callable CommunityStats -> float (higher is better); a pure
            function of the stats, which the skip relies on.
        rng: numpy Generator driving the frontier shuffles.
        alpha: Gamma shape used in the incremental sufficient statistics.
        reads_degree: False only for a scorer that reads neither v nor
            sumsq_alpha_d, the two fields a candidate's degree sets.

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
    links = {}
    for x in graph.neighbors(seed).tolist():
        links[x] = links.get(x, 0) + 1
    # Class -> its losing score at the current community: any node of that
    # class would build the same values of the fields read there and lose
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
            cls = (link, graph.degree(u)) if reads_degree else link
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
                                    rejected, reads_degree)
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
    scored once per call and reused by every restart, and each expansion
    skips by the class of those fields; the result is the same as scoring
    every candidate afresh.

    Raises:
        ValueError: if seed is outside [0, N) (greedy_expand checks it
        before the first candidate).
    """
    score_of, alpha = make_scorer(graph, cfg)
    reads = SCORE_READS[cfg.method]
    key_of = itemgetter(*map(CommunityStats._fields.index, reads))
    reads_degree = not _DEGREE_FIELDS.isdisjoint(reads)
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
        result = greedy_expand(graph, seed, scorer, rng, alpha=alpha,
                               reads_degree=reads_degree)
        result.restart_index = r
        if best is None or result.log_score > best.log_score:
            best = result
    return best
