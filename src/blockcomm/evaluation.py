"""Metrics and the randomized evaluation protocol.

One evaluation sample draws a ground-truth community, then a seed inside
it, runs detection from that seed, and scores the recovered set against the
truth with the seed excluded from both sides (the seed is given, so finding
it carries no information).
"""

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .graph import community_stats
from .local_search import detect
from .rng import derived_rng


@dataclass
class EvalRow:
    """One protocol sample's metrics."""

    method: str
    seed: int
    truth_size: int
    found_size: int
    precision: float
    recall: float
    f1: float
    conductance: float
    elapsed: float
    error: str = ""


def _seed_excluded(found, truth, seed):
    if seed not in found:
        raise ValueError(f"seed {seed} missing from the recovered set")
    if seed not in truth:
        raise ValueError(f"seed {seed} missing from the ground-truth set")
    return found - {seed}, truth - {seed}


def precision_recall_excluding_seed(found, truth, seed):
    """Seed-excluded (precision, recall); empty sides score 0."""
    f, t = _seed_excluded(found, truth, seed)
    inter = len(f & t)
    precision = inter / len(f) if f else 0.0
    recall = inter / len(t) if t else 0.0
    return precision, recall


def f1_excluding_seed(found, truth, seed):
    """Seed-excluded F1 = 2|f n t| / (|f| + |t|).

    Both sets empty after removing the seed (singleton vs singleton) is
    defined as 0 and flagged with a warning.
    """
    f, t = _seed_excluded(found, truth, seed)
    if not f and not t:
        warnings.warn("both sets are singletons; seed-excluded F1 defined as 0")
        return 0.0
    return 2.0 * len(f & t) / (len(f) + len(t))


def conductance(graph, members):
    """Cut over volume of a node set: (v - 2w) / v.

    Raises:
        ValueError: on an empty or zero-volume set.
    """
    if not members:
        raise ValueError("conductance requires a non-empty node set")
    stats = community_stats(graph, members)
    if stats.v == 0:
        raise ValueError("conductance is undefined for a zero-volume set")
    return stats_conductance(stats)


def stats_conductance(stats):
    """Conductance (v - 2w) / v of a CommunityStats; 1.0 at zero volume."""
    return (stats.v - 2 * stats.w) / stats.v if stats.v > 0 else 1.0


def _sample_indices(n_truths, samples, rng):
    """Community draw order: without replacement until the pool runs out."""
    order = [int(i) for i in rng.permutation(n_truths)]
    picks = order[:samples]
    while len(picks) < samples:
        picks.append(int(rng.integers(n_truths)))
    return picks


def run_protocol(graph, truths, cfg, samples, rng, detector=None):
    """Run the sampling protocol and score each detection.

    Args:
        graph: Graph.
        truths: list of ground-truth node sets (dense indices).
        cfg: SearchConfig for detect (its rng_seed is re-derived per sample).
        samples: number of (community, seed) draws.
        rng: generator for the draws; per-sample detection streams are
            derived from it so rows are independent and reproducible.
        detector: optional override, callable (graph, seed, sample_rng) ->
            node set; scores external communities (rows read "external").

    Returns:
        (rows, summary) where summary maps metric names to mean/stderr. A
        sample whose detection or scoring raises ValueError becomes a failed
        row whose error reads "ValueError: <message>"; any other exception
        propagates.

    Raises:
        ValueError: on an empty truth list or samples < 1.
    """
    if not truths:
        raise ValueError("run_protocol requires a non-empty truth list")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rows = []
    picks = _sample_indices(len(truths), samples, rng)
    method = cfg.method if detector is None else "external"
    for sample_index, t_idx in enumerate(picks):
        truth = truths[t_idx]
        members_sorted = sorted(truth)
        seed = members_sorted[int(rng.integers(len(members_sorted)))]
        sample_seed = int(rng.integers(2 ** 62))
        start = time.perf_counter()
        try:
            if detector is not None:
                found = set(detector(graph, seed, derived_rng(sample_seed, 0)))
            else:
                found = detect(graph, seed, replace(cfg, rng_seed=sample_seed)).members
            elapsed = time.perf_counter() - start
            if seed not in found:
                raise ValueError(f"seed {graph.external_ids[seed]} missing from "
                                 "the recovered set")
            precision, recall = precision_recall_excluding_seed(found, truth, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                f1 = f1_excluding_seed(found, truth, seed)
            cond = stats_conductance(community_stats(graph, found))
            rows.append(EvalRow(method, seed, len(truth), len(found),
                                precision, recall, f1, cond, elapsed))
        except ValueError as exc:  # domain failures are recorded, not fatal
            elapsed = time.perf_counter() - start
            rows.append(EvalRow(method, seed, len(truth), 0, 0.0, 0.0, 0.0, 1.0,
                                elapsed, error=f"{type(exc).__name__}: {exc}"))
    return rows, summarize(rows)


def summarize(rows):
    """Mean/standard-error summary over non-failed rows."""
    ok = [r for r in rows if not r.error]
    failed = len(rows) - len(ok)

    def mean_se(values):
        arr = np.asarray(values, dtype=float)
        if len(arr) == 0:
            return 0.0, 0.0
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return float(arr.mean()), se

    summary = {"method": ok[0].method if ok else (rows[0].method if rows else ""),
               "samples": len(rows), "failed": failed}
    for name in ("f1", "precision", "recall", "conductance"):
        m, se = mean_se([getattr(r, name) for r in ok])
        summary[f"mean_{name}"] = m
        summary[f"stderr_{name}"] = se
    summary["mean_truth_size"], _ = mean_se([r.truth_size for r in ok])
    summary["mean_found_size"], _ = mean_se([r.found_size for r in ok])
    summary["mean_elapsed"], _ = mean_se([r.elapsed for r in ok])
    return summary
