"""Run one workload in this process: set up, run operations, check, measure.

Started by run.py in a fresh child process per workload, with the BLAS
thread counts pinned to 1. Prints one JSON record as its last stdout line.
One caller, one thread, closed loop: each operation starts when the
previous one has returned and its output has been checked.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import layers
import measure
import tracing
from workloads import WORKLOADS

RESTARTS = 10  # the CLI default
SETUP_REPEATS = 15
MAX_REPORTED_ERRORS = 5


class CheckFailed(Exception):
    """An operation returned an output that fails the benchmark's checks."""


def import_program(root):
    """Import blockcomm from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import blockcomm

    if not Path(blockcomm.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"blockcomm imported from {blockcomm.__file__}, not {src}")
    return blockcomm


def read_ops(path):
    with open(path) as fh:
        return [tuple(int(x) for x in line.split("\t")) for line in fh]


def best_match_f1(assignment, sizes, truth):
    """Mean over planted communities of the F1 of their best-matching community."""
    scores = []
    for members in truth:
        inter = np.bincount(assignment[sorted(members)], minlength=len(sizes))
        scores.append(float((2.0 * inter / (len(members) + sizes)).max()))
    return statistics.fmean(scores)


class LocalOps:
    """detect() from a seed drawn inside a planted community."""

    def __init__(self, bc, graph, truth, method):
        self.bc, self.graph, self.truth, self.method = bc, graph, truth, method
        # The Gamma shape the search's incremental stats use (make_scorer).
        self.alpha = bc.DcbmPriors().alpha if method == "adcbm" else 1.0

    def prepare(self, op):
        _, seed_ext, rng_seed = op
        seed = self.graph.node_labels[seed_ext]
        cfg = self.bc.SearchConfig(method=self.method, restarts=RESTARTS, rng_seed=rng_seed)
        return lambda: self.bc.detect(self.graph, seed, cfg)

    def check(self, op, result):
        """(F1, description length, canonical output line); raises CheckFailed."""
        community, seed_ext, _ = op
        graph = self.graph
        seed = graph.node_labels[seed_ext]
        problems = []
        if seed not in result.members:
            problems.append(f"seed {seed_ext} not in the result")
        else:
            want = self.bc.community_stats(graph, result.members, self.alpha)
            got = (result.stats.n, result.stats.w, result.stats.v)
            if got != (want.n, want.w, want.v):
                problems.append(f"stats {got} != recomputed {(want.n, want.w, want.v)}")
        if not math.isfinite(result.log_score):
            problems.append(f"log_score {result.log_score}")
        if problems:
            raise CheckFailed("; ".join(problems))
        f1 = self.bc.f1_excluding_seed(result.members, self.truth[community], seed)
        members = sorted(graph.external_ids[i] for i in result.members)
        return f1, -result.log_score, f"{seed_ext} {result.log_score!r} {members}"


class GlobalOps:
    """louvain() followed by objective_value() on its partition."""

    def __init__(self, bc, graph, truth, method):
        self.bc, self.graph, self.truth, self.method = bc, graph, truth, method
        self.priors = bc.SbmPriors() if method == "gsbm" else bc.DcbmPriors()

    def prepare(self, op):
        rng = np.random.default_rng(op[0])

        def run():
            partition = self.bc.louvain(self.graph, self.method, self.priors, rng)
            value = self.bc.objective_value(self.graph, partition, self.method, self.priors)
            return partition, value
        return run

    def check(self, op, output):
        partition, value = output
        assignment = np.asarray(partition.assignment)
        sizes = np.asarray(partition.sizes)
        problems = []
        if assignment.shape != (self.graph.node_count,):
            problems.append(f"assignment covers {assignment.size} of "
                            f"{self.graph.node_count} nodes")
        elif len(sizes) == 0 or assignment.min() < 0 or assignment.max() >= len(sizes):
            problems.append("community ids outside 0..k-1")
        elif not np.array_equal(np.bincount(assignment, minlength=len(sizes)), sizes) \
                or (sizes == 0).any():
            problems.append("community ids are not dense or sizes disagree")
        if not math.isfinite(value):
            problems.append(f"objective {value}")
        if problems:
            raise CheckFailed("; ".join(problems))
        f1 = best_match_f1(assignment, sizes, self.truth)
        return f1, -value, f"{value!r} {assignment.tolist()}"


def run_ops(runner, ops, seconds, min_ops):
    """Closed loop over ops for `seconds` and at least `min_ops` operations.

    Returns one record per attempted operation. Checks run outside the
    timed interval; an exception or a failed check makes a failed record.
    """
    records = []
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        op = ops[len(records) % len(ops)]
        elapsed = None
        try:
            call = runner.prepare(op)
            t0 = time.perf_counter()
            output = call()
            elapsed = time.perf_counter() - t0
            f1, desc_len, line = runner.check(op, output)
        except Exception as exc:  # noqa: BLE001 - counted, reported, exits non-zero
            records.append({"elapsed": elapsed, "error": f"{type(exc).__name__}: {exc}",
                            "trace": traceback.format_exc(), "line": "ERROR"})
            continue
        records.append({"elapsed": elapsed, "f1": f1, "desc_len": desc_len, "line": line,
                        "error": None})
    return records


def op_times(records):
    """Per-operation seconds; a failed operation misses every limit (inf)."""
    return [r["elapsed"] if r["error"] is None else math.inf for r in records]


def digest(records, count):
    text = "\n".join(r["line"] for r in records[:count])
    return hashlib.sha256(text.encode()).hexdigest()


def finite_or_none(x):
    return x if math.isfinite(x) else None


def end_to_end(records, setup_times, peak_rss_mb, tail_pct):
    ok = [r for r in records if r["error"] is None]
    times = op_times(records)
    tail_value, tail_beyond = measure.tail(times, tail_pct)
    busy = sum(r["elapsed"] for r in records if r["elapsed"] is not None)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (finite_or_none(statistics.median(times)), "s"),
        "op_tail_s": (finite_or_none(tail_value), "s"),
        "ops_per_s": (len(ok) / busy if busy else 0.0, "1/s"),
        "f1_mean": (statistics.fmean(r["f1"] for r in ok) if ok else 0.0, "ratio"),
        "desc_len_nats": (statistics.fmean(r["desc_len"] for r in ok) if ok else 0.0, "nats"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"op_tail_percentile": tail_pct, "op_tail_beyond": tail_beyond,
             "op_tail_rule_percentile": measure.tail_percentile(len(times)),
             "op_quartiles_s": [finite_or_none(q) for q in measure.quartiles(times)],
             "setup_times_s": setup_times}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def load_graph(bc, path):
    with open(path) as fh:
        return bc.load_edge_list(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    bc = import_program(args.root)
    edges = args.inputs / "graph.edges"

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        graph = load_graph(bc, edges)
        setup_times.append(time.perf_counter() - t0)
    with open(args.inputs / "truth.cmty") as fh:
        truth = bc.load_communities(fh, graph, min_size=1)
    ops = read_ops(args.inputs / "ops.tsv")
    runner_cls = LocalOps if wl.kind == "local" else GlobalOps
    runner = runner_cls(bc, graph, truth, wl.method)

    if args.trace:
        records = run_ops(runner, ops, 0.0, wl.fixed_ops)
        tracer = tracing.Tracer()
        with tracing.patched(tracer, layers.TARGETS) as absent:
            traced_graph = load_graph(bc, edges)
            traced = run_ops(runner_cls(bc, traced_graph, truth, wl.method), ops, 0.0,
                             wl.fixed_ops)
        for i, (a, b) in enumerate(zip(records, traced)):
            if b["error"] is None and a["line"] != b["line"]:
                b["error"] = f"CheckFailed: traced output of operation {i} differs"
                b["line"] = "ERROR"
        metrics = layers.layer_metrics(
            tracer, wl.fixed_ops, absent,
            statistics.median(op_times(records)), statistics.median(op_times(traced)))
        extra = {"phases_absent": absent}
        records += traced
    else:
        records = run_ops(runner, ops, args.seconds, wl.fixed_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, extra = end_to_end(records, setup_times, peak_rss_mb, wl.tail_pct)

    failed = [r for r in records if r["error"] is not None]
    for r in failed[:MAX_REPORTED_ERRORS]:
        print(r["trace"] if r.get("trace") else r["error"], file=sys.stderr)
    out = {
        "workload": wl.name,
        "trace": args.trace,
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "errors": [r["error"] for r in failed[:MAX_REPORTED_ERRORS]],
        "digest": digest(records, wl.fixed_ops),
        "digest_ops": wl.fixed_ops,
        "metrics": metrics,
        **extra,
        "graph": {"nodes": graph.node_count, "edges": graph.edge_count},
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
