"""Command-line entry point.

Commands: detect (seed expansion), global (Louvain partition), generate
(planted samples), eval (protocol metrics), nsweep (resolution sweep).
Every run writes a JSON manifest capturing the command, flags, rng seed,
input checksum, and wall time. Exit codes: 0 success, 1 I/O or file-format
problems, 2 usage or domain errors (an unknown node id in any input file
among them).
"""

import argparse
import hashlib
import json
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

from . import __version__
from .dcbm import DcbmPriors
from .evaluation import run_protocol, stats_conductance
from .generators import PlantedSpec, sample_dcbm, sample_sbm
from .global_search import louvain, objective_value
from .graph import (UnknownNodeError, load_communities, load_edge_list,
                    write_communities, write_edge_list)
from .local_search import SearchConfig, detect
from .rng import make_rng
from .sbm import SbmPriors


class DomainError(Exception):
    """User-facing domain problem: wrong id, invalid spec (exit 2)."""


def _from_flags(build, *args, **kwargs):
    """build(*args, **kwargs), reporting a ValueError as a DomainError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise DomainError(str(exc)) from None


@dataclass
class RunManifest:
    """Reproducibility record written alongside every command's output."""

    command: str
    flags: dict
    rng_seed: int
    graph_checksum: str | None
    version: str
    wall_time_s: float
    columns: tuple | None = None
    notes: str = ""


def _checksum(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, args, graph_path, started, columns=None,
                    notes=""):
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = RunManifest(
        command=command,
        flags=flags,
        rng_seed=getattr(args, "rng_seed", 0),
        graph_checksum=_checksum(graph_path) if graph_path else None,
        version=__version__,
        wall_time_s=time.perf_counter() - started,
        columns=columns,
        notes=notes,
    )
    with open(path, "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read(path, parse, *args, **kwargs):
    """parse(the file at path, *args, **kwargs), with path before any error.

    An unknown node id is a domain error (exit 2); any other malformed line
    stays a ValueError (exit 1).
    """
    try:
        with open(path) as fh:
            return parse(fh, *args, **kwargs)
    except UnknownNodeError as exc:
        raise DomainError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _graph_and_truths(args):
    """The --graph and its --communities of at least --min-size nodes."""
    graph = _read(args.graph, load_edge_list)
    truths = _read(args.communities, load_communities, graph, min_size=args.min_size)
    if not truths:
        raise DomainError(f"no communities of size >= {args.min_size} in {args.communities}")
    return graph, truths


def _failure_notes(rows, prefix=""):
    """One note per distinct sample error with its count, each also on stderr."""
    notes = [f"{prefix}{count} failed sample(s): {error}"
             for error, count in Counter(r.error for r in rows if r.error).items()]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return notes


def _sbm_priors(args):
    return _from_flags(SbmPriors, alpha_plus=args.alpha_plus,
                       alpha_minus=args.alpha_minus, gamma_exp=args.gamma)


def _dcbm_priors(args):
    return _from_flags(DcbmPriors, alpha=args.alpha, theta=args.theta, gamma_exp=args.gamma)


def _search_config(args):
    method = args.method
    priors = _sbm_priors(args) if method == "asbm" else _dcbm_priors(args)
    return _from_flags(SearchConfig, method=method, restarts=args.restarts,
                       rng_seed=args.rng_seed, formal_N=args.formal_n,
                       priors=priors)


def cmd_detect(args):
    started = time.perf_counter()
    graph = _read(args.graph, load_edge_list)
    if args.seed not in graph.node_labels:
        raise DomainError(f"seed id {args.seed} not present in {args.graph}")
    seed = graph.node_labels[args.seed]
    cfg = _search_config(args)
    too_small = f"--formal-n {cfg.formal_N} is too small for seed {args.seed}"
    try:
        result = detect(graph, seed, cfg)
    except ValueError as exc:
        if cfg.formal_N is None:
            raise
        raise DomainError(f"{too_small}: {exc}") from None
    if not math.isfinite(result.log_score):
        # A seed without edges has zero volume, which no N can make finite.
        if graph.degree(seed) == 0:
            raise DomainError(f"seed {args.seed} has no edges: no candidate has a finite score")
        raise DomainError(f"{too_small}: no candidate has a finite score")
    st = result.stats
    cond = stats_conductance(st)
    ext = sorted(graph.external_ids[i] for i in result.members)
    if args.json:
        payload = {"members": ext, "log_score": result.log_score,
                   "n": st.n, "w": st.w, "v": st.v, "conductance": cond,
                   "restart_index": result.restart_index, "passes": result.passes}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(" ".join(str(x) for x in ext))
        print(f"log_score={result.log_score:.10g}")
        print(f"n={st.n} w={st.w} v={st.v}")
        print(f"conductance={cond:.10g}")
    _write_manifest(args.manifest, "detect", args, args.graph, started)
    return 0


def cmd_global(args):
    started = time.perf_counter()
    graph = _read(args.graph, load_edge_list)
    priors = _sbm_priors(args) if args.method == "gsbm" else _dcbm_priors(args)
    rng = make_rng(args.rng_seed)
    partition = louvain(graph, args.method, priors, rng)
    with open(args.out, "w") as fh:
        write_communities(partition.communities(), graph, fh)
    value = objective_value(graph, partition, args.method, priors)
    print(f"objective={value:.10g}")
    print(f"communities={len(partition.sizes)}")
    _write_manifest(args.manifest, "global", args, args.graph, started)
    return 0


def cmd_generate(args):
    started = time.perf_counter()
    spec = _from_flags(PlantedSpec, communities=args.communities, size=args.size,
                       lambda_in=args.lambda_in, lambda_out=args.lambda_out,
                       model=args.model, dcbm_alpha=args.alpha,
                       dcbm_theta=args.theta)
    rng = make_rng(args.rng_seed)
    sampler = sample_sbm if args.model == "sbm" else sample_dcbm
    graph, truth = _from_flags(sampler, spec, rng)
    edges_path = f"{args.out}.edges"
    cmty_path = f"{args.out}.cmty"
    with open(edges_path, "w") as fh:
        write_edge_list(graph, fh)
    with open(cmty_path, "w") as fh:
        write_communities(truth, graph, fh)
    print(f"nodes={graph.node_count} edges={graph.edge_count}")
    print(f"wrote {edges_path} and {cmty_path}")
    _write_manifest(args.manifest, "generate", args, None, started)
    return 0


_ROW_HEADER = ("method", "seed", "truth_size", "found_size",
               "precision", "recall", "f1", "conductance", "elapsed_s")


def _format_row(row, graph):
    ext_seed = graph.external_ids[row.seed]
    return "\t".join([
        row.method, str(ext_seed), str(row.truth_size), str(row.found_size),
        f"{row.precision:.6f}", f"{row.recall:.6f}", f"{row.f1:.6f}",
        f"{row.conductance:.6f}", f"{row.elapsed:.6f}",
    ])


def cmd_eval(args):
    started = time.perf_counter()
    graph, truths = _graph_and_truths(args)
    cfg = _search_config(args)
    detector = None
    if args.external_results:
        found = _read(args.external_results, load_communities, graph, min_size=1)
        if len(found) < args.samples:
            raise DomainError(f"{args.external_results}: {len(found)} result line(s) for "
                              f"--samples {args.samples}: one line per sample is needed")
        replay = iter(found)

        def detector(_graph, _seed, _rng):
            return next(replay)
    rng = make_rng(args.rng_seed)
    rows, summary = _from_flags(run_protocol, graph, truths, cfg, args.samples, rng,
                                detector=detector)
    with open(args.out, "w") as fh:
        fh.write("\t".join(_ROW_HEADER) + "\n")
        for row in rows:
            fh.write(_format_row(row, graph) + "\n")
    print("\t".join(summary))
    print("\t".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                    for v in summary.values()))
    notes = []
    if args.samples > len(truths):
        notes.append(f"samples ({args.samples}) exceed the {len(truths)} distinct "
                     "communities: drawn without replacement until the pool is "
                     "exhausted, then with replacement")
    notes += _failure_notes(rows)
    _write_manifest(args.manifest, "eval", args, args.graph, started,
                    columns=_ROW_HEADER, notes="; ".join(notes))
    return 0


def cmd_nsweep(args):
    started = time.perf_counter()
    graph, truths = _graph_and_truths(args)
    try:
        n_values = [int(tok) for tok in args.n_values.replace(",", " ").split()]
    except ValueError:
        raise DomainError(f"could not parse --n-values {args.n_values!r}") from None
    if not n_values:
        raise DomainError("--n-values is empty")
    configs = [_from_flags(SearchConfig, method="adcbm", restarts=args.restarts,
                           rng_seed=args.rng_seed, formal_N=formal_n,
                           priors=_dcbm_priors(args))
               for formal_n in n_values]
    # identical sampling stream per N so rows differ only in the score's totals
    runs = [_from_flags(run_protocol, graph, truths, cfg, args.samples,
                        make_rng(args.rng_seed)) for cfg in configs]
    columns = ("formal_n", "mean_f1", "mean_size", "failed")
    print("\t".join(columns))
    notes = []
    for cfg, (rows, summary) in zip(configs, runs):
        print(f"{cfg.formal_N}\t{summary['mean_f1']:.6f}\t{summary['mean_found_size']:.6f}"
              f"\t{summary['failed']}")
        notes += _failure_notes(rows, f"--formal-n {cfg.formal_N}: ")
    _write_manifest(args.manifest, "nsweep", args, args.graph, started,
                    columns=columns, notes="; ".join(notes))
    return 0


def _add_prior_flags(p):
    p.add_argument("--gamma", type=float, default=2.0,
                   help="community-size power-law exponent (default 2)")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="Gamma prior shape for the degree-corrected model")
    p.add_argument("--theta", type=float, default=1.0,
                   help="Gamma prior scale for the degree-corrected model")
    p.add_argument("--alpha-plus", type=float, default=1.0,
                   help="Beta prior edge pseudo-count for the plain model")
    p.add_argument("--alpha-minus", type=float, default=1.0,
                   help="Beta prior non-edge pseudo-count for the plain model")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockcomm",
        description="Local and global block-model community detection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="grow the community of a seed node")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, required=True, help="external seed node id")
    p.add_argument("--method", choices=("asbm", "adcbm"), required=True)
    p.add_argument("--formal-n", type=int, default=None)
    p.add_argument("--restarts", type=int, default=10)
    _add_prior_flags(p)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("global", help="Louvain partition of the whole graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=("gsbm", "gdcbm"), required=True)
    p.add_argument("--out", required=True)
    _add_prior_flags(p)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_global)

    p = sub.add_parser("generate", help="sample a planted-partition graph")
    p.add_argument("--model", choices=("sbm", "dcbm"), required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--lambda-in", type=float, required=True)
    p.add_argument("--lambda-out", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="sampled-protocol evaluation")
    p.add_argument("--graph", required=True)
    p.add_argument("--communities", required=True)
    p.add_argument("--method", choices=("asbm", "adcbm"), required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--restarts", type=int, default=10)
    _add_prior_flags(p)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--formal-n", type=int, default=None)
    p.add_argument("--external-results", default=None,
                   help="precomputed communities, one line per sample")
    p.add_argument("--out", default="eval_rows.tsv")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("nsweep", help="formal-N resolution sweep")
    p.add_argument("--graph", required=True)
    p.add_argument("--communities", required=True)
    p.add_argument("--n-values", required=True,
                   help="comma- or space-separated formal N values")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_nsweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.manifest is None:
        base = getattr(args, "out", None) or args.command
        args.manifest = f"{base}.manifest.json"
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
