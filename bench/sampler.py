"""Seeded planted-partition inputs for the benchmark (numpy only).

The benchmark owns this sampler so that its workloads stay fixed when the
program's own generators change what they draw for a given seed. Every
input a workload feeds the program -- the edge list, the planted
communities and the operation list -- comes from the workload seed.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PlantedGraph:
    """Equal-sized planted communities under an SBM or a binarized DCBM.

    SBM: every pair is an edge with probability p_in (same community) or
    p_out. DCBM: node propensities d ~ Gamma(alpha, theta), rescaled so each
    community's mean is alpha * theta (Karrer and Newman's normalization),
    and a pair is an edge when Poisson(d_i d_j rate) >= 1, rate being p_in
    or p_out. Without the rescaling the edge count of a small graph swings
    with the propensity draw, and run times with it, from seed to seed.
    """

    communities: int
    size: int
    p_in: float
    p_out: float
    model: str = "sbm"
    alpha: float = 1.0
    theta: float = 1.0

    @property
    def nodes(self):
        return self.communities * self.size


def sample_edges(spec, rng):
    """Edge arrays (i, j), i < j, of one draw of the planted graph."""
    n = spec.nodes
    iu, ju = np.triu_indices(n, k=1)
    block = np.arange(n) // spec.size
    rate = np.where(block[iu] == block[ju], spec.p_in, spec.p_out)
    if spec.model == "dcbm":
        d = rng.gamma(spec.alpha, spec.theta, size=(spec.communities, spec.size))
        d = (d * (spec.alpha * spec.theta / d.mean(axis=1, keepdims=True))).ravel()
        keep = rng.poisson(d[iu] * d[ju] * rate) >= 1
    else:
        keep = rng.random(len(iu)) < rate
    return iu[keep], ju[keep]


def planted_communities(spec, present):
    """Planted node sets restricted to the nodes that have an edge.

    The edge list cannot name an isolated node, so the truth file lists
    only nodes the program will see.
    """
    return [np.flatnonzero(present[c * spec.size:(c + 1) * spec.size]) + c * spec.size
            for c in range(spec.communities)]


def local_queries(truth, count, rng):
    """(community index, seed node, search rng seed) per local operation.

    Communities come in shuffled rounds, each once per round, so the mix of
    communities a run covers hardly depends on how many operations it gets
    through.
    """
    out = []
    while len(out) < count:
        for c in rng.permutation(len(truth)).tolist():
            seed = int(truth[c][rng.integers(len(truth[c]))])
            out.append((c, seed, int(rng.integers(2**31))))
    return out[:count]


def global_queries(count, rng):
    """Louvain rng seed per global operation."""
    return [(int(s),) for s in rng.integers(2**31, size=count)]


def write_inputs(spec, kind, op_count, seed, out_dir):
    """Draw one workload's inputs from its seed and write them to out_dir.

    Writes graph.edges, truth.cmty and ops.tsv; returns {file name: sha256}.
    kind is 'local' (seed-expansion queries) or 'global' (Louvain seeds).
    """
    graph_ss, ops_ss = np.random.SeedSequence(seed).spawn(2)
    iu, ju = sample_edges(spec, np.random.default_rng(graph_ss))
    present = np.zeros(spec.nodes, dtype=bool)
    present[iu] = True
    present[ju] = True
    truth = planted_communities(spec, present)
    ops_rng = np.random.default_rng(ops_ss)
    if kind == "local":
        ops = local_queries(truth, op_count, ops_rng)
    else:
        ops = global_queries(op_count, ops_rng)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {
        "graph.edges": "".join(f"{i} {j}\n" for i, j in zip(iu.tolist(), ju.tolist())),
        "truth.cmty": "".join(" ".join(map(str, t.tolist())) + "\n" for t in truth),
        "ops.tsv": "".join("\t".join(map(str, op)) + "\n" for op in ops),
    }
    hashes = {}
    for name, text in texts.items():
        data = text.encode()
        (out_dir / name).write_bytes(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes
