"""The benchmark's workloads: which graph, which operation, and why.

Each workload makes one blockcomm code path do most of the work while the
others sit idle, so a change to one layer shows on one workload and its
absence shows on the rest. Sizes follow the profiles quoted in README.md.
"""

from dataclasses import dataclass

from sampler import PlantedGraph

# Planted DCBM, N = 2000, M ~ 68.5k, mean degree ~ 68.
W1 = PlantedGraph(communities=40, size=50, p_in=0.2, p_out=0.002, model="dcbm",
                  alpha=3.0, theta=1.0)
# Planted SBM, N = 2000, M ~ 11.7k, mean degree ~ 12.
S1 = PlantedGraph(communities=100, size=20, p_in=0.4, p_out=0.002, model="sbm")
# Planted DCBM, N = 250, M ~ 3.6k. gDCBM Louvain does not finish on W1 in minutes.
W2 = PlantedGraph(communities=10, size=25, p_in=0.3, p_out=0.005, model="dcbm",
                  alpha=3.0, theta=1.0)


@dataclass(frozen=True)
class Workload:
    """One workload.

    kind 'local' runs detect(graph, seed, SearchConfig(method, restarts=10))
    per operation; kind 'global' runs louvain(graph, method) followed by
    objective_value on its partition. fixed_ops is the number of leading
    operations every run completes: their outputs form the result digest,
    and a traced run times exactly these, so its counts repeat exactly.
    op_list is how many operations the input file holds; a run that gets
    through all of them starts again from the first. tail_pct is the
    percentile op_tail_s reads: measure.tail_percentile at the operation
    count a 20 s run reaches at the commit that defined the benchmark (about
    1000 on local-asbm, where the rule flips between 95 and 99, so 95; under
    40 elsewhere, so the median). It is fixed so that two commits are
    compared at the same percentile.
    """

    name: str
    graph: PlantedGraph
    kind: str
    method: str
    fixed_ops: int
    op_list: int
    tail_pct: float
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("local-adcbm", W1, "local", "adcbm", fixed_ops=8, op_list=400, tail_pct=50.0,
             why="adcbm_local_fit does most of the work and dense frontiers stress "
                 "add_node_delta; global_search is idle"),
    Workload("local-asbm", S1, "local", "asbm", fixed_ops=100, op_list=4000, tail_pct=95.0,
             why="the scalar special-function path (asbm_log_score -> log_beta -> "
                 "log_gamma) on small frontiers; dcbm is idle"),
    Workload("global-gsbm", W1, "global", "gsbm", fixed_ops=3, op_list=100, tail_pct=50.0,
             why="gSBM Louvain sweeps the whole graph local-adcbm scans locally; "
                 "the move phase and log_gamma dominate"),
    Workload("global-gdcbm", W2, "global", "gdcbm", fixed_ops=2, op_list=100, tail_pct=50.0,
             why="the only user of the global VB path: merge bootstrap and scan, "
                 "vb_update and vb_bound sweeps"),
)}
