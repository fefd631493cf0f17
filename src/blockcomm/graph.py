"""Immutable undirected simple graphs in CSR form and community statistics.

Node ids from input files are compacted to dense 0-based indices at load
time; every other module works in the dense index space and only the I/O
layer translates back to external labels. The neighbor lists of all nodes
sit back to back in one read-only array (compressed sparse row), so counts
over a whole partition are single numpy expressions.
"""

import warnings
from dataclasses import dataclass

import numpy as np


class Graph:
    """Undirected simple graph stored as read-only CSR arrays.

    Immutable after construction and safe to share across worker threads.

    Attributes:
        node_count: number of nodes N.
        edge_count: number of edges M (each edge counted once).
        indptr: int64 array of N + 1 offsets into indices.
        indices: int64 array of 2M neighbor ids; the neighbors of node i are
            indices[indptr[i]:indptr[i + 1]], in ascending order.
        degrees: int64 array, degrees[i] = indptr[i + 1] - indptr[i].
        node_labels: dict external id -> dense internal index (identity-free
            graphs built in memory use i -> i).
        external_ids: list, inverse of node_labels.
        dropped_duplicates / dropped_self_loops: counts of input lines that
            were ignored to keep the graph simple.
    """

    __slots__ = ("node_count", "edge_count", "indptr", "indices", "degrees",
                 "node_labels", "external_ids", "dropped_duplicates", "dropped_self_loops")

    def __init__(self, node_count, edges, node_labels=None, external_ids=None,
                 dropped_duplicates=0, dropped_self_loops=0):
        """Build from (i, j) dense-index pairs (a sequence or an (M, 2) array).

        The pairs must already be deduplicated and self-loop free.
        """
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        degrees = np.bincount(pairs.ravel(), minlength=node_count)
        # Sort both orientations of every edge by the key row * N + column,
        # then keep the columns, in place to hold one 2M-entry buffer.
        indices = np.concatenate((pairs[:, 0] * node_count + pairs[:, 1],
                                  pairs[:, 1] * node_count + pairs[:, 0]))
        indices.sort()
        indices %= node_count
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # Freeze the arrays so the graph is safely shareable.
        for arr in (indptr, indices, degrees):
            arr.setflags(write=False)
        self.node_count = node_count
        self.edge_count = len(pairs)
        self.indptr, self.indices, self.degrees = indptr, indices, degrees
        if external_ids is None:
            external_ids = list(range(node_count))
        if node_labels is None:
            node_labels = {ext: i for i, ext in enumerate(external_ids)}
        self.node_labels = node_labels
        self.external_ids = external_ids
        self.dropped_duplicates = dropped_duplicates
        self.dropped_self_loops = dropped_self_loops

    @classmethod
    def from_edges(cls, *args, **kwargs):
        """Graph(*args, **kwargs), under the name the edge-array callers use."""
        return cls(*args, **kwargs)

    def neighbors(self, i):
        """Read-only view of node i's neighbor array (dense index)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree(self, i):
        return int(self.degrees[i])

    def within_edges(self, labels):
        """Number of edges whose two ends carry the same label.

        labels: array of one community id per node.
        """
        labels = np.asarray(labels)
        same = np.repeat(labels, self.degrees) == labels[self.indices]
        return int(np.count_nonzero(same)) // 2


def dense_labels(partition, node_count):
    """Community labels of nodes 0..node_count-1, relabelled to dense 0..k-1.

    partition: dict, list or array giving each dense node index a label;
    labels may be any mutually comparable values (ints, strings). Dense ids
    follow the sorted order of the labels.

    Raises:
        ValueError: naming the first node without a label.
    """
    if isinstance(partition, dict):
        partition = [partition.get(i) for i in range(node_count)]
    labels = np.asarray(partition)[:node_count]
    covered = len(labels)
    if labels.dtype == object:
        covered = next((i for i, c in enumerate(labels) if c is None), covered)
    if covered < node_count:
        raise ValueError(f"partition does not cover node {covered}")
    return np.unique(labels, return_inverse=True)[1]


@dataclass(frozen=True, slots=True)
class CommunityStats:
    """Sufficient statistics of one candidate community.

    n: node count; w: within edges (counted once); v: volume (degree sum);
    sumsq_alpha_d: sum over members of (alpha - 1 + deg)^2 for the Gamma
    shape alpha the stats were computed with.
    """

    n: int
    w: int
    v: int
    sumsq_alpha_d: float


def load_edge_list(stream):
    """Parse a whitespace-delimited edge list into a Graph.

    Lines starting with '#' and blank lines are ignored. Node ids of any
    size get dense indices in order of first appearance. Duplicate edges
    (either orientation) and self-loops are dropped; their counts end up on
    the returned Graph and trigger one summary warning.

    Args:
        stream: iterable of text lines (open file, list of strings, ...).

    Returns:
        Graph with dense node indices and the external-id label map.

    Raises:
        ValueError: on a malformed line (with its line number) or empty input.
    """
    labels = {}
    ends = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two node ids, got {len(parts)} fields")
        try:
            u_ext, v_ext = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in {parts!r}") from None
        ends.append(labels.setdefault(u_ext, len(labels)))
        ends.append(labels.setdefault(v_ext, len(labels)))
    if not ends:
        raise ValueError("empty edge list: no edges found in input")
    n = len(labels)
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keys = np.unique((lo * n + hi)[lo != hi])
    loops = int(np.count_nonzero(lo == hi))
    dup = len(pairs) - loops - len(keys)
    if dup or loops:
        warnings.warn(f"dropped {dup} duplicate edge(s) and {loops} self-loop(s)")
    return Graph(n, np.column_stack((keys // n, keys % n)), labels, list(labels),
                 dropped_duplicates=dup, dropped_self_loops=loops)


def load_communities(stream, graph, min_size=3):
    """Parse ground-truth communities (one whitespace-separated line each).

    Ids are translated through graph.node_labels; communities smaller than
    min_size are filtered out.

    Raises:
        ValueError: naming the line of a non-integer or unknown node id.
    """
    out = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        members = set()
        for tok in line.split():
            try:
                ext = int(tok)
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer node id {tok!r}") from None
            if ext not in graph.node_labels:
                raise ValueError(f"line {lineno}: node id {ext} not present in the graph")
            members.add(graph.node_labels[ext])
        if len(members) >= min_size:
            out.append(members)
    return out


def write_edge_list(graph, stream):
    """Write the graph in the format load_edge_list reads (external ids)."""
    ext = graph.external_ids
    for i in range(graph.node_count):
        for j in graph.neighbors(i):
            if i < j:
                stream.write(f"{ext[i]} {ext[j]}\n")


def write_communities(communities, graph, stream):
    """Write communities one per line using external ids, members sorted."""
    ext = graph.external_ids
    for members in communities:
        stream.write(" ".join(str(x) for x in sorted(ext[i] for i in members)) + "\n")


def community_stats(graph, members, alpha=1.0):
    """Sufficient statistics (n, w, v, sum of (alpha-1+deg)^2) of a node set.

    Raises:
        ValueError: on an empty member set or alpha <= 0.
    """
    if not members:
        raise ValueError("community_stats requires a non-empty member set")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    member_set = members if isinstance(members, (set, frozenset)) else set(members)
    n = len(member_set)
    v = 0
    twice_w = 0
    sumsq = 0.0
    for i in member_set:
        deg = graph.degree(i)
        v += deg
        sumsq += (alpha - 1.0 + deg) ** 2
        twice_w += len(member_set.intersection(graph.neighbors(i).tolist()))
    return CommunityStats(n=n, w=twice_w // 2, v=v, sumsq_alpha_d=sumsq)


def add_node_delta(stats, graph, u, links, alpha=1.0):
    """Stats of a community grown by the non-member u, in O(1).

    links: number of u's edges into the community. Equals community_stats
    recomputed from scratch on the grown set; the greedy search leans on
    this to stay local.
    """
    deg = graph.degree(u)
    return CommunityStats(
        n=stats.n + 1,
        w=stats.w + links,
        v=stats.v + deg,
        sumsq_alpha_d=stats.sumsq_alpha_d + (alpha - 1.0 + deg) ** 2,
    )
