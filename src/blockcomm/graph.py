"""Immutable undirected simple graphs in CSR form and community statistics.

Node ids from input files are compacted to dense 0-based indices at load
time; every other module works in the dense index space and only the I/O
layer translates back to external labels. The neighbor lists of all nodes
sit back to back in one read-only array (compressed sparse row), so counts
over a whole partition are single numpy expressions.
"""

import re
import warnings
from typing import NamedTuple

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

    def __init__(self, node_count, edges, external_ids=None,
                 dropped_duplicates=0, dropped_self_loops=0):
        """Build from (i, j) dense-index pairs (a sequence or an (M, 2) array).

        Raises:
            ValueError: if edges is neither empty nor of shape (M, 2), names
                a node outside [0, node_count), or holds a self-loop or a
                pair twice (in either orientation).
        """
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs of shape (M, 2), got {pairs.shape}")
        if len(pairs) and (pairs.min() < 0 or pairs.max() >= node_count):
            bad = pairs[((pairs < 0) | (pairs >= node_count)).any(axis=1)][0]
            raise ValueError(f"edge {tuple(bad.tolist())} names a node outside [0, {node_count})")
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"edge {tuple(pairs[loops][0].tolist())} is a self-loop")
        degrees = np.bincount(pairs.ravel(), minlength=node_count)
        # Sort both orientations of every edge by the key row * N + column,
        # then keep the columns, in place to hold one 2M-entry buffer.
        indices = np.concatenate((pairs[:, 0] * node_count + pairs[:, 1],
                                  pairs[:, 1] * node_count + pairs[:, 0]))
        indices.sort()
        repeated = indices[1:] == indices[:-1]
        if repeated.any():
            key = int(indices[1:][repeated][0])
            raise ValueError(f"edge {key // node_count, key % node_count} appears twice")
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
        self.node_labels = {ext: i for i, ext in enumerate(external_ids)}
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
        ValueError: naming the shape of a partition that is not 1-D or is
            longer than node_count, or the first node without a label.
    """
    if isinstance(partition, dict):
        partition = [partition.get(i) for i in range(node_count)]
    labels = np.asarray(partition)
    if labels.ndim != 1 or len(labels) > node_count:
        raise ValueError(f"partition has shape {labels.shape}; expected ({node_count},)")
    covered = len(labels)
    if labels.dtype == object:
        covered = next((i for i, c in enumerate(labels) if c is None), covered)
    if covered < node_count:
        raise ValueError(f"partition does not cover node {covered}")
    return np.unique(labels, return_inverse=True)[1]


class CommunityStats(NamedTuple):
    """Sufficient statistics of one candidate community.

    n: node count; w: within edges (counted once); v: volume (degree sum);
    sumsq_alpha_d: sum over members of (alpha + deg)^2, the squared
    conjugate degree shapes under the Gamma shape alpha the stats were
    computed with.

    A named tuple, so a search can build one per candidate cheaply and key
    a memo on it: hashing and equality run in C.
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

    The lines are parsed in bulk by numpy when they are ASCII, hold no
    comment after an edge, and every id fits in int64; anything else (and
    every malformed line) goes through the per-line parser, which accepts
    what int() accepts and names the first bad line. Both give the same
    Graph for any input both accept.

    Args:
        stream: iterable of text lines (open file, list of strings, ...).

    Returns:
        Graph with dense node indices and the external-id label map.

    Raises:
        ValueError: on a malformed line (with its line number) or empty input.
    """
    lines = list(stream)
    ids = _bulk_ids(lines)
    if ids is None:
        ends, external_ids = _parse_lines(lines)
    else:
        del lines  # free the temporaries before the graph is built
        ends, external_ids = _first_appearance_labels(ids)
        del ids
    n = len(external_ids)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys = (lo * n + hi)[lo != hi]
    loops = len(ends) - len(keys)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    dup = len(ends) - loops - len(keys)
    if dup or loops:
        warnings.warn(f"dropped {dup} duplicate edge(s) and {loops} self-loop(s)")
    return Graph(n, np.column_stack((keys // n, keys % n)), external_ids=external_ids,
                 dropped_duplicates=dup, dropped_self_loops=loops)


# A line with something other than whitespace before its first '#': the
# per-line parser reads the '#' as a field, numpy as the start of a comment.
_INLINE_COMMENT = re.compile(r"^[^\S\n]*[^\s#][^\n#]*#", re.M)


def _bulk_ids(lines):
    """The (M, 2) int64 external ids of lines via np.loadtxt, or None.

    None when the lines are not ASCII, carry an inline comment, or numpy
    rejects them (a bad token, an id beyond int64, a ragged or empty file),
    or when they do not hold exactly two columns.
    """
    text = "\n".join(lines)
    if not text.isascii() or ("#" in text and _INLINE_COMMENT.search(text)):
        return None
    del text
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without data
            ids = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        return None
    if ids.shape[0] == 0 or ids.shape[1] != 2:
        return None
    return ids


def _first_appearance_labels(ids):
    """(dense (M, 2) ends, external ids) of an (M, 2) id array.

    Dense indices follow first appearance in the order u1 v1 u2 v2 ...;
    the external ids are Python ints.
    """
    uniq, first, inverse = np.unique(ids.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return rank[inverse].reshape(-1, 2), uniq[order].tolist()


def _parse_lines(lines):
    """(dense (M, 2) ends, external ids) of lines, parsed one by one.

    Raises:
        ValueError: on a malformed line (with its line number) or empty input.
    """
    labels = {}
    ends = []
    for lineno, raw in enumerate(lines, start=1):
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
    return np.array(ends, dtype=np.int64).reshape(-1, 2), list(labels)


class UnknownNodeError(ValueError):
    """A community file names a node id the graph does not hold."""


def load_communities(stream, graph, min_size=3):
    """Parse communities, one whitespace-separated line each, in file order.

    Lines starting with '#' and blank lines are ignored. Ids are translated
    through graph.node_labels; communities smaller than min_size are
    filtered out.

    Raises:
        UnknownNodeError: naming the line of a node id not in the graph.
        ValueError: naming the line of a non-integer node id.
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
                raise UnknownNodeError(f"line {lineno}: node id {ext} not present in the graph")
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
    """Sufficient statistics (n, w, v, sum of (alpha+deg)^2) of a node set.

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
        sumsq += (alpha + deg) ** 2
        twice_w += len(member_set.intersection(graph.neighbors(i).tolist()))
    return CommunityStats(n=n, w=twice_w // 2, v=v, sumsq_alpha_d=sumsq)


def add_node_delta(stats, graph, u, links, alpha=1.0):
    """Stats of a community grown by the non-member u, in O(1).

    links: number of u's edges into the community. Equals community_stats
    recomputed from scratch on the grown set; the greedy search leans on
    this to stay local. This is the one growth step: every candidate the
    search scores is built here, positionally from the unpacked stats.
    """
    n, w, v, sumsq = stats
    deg = graph.degree(u)
    return CommunityStats(n + 1, w + links, v + deg, sumsq + (alpha + deg) ** 2)
