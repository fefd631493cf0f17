"""Graph loading, serialization, and community statistics."""

import io
import itertools
import random
import warnings

import numpy as np
import pytest

from blockcomm import graph as graph_module
from blockcomm.graph import (
    Graph,
    add_node_delta,
    community_stats,
    dense_labels,
    load_communities,
    load_edge_list,
    write_communities,
    write_edge_list,
)
from blockcomm.rng import make_rng

from conftest import clique_edges, graph_from_edges, random_gnp


class TestLoadEdgeList:
    def test_path_graph(self):
        g = load_edge_list(io.StringIO("0 1\n1 2"))
        assert g.node_count == 3
        assert g.edge_count == 2
        assert [g.degree(i) for i in range(3)] == [1, 2, 1]

    def test_duplicate_and_self_loop_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="1 duplicate.*1 self-loop"):
            g = load_edge_list(io.StringIO("0 1\n1 0\n0 0"))
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n0 1\n# trailing comment\n1 2\n\n"
        g = load_edge_list(io.StringIO(text))
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_labels_compacted_in_first_appearance_order(self):
        g = load_edge_list(io.StringIO("10 7\n7 42"))
        assert g.node_count == 3
        assert g.external_ids == [10, 7, 42]
        assert g.node_labels == {10: 0, 7: 1, 42: 2}
        # Edge structure survives the relabeling.
        assert sorted(g.neighbors(1)) == [0, 2]

    def test_large_ids_supported(self):
        big = 2**63 - 1
        g = load_edge_list(io.StringIO(f"{big} 0"))
        assert g.node_labels[big] == 0

    def test_messy_list_relabels_in_bulk(self):
        big = 2**70
        text = (f"# messy\n5 {big}\n{big} 5\n5 5\n\n7 5\n5 7\n"
                f"{big} {big}\n# again\n3 7\n5 {big}\n")
        with pytest.warns(UserWarning) as record:
            g = load_edge_list(io.StringIO(text))
        assert g.external_ids == [5, big, 7, 3]
        assert g.node_labels == {5: 0, big: 1, 7: 2, 3: 3}
        assert [str(w.message) for w in record] == [
            "dropped 3 duplicate edge(s) and 2 self-loop(s)"]
        h = Graph.from_edges(4, [(0, 1), (2, 0), (3, 2)])
        assert (g.node_count, g.edge_count) == (h.node_count, h.edge_count)
        for arr in ("indptr", "indices", "degrees"):
            assert np.array_equal(getattr(g, arr), getattr(h, arr))

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(io.StringIO("0 1\n0 1 2"))
        with pytest.raises(ValueError, match="line 3"):
            load_edge_list(io.StringIO("0 1\n1 2\nx y"))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            load_edge_list(io.StringIO(""))
        with pytest.raises(ValueError, match="empty"):
            load_edge_list(io.StringIO("# only a comment\n"))

    def test_handshake_after_load(self):
        rng = make_rng(5)
        g = graph_from_edges(random_gnp(rng, 30, 0.2))
        assert sum(g.degree(i) for i in range(g.node_count)) == 2 * g.edge_count

    def test_neighbor_lists_sorted(self):
        g = load_edge_list(io.StringIO("3 1\n3 0\n3 2\n0 2"))
        for i in range(g.node_count):
            nb = list(g.neighbors(i))
            assert nb == sorted(nb)


def table_labels(ids):
    """_first_appearance_labels through the span table, whatever the span."""
    flat = np.asarray(ids, dtype=np.int64).ravel()
    lo = int(flat.min())
    return graph_module._table_labels(flat, lo, int(flat.max()) - lo + 1)


def unique_labels(ids):
    """_first_appearance_labels through np.unique, whatever the span."""
    return graph_module._unique_labels(np.asarray(ids, dtype=np.int64).ravel())


RELABEL = {"table": table_labels, "unique": unique_labels}


def load_outcome(lines, per_line_only=False, relabel=None):
    """What load_edge_list makes of lines: the graph's arrays, external ids
    (with their types) and the messages of the warnings it raised, or the
    ValueError's message.
    relabel ('table' or 'unique') forces that path for bulk-parsed ids."""
    parse_bulk = graph_module._bulk_ids
    first_appearance = graph_module._first_appearance_labels
    if per_line_only:
        graph_module._bulk_ids = lambda lines: None
    if relabel is not None:
        graph_module._first_appearance_labels = RELABEL[relabel]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = load_edge_list(lines)
    except ValueError as err:
        return ("error", str(err))
    finally:
        graph_module._bulk_ids = parse_bulk
        graph_module._first_appearance_labels = first_appearance
    return (g.indptr.tolist(), g.indices.tolist(), g.external_ids,
            [type(x) for x in g.external_ids], g.node_labels,
            [str(w.message) for w in caught])


class TestBulkMatchesPerLine:
    """The numpy bulk parse and the per-line parse accept the same inputs
    and build the same graphs; the bulk parse declines (returns None) what
    only the per-line parse can read or name the error of."""

    BULK = {
        "comments-duplicates-loop-sign-tabs": (
            "# header\n\n0 1\n1 0\n2 2\n+5 3\n  7\t8  \n# trailer\n"),
        "relabelled-in-first-appearance-order": "10 7\n7 42\n42 10\n10 7\n",
        "crlf-negative-leading-zero": "-3 4\r\n4 -3\r\n007 4\r\n",
        "no-final-newline": "1 2",
    }
    FALLBACK = {
        "id-beyond-int64": f"5 {2**70}\n{2**70} 5\n5 5\n",
        "underscore-id": "+5 1_0\n1_0 5\n",  # int() reads 1_0; numpy does not
        "fullwidth-digit": "\uff15 1\n",
        "non-ascii-whitespace": "1\u00a02\n3 1\n",
        "inline-comment": "1 2 # tail\n",
        "short-line": "0 1\n1 2\n3\n",
        "long-line": "0 1\n0 1 2\n",
        "three-columns": "0 1 2\n3 4 5\n",
        "bad-token": "0 1\n1 2\nx y\n",
        "float-token": "0 1\n1.0 2\n",
        "empty": "",
        "comments-only": "# only a comment\n\n",
    }

    @pytest.mark.parametrize("text", BULK.values(), ids=BULK.keys())
    def test_bulk_inputs(self, text):
        lines = text.splitlines(keepends=True)
        assert graph_module._bulk_ids(lines) is not None
        want = load_outcome(lines, per_line_only=True)
        assert load_outcome(lines) == want
        for relabel in RELABEL:
            assert load_outcome(lines, relabel=relabel) == want, relabel

    @pytest.mark.parametrize("text", FALLBACK.values(), ids=FALLBACK.keys())
    def test_fallback_inputs(self, text):
        lines = text.splitlines(keepends=True)
        assert graph_module._bulk_ids(lines) is None
        assert load_outcome(lines) == load_outcome(lines, per_line_only=True)

    def test_line_numbered_errors(self):
        assert load_outcome(["0 1\n", "1 2 # tail\n"]) == (
            "error", "line 2: expected two node ids, got 4 fields")
        assert load_outcome(["0 1\n", "x y\n"]) == (
            "error", "line 2: non-integer node id in ['x', 'y']")

    def test_random_lines(self):
        # Lines mixing valid pairs with signs, underscores, comments, dots,
        # control whitespace, NUL and carriage returns.
        rnd = random.Random(7)
        noise = list("0123456789") * 3 + list("+-_ \t#x.\x0b\x0c\x1c\r\x00,")
        bulk = 0
        for _ in range(3000):
            lines = []
            for _ in range(rnd.randint(1, 4)):
                if rnd.random() < 0.6:
                    line = f"{rnd.randint(-3, 12)} {rnd.randint(-3, 12)}"
                    if rnd.random() < 0.3:
                        i = rnd.randint(0, len(line))
                        line = line[:i] + rnd.choice(noise) + line[i:]
                else:
                    line = "".join(rnd.choice(noise) for _ in range(rnd.randint(0, 8)))
                lines.append(line + rnd.choice(["\n", "\n", "\r\n", ""]))
            bulk += graph_module._bulk_ids(lines) is not None
            want = load_outcome(lines, per_line_only=True)
            assert load_outcome(lines) == want, lines
            for relabel in RELABEL:
                assert load_outcome(lines, relabel=relabel) == want, (relabel, lines)
        assert 500 < bulk < 2500


def refuse(*args):
    raise AssertionError("this relabel path must not run here")


def labels_outcome(result):
    """(dense ends, external ids, their types) of a relabel result."""
    ends, external_ids = result
    return ends.tolist(), external_ids, [type(x) for x in external_ids]


class TestRelabelPaths:
    """Bulk ids are numbered by first appearance through a table over their
    span when it is at most twice the id count, and by np.unique otherwise;
    both give the same ends and Python-int external ids."""

    def check(self, monkeypatch, ids, path, want_ends, want_ids, both=True):
        """_first_appearance_labels takes path and numbers ids as want_*;
        so does the other path when both is set."""
        want = labels_outcome((np.array(want_ends), want_ids))
        for relabel in (RELABEL if both else [path]):
            assert labels_outcome(RELABEL[relabel](ids)) == want, relabel
        other = "_unique_labels" if path == "table" else "_table_labels"
        monkeypatch.setattr(graph_module, other, refuse)
        got = graph_module._first_appearance_labels(np.array(ids, dtype=np.int64))
        assert labels_outcome(got) == want

    def test_compact_ids_with_gaps(self, monkeypatch):
        ids = [[10, 3], [7, 10], [3, 12], [15, 7]]  # span 13 of 8 ids
        want = [[0, 1], [2, 0], [1, 3], [4, 2]]
        self.check(monkeypatch, ids, "table", want, [10, 3, 7, 12, 15])

    def test_negative_ids(self, monkeypatch):
        ids = [[-5, -2], [-2, 0], [0, -5], [-1, -4]]  # span 6 of 8 ids
        want = [[0, 1], [1, 2], [2, 0], [3, 4]]
        self.check(monkeypatch, ids, "table", want, [-5, -2, 0, -1, -4])

    @pytest.mark.parametrize("base", [-2**63, 2**63 - 4], ids=["int64-min", "int64-max"])
    def test_compact_ids_at_the_int64_ends(self, monkeypatch, base):
        ids = [[base + 3, base], [base + 1, base + 3]]
        self.check(monkeypatch, ids, "table", [[0, 1], [2, 0]], [base + 3, base, base + 1])

    def test_int64_extremes_take_the_unique_path(self, monkeypatch):
        hi, lo = 2**63 - 1, -2**63  # a span of 2**64 has no table
        self.check(monkeypatch, [[hi, lo], [0, hi]], "unique", [[0, 1], [2, 0]], [hi, lo, 0],
                   both=False)
        lines = [f"{hi} {lo}\n", f"0 {hi}\n"]
        assert graph_module._bulk_ids(lines) is not None
        assert load_outcome(lines) == load_outcome(lines, per_line_only=True)

    @pytest.mark.parametrize("span, path", [(8, "table"), (9, "unique")],
                             ids=["inside", "outside"])
    def test_span_at_the_threshold(self, monkeypatch, span, path):
        ids = [[0, span - 1], [3, 5]]  # 4 ids: the table takes spans up to 8
        self.check(monkeypatch, ids, path, [[0, 1], [2, 3]], [0, span - 1, 3, 5])


class TestRoundTrip:
    def test_edge_list_round_trip_is_isomorphic(self):
        rng = make_rng(11)
        g = graph_from_edges(random_gnp(rng, 25, 0.15))
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        h = load_edge_list(buf)
        assert h.node_count == g.node_count
        assert h.edge_count == g.edge_count
        # Compare edge sets in the external id space.
        def edge_set(gr):
            out = set()
            for i in range(gr.node_count):
                for j in gr.neighbors(i):
                    if i < j:
                        a, b = gr.external_ids[i], gr.external_ids[j]
                        out.add((min(a, b), max(a, b)))
            return out

        assert edge_set(h) == edge_set(g)

    def test_write_communities_sorted_by_external_id(self):
        g = load_edge_list(io.StringIO("5 3\n3 9\n9 5"))
        buf = io.StringIO()
        write_communities([{0, 1, 2}], g, buf)
        assert buf.getvalue() == "3 5 9\n"


class TestLoadCommunities:
    def make_graph(self):
        # External ids 1..7 in a path so all appear in the graph.
        text = "\n".join(f"{i} {i + 1}" for i in range(1, 7))
        return load_edge_list(io.StringIO(text))

    def test_two_sets(self):
        g = self.make_graph()
        comms = load_communities(io.StringIO("1 2 3\n4 5 6 7"), g)
        assert [len(c) for c in comms] == [3, 4]

    def test_min_size_filter(self):
        g = self.make_graph()
        comms = load_communities(io.StringIO("1 2\n3 4 5"), g)
        assert len(comms) == 1
        assert comms[0] == {g.node_labels[3], g.node_labels[4], g.node_labels[5]}

    def test_ids_translated_to_internal(self):
        g = self.make_graph()
        comms = load_communities(io.StringIO("1 2 3"), g)
        assert comms[0] == {g.node_labels[1], g.node_labels[2], g.node_labels[3]}

    def test_unknown_id_named_in_error(self):
        g = self.make_graph()
        with pytest.raises(ValueError, match="99"):
            load_communities(io.StringIO("1 2 99"), g)

    def test_non_integer_id_names_its_line(self):
        g = self.make_graph()
        with pytest.raises(ValueError, match=r"^line 3: non-integer node id 'x4'$"):
            load_communities(io.StringIO("1 2 3\n# note\n4 x4 5"), g)

    def test_unknown_id_has_its_own_value_error_type(self):
        # The CLI exits 2 on this type and 1 on any other ValueError.
        g = self.make_graph()
        with pytest.raises(graph_module.UnknownNodeError,
                           match=r"^line 2: node id 99 not present in the graph$"):
            load_communities(io.StringIO("1 2 3\n4 99"), g, min_size=1)
        assert issubclass(graph_module.UnknownNodeError, ValueError)
        with pytest.raises(ValueError) as info:
            load_communities(io.StringIO("1 2 x"), g)
        assert type(info.value) is ValueError


class TestCommunityStats:
    def test_four_clique(self):
        g = graph_from_edges(clique_edges(range(4)))
        st = community_stats(g, {0, 1, 2, 3}, alpha=1.0)
        assert (st.n, st.w, st.v) == (4, 6, 12)
        assert st.sumsq_alpha_d == 64.0  # 4 * (1 + 3)^2

    def test_single_node_degree_five(self):
        edges = [(0, j) for j in range(1, 6)]
        g = graph_from_edges(edges)
        st = community_stats(g, {0}, alpha=1.0)
        assert (st.n, st.w, st.v) == (1, 0, 5)
        assert st.sumsq_alpha_d == 36.0  # (1 + 5)^2

    def test_alpha_enters_sumsq_only(self):
        edges = [(0, j) for j in range(1, 6)]
        g = graph_from_edges(edges)
        st = community_stats(g, {0}, alpha=3.0)
        assert (st.n, st.w, st.v) == (1, 0, 5)
        assert st.sumsq_alpha_d == pytest.approx((3.0 + 5) ** 2)

    def test_matches_pair_scan_on_random_set(self):
        rng = make_rng(23)
        g = graph_from_edges(random_gnp(rng, 40, 0.15))
        members = set(int(x) for x in rng.choice(40, size=20, replace=False))
        st = community_stats(g, members, alpha=1.5)
        # Brute-force O(n^2) pair scan.
        adj = [set(g.neighbors(i)) for i in range(g.node_count)]
        mem = sorted(members)
        w = sum(
            1
            for a in range(len(mem))
            for b in range(a + 1, len(mem))
            if mem[b] in adj[mem[a]]
        )
        v = sum(g.degree(i) for i in members)
        sumsq = sum((1.5 + g.degree(i)) ** 2 for i in members)
        assert st.n == 20 and st.w == w and st.v == v
        assert st.sumsq_alpha_d == pytest.approx(sumsq)

    def test_errors(self):
        g = graph_from_edges([(0, 1)])
        with pytest.raises(ValueError, match="empty"):
            community_stats(g, set())
        with pytest.raises(ValueError, match="alpha"):
            community_stats(g, {0}, alpha=0.0)

    def test_invariants_on_random_sets(self):
        rng = make_rng(91)
        g = graph_from_edges(random_gnp(rng, 30, 0.2))
        for _ in range(25):
            k = int(rng.integers(1, 15))
            members = set(int(x) for x in rng.choice(30, size=k, replace=False))
            st = community_stats(g, members)
            assert 0 <= 2 * st.w <= st.v
            assert st.n >= 1
            assert st.sumsq_alpha_d >= 0


class TestAddNodeDelta:
    def test_isolated_node_changes_nothing_but_n(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        st = community_stats(g, {0, 1})
        st2 = add_node_delta(st, g, 4, 0)
        assert (st2.n, st2.w, st2.v) == (3, 1, 2)

    def test_three_edges_into_members(self):
        edges = clique_edges(range(4)) + [(4, 0), (4, 1), (4, 2), (4, 7)]
        g = graph_from_edges(edges)
        st = community_stats(g, {0, 1, 2, 3})
        st2 = add_node_delta(st, g, 4, 3)
        assert st2 == community_stats(g, {0, 1, 2, 3, 4})
        assert st2.v - st.v == g.degree(4)

    def test_growth_sequence_matches_scratch(self):
        rng = make_rng(77)
        g = graph_from_edges(random_gnp(rng, 60, 0.08))
        order = [int(u) for u in rng.permutation(g.node_count)][:50]
        members = {order[0]}
        st = community_stats(g, members, alpha=2.5)
        for u in order[1:]:
            links = sum(1 for x in g.neighbors(u) if int(x) in members)
            st = add_node_delta(st, g, u, links, alpha=2.5)
            members.add(u)
            ref = community_stats(g, members, alpha=2.5)
            assert (st.n, st.w, st.v) == (ref.n, ref.w, ref.v)
            assert st.sumsq_alpha_d == ref.sumsq_alpha_d


class TestGraphValidation:
    def test_immutable_arrays(self):
        g = graph_from_edges([(0, 1)])
        with pytest.raises((ValueError, RuntimeError)):
            g.neighbors(0)[0] = 5

    def test_transposed_edge_array_rejected(self):
        # A (2, M) array of end rows would reshape into scrambled pairs: on
        # K6, five self-loops and repeated neighbours.
        iu, ju = np.triu_indices(6, k=1)
        with pytest.raises(ValueError, match=r"shape \(M, 2\), got \(2, 15\)"):
            Graph(6, np.array([iu, ju]))
        assert Graph(6, np.column_stack((iu, ju))).edge_count == 15

    @pytest.mark.parametrize("edges", [np.zeros((3, 3), dtype=int), [0, 1, 1, 2]])
    def test_other_shapes_rejected(self, edges):
        with pytest.raises(ValueError, match=r"shape \(M, 2\)"):
            Graph(4, edges)

    @pytest.mark.parametrize("edges", [[], np.array([]), np.empty((0, 2), dtype=int)])
    def test_empty_edges_accepted(self, edges):
        g = Graph(3, edges)
        assert g.edge_count == 0
        assert list(g.degrees) == [0, 0, 0]

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 2)])
    def test_node_id_out_of_range_rejected(self, edge):
        with pytest.raises(ValueError, match=r"names a node outside \[0, 3\)"):
            Graph(3, [(0, 1), edge])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2\) is a self-loop"):
            Graph(3, [(0, 1), (2, 2)])

    @pytest.mark.parametrize("repeat", [(0, 2), (2, 0)])
    def test_duplicate_pair_rejected(self, repeat):
        with pytest.raises(ValueError, match=r"\(0, 2\) appears twice"):
            Graph(3, [(0, 2), (1, 2), repeat])


class TestCsr:
    def test_from_edges_matches_adjacency_lists(self):
        rng = make_rng(4)
        edges = random_gnp(rng, 40, 0.1)
        adj = [[] for _ in range(40)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        g = Graph.from_edges(40, edges[::-1])
        assert g.edge_count == len(edges)
        assert list(g.degrees) == [len(a) for a in adj]
        assert list(g.indptr) == [0, *itertools.accumulate(len(a) for a in adj)]
        assert list(g.indices) == [j for a in adj for j in sorted(a)]

    def test_within_edges_matches_loop(self):
        rng = make_rng(9)
        g = graph_from_edges(random_gnp(rng, 50, 0.15))
        for _ in range(10):
            labels = rng.integers(0, 4, size=g.node_count)
            ref = sum(1 for i in range(g.node_count) for j in g.neighbors(i)
                      if i < j and labels[i] == labels[j])
            assert g.within_edges(labels) == ref


class TestDenseLabels:
    def test_uncovered_node_named(self):
        with pytest.raises(ValueError, match="does not cover node 2"):
            dense_labels([0, 0], 3)
        with pytest.raises(ValueError, match="does not cover node 1"):
            dense_labels({0: 0, 2: 1}, 3)

    @pytest.mark.parametrize("partition, shape", [
        ([0, 0, 1, 1, 7, 7, 7], r"\(7,\)"),      # longer than the graph
        (np.zeros((2, 2), dtype=int), r"\(2, 2\)"),  # not 1-D
        (3, r"\(\)"),
    ], ids=["longer-than-graph", "2-D", "scalar"])
    def test_misshapen_partition_names_its_shape(self, partition, shape):
        with pytest.raises(ValueError, match=rf"partition has shape {shape}; expected \(4,\)"):
            dense_labels(partition, 4)
