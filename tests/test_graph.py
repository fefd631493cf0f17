"""Graph loading, serialization, and community statistics."""

import io
import itertools
import warnings

import numpy as np
import pytest

from blockcomm.graph import (
    Graph,
    add_node_delta,
    community_stats,
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
        with pytest.warns(UserWarning, match="3 duplicate.*2 self-loop"):
            g = load_edge_list(io.StringIO(text))
        assert g.external_ids == [5, big, 7, 3]
        assert g.node_labels == {5: 0, big: 1, 7: 2, 3: 3}
        assert (g.dropped_duplicates, g.dropped_self_loops) == (3, 2)
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


class TestCommunityStats:
    def test_four_clique(self):
        g = graph_from_edges(clique_edges(range(4)))
        st = community_stats(g, {0, 1, 2, 3}, alpha=1.0)
        assert (st.n, st.w, st.v) == (4, 6, 12)
        assert st.sumsq_alpha_d == 36.0

    def test_single_node_degree_five(self):
        edges = [(0, j) for j in range(1, 6)]
        g = graph_from_edges(edges)
        st = community_stats(g, {0}, alpha=1.0)
        assert (st.n, st.w, st.v) == (1, 0, 5)
        assert st.sumsq_alpha_d == 25.0

    def test_alpha_enters_sumsq_only(self):
        edges = [(0, j) for j in range(1, 6)]
        g = graph_from_edges(edges)
        st = community_stats(g, {0}, alpha=3.0)
        assert (st.n, st.w, st.v) == (1, 0, 5)
        assert st.sumsq_alpha_d == pytest.approx((3.0 - 1.0 + 5) ** 2)

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
        sumsq = sum((1.5 - 1.0 + g.degree(i)) ** 2 for i in members)
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
