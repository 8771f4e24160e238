import gc
import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlp import Graph, GraphParseError, load_edge_list, write_edge_list
from hierlp.graph import _unique

from conftest import erdos_renyi_digraph, graph_from_edges, text_stream


class TestLoadEdgeList:
    def test_two_edge_chain(self):
        g, report = load_edge_list(text_stream("1 2\n2 3\n"))
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert report.edges_retained == 2

    def test_duplicates_and_self_loops_dropped_with_counts(self):
        g, report = load_edge_list(text_stream("1 2\n1 2\n1 1\n"))
        assert g.edge_count == 1
        assert report.duplicate_edges_dropped == 1
        assert report.self_loops_dropped == 1
        assert report.raw_edges == 3

    def test_comments_and_blank_lines_skipped(self):
        g, report = load_edge_list(text_stream("# a comment\n\n0 1\n"))
        assert g.edge_count == 1
        assert report.comment_lines == 1

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphParseError) as excinfo:
            load_edge_list(text_stream("0 1\n0 1 2\n"))
        assert excinfo.value.line_number == 2

    def test_non_numeric_in_integer_mode(self):
        with pytest.raises(GraphParseError) as excinfo:
            load_edge_list(text_stream("0 1\nfoo 1\n"), format="integer")
        assert excinfo.value.line_number == 2

    def test_empty_input_is_an_error(self):
        with pytest.raises(GraphParseError):
            load_edge_list(text_stream("# only a comment\n"))

    def test_token_mode_remaps_lexicographically(self):
        g, _ = load_edge_list(text_stream("b a\nc a\n"), format="token")
        assert g.vertex_count == 3
        assert g.vertex_labels == ["a", "b", "c"]
        # b -> a becomes 1 -> 0
        assert list(g.out_neighbors(1)) == [0]

    def test_auto_falls_back_to_token_mode(self):
        g, _ = load_edge_list(text_stream("0 1\nx 1\n"))
        assert g.vertex_labels == ["0", "1", "x"]

    def test_binary_stream_left_open(self):
        stream = io.BytesIO(b"0 1\n1 2\n")
        g, _ = load_edge_list(stream)
        gc.collect()
        assert g.edge_count == 2
        assert not stream.closed

    def test_integer_ids_remapped_dense(self):
        g, _ = load_edge_list(text_stream("10 20\n20 30\n"))
        assert g.vertex_count == 3
        assert g.vertex_labels == [10, 20, 30]


class TestNeighbors:
    def test_directions_unrolled(self):
        # edges a->b, c->a with a=0, b=1, c=2
        g = graph_from_edges([(0, 1), (2, 0)])
        assert list(g.out_neighbors(0)) == [1]
        assert list(g.in_neighbors(0)) == [2]
        assert list(g.undirected_neighbors(0)) == [1, 2]

    def test_isolated_vertex_empty(self):
        g = graph_from_edges([(0, 1)], n=3)
        assert len(g.out_neighbors(2)) == 0
        assert len(g.in_neighbors(2)) == 0
        assert len(g.undirected_neighbors(2)) == 0

    def test_reciprocal_edge_deduplicated_in_union(self):
        g = graph_from_edges([(0, 1), (1, 0)])
        assert list(g.undirected_neighbors(0)) == [1]

    def test_out_of_range_vertex(self):
        g = graph_from_edges([(0, 1)])
        with pytest.raises(IndexError):
            g.out_neighbors(2)
        with pytest.raises(IndexError):
            g.in_neighbors(-1)


class TestInvariants:
    def test_construction_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [0])
        with pytest.raises(ValueError):
            Graph(2, [0, 0], [1, 1])

    def test_degree_sums_match_edge_count(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = erdos_renyi_digraph(rng, int(rng.integers(5, 100)))
            assert g.out_degrees.sum() == g.edge_count
            assert g.in_degrees.sum() == g.edge_count

    def test_mirror_consistency_exhaustive(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = erdos_renyi_digraph(rng, int(rng.integers(5, 60)))
            for x in range(g.vertex_count):
                for y in g.out_neighbors(x):
                    assert x in g.in_neighbors(y)
                for y in g.in_neighbors(x):
                    assert x in g.out_neighbors(y)

    def test_union_view_matches_set_union(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = erdos_renyi_digraph(rng, int(rng.integers(5, 1000)))
            for x in range(g.vertex_count):
                expected = sorted(set(g.out_neighbors(x)) | set(g.in_neighbors(x)))
                assert list(g.undirected_neighbors(x)) == expected
                assert len(g.undirected_neighbors(x)) <= len(g.out_neighbors(x)) + len(
                    g.in_neighbors(x)
                )

    def test_union_view_symmetric(self):
        rng = np.random.default_rng(13)
        g = erdos_renyi_digraph(rng, 50)
        for x in range(g.vertex_count):
            for y in g.undirected_neighbors(x):
                assert x in g.undirected_neighbors(y)

    @pytest.mark.parametrize("view", ["out_csr", "in_csr", "undirected_csr"])
    def test_csr_views_built_once_and_read_only(self, view):
        g = graph_from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
        matrix = getattr(g, view)()
        assert getattr(g, view)() is matrix
        for array in (matrix.data, matrix.indices, matrix.indptr):
            with pytest.raises(ValueError):
                array[0] = array[0]

    @pytest.mark.parametrize("view", ["out", "in", "undirected"])
    def test_csr_views_int32_and_equal_to_adjacency(self, view):
        g = erdos_renyi_digraph(np.random.default_rng(15), 40)
        matrix = g._csr(view)
        indptr, indices = g._adjacency(view)
        assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
        assert indptr.dtype == indices.dtype == np.int64
        assert np.array_equal(matrix.indptr, indptr)
        assert np.array_equal(matrix.indices, indices)

    @given(st.lists(st.integers(-(2**62), 2**62), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_sort_based_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert np.array_equal(_unique(keys), np.unique(keys))

    def test_neighbor_lists_sorted(self):
        rng = np.random.default_rng(14)
        g = erdos_renyi_digraph(rng, 80)
        for x in range(g.vertex_count):
            for seq in (g.out_neighbors(x), g.in_neighbors(x), g.undirected_neighbors(x)):
                assert np.all(np.diff(seq) > 0)


class TestRoundTrip:
    def test_serialize_reload_identical(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = erdos_renyi_digraph(rng, int(rng.integers(5, 120)))
            buf = io.StringIO()
            write_edge_list(g, buf)
            reloaded, _ = load_edge_list(io.StringIO(buf.getvalue()))
            # reload keeps the structure; isolated trailing vertices are the
            # only ids that cannot survive a pure edge-list round trip
            assert reloaded.edge_count == g.edge_count
            g_keys = set(g.edge_keys().tolist())
            # map reloaded external labels back to original ids
            labels = reloaded.vertex_labels or list(range(reloaded.vertex_count))
            u, v = reloaded.edges()
            r_keys = {
                labels[a] * g.vertex_count + labels[b] for a, b in zip(u.tolist(), v.tolist())
            }
            assert r_keys == g_keys

    def test_gzip_path_round_trip(self, tmp_path):
        g, _ = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
        path = tmp_path / "graph.txt.gz"
        write_edge_list(g, path)
        with gzip.open(path, "rt") as fh:
            assert fh.read() == "0 1\n1 2\n2 0\n"
        assert load_edge_list(path)[0] == g

    def test_loaded_graph_round_trips_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            g0 = erdos_renyi_digraph(rng, int(rng.integers(5, 120)))
            buf = io.StringIO()
            write_edge_list(g0, buf)
            loaded, _ = load_edge_list(io.StringIO(buf.getvalue()))
            buf2 = io.StringIO()
            write_edge_list(loaded, buf2)
            reloaded, _ = load_edge_list(io.StringIO(buf2.getvalue()))
            assert reloaded == loaded

    def test_canonical_output_sorted(self, tmp_path):
        g = graph_from_edges([(2, 0), (0, 2), (0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_text() == "0 1\n0 2\n2 0\n"
