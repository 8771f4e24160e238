import gc
import gzip
import io
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlp import Graph, GraphParseError, load_edge_list, score_all, split_edges, write_edge_list
from hierlp.graph import (
    _WRITE_BLOCK,
    _dense_ids,
    _edge_list_graph,
    _line_count,
    _line_edge_list,
    _opened,
    _plain_pairs,
    _sections,
    _unique,
)
from hierlp.scores import ScoreKind, ScoreSpec

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

    def test_id_past_int64_read_as_token_in_auto_mode(self):
        g, _ = load_edge_list(text_stream("0 99999999999999999999\n"))
        assert g.vertex_labels == ["0", "99999999999999999999"]

    def test_id_past_int64_refused_in_integer_mode(self):
        with pytest.raises(GraphParseError) as excinfo:
            load_edge_list(text_stream("0 1\n0 9223372036854775808\n"), format="integer")
        assert excinfo.value.line_number == 2

    def test_largest_int64_id_is_an_integer(self):
        g, _ = load_edge_list(text_stream("0 9223372036854775807\n"), format="integer")
        assert g.vertex_labels == [0, 2**63 - 1]

    @pytest.mark.parametrize("format", ["auto", "integer"])
    def test_bad_line_deep_in_a_clean_file_named(self, format):
        lines = [f"{i} {i + 1}" for i in range(20000)]
        lines[12344] = "7 8 9"
        with pytest.raises(GraphParseError) as excinfo:
            load_edge_list(text_stream("# header\n" + "\n".join(lines) + "\n"), format=format)
        assert excinfo.value.line_number == 12346
        assert "expected 2 fields, got 3" in str(excinfo.value)

    def test_an_integer_id_is_a_sign_and_ascii_digits(self):
        """'1_0' is no spelling of 10 and '\u0663' none of 3: "auto" reads
        them as tokens, "integer" refuses their line."""
        for text, labels in (("1_0 5\n10 6\n", ["10", "1_0", "5", "6"]),
                             ("\u0663 5\n3 6\n", ["3", "5", "6", "\u0663"])):
            g, _ = load_edge_list(text_stream(text))
            assert (g.vertex_count, g.vertex_labels) == (4, labels)
            with pytest.raises(GraphParseError, match="non-numeric vertex id") as excinfo:
                load_edge_list(text_stream(text), format="integer")
            assert excinfo.value.line_number == 1
        g, _ = load_edge_list(text_stream("+3 -0\n"), format="integer")
        assert g.vertex_labels == [0, 3]


#: ids the fast path reads, and ids it must leave to the line loop
PLAIN_IDS = st.integers(0, 30).map(str) | st.integers(0, 30).map("00{}".format) | st.just(
    str(2**63 - 1)
)
OTHER_IDS = st.sampled_from(
    ["+3", "-0", "-2", str(2**63), "99999999999999999999", "x7", "1_0", "\u0663", "+-3"]
)
ID_TEXTS = PLAIN_IDS.map(lambda t: (t, True)) | OTHER_IDS.map(lambda t: (t, False))
BLANKS = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def edge_list_lines(draw):
    """(line, whether the fast path reads it, whether it holds an edge)."""
    kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank", "odd"]))
    lead, trail = draw(BLANKS), draw(BLANKS)
    if kind == "blank":
        return lead, True, False
    if kind == "comment":
        # a comment line may be led by any whitespace: the walker cuts it
        # on both paths
        lead = draw(st.sampled_from([lead, lead, "\v", "\f", "\x1c", " \xa0"]))
        return lead + "#" + draw(st.text(alphabet="ab #1\t", max_size=5)), True, False
    if kind == "odd":
        # one and three fields, '#' after an id, other blanks, a lone '\r'
        odd = ["5", "0 1 2", "0 1#c", "0 1 # c", "0\v1", "0\xa01", "0\r1", "\r0 1", "0 1\r"]
        return draw(st.sampled_from(odd)), False, True
    (a, a_plain), (b, b_plain) = draw(ID_TEXTS), draw(ID_TEXTS)
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    return lead + a + sep + b + trail, a_plain and b_plain, True


def _outcome(load):
    try:
        graph, report = load()
    except GraphParseError as error:
        return "error", error.line_number, str(error)
    return graph, graph.vertex_labels, report


class TestFastPath:
    @given(
        lines=st.lists(edge_list_lines(), max_size=12),
        endings=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=12, max_size=12),
        final_newline=st.booleans(),
        format=st.sampled_from(["auto", "integer", "token"]),
        gz=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_line_loop(self, tmp_path_factory, lines, endings, final_newline, format, gz):
        text = "".join(line + end for (line, _, _), end in zip(lines, endings))
        if lines and not final_newline:
            text = text.removesuffix(endings[len(lines) - 1])
        if gz:
            source = tmp_path_factory.getbasetemp() / "edges.txt.gz"
            with gzip.open(source, "wt", newline="") as fh:
                fh.write(text)
            with _opened(source) as fh:
                text = fh.read()  # the path's text, read with universal newlines
        else:
            source = io.StringIO(text)
        fast = _outcome(lambda: load_edge_list(source, format))
        bodies = [(body, first_line) for _, _, body, first_line in _sections(text)]
        by_line = _outcome(lambda: _edge_list_graph(
            _line_count(text), *_line_edge_list(bodies, format), len(bodies) - 1
        ))
        assert fast == by_line
        if all(plain for _, plain, _ in lines) and any(edge for _, _, edge in lines):
            assert _plain_pairs("".join(body for body, _ in bodies)) is not None

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 60) | st.integers(2**40, 2**40 + 30)
                        | st.integers(0, 2**63 - 1)] * 2),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_dense_ids_invert_one_sort(self, pairs):
        pairs = np.array(pairs, dtype=np.int64)
        ids, inverse = np.unique(pairs, return_inverse=True)
        labels = _dense_ids(pairs)
        assert np.array_equal(pairs.ravel(), inverse.ravel())
        assert labels == (None if np.array_equal(ids, np.arange(len(ids))) else ids.tolist())

    def test_counters_exact_with_comments_and_crlf(self):
        text = "# a\r\n  # b\r\n\r\n0 1\r\n\v# c\r\n\t1 2\r\n\f# d\r\n1 1\r\n0 1"
        bodies = [body for _, _, body, _ in _sections(text)]
        assert _plain_pairs("".join(bodies)) is not None
        _, report = load_edge_list(text_stream(text))
        assert (report.lines_total, report.comment_lines) == (9, 4)
        assert (report.raw_edges, report.self_loops_dropped) == (4, 1)
        assert (report.duplicate_edges_dropped, report.edges_retained) == (1, 2)


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
        # any value but an integer is refused before it indexes
        for x in (1.5, 0.0, np.float64(1.0), "0", None):
            with pytest.raises(TypeError, match=f"^vertex id must be an integer, got {re.escape(repr(x))}$"):
                g.out_neighbors(x)
        # an integer of any type is taken as an int
        assert g.out_neighbors(np.int64(0)).tolist() == g.out_neighbors(False).tolist() == [1]
        assert g.in_neighbors(True).tolist() == [0]


class TestRepresentation:
    """A graph stores its counts, labels and sorted edge keys alone; the
    other views are derived from the keys on first use."""

    STORED = {"vertex_count", "edge_count", "vertex_labels", "_out_keys", "_derived", "_split"}

    def assert_bare(self, g):
        assert set(vars(g)) == self.STORED
        assert g._derived == {} and g._split is None
        arrays = [value for value in vars(g).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is g.edge_keys()

    def test_new_and_loaded_graphs_hold_their_keys_alone(self):
        g = Graph(4, [2, 0, 3], [1, 3, 0], vertex_labels=list("abcd"))
        self.assert_bare(g)
        assert (g.vertex_count, g.edge_count, g.vertex_labels) == (4, 3, list("abcd"))
        assert g.edge_keys().tolist() == [3, 9, 12]
        loaded, _ = load_edge_list(text_stream("b a\nb c\nc a\n"))
        self.assert_bare(loaded)
        assert loaded.vertex_labels == ["a", "b", "c"]
        assert loaded.edge_keys().tolist() == [3, 5, 6]

    def test_views_derived_from_the_keys(self):
        g = graph_from_edges([(0, 1), (1, 0), (2, 0)])
        assert g.reverse_edge_keys().tolist() == [1, 2, 3]
        assert g._keys("undirected").tolist() == [1, 2, 3, 6]
        for view, indptr, indices in (("out", [0, 1, 2, 3], [1, 0, 0]), ("in", [0, 2, 3, 3], [1, 2, 0])):
            assert g._adjacency(view)[0].tolist() == indptr
            assert g._adjacency(view)[1].tolist() == indices
        empty = Graph(0, [], [])
        self.assert_bare(empty)
        for view in ("out", "in", "undirected"):
            indptr, indices = empty._adjacency(view)
            assert indptr.tolist() == [0] and len(indices) == 0

    def test_keys_shared_and_read_only(self):
        g = graph_from_edges([(0, 1), (2, 0)])
        for keys in (g.edge_keys, g.reverse_edge_keys):
            assert keys() is keys()
            with pytest.raises(ValueError):
                keys()[0] = 0

    def test_split_derives_no_view_of_the_full_graph(self):
        g = erdos_renyi_digraph(np.random.default_rng(31), 200)
        split_edges(g, 0.1, seed=1)
        views = {key[1] for key in g._derived if isinstance(key, tuple)}
        assert not views & {"in", "undirected"}

    def test_pickle_carries_no_derived_array(self):
        g = erdos_renyi_digraph(np.random.default_rng(32), 60)
        split = split_edges(g, 0.1, seed=2)
        train = split.train_graph
        score_all(train, ScoreSpec(ScoreKind.INF_LOG_KD), split.test_edges, workers=1)
        train.undirected_csr()
        assert train._derived and train._split is not None
        copy = pickle.loads(pickle.dumps(train))
        assert copy == train
        self.assert_bare(copy)
        assert not copy.edge_keys().flags.writeable


class TestInvariants:
    def test_construction_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [0])
        with pytest.raises(ValueError):
            Graph(2, [0, 0], [1, 1])

    @pytest.mark.parametrize("edge_u, edge_v", [
        ([0.5, 1.9], [1.2, 2.0]), ([0, np.nan], [1, 2]), ([0, 1], [np.inf, 2]),
    ])
    def test_construction_rejects_non_integer_ids(self, edge_u, edge_v):
        """An id is not truncated to an integer, and NaN or infinity is
        refused before a cast could warn."""
        with pytest.raises(ValueError, match="finite integers"):
            Graph(3, edge_u, edge_v)

    @pytest.mark.parametrize("vertex_count", [3.7, np.float64(2.5), np.nan, np.inf])
    def test_construction_rejects_a_non_integral_vertex_count(self, vertex_count):
        """A vertex count is not truncated: Graph(3.7, ...) is no 3-vertex graph."""
        with pytest.raises(ValueError, match="vertex_count must be a finite integer"):
            Graph(vertex_count, [0], [1])

    @pytest.mark.parametrize("vertex_count", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_construction_accepts_an_integral_vertex_count(self, vertex_count):
        g = Graph(vertex_count, [0], [1])
        assert g.vertex_count == 3 and type(g.vertex_count) is int

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

    @pytest.mark.parametrize("edges", [0, 1, _WRITE_BLOCK, _WRITE_BLOCK + 1, 2 * _WRITE_BLOCK + 3])
    def test_bytes_match_per_line_format(self, edges):
        i = np.arange(edges)
        g = Graph(edges + 2, i + 1, np.where(i % 2, 0, edges + 1))
        buf = io.StringIO()
        write_edge_list(g, buf)
        u, v = g.edges()
        assert buf.getvalue() == "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))

    def test_canonical_output_sorted(self, tmp_path):
        g = graph_from_edges([(2, 0), (0, 2), (0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_text() == "0 1\n0 2\n2 0\n"
