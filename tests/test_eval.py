import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlp import (
    Graph,
    ThresholdHistogram,
    area_under_pr,
    area_under_roc,
    build_curves,
    load_split,
    save_split,
    split_edges,
)
from hierlp.engine import BUCKET_DTYPE
from hierlp.evaluate import load_summary, write_curve_csv, write_summary
from hierlp.graph import _WRITE_BLOCK
from hierlp.oracle import naive_area_under_pr, naive_area_under_roc, naive_curves

from conftest import erdos_renyi_digraph, graph_from_edges


def hist(buckets, zero, positives, negatives):
    """Histogram of a {value: (tp, fp)} mapping."""
    rows = sorted(((value, tp, fp) for value, (tp, fp) in buckets.items()), reverse=True)
    return ThresholdHistogram(np.array(rows, dtype=BUCKET_DTYPE), zero, positives, negatives)


class TestSplitEdges:
    def test_ten_edge_graph_fraction_tenth(self):
        g = graph_from_edges([(i, i + 1) for i in range(10)])
        split = split_edges(g, 0.1, seed=1)
        assert split.train_graph.edge_count == 9
        assert len(split.test_edges) + len(split.dropped_test_edges) == 1

    def test_same_seed_identical(self):
        rng = np.random.default_rng(41)
        g = erdos_renyi_digraph(rng, 100)
        a = split_edges(g, 0.2, seed=9)
        b = split_edges(g, 0.2, seed=9)
        assert a.train_graph == b.train_graph
        assert np.array_equal(a.test_edges, b.test_edges)
        assert np.array_equal(a.dropped_test_edges, b.dropped_test_edges)

    def test_disconnected_leaf_moves_to_dropped(self):
        # star c -> l1..l5; removing one spoke disconnects its leaf
        g = graph_from_edges([(0, i) for i in range(1, 6)])
        for seed in range(10):
            split = split_edges(g, 0.2, seed=seed)
            assert len(split.dropped_test_edges) == 1
            assert len(split.test_edges) == 0
            leaf = split.dropped_test_edges[0][1]
            assert split.train_graph.in_degrees[leaf] == 0

    def test_test_edges_disjoint_from_train(self):
        rng = np.random.default_rng(43)
        g = erdos_renyi_digraph(rng, 200)
        split = split_edges(g, 0.1, seed=3)
        train_keys = set(split.train_graph.edge_keys().tolist())
        n = g.vertex_count
        for u, v in split.test_edges.tolist():
            assert u * n + v not in train_keys
            assert split.train_graph.out_degrees[u] + split.train_graph.in_degrees[u] > 0
            assert split.train_graph.out_degrees[v] + split.train_graph.in_degrees[v] > 0

    def test_fraction_validation(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            split_edges(g, 0.0, seed=1)
        with pytest.raises(ValueError):
            split_edges(g, 1.0, seed=1)

    def test_round_trip_through_file(self, tmp_path):
        rng = np.random.default_rng(44)
        g = erdos_renyi_digraph(rng, 150)
        split = split_edges(g, 0.15, seed=77)
        path = tmp_path / "split.txt"
        save_split(split, path)
        reloaded = load_split(g, path)
        assert reloaded.seed == 77
        assert reloaded.train_graph == split.train_graph
        assert np.array_equal(reloaded.test_edges, split.test_edges)

    def test_split_of_another_graph_refused(self, tmp_path):
        g = erdos_renyi_digraph(np.random.default_rng(44), 150)
        path = tmp_path / "split.txt"
        save_split(split_edges(g, 0.15, seed=77), path)
        u, v = g.edges()
        bigger = Graph(g.vertex_count + 1, u, v)
        with pytest.raises(ValueError, match="vertices"):
            load_split(bigger, path)

    SPLIT_HEAD = "# hierlp edge split\n# seed 1\n# fraction 0.5\n# vertices 4\n"

    @pytest.mark.parametrize(
        "body",
        [
            "# test 2\n0 1\n0 1\n# dropped 0\n",
            "# test 1\n0 1\n# dropped 1\n0 1\n",
        ],
    )
    def test_edge_listed_twice_refused(self, body):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match=r"lists edge \(0, 1\) twice"):
            load_split(g, io.StringIO(self.SPLIT_HEAD + body))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("# test 2\n0 1\n#\n1 2\n# dropped 0\n", "malformed split file: line 7: '#'"),
            ("# test 2\n0 1\n1\n# dropped 0\n", "line 7: expected 2 fields, got 1: '1'"),
            ("# test 2\n0 1\n0 1 7\n# dropped 0\n", "line 7: expected 2 fields, got 3: '0 1 7'"),
            ("# test 1\n0 99999999999999999999\n# dropped 0\n", "malformed split file: line 6"),
            ("# test 1\n0 1\n# seed\n# dropped 0\n", "malformed split file: line 7: '# seed'"),
        ],
    )
    def test_malformed_line_refused_by_number(self, body, message):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match=message):
            load_split(g, io.StringIO(self.SPLIT_HEAD + body))

    @pytest.mark.parametrize(
        "line, rule",
        [
            ("# fraction nan", "a float in (0, 1)"),
            ("# fraction inf", "a float in (0, 1)"),
            ("# fraction 1.5", "a float in (0, 1)"),
            ("# fraction 1", "a float in (0, 1)"),
            ("# fraction 0", "a float in (0, 1)"),
            ("# fraction -0.5", "a float in (0, 1)"),
            ("# seed -7", "an integer >= 0"),
        ],
    )
    def test_header_value_split_edges_cannot_write_refused(self, line, rule):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        key = line.split()[1]
        head = "".join(
            f"{line}\n" if known.startswith(f"# {key} ") else f"{known}\n"
            for known in self.SPLIT_HEAD.splitlines()
        )
        number = head.splitlines().index(line) + 1
        with pytest.raises(ValueError) as refused:
            load_split(g, io.StringIO(head + "# test 1\n0 1\n# dropped 0\n"))
        assert str(refused.value) == f"malformed split file: line {number}: {line!r}: expected " + (
            f"'# {key} {'float' if key == 'fraction' else 'int'}', {rule}"
        )

    @pytest.mark.parametrize(
        "head, line, number",
        [
            (SPLIT_HEAD, "# test 1_0", 5),
            (SPLIT_HEAD.replace("# seed 1", "# seed 0_1"), "# seed 0_1", 2),
            (SPLIT_HEAD.replace("# fraction 0.5", "# fraction 0.5_0"), "# fraction 0.5_0", 3),
            (SPLIT_HEAD.replace("# vertices 4", "# vertices \u0664"), "# vertices \u0664", 4),
        ],
        ids=["underscore-test", "underscore-seed", "underscore-fraction", "arabic-indic-vertices"],
    )
    def test_header_value_that_is_no_ascii_numeral_refused(self, head, line, number):
        """int and float would read '1_0' as 10 and the digits of other
        scripts; the header reads ASCII numerals alone."""
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        body = "# test 1\n0 1\n# dropped 0\n" if "test" not in line else f"{line}\n0 1\n# dropped 0\n"
        with pytest.raises(ValueError) as refused:
            load_split(g, io.StringIO(head + body))
        assert str(refused.value).startswith(f"malformed split file: line {number}: {line!r}: expected '# ")

    def test_vertex_beyond_the_graph_refused(self):
        # with n = 4, the key 0 * 4 + 6 of (0, 6) is that of the edge (1, 2)
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match="absent from the graph"):
            load_split(g, io.StringIO(self.SPLIT_HEAD + "# test 1\n0 6\n# dropped 0\n"))

    def test_bytes_match_per_line_format(self):
        g = erdos_renyi_digraph(np.random.default_rng(45), 5000, edge_factor=5)
        split = split_edges(g, 0.5, seed=3)
        assert len(split.test_edges) > 2 * _WRITE_BLOCK
        buf = io.StringIO()
        save_split(split, buf)
        lines = ["# hierlp edge split", "# seed 3", "# fraction 0.5", "# vertices 5000"]
        for name, edges in (("test", split.test_edges), ("dropped", split.dropped_test_edges)):
            lines.append(f"# {name} {len(edges)}")
            lines.extend(f"{u} {v}" for u, v in edges.tolist())
        assert buf.getvalue() == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize(
        "text, message",
        [
            # each header key is required, once
            ("# hierlp edge split\n# fraction 0.5\n# vertices 4\n# test 1\n0 1\n# dropped 0\n",
             "no '# seed' line"),
            ("# hierlp edge split\n# seed 1\n# vertices 4\n# test 1\n0 1\n# dropped 0\n",
             "no '# fraction' line"),
            ("# hierlp edge split\n# seed 1\n# fraction 0.5\n# test 1\n0 1\n# dropped 0\n",
             "no '# vertices' line"),
            (SPLIT_HEAD + "# test 1\n0 1\n", "no '# dropped' line"),
            (SPLIT_HEAD + "# seed 2\n# test 1\n0 1\n# dropped 0\n",
             "line 5: '# seed 2': a second 'seed' line"),
            (SPLIT_HEAD + "# test 1\n0 1\n# dropped 0\n# vertices 4\n",
             "line 8: '# vertices 4': a second 'vertices' line"),
            (SPLIT_HEAD + "# test 1\n0 1\n# test 0\n# dropped 0\n",
             "line 7: '# test 0': a second 'test' line"),
            # a key must be known and carry its value
            (SPLIT_HEAD + "# test 1\n0 1\n# seeds 2\n# dropped 0\n",
             "line 7: '# seeds 2': no key of seed, fraction"),
            (SPLIT_HEAD + "# test\n0 1\n# dropped 0\n", "line 5: '# test': expected '# test int'"),
            # edges belong to the test and dropped sections
            (SPLIT_HEAD + "\n0 1\n# test 0\n# dropped 0\n", "line 6: a row after '# vertices 4'"),
            # a line led by any whitespace, then '#', is a header line
            (SPLIT_HEAD + "# test 1\n0 1\n\f# garbage\n# dropped 0\n",
             "line 7: '# garbage': no key of seed, fraction"),
        ],
        ids=[
            "no-seed", "no-fraction", "no-vertices", "no-dropped", "second-seed",
            "second-vertices", "second-test", "unknown-key", "no-value", "edge-outside-sections",
            "stray-comment",
        ],
    )
    def test_malformed_header_refused(self, text, message):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match=f"^malformed split file: {message}"):
            load_split(g, io.StringIO(text))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("# test 99\n0 1\n1 2\n# dropped 0\n", "declares 99 test edges but lists 2"),
            ("# test 1\n0 1\n# dropped 2\n1 2\n", "declares 2 dropped edges but lists 1"),
        ],
    )
    def test_section_count_mismatch_refused(self, body, message):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match=message):
            load_split(g, io.StringIO(self.SPLIT_HEAD + body))


class TestBuildCurves:
    def test_hand_enumerated_three_thresholds(self):
        h = hist({0.9: (1, 0), 0.7: (0, 1), 0.5: (1, 0)}, (0, 0), 2, 1)
        report = build_curves(h)
        expected = [[0.5, 1.0], [0.5, 0.5], [1.0, 2 / 3]]
        assert report.pr_points.tolist() == expected
        assert list(report.thresholds) == [0.9, 0.7, 0.5]

    def test_degenerate_predictor_flatlines(self):
        h = hist({}, (5, 10**6 - 5), 5, 10**6 - 5)
        report = build_curves(h)
        assert len(report.pr_points) == 1
        recall, precision = report.pr_points[0]
        assert recall == 1.0
        assert precision == 5 / 10**6
        assert report.aupr < 1e-5

    def test_perfect_separation(self):
        h = hist({2.0: (10, 0)}, (0, 90), 10, 90)
        report = build_curves(h)
        assert report.aupr == 1.0
        assert report.auroc == 1.0

    def test_monotonicity_and_endpoints(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            h = _random_histogram(rng)
            report = build_curves(h)
            assert np.all(np.diff(report.pr_points[:, 0]) >= 0)
            assert np.all(np.diff(report.roc_points[:, 0]) >= 0)
            assert np.all(np.diff(report.roc_points[:, 1]) >= 0)
            assert report.pr_points[-1, 0] == 1.0
            assert tuple(report.roc_points[-1]) == (1.0, 1.0)
            assert 0.0 <= report.aupr <= 1.0
            assert 0.0 <= report.auroc <= 1.0

    def test_degenerate_predictor_attains_prevalence_floor(self):
        # a predictor that ranks nothing still gets AUPR = P / (P + Neg);
        # the prevalence floor holds for such all-zero histograms (a
        # worse-than-random ranking can dip below it under step
        # integration, so it is not asserted for arbitrary histograms)
        for p, neg in ((5, 95), (1, 10**6)):
            h = hist({}, (p, neg), p, neg)
            assert build_curves(h).aupr == p / (p + neg)

    def test_conservation_violation_rejected(self):
        from hierlp import ValidationError

        h = hist({1.0: (2, 0)}, (0, 0), 1, 5)
        with pytest.raises(ValidationError):
            build_curves(h)

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            h = _random_histogram(rng)
            report = build_curves(h)
            thresholds, pr, roc = naive_curves(h)
            assert np.array_equal(report.thresholds, thresholds)
            assert np.array_equal(report.pr_points, pr)
            assert np.array_equal(report.roc_points, roc)
            assert report.aupr == naive_area_under_pr(pr)


    @given(
        rows=st.lists(
            st.tuples(
                st.floats(1e-300, 1e300, allow_nan=False),
                st.integers(0, 3) | st.integers(0, 10**12),
                st.integers(0, 3) | st.integers(0, 10**12),
            ),
            max_size=40,
            unique_by=lambda row: row[0],
        ),
        zero=st.just((0, 0)) | st.tuples(st.integers(0, 5), st.integers(0, 10**9)),
        no_positives=st.booleans(),
        no_negatives=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_of_the_plain_formulas(self, rows, zero, no_positives, no_negatives):
        """Points and areas equal, bit for bit, those of the plain
        formulas kept below: with and without a zero bucket, with no
        bucket at all, and with no positives or no negatives."""
        rows = [(v, 0 if no_positives else tp, 0 if no_negatives else fp) for v, tp, fp in rows]
        zero = (0 if no_positives else zero[0], 0 if no_negatives else zero[1])
        buckets = np.array(sorted(rows, reverse=True), dtype=BUCKET_DTYPE)
        h = ThresholdHistogram(
            buckets, zero, int(buckets["tp"].sum()) + zero[0], int(buckets["fp"].sum()) + zero[1]
        )
        report = build_curves(h)
        thresholds, pr, roc, aupr, auroc = _plain_curves(h)
        assert report.thresholds.tobytes() == thresholds.tobytes()
        assert report.pr_points.tobytes() == pr.tobytes()
        assert report.roc_points.tobytes() == roc.tobytes()
        assert (report.aupr.hex(), report.auroc.hex()) == (aupr.hex(), auroc.hex())
        assert (area_under_pr(pr).hex(), area_under_roc(roc).hex()) == (aupr.hex(), auroc.hex())


def _plain_curves(histogram):
    """(thresholds, PR points, ROC points, AUPR, AUROC) of ``histogram`` by
    the plain formulas: the zero bucket concatenated, one prefix sum per
    count, a rate masked to 1 where its denominator is not positive, and
    areas over columns shifted by concatenation."""
    buckets = histogram.buckets
    thresholds, tp, fp = buckets["value"], buckets["tp"], buckets["fp"]
    if histogram.zero_bucket != (0, 0) or not len(buckets):
        thresholds = np.concatenate((thresholds, [0.0]))
        tp = np.concatenate((tp, [histogram.zero_bucket[0]]))
        fp = np.concatenate((fp, [histogram.zero_bucket[1]]))
    cum_tp, cum_fp = np.cumsum(tp), np.cumsum(fp)

    def rate(numerator, denominator):
        denominator = np.broadcast_to(np.asarray(denominator, dtype=np.int64), numerator.shape)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denominator > 0, numerator / denominator, 1.0)

    recall = rate(cum_tp, histogram.positives_total)
    pr = np.column_stack([recall, rate(cum_tp, cum_tp + cum_fp)])
    roc = np.column_stack([rate(cum_fp, histogram.negatives_total), recall])
    recall_steps = pr[:, 0] - np.concatenate(([0.0], pr[:-1, 0]))
    aupr = float(np.cumsum(pr[:, 1] * recall_steps)[-1])
    previous = np.concatenate(([[0.0, 0.0]], roc[:-1]))
    auroc = float(np.cumsum((roc[:, 0] - previous[:, 0]) * (roc[:, 1] + previous[:, 1]) / 2.0)[-1])
    return np.ascontiguousarray(thresholds), pr, roc, aupr, auroc


def _random_histogram(rng):
    count = int(rng.integers(1, 40))
    values = np.unique(rng.uniform(0.001, 10.0, count))
    buckets = {
        float(v): (int(rng.integers(0, 5)), int(rng.integers(0, 50))) for v in values
    }
    zero = (int(rng.integers(0, 5)), int(rng.integers(1, 100)))
    p = sum(b[0] for b in buckets.values()) + zero[0]
    neg = sum(b[1] for b in buckets.values()) + zero[1]
    if p == 0:
        buckets[float(values[0])] = (1, buckets[float(values[0])][1])
        p = 1
    return hist(buckets, zero, p, neg)


class TestAreas:
    def test_step_sum_by_hand(self):
        points = [(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)]
        assert area_under_pr(points) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
        assert area_under_pr(points) == pytest.approx(0.8333, abs=1e-4)

    def test_perfect_classifier(self):
        assert area_under_pr([(1.0, 1.0)]) == 1.0
        assert area_under_roc([(0.0, 1.0), (1.0, 1.0)]) == 1.0

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            area_under_pr([(0.7, 0.5), (0.3, 1.0)])
        with pytest.raises(ValueError):
            area_under_roc([(0.7, 0.5), (0.3, 1.0)])

    def test_dominance_transfers_to_aupr(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            h_b = _random_histogram(rng)
            # classifier A: same thresholds, each cumulative (tp, fp) dominates
            # B's by moving one fp from every bucket into the zero bucket
            buckets_a = h_b.buckets.copy()
            take = buckets_a["fp"] > 0
            buckets_a["fp"] -= take
            moved = int(take.sum())
            h_a = ThresholdHistogram(
                buckets_a,
                (h_b.zero_bucket[0], h_b.zero_bucket[1] + moved),
                h_b.positives_total,
                h_b.negatives_total,
            )
            aupr_a = build_curves(h_a).aupr
            aupr_b = build_curves(h_b).aupr
            assert aupr_a >= aupr_b - 1e-12

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_naive_loops(self, points):
        points = sorted(points)
        assert area_under_pr(points).hex() == naive_area_under_pr(points).hex()
        assert area_under_roc(points).hex() == naive_area_under_roc(points).hex()


# values whose repr is tricky: subnormals, scientific notation, exact
# ends, and a signed zero that compares equal to 0.0
_TRICKY = [0.0, -0.0, 1.0, 5e-324, 2.5e-310, 1e-07, 1.2345678901234567e-07, 1 / 3, 0.1, 3e16]
_runs = st.lists(st.tuples(st.sampled_from(_TRICKY), st.integers(1, 40)), max_size=12)


def _column(runs):
    return [value for value, length in runs for _ in range(length)]


#: row counts about the writers' block edges
_BLOCK_ROWS = [_WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1, 2 * _WRITE_BLOCK + 3]


def _block_edges(rows):
    """The first row of every block after the first; the last row when
    there is one block only."""
    return range(_WRITE_BLOCK, rows, _WRITE_BLOCK) or [rows - 1]


class TestWriters:
    """The writers format a run of equal values once; the bytes must be
    those of a repr per value."""

    @given(xs=_runs, ys=_runs)
    @settings(max_examples=200, deadline=None)
    def test_curve_csv_matches_repr(self, xs, ys):
        xs, ys = _column(xs), _column(ys)
        size = min(len(xs), len(ys))
        points = np.column_stack([xs[:size], ys[:size]]).reshape(-1, 2)
        buf = io.StringIO()
        write_curve_csv(points, "recall,precision", buf)
        expected = ["recall,precision"] + [f"{x!r},{y!r}" for x, y in points.tolist()]
        assert buf.getvalue().splitlines() == expected

    @given(
        values=st.sets(st.sampled_from([v for v in _TRICKY if v]) | st.floats(1e-9, 1e3), max_size=40),
        tp=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 15)), max_size=10),
        fp=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 15)), max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_dump_matches_repr(self, values, tp, fp):
        values = sorted(values, reverse=True)
        tp, fp = _column(tp), _column(fp)
        size = min(len(values), len(tp), len(fp))
        rows = list(zip(values[:size], tp[:size], fp[:size]))
        h = ThresholdHistogram(np.array(rows, dtype=BUCKET_DTYPE), (0, 5), sum(tp[:size]), sum(fp[:size]) + 5)
        buf = io.StringIO()
        h.dump(buf)
        expected = [f"{value!r} {t} {f}" for value, t, f in rows] + [
            "# zero_bucket 0 5",
            f"# positives_total {h.positives_total}",
            f"# negatives_total {h.negatives_total}",
        ]
        assert buf.getvalue().splitlines() == expected

    @pytest.mark.parametrize("rows", _BLOCK_ROWS)
    def test_curve_csv_at_block_edges(self, rows):
        xs = np.linspace(0.0, 1.0, rows)
        ys = np.linspace(1.0, 0.5, rows)
        for edge in _block_edges(rows):
            xs[edge - 7:edge + 7] = 1 / 3  # one run across the edge
            ys[edge - 1], ys[edge] = 0.0, -0.0  # equal, but their reprs differ
        buf = io.StringIO()
        write_curve_csv(np.column_stack([xs, ys]), "fpr,tpr", buf)
        expected = ["fpr,tpr"] + [f"{x!r},{y!r}" for x, y in zip(xs.tolist(), ys.tolist())]
        assert buf.getvalue().splitlines() == expected

    @pytest.mark.parametrize("rows", _BLOCK_ROWS)
    def test_dump_at_block_edges(self, rows):
        buckets = np.zeros(rows, dtype=BUCKET_DTYPE)
        buckets["value"] = np.geomspace(1e3, 1e-9, rows)
        buckets["fp"] = 1
        for edge in _block_edges(rows):
            buckets["tp"][edge - 7:edge + 7] = 2  # one run across the edge
            buckets["value"][edge - 1], buckets["value"][edge] = 0.0, -0.0
        h = ThresholdHistogram(buckets, (0, 5), int(buckets["tp"].sum()), rows + 5)
        buf = io.StringIO()
        h.dump(buf)
        expected = [f"{value!r} {t} {f}" for value, t, f in buckets.tolist()] + [
            "# zero_bucket 0 5",
            f"# positives_total {h.positives_total}",
            f"# negatives_total {h.negatives_total}",
        ]
        assert buf.getvalue().splitlines() == expected
        # a histogram holds no zero value: the reader names the first
        with pytest.raises(ValueError, match=f"line {_block_edges(rows)[0]}: '0.0 2 1'"):
            ThresholdHistogram.load(io.StringIO(buf.getvalue()))
        buckets["value"] = np.geomspace(1e3, 1e-9, rows)
        buf = io.StringIO()
        h.dump(buf)
        assert ThresholdHistogram.load(io.StringIO(buf.getvalue())) == h

    def test_writers_hold_one_block(self):
        # 100,000 rows: held as lines, either artifact takes over 20 MB;
        # one block of it takes under 1 MB
        rows = 100_000
        buckets = np.zeros(rows, dtype=BUCKET_DTYPE)
        buckets["value"] = np.geomspace(1e3, 1e-9, rows)
        buckets["tp"] = np.arange(rows) % 7 == 0
        buckets["fp"] = 1 + np.arange(rows) % 3
        h = ThresholdHistogram(
            buckets, (1, 2), int(buckets["tp"].sum()) + 1, int(buckets["fp"].sum()) + 2
        )
        roc_points = build_curves(h).roc_points
        peaks = []
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                h.dump(sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                write_curve_csv(roc_points, "fpr,tpr", sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert all(peak < 4 * 2**20 for peak in peaks), peaks


_SUMMARY = {"score": "cn", "seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100,
            "aupr": 0.25, "auroc": 0.5, "log_base": 2.0}


class TestLoadSummary:
    """A summary is read back under one table of the fields ``compare``
    reads, each with its JSON type."""

    def test_written_summary_reads_back(self):
        sink = io.StringIO()
        write_summary(dict(_SUMMARY, k=2.0, threads=1), sink)
        assert load_summary(io.StringIO(sink.getvalue())) == dict(_SUMMARY, k=2.0, threads=1)

    def test_log_base_may_be_absent(self):
        record = {key: value for key, value in _SUMMARY.items() if key != "log_base"}
        assert load_summary(io.StringIO(json.dumps(record))) == record

    def test_integral_numbers_taken(self):
        record = dict(_SUMMARY, aupr=1, auroc=0, fraction=1, log_base=2)
        assert load_summary(io.StringIO(json.dumps(record))) == record

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "not a JSON object"),
            (json.dumps({k: v for k, v in _SUMMARY.items() if k != "auroc"}), "no auroc"),
            (json.dumps(dict(_SUMMARY, aupr="0.5")), 'aupr is "0.5", not a JSON number'),
            (json.dumps(dict(_SUMMARY, aupr=None)), "aupr is null, not a JSON number"),
            (json.dumps(dict(_SUMMARY, score=["x"])), 'score is \\["x"\\], not a JSON string'),
            (json.dumps(dict(_SUMMARY, seed=True)), "seed is true, not a JSON integer"),
            (json.dumps(dict(_SUMMARY, seed=1.0)), "seed is 1.0, not a JSON integer"),
            (json.dumps(dict(_SUMMARY, positives=False)), "positives is false, not a JSON integer"),
            (json.dumps(dict(_SUMMARY, fraction=True)), "fraction is true, not a JSON number"),
            (json.dumps(dict(_SUMMARY, log_base=None)), "log_base is null, not a JSON number"),
        ],
        ids=["array", "missing", "string-aupr", "null-aupr", "list-score", "bool-seed", "float-seed",
             "bool-count", "bool-fraction", "null-log-base"],
    )
    def test_other_summaries_refused(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_summary(io.StringIO(text))

    def test_no_json_refused(self):
        with pytest.raises(ValueError):
            load_summary(io.StringIO("0.5 1 2\n"))
