import io
import math
import os
import pickle
import re
import threading
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlp import (
    Graph,
    MemoryGuardError,
    ThresholdHistogram,
    ValidationError,
    oracle_score_all,
    score_all,
    score_from_vertex,
    universe_stats,
)
from hierlp import engine
from hierlp.engine import _buckets, _inv_log_weights, _log_of_degrees, _merge, chunk_size_for
from hierlp.scores import INF_FAMILY, UNDIRECTED_KINDS, ScoreKind, ScoreSpec, log_in_base

from conftest import erdos_renyi_digraph, graph_from_edges, hub_first, preferential_attachment_digraph

NO_TEST = np.empty((0, 2), dtype=np.int64)


class TestUniverseStats:
    def test_formula_unrolled(self):
        # 3 eligible vertices, 2 training edges among them
        g = graph_from_edges([(0, 1), (1, 2)])
        uni = universe_stats(g, NO_TEST)
        assert uni.eligible_count == 3
        assert uni.universe_size == 6 - 2 == 4

    def test_isolated_vertex_excluded(self):
        g = graph_from_edges([(0, 1)], n=3)
        uni = universe_stats(g, NO_TEST)
        assert uni.eligible_count == 2
        assert not uni.eligible_mask[2]

    def test_eligible_mask_read_only(self, four_cycle):
        # shared by every later check of the graph, whatever its test set
        mask = universe_stats(four_cycle, NO_TEST).eligible_mask
        with pytest.raises(ValueError):
            mask[0] = False
        assert score_all(four_cycle, ScoreSpec(ScoreKind.DED), [(0, 2)]).positives_total == 1

    def test_test_edge_in_training_graph_rejected(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        with pytest.raises(ValidationError):
            universe_stats(g, [(0, 1)])


class TestScoreFromVertex:
    def test_star_ded_example(self):
        # x -> {a, b}, a -> y, b -> y
        g = graph_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        buckets, count = score_from_vertex(g, 0, ScoreSpec(ScoreKind.DED), [(0, 3)])
        assert buckets.tolist() == [(1.0, 1, 0)]
        assert count == 1
        # a vertex id is taken as an int (operator.index), before any indexing
        for x in (np.int64(0), False):
            buckets, count = score_from_vertex(g, x, ScoreSpec(ScoreKind.DED), [(0, 3)])
            assert (buckets.tolist(), count) == ([(1.0, 1, 0)], 1)
        for x in (0.0, 2.5, np.float64(1.0), "0"):
            with pytest.raises(TypeError, match=f"^vertex id must be an integer, got {re.escape(repr(x))}$"):
                score_from_vertex(g, x, ScoreSpec(ScoreKind.DED), [(0, 3)])

    def test_no_two_hop_paths_is_empty(self):
        g = graph_from_edges([(0, 1)], n=3)
        buckets, count = score_from_vertex(g, 0, ScoreSpec(ScoreKind.DED), NO_TEST)
        assert len(buckets) == 0
        assert count == 0

    def test_existing_training_edge_not_emitted(self):
        # x -> z -> y with (x, y) already an edge
        g = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        buckets, count = score_from_vertex(g, 0, ScoreSpec(ScoreKind.DED), NO_TEST)
        assert len(buckets) == 0
        assert count == 0

    def test_ineligible_vertex_skipped(self):
        g = graph_from_edges([(0, 1)], n=3)
        buckets, count = score_from_vertex(g, 2, ScoreSpec(ScoreKind.CN), NO_TEST)
        assert len(buckets) == 0 and count == 0

    @pytest.mark.parametrize(
        "test_edges, message",
        [
            ([(0, 2)], "present in the training graph"),
            ([(0, 3), (0, 3)], "duplicate"),
            ([(0, 0)], "self-loop"),
            # the overlap is named first, though the duplicate's key is lower
            ([(0, 3), (1, 0), (0, 3), (2, 3)], "present in the training graph"),
        ],
    )
    def test_held_out_edges_checked(self, test_edges, message):
        g = Graph(4, [0, 1, 0, 2], [1, 2, 2, 3])
        with pytest.raises(ValidationError, match=message):
            score_from_vertex(g, 0, ScoreSpec(ScoreKind.DED), test_edges)


class TestScoreAllFourCycle:
    def test_ded_hand_enumeration(self, four_cycle):
        hist = score_all(four_cycle, ScoreSpec(ScoreKind.DED), [(0, 2)], workers=1)
        # only length-2 directed paths exist; each candidate scores 1.0
        assert hist.buckets.tolist() == [(1.0, 1, 3)]
        assert hist.positives_total == 1
        assert hist.negatives_total == 7
        assert hist.zero_bucket == (0, 4)

    def test_empty_test_set(self, four_cycle):
        hist = score_all(four_cycle, ScoreSpec(ScoreKind.DED), NO_TEST, workers=1)
        assert hist.positives_total == 0
        assert not hist.buckets["tp"].any()
        assert hist.zero_bucket[0] == 0

    def test_worker_counts_identical(self, four_cycle):
        results = [
            score_all(four_cycle, ScoreSpec(ScoreKind.DED), [(0, 2)], workers=w, chunk_size=1)
            for w in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]


class TestScoreAllValidation:
    def test_test_edge_in_training_graph(self, four_cycle):
        with pytest.raises(ValidationError):
            score_all(four_cycle, ScoreSpec(ScoreKind.CN), [(0, 1)])

    @pytest.mark.parametrize(
        "test_edges, message",
        [
            ([(0, 0)], "self-loop"),
            ([(0, 2), (1, 3), (0, 2)], "duplicate"),
            # truncated, (0.5, 2.5) would be the valid pair (0, 2)
            (np.array([[0.5, 2.5]]), "integer"),
        ],
    )
    def test_pair_outside_universe(self, four_cycle, test_edges, message):
        with pytest.raises(ValidationError, match=message):
            score_all(four_cycle, ScoreSpec(ScoreKind.DED), test_edges)
        with pytest.raises(ValidationError, match=message):
            universe_stats(four_cycle, test_edges)

    def test_ineligible_test_endpoint(self):
        g = graph_from_edges([(0, 1)], n=3)
        with pytest.raises(ValidationError):
            score_all(g, ScoreSpec(ScoreKind.CN), [(0, 2)])

    def test_chunk_size_range(self, four_cycle):
        with pytest.raises(ValidationError):
            score_all(four_cycle, ScoreSpec(ScoreKind.CN), NO_TEST, chunk_size=0)
        with pytest.raises(ValidationError):
            score_all(four_cycle, ScoreSpec(ScoreKind.CN), NO_TEST, chunk_size=5)

    @pytest.mark.parametrize("chunk_size", [1.5, 2.0, np.float64(2.0), "2", True, False])
    def test_chunk_size_must_be_an_integer(self, four_cycle, chunk_size):
        """A chunk size is not truncated and does not reach ``range``; a
        bool is no integer option, though Python counts True as 1."""
        with pytest.raises(ValidationError, match="chunk_size must be None or an integer"):
            score_all(four_cycle, ScoreSpec(ScoreKind.CN), NO_TEST, chunk_size=chunk_size)

    def test_numpy_integer_chunk_size(self, four_cycle):
        spec = ScoreSpec(ScoreKind.CN)
        assert score_all(four_cycle, spec, NO_TEST, chunk_size=np.int32(2)) == score_all(
            four_cycle, spec, NO_TEST, chunk_size=2
        )

    @pytest.mark.parametrize("limits", [
        {"workers": 0}, {"workers": -3}, {"workers": 1.7}, {"workers": True},
        {"max_buckets": -1}, {"max_buckets": 0.5}, {"max_buckets": False}, {"max_buckets": True},
    ])
    def test_workers_and_max_buckets_checked_before_any_work(self, four_cycle, limits, monkeypatch):
        checks, folds = _counting(monkeypatch, "_marker"), _counting(monkeypatch, "_fold_chunk")
        with pytest.raises(ValidationError, match=next(iter(limits))):
            score_all(four_cycle, ScoreSpec(ScoreKind.CN), NO_TEST, **limits)
        assert checks == folds == []

    def test_memory_guardrail_hard_failure(self):
        rng = np.random.default_rng(5)
        g = erdos_renyi_digraph(rng, 60)
        with pytest.raises(MemoryGuardError):
            score_all(g, ScoreSpec(ScoreKind.AA), NO_TEST, workers=1, max_buckets=1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_memory_guardrail_independent_of_workers_and_chunks(self, workers, chunk_size):
        g = erdos_renyi_digraph(np.random.default_rng(5), 60)
        distinct = len(score_all(g, ScoreSpec(ScoreKind.AA), NO_TEST, workers=1).buckets)
        assert distinct > 1
        chunk_size = chunk_size or g.vertex_count
        hist = score_all(g, ScoreSpec(ScoreKind.AA), NO_TEST, workers=workers,
                         chunk_size=chunk_size, max_buckets=distinct)
        assert len(hist.buckets) == distinct
        with pytest.raises(MemoryGuardError, match=f"max_buckets={distinct - 1}"):
            score_all(g, ScoreSpec(ScoreKind.AA), NO_TEST, workers=workers,
                      chunk_size=chunk_size, max_buckets=distinct - 1)

    def test_failing_worker_stops_the_run(self, monkeypatch):
        g = erdos_renyi_digraph(np.random.default_rng(3), 300)
        real_fold = engine._fold_chunk
        folded = []
        lock = threading.Lock()

        def fail_first(ctx, lo, *rest):
            with lock:
                folded.append(lo)
                first = len(folded) == 1
            if first:
                raise ValidationError("first chunk fails")
            return real_fold(ctx, lo, *rest)

        monkeypatch.setattr(engine, "_fold_chunk", fail_first)
        with pytest.raises(ValidationError, match="first chunk fails"):
            score_all(g, ScoreSpec(ScoreKind.CN), NO_TEST, workers=2, chunk_size=1)
        # 300 chunks; the calling thread cancels the queued ones
        assert len(folded) < 75

    def test_no_thread_outlives_the_call(self, monkeypatch):
        g = erdos_renyi_digraph(np.random.default_rng(3), 300)
        before = threading.active_count()
        score_all(g, ScoreSpec(ScoreKind.CN), NO_TEST, workers=2, chunk_size=1)
        assert threading.active_count() == before

        real_fold = engine._fold_chunk
        folded = []
        lock = threading.Lock()

        def fail_first(ctx, lo, *rest):
            with lock:
                folded.append(lo)
                first = len(folded) == 1
            if first:
                raise ValidationError("first chunk fails")
            return real_fold(ctx, lo, *rest)

        monkeypatch.setattr(engine, "_fold_chunk", fail_first)
        with pytest.raises(ValidationError, match="first chunk fails"):
            score_all(g, ScoreSpec(ScoreKind.CN), NO_TEST, workers=2, chunk_size=1)
        assert threading.active_count() == before


class TestDegreeLogs:
    @given(
        degrees=st.lists(st.integers(0, 10**6), max_size=50),
        base=st.sampled_from([math.e, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_per_vertex_loop(self, degrees, base):
        logs = [log_in_base(d, base) if d > 0 else 0.0 for d in degrees]
        weights = [
            0.0 if d == 0 else (math.inf if lv == 0.0 else 1.0 / lv)
            for d, lv in zip(degrees, logs)
        ]
        degrees = np.array(degrees, dtype=np.int64)
        assert _log_of_degrees(degrees, base).tobytes() == np.array(logs, dtype=np.float64).tobytes()
        assert _inv_log_weights(degrees, base).tobytes() == np.array(weights, dtype=np.float64).tobytes()


class TestConservationAndSoundness:
    def test_totals_conserved_on_random_graphs(self):
        from hierlp import split_edges

        rng = np.random.default_rng(17)
        for trial in range(10):
            g = erdos_renyi_digraph(rng, int(rng.integers(20, 80)))
            if g.edge_count < 10:
                continue
            split = split_edges(g, 0.1, seed=trial)
            for kind in (ScoreKind.CN, ScoreKind.INF_LOG_KD):
                hist = score_all(split.train_graph, ScoreSpec(kind), split.test_edges, workers=1)
                hist.check_conservation()
                tp, fp = hist.explicit_totals()
                assert tp + hist.zero_bucket[0] == hist.positives_total
                assert fp + hist.zero_bucket[1] == hist.negatives_total

    def test_nonzero_score_iff_two_hop_path(self):
        rng = np.random.default_rng(23)
        g = erdos_renyi_digraph(rng, 40)
        result = oracle_score_all(g, ScoreSpec(ScoreKind.DED), NO_TEST)
        out_sets = [set(g.out_neighbors(x).tolist()) for x in range(g.vertex_count)]
        hist = score_all(g, ScoreSpec(ScoreKind.DED), NO_TEST, workers=1)
        explicit = {pair for pair, value in result.scores.items() if value != 0.0}
        for (x, y), value in result.scores.items():
            has_path = any(y in out_sets[z] for z in out_sets[x])
            assert (value != 0.0) == has_path
        assert sum(hist.explicit_totals()) == len(explicit)

    def test_sparse_work_not_quadratic(self):
        # a long directed path has n-2 wedges; the engine must emit
        # exactly one candidate per wedge
        n = 2000
        g = graph_from_edges([(i, i + 1) for i in range(n - 1)])
        hist = score_all(g, ScoreSpec(ScoreKind.DED), NO_TEST, workers=1, chunk_size=500)
        tp, fp = hist.explicit_totals()
        assert tp + fp == n - 2


class TestOracleEquivalenceSample:
    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_small_random_graphs(self, kind):
        from hierlp import split_edges

        rng = np.random.default_rng(list(ScoreKind).index(kind) + 100)
        for trial in range(15):
            n = int(rng.integers(5, 61))
            g = (
                erdos_renyi_digraph(rng, n)
                if trial % 2
                else preferential_attachment_digraph(rng, n)
            )
            if g.edge_count >= 10:
                split = split_edges(g, 0.1, seed=trial)
                train, test = split.train_graph, split.test_edges
            else:
                train, test = g, NO_TEST
            spec = ScoreSpec(kind)
            engine = score_all(train, spec, test, workers=1,
                               chunk_size=min(13, max(train.vertex_count, 1)))
            oracle = oracle_score_all(train, spec, test)
            assert engine == oracle.histogram


class TestDeterminism:
    def test_chunk_and_worker_invariance(self):
        rng = np.random.default_rng(29)
        g = preferential_attachment_digraph(rng, 300, out_per_vertex=3)
        test = [(int(u), int(v)) for u, v in zip(*_sample_non_edges(rng, g, 20))]
        spec = ScoreSpec(ScoreKind.INF_LOG_KD)
        reference = score_all(g, spec, test, workers=1, chunk_size=300)
        for workers in (1, 2, os.cpu_count() or 4):
            for chunk in (7, 50, 300):
                assert score_all(g, spec, test, workers=workers, chunk_size=chunk) == reference


def _sample_non_edges(rng, g, count):
    n = g.vertex_count
    edge_keys = set(g.edge_keys().tolist())
    eligible = np.flatnonzero((g.out_degrees + g.in_degrees) > 0)
    us, vs = [], []
    while len(us) < count:
        u = int(eligible[rng.integers(len(eligible))])
        v = int(eligible[rng.integers(len(eligible))])
        if u != v and u * n + v not in edge_keys:
            us.append(u)
            vs.append(v)
            edge_keys.add(u * n + v)
    return us, vs


class TestHistogramDump:
    def test_round_trip(self, four_cycle):
        hist = score_all(four_cycle, ScoreSpec(ScoreKind.DED), [(0, 2)], workers=1)
        buf = io.StringIO()
        hist.dump(buf)
        reloaded = ThresholdHistogram.load(io.StringIO(buf.getvalue()))
        assert reloaded == hist

    def test_binary_stream_round_trip(self, four_cycle):
        hist = score_all(four_cycle, ScoreSpec(ScoreKind.DED), [(0, 2)], workers=1)
        buf = io.BytesIO()
        hist.dump(buf)
        assert not buf.closed
        buf.seek(0)
        assert ThresholdHistogram.load(buf) == hist

    def test_sorted_descending_with_trailer(self):
        unsorted = (np.array([0.5, 2.0]), np.array([1, 0]), np.array([0, 3]))
        hist = ThresholdHistogram(
            buckets=_buckets(*_merge([unsorted])),
            zero_bucket=(0, 7),
            positives_total=1,
            negatives_total=10,
        )
        buf = io.StringIO()
        hist.dump(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("2.0 ")
        assert lines[1].startswith("0.5 ")
        assert lines[2] == "# zero_bucket 0 7"
        assert lines[-1] == "# negatives_total 10"


_rows = st.lists(
    st.tuples(st.sampled_from([0.25, 1 / 3, 1.0, 2.5, 7.0]), st.integers(0, 3), st.integers(0, 3)),
    max_size=8,
)


_TRAILER = "# zero_bucket 0 5\n# positives_total 3\n# negatives_total 10\n"
#: the refusal of a row that breaks a rule of ``engine._ROW``
_ROW_RULES = re.escape("expected 'value tp fp', a finite value above 0, counts in [0, 2^63)")


class TestHistogramLoad:
    """A malformed dump is refused, by the line at fault where it has one."""

    @pytest.mark.parametrize(
        "text, message",
        [
            # rows: three fields, finite values above 0 strictly descending,
            # counts >= 0
            ("0.5 1 2 0.25 2 3\n" + _TRAILER, "line 1: '0.5 1 2 0.25 2 3': expected 'value tp fp'"),
            ("0.5 1 2\n0.25 2\n" + _TRAILER, "line 2: '0.25 2': expected 'value tp fp'"),
            ("0.5 1 2\n0.25 2.0 3\n" + _TRAILER, "line 2: '0.25 2.0 3': expected"),
            ("nan 1 2\n0.25 2 3\n" + _TRAILER, "line 1: 'nan 1 2': " + _ROW_RULES),
            ("inf 1 2\n0.25 2 3\n" + _TRAILER, "line 1: 'inf 1 2': " + _ROW_RULES),
            ("0.5 1 2\n0.0 2 3\n" + _TRAILER, "line 2: '0.0 2 3': " + _ROW_RULES),
            ("0.5 4 2\n0.25 -1 3\n" + _TRAILER, "line 2: '0.25 -1 3': " + _ROW_RULES),
            # no score is negative: a value below 0 is refused, on the fast
            # path's columns as in the line loop
            ("-0.25 1 2\n-0.5 2 3\n" + _TRAILER, "line 1: '-0.25 1 2': " + _ROW_RULES + "$"),
            ("0.5 1 2\n-0.25 2 3\n" + _TRAILER, "line 2: '-0.25 2 3': " + _ROW_RULES + "$"),
            ("0.5 1 2\n\n0.5 2 3\n" + _TRAILER, "line 3: '0.5 2 3': a value not below the one before"),
            ("0.25 1 2\n0.5 2 3\n" + _TRAILER, "line 2: '0.5 2 3': a value not below the one before"),
            ("0.5 1 2\n0.25 2 3\n# zero_bucket 0 5\n0.125 0 0\n# positives_total 3\n"
             "# negatives_total 10\n", "line 4: a row after '# zero_bucket 0 5'"),
            # the trailer: each key once, with its values
            ("0.5 1 2\n0.25 2 3\n", "no '# zero_bucket' line"),
            ("0.5 1 2\n0.25 2 3\n# zero_buckets 0 5\n# positives_total 3\n# negatives_total 10\n",
             "line 3: '# zero_buckets 0 5': no key of zero_bucket"),
            ("0.5 1 2\n0.25 2 3\n# zero_bucket 0\n# positives_total 3\n# negatives_total 10\n",
             "line 3: '# zero_bucket 0': expected '# zero_bucket int int'"),
            ("0.5 1 2\n0.25 2 3\n" + _TRAILER + "# positives_total 3\n",
             "line 6: '# positives_total 3': a second 'positives_total' line"),
            # a line led by any whitespace, then '#', is a trailer line
            ("0.5 1 2\n\f# x\n0.25 2 3\n" + _TRAILER, "line 2: '# x': no key of zero_bucket"),
            # ASCII numerals alone: float and int would take '1_5' as 15
            # and the digits of other scripts
            ("1_5 2 3\n" + _TRAILER, "line 1: '1_5 2 3': expected 'value tp fp'"),
            ("0.5 1 2\n0.25 1_0 3\n" + _TRAILER, "line 2: '0.25 1_0 3': expected 'value tp fp'"),
            ("\u0661 1 2\n" + _TRAILER, "line 1: '\u0661 1 2': expected 'value tp fp'"),
            ("0.5 \uff11 2\n" + _TRAILER, "line 1: '0.5 \uff11 2': expected 'value tp fp'"),
            ("0.5 3 3\n# zero_bucket 1_0 0\n# positives_total 3\n# negatives_total 3\n",
             "line 2: '# zero_bucket 1_0 0': expected '# zero_bucket int int'"),
            ("0.5 3 3\n# zero_bucket 0 0\n# positives_total \u0663\n# negatives_total 3\n",
             "line 3: '# positives_total \u0663': expected '# positives_total int'"),
        ],
        ids=[
            "two-rows-on-a-line", "two-fields", "float-count", "nan", "inf", "zero-value",
            "negative-count", "negative-first-value", "negative-later-value", "repeated-value",
            "ascending-values", "row-after-trailer",
            "no-trailer", "misspelled-key", "one-zero-count", "second-key", "stray-comment",
            "underscore-value", "underscore-count", "arabic-indic-value", "fullwidth-count",
            "underscore-trailer", "arabic-indic-trailer",
        ],
    )
    def test_malformed_dump_refused(self, text, message):
        with pytest.raises(ValueError, match=f"^malformed histogram dump: {message}"):
            ThresholdHistogram.load(io.StringIO(text))

    def test_row_rules_hold_alike_on_a_column(self):
        """A row parser's ``holds`` gives on a parsed column what it gives
        on each of its values, so the fast path and the line loop of
        ``_bucket_rows`` apply one rule."""
        value, count = engine._ROW[0], engine._ROW[1]
        assert engine._ROW[2] is count
        values = [math.nan, math.inf, -math.inf, -0.25, -0.0, 0.0, 5e-324, 0.5, 1.7e308]
        assert value.holds(np.array(values)).tolist() == [bool(value.holds(v)) for v in values]
        assert [bool(value.holds(v)) for v in values] == [False] * 6 + [True] * 3
        counts = [-2**63, -1, 0, 1, 2**63 - 1]
        assert count.holds(np.array(counts)).tolist() == [bool(count.holds(c)) for c in counts]
        assert [bool(count.holds(c)) for c in counts + [2**63]] == [False, False, True, True, True, False]

    def test_counts_that_do_not_add_up_refused(self):
        with pytest.raises(ValidationError, match="positives_total"):
            ThresholdHistogram.load(io.StringIO(
                "0.5 1 2\n0.25 2 3\n# zero_bucket 0 5\n# positives_total 4\n# negatives_total 10\n"
            ))

    def test_empty_dump_loads_without_a_warning(self):
        text = "# zero_bucket 2 5\n# positives_total 2\n# negatives_total 5\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on no data
            h = ThresholdHistogram.load(io.StringIO(text))
        assert len(h.buckets) == 0 and h.zero_bucket == (2, 5)


def _part(rows):
    values, tp, fp = zip(*rows) if rows else ((), (), ())
    return np.array(values, dtype=np.float64), np.array(tp, dtype=np.int64), np.array(fp, dtype=np.int64)


class TestMerge:
    @given(st.lists(_rows, min_size=2, max_size=6), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_order_and_grouping_do_not_matter(self, row_lists, random):
        reference = {}
        for value, tp, fp in (row for rows in row_lists for row in rows):
            old_tp, old_fp = reference.get(value, (0, 0))
            reference[value] = (old_tp + tp, old_fp + fp)
        parts = [_part(rows) for rows in row_lists]
        merged = _merge(parts)
        assert [column.dtype for column in merged] == [np.float64, np.int64, np.int64]
        assert _buckets(*merged).tolist() == [
            (value, *reference[value]) for value in sorted(reference, reverse=True)
        ]
        shuffled = random.sample(parts, len(parts))
        assert np.array_equal(_buckets(*_merge(shuffled)), _buckets(*merged))
        cut = random.randrange(1, len(parts))
        grouped = [_merge(shuffled[:cut]), _merge(shuffled[cut:])]
        assert np.array_equal(_buckets(*_merge(grouped)), _buckets(*merged))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        kind=st.sampled_from(list(ScoreKind)),
        workers=st.sampled_from([1, 2]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_all_chunk_and_worker_invariance(self, seed, n, kind, workers, data):
        from hierlp import split_edges

        g = erdos_renyi_digraph(np.random.default_rng(seed), n)
        if g.edge_count >= 10:
            split = split_edges(g, 0.1, seed=seed)
            train, test = split.train_graph, split.test_edges
        else:
            train, test = g, NO_TEST
        chunk = data.draw(st.integers(1, n), label="chunk_size")
        spec = ScoreSpec(kind)
        reference = score_all(train, spec, test, workers=1, chunk_size=n)
        assert score_all(train, spec, test, workers=workers, chunk_size=chunk) == reference


def _recording_merges(monkeypatch):
    """Record the part lengths of every later ``engine._merge`` call."""
    calls = []
    real = engine._merge

    def recorded(parts):
        calls.append([len(part[0]) for part in parts])
        return real(parts)

    monkeypatch.setattr(engine, "_merge", recorded)
    return calls


class TestPendingMerges:
    """The calling thread keeps the chunks' parts pending and merges them
    with the call's histogram in one ``_merge`` once they hold as many
    buckets as it, or before histogram and parts could pass
    ``max_buckets``."""

    @pytest.fixture(scope="class")
    def graph(self):
        # AA on a degree-skewed graph: 325 distinct values
        return preferential_attachment_digraph(np.random.default_rng(8), 300, out_per_vertex=3)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_merges_amortised_over_chunks(self, graph, workers, chunk_size, monkeypatch):
        spec = ScoreSpec(ScoreKind.AA)
        whole = score_all(graph, spec, NO_TEST, workers=1)
        merges = _recording_merges(monkeypatch)
        assert score_all(graph, spec, NO_TEST, workers=workers, chunk_size=chunk_size) == whole
        if chunk_size is None:  # one chunk, whose part is the histogram
            assert merges == []
            return
        # far fewer merges than chunks: each waits for as many pending
        # buckets as the histogram holds
        chunks = -(-graph.vertex_count // chunk_size)
        assert 0 < len(merges) < chunks / 3
        for held, *pending in merges:
            # pending parts held fewer buckets than the histogram before
            # the last of them came
            assert sum(pending) - pending[-1] < held

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_cap_at_and_below_the_distinct_count(self, graph, workers, chunk_size, monkeypatch):
        spec = ScoreSpec(ScoreKind.AA)
        distinct = len(score_all(graph, spec, NO_TEST, workers=1).buckets)
        assert distinct == 325
        merges = _recording_merges(monkeypatch)
        hist = score_all(graph, spec, NO_TEST, workers=workers, chunk_size=chunk_size, max_buckets=distinct)
        assert len(hist.buckets) == distinct
        # at most the cap and one chunk's part
        assert all(sum(lengths) - lengths[-1] <= distinct for lengths in merges)
        with pytest.raises(MemoryGuardError, match=f"^distinct score values exceeded max_buckets={distinct - 1}$"):
            score_all(graph, spec, NO_TEST, workers=workers, chunk_size=chunk_size, max_buckets=distinct - 1)

    @pytest.mark.parametrize("chunk_size", [1, 7])
    def test_merges_run_on_the_calling_thread(self, graph, chunk_size, monkeypatch):
        threads = []
        real = engine._merge

        def recorded(parts):
            threads.append(threading.get_ident())
            return real(parts)

        monkeypatch.setattr(engine, "_merge", recorded)
        score_all(graph, ScoreSpec(ScoreKind.AA), NO_TEST, workers=2, chunk_size=chunk_size)
        assert threads and set(threads) == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_chunk_calls_no_merge(self, workers, monkeypatch):
        g = erdos_renyi_digraph(np.random.default_rng(5), 60)
        merges = _counting(monkeypatch, "_merge")
        for kind in ScoreKind:
            score_all(g, ScoreSpec(kind), NO_TEST, workers=workers)
            score_all(g, ScoreSpec(kind), NO_TEST, workers=workers, chunk_size=g.vertex_count)
        assert merges == []


class TestStructuralFold:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        pendants=st.integers(0, 4),
        kind=st.sampled_from(list(ScoreKind)),
        workers=st.sampled_from([1, 2]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_score_all_matches_oracle(self, seed, n, pendants, kind, workers, data):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_digraph(rng, n)
        hub = int(np.argmax(g.out_degrees + g.in_degrees))
        # degree-1 vertices hanging off the hub (AA weighs them 1/log 1)
        extra = np.arange(n, n + pendants)
        inward = rng.random(pendants) < 0.5
        u, v = g.edges()
        train = Graph(
            n + pendants,
            np.concatenate([u, np.where(inward, extra, hub)]),
            np.concatenate([v, np.where(inward, hub, extra)]),
        )
        m = train.vertex_count
        eligible = np.flatnonzero(train.out_degrees + train.in_degrees)
        known = set(train.edge_keys().tolist())
        non_edges = [(x, y) for x in eligible for y in eligible if x != y and x * m + y not in known]
        # about half of the hub's row is held out, plus a few other pairs
        test = [p for p in non_edges if p[0] == hub and rng.random() < 0.5]
        test += [p for p in non_edges if p[0] != hub and rng.random() < 0.1]
        test = np.array(test, dtype=np.int64).reshape(-1, 2)
        spec = ScoreSpec(kind)
        chunk = data.draw(st.integers(1, m), label="chunk_size")
        engine_hist = score_all(train, spec, test, workers=workers, chunk_size=chunk)
        assert engine_hist == oracle_score_all(train, spec, test).histogram


UNDIRECTED = [ScoreKind.CN, ScoreKind.AA, ScoreKind.RA, ScoreKind.JACCARD]


class TestReciprocalPairs:
    """Symmetric kinds credit both directions of a pair, each by its own
    deltas: scipy's backend scores each unordered pair once and reads
    ``once``, the dense one scores both directions and reads ``own``.
    Vertices 1 and 4 share the neighbours 0 and 2; vertex 6 is a
    pendant of 1."""

    BASE = [(1, 0), (0, 4), (2, 1), (4, 2), (3, 5), (5, 1), (3, 4), (6, 1)]
    CASES = {
        "training then test": ([(1, 4)], [(4, 1), (3, 0)]),
        "both test": ([], [(1, 4), (4, 1), (0, 3)]),
        "both training": ([(1, 4), (4, 1)], [(3, 0), (5, 2)]),
        "neither": ([], [(3, 0)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kind", UNDIRECTED)
    def test_matches_oracle(self, case, kind, monkeypatch):
        extra, test = self.CASES[case]
        g = graph_from_edges(self.BASE + extra)
        spec = ScoreSpec(kind)
        expected = oracle_score_all(g, spec, test).histogram
        for cells in (engine.DENSE_MAX_CELLS, -1):  # the dense backend, then scipy's
            monkeypatch.setattr(engine, "DENSE_MAX_CELLS", cells)
            # chunk 1 and 2 put vertices 1 and 4 in different chunks
            for chunk in (1, 2, 3, g.vertex_count):
                for workers in (1, 2):
                    assert score_all(g, spec, test, workers=workers, chunk_size=chunk) == expected

    @pytest.mark.parametrize("kind", UNDIRECTED)
    def test_score_from_vertex_scores_the_whole_row(self, kind):
        extra, test = self.CASES["training then test"]
        g = graph_from_edges(self.BASE + extra)
        spec = ScoreSpec(kind)
        scores = oracle_score_all(g, spec, test).scores
        x = 4
        row = {y: value for (u, y), value in scores.items() if u == x and value != 0.0}
        assert 1 in row  # the test pair (4, 1) lies below the diagonal
        buckets, count = score_from_vertex(g, x, spec, test)
        assert count == len(row)
        expected = {}
        for y, value in row.items():
            tp, fp = expected.get(value, (0, 0))
            expected[value] = (tp + 1, fp) if (x, y) in test else (tp, fp + 1)
        assert buckets.tolist() == [(v, *expected[v]) for v in sorted(expected, reverse=True)]


def _backend_graph(rng, n, pendants):
    """A random digraph, degree-1 pendants on its hub, and a pair (a, b)
    whose shared neighbours have the distinct undirected degrees 2, 3,
    4 and 7: AA and RA sum them in ascending order, and the reverse
    order gives other bits for 1/d, 1/ln d and 1/log2 d."""
    g = erdos_renyi_digraph(rng, n)
    u, v = [g.edges()[0].tolist()], [g.edges()[1].tolist()]
    hub = int(np.argmax(g.out_degrees + g.in_degrees))
    extra = list(range(n, n + pendants))
    inward = (rng.random(pendants) < 0.5).tolist()
    u.append([x if into else hub for x, into in zip(extra, inward)])
    v.append([hub if into else x for x, into in zip(extra, inward)])
    a, b = n + pendants, n + pendants + 1
    zs = list(range(b + 1, b + 5))
    leaves = iter(range(b + 5, b + 5 + 1 + 2 + 5))
    for z, degree in zip(zs, (2, 3, 4, 7)):
        u.append([a, z] + [z] * (degree - 2))
        v.append([z, b] + [next(leaves) for _ in range(degree - 2)])
    u, v = np.concatenate(u), np.concatenate(v)
    return Graph(b + 5 + 8, u, v)


def _listed(ctx, lo, hi):
    """The backend's (values, fixed) for the listed pairs of rows [lo, hi),
    each value repeated by its multiplicity where the backend gives one."""
    backend = engine._dense_candidates if ctx.dense else engine._sparse_candidates
    values, multiplicities, fixed = backend(ctx, lo, hi, ctx.tagged_pairs(lo, hi)[0])
    return (values if multiplicities is None else values.repeat(multiplicities)), fixed


def _count(part):
    return int(part[1].sum() + part[2].sum())


class TestBackends:
    """The dense accumulator and scipy's SpGEMM list the same candidate
    values, bit for bit, and the same listed pairs' values, the sparse
    backend's scored directly. A directed kind's chunks agree chunk by
    chunk; a symmetric kind's agree over the whole range, where scipy's
    backend lists each unordered pair once and the dense one both
    directions."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 20),
        pendants=st.integers(0, 4),
        kind=st.sampled_from(list(ScoreKind)),
        base=st.sampled_from([math.e, 2.0]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_backends_agree(self, seed, n, pendants, kind, base, data):
        rng = np.random.default_rng(seed)
        train = _backend_graph(rng, n, pendants)
        m = train.vertex_count
        eligible = np.flatnonzero(train.out_degrees + train.in_degrees)
        known = set(train.edge_keys().tolist())
        test = [
            (x, y) for x in eligible for y in eligible
            if x != y and x * m + y not in known and rng.random() < 0.15
        ]
        test = np.array(test, dtype=np.int64).reshape(-1, 2)
        marker = engine._marker(train, test)
        lo = data.draw(st.integers(0, m - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, m), label="hi")
        spec = ScoreSpec(kind, log_base=base)
        dense_ctx = engine._RunContext(train, marker, spec, True)
        sparse_ctx = engine._RunContext(train, marker, spec, False)
        symmetric = kind in UNDIRECTED_KINDS
        # a symmetric kind's chunk parts differ between the backends by
        # design: scipy's backend scores a pair in the chunk of its lower end
        for lo, hi in [(0, m)] if symmetric else [(lo, hi), (0, m)]:
            dense, sparse = _listed(dense_ctx, lo, hi), _listed(sparse_ctx, lo, hi)
            assert not np.any(dense[0] == 0.0)  # the accumulator drops a zero sum
            if symmetric:
                # each pair y > x twice, and the diagonal, the dense
                # backend's alone, which its listed pairs hold
                keys = dense_ctx.tagged_pairs(lo, hi)[0]
                x, y = np.divmod(keys, m)
                diagonal = dense[1][(x == y) & (dense[1] != 0.0)]
                expected = np.concatenate([np.repeat(sparse[0][sparse[0] != 0.0], 2), diagonal])
                assert np.sort(dense[0]).tobytes() == np.sort(expected).tobytes()
                # each direction's listed value is its unordered pair's
                off = x != y
                at = sparse_ctx.tagged_pairs(lo, hi)[0].searchsorted(
                    np.minimum(x, y)[off] * m + np.maximum(x, y)[off]
                )
                assert dense[1][off].tobytes() == sparse[1][at].tobytes()
            else:
                # the values in any order; the listed pairs in key order
                assert np.sort(dense[0]).tobytes() == np.sort(sparse[0]).tobytes()
                assert dense[1].tobytes() == sparse[1].tobytes()
            dense_fold = engine._fold_chunk(dense_ctx, lo, hi)
            sparse_fold = engine._fold_chunk(sparse_ctx, lo, hi)
            assert np.all(dense_fold[0][1:] < dense_fold[0][:-1])  # distinct, descending
            assert np.array_equal(_buckets(*dense_fold), _buckets(*sparse_fold))
        # and through score_all, in chunks of hi - lo rows
        hists = []
        for cells in (1 << 40, -1):  # every chunk dense, then every chunk scipy's
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "DENSE_MAX_CELLS", cells)
                hists.append(score_all(train, spec, test, workers=1, chunk_size=hi - lo))
        assert hists[0] == hists[1]

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_run_context_derives_its_mode(self, kind):
        """Only scipy's backend scores a symmetric kind once per unordered
        pair and reads ``once``; the dense backend reads ``own`` for every
        kind, as the row query does."""
        train, test = _split_of(3, 80)
        marker = engine._marker(train, test)
        once, own = marker[1][0], marker[2][0]
        for dense in (True, False):
            ctx = engine._RunContext(train, marker, ScoreSpec(kind), dense)
            unordered = not dense and kind in UNDIRECTED_KINDS
            assert ctx.unordered is unordered
            assert ctx.tagged_keys is (once if unordered else own)

    @pytest.mark.parametrize("kind", [ScoreKind.INF_LOG_KD, ScoreKind.AA])
    @pytest.mark.parametrize("cells", [1 << 40, -1], ids=["dense", "scipy"])
    def test_backends_list_values_in_any_order(self, kind, cells, monkeypatch):
        """The fold sorts what a backend lists: a backend that lists its
        values reversed gives the same histogram."""
        train, test = _split_of(3, 80)
        spec = ScoreSpec(kind)
        expected = oracle_score_all(train, spec, test).histogram
        monkeypatch.setattr(engine, "DENSE_MAX_CELLS", cells)
        for name in ("_dense_candidates", "_sparse_candidates"):
            real = getattr(engine, name)

            def reversed_values(*args, real=real):
                values, multiplicities, fixed = real(*args)
                return values[::-1].copy(), None if multiplicities is None else multiplicities[::-1], fixed

            monkeypatch.setattr(engine, name, reversed_values)
        for chunk in (1, 7, None):
            assert score_all(train, spec, test, workers=1, chunk_size=chunk) == expected

    @pytest.mark.parametrize("unordered", [False, True])
    def test_fold_counts_runs_by_their_multiplicities(self, unordered, monkeypatch):
        """Values listed with a multiplicity column fold as the values
        repeated by it: each run of equal values counts its summed
        multiplicities, zeros are cut off, and the listed pairs' deltas
        land at their values."""
        rng = np.random.default_rng(28)
        palette = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
        for _ in range(200):
            values = np.sort(rng.choice(palette, size=int(rng.integers(0, 12))))
            multiplicities = rng.integers(1, 5, size=len(values))
            listed = int(rng.integers(0, 5))
            # a listed pair has no value (0.0) or one of the chunk's
            fixed = rng.choice(np.r_[0.0, values[values != 0.0]], size=listed)
            deltas = rng.choice(np.array([[0, -1], [1, -1], [0, -2], [1, -2]], dtype=np.int8), size=listed)
            ctx = types.SimpleNamespace(
                dense=True, unordered=unordered, tagged_pairs=lambda lo, hi: (np.arange(listed), deltas)
            )
            folds = []
            for column in (multiplicities, None):
                listing = values.copy() if column is not None else values.repeat(multiplicities)
                monkeypatch.setattr(engine, "_dense_candidates", lambda *args: (listing, column, fixed))
                folds.append(engine._fold_chunk(ctx, 0, 1))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(*folds))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [None, 1000])
    def test_int64_lookup_keys(self, workers, chunk_size):
        """A small digraph embedded at the top of 50,000 ids, its other
        vertices isolated: scipy's backend looks up pairs whose keys
        x * n + y pass 2^31, and the INF family's histograms are the
        compact graph's, bit for bit, since isolated vertices are not
        eligible and the passes weigh integer counts by row."""
        from hierlp import split_edges

        split = split_edges(erdos_renyi_digraph(np.random.default_rng(7), 60, edge_factor=5), 0.1, seed=7)
        train, test = split.train_graph, split.test_edges
        n = 50_000
        shift = n - train.vertex_count
        embedded = Graph(n, *(ends + shift for ends in train.edges()))
        assert ((test[:, 0] + shift) * n + test[:, 1] + shift > 2**31).all()
        assert chunk_size_for(n, chunk_size) * n > engine.DENSE_MAX_CELLS
        for kind in INF_FAMILY:
            spec = ScoreSpec(kind)
            expected = score_all(train, spec, test, workers=1)
            assert len(expected.buckets) > 1
            assert score_all(embedded, spec, test + shift, workers=workers, chunk_size=chunk_size) == expected

    def test_selection_boundary(self, monkeypatch):
        """A call is dense when a whole chunk's accumulator, chunk_size * n
        cells, is at most DENSE_MAX_CELLS, and scipy's beyond, whatever
        its 2-hop path count; the scipy factors exist only when used."""
        contexts = []
        real = engine._RunContext

        def recorded(*args):
            contexts.append(real(*args))
            return contexts[-1]

        monkeypatch.setattr(engine, "_RunContext", recorded)
        spec = ScoreSpec(ScoreKind.DED)
        n = 512
        ring = Graph(n, np.arange(n), (np.arange(n) + 1) % n)
        rows = engine.DENSE_MAX_CELLS // n
        for chunk, dense in ((rows, True), (rows + 1, False)):
            score_all(ring, spec, NO_TEST, workers=1, chunk_size=chunk)
            assert contexts[-1].dense is dense
            assert (contexts[-1].sparse_passes is None) == dense
        # 0 -> 1 -> each leaf: row 0 has one path per leaf, 8193 of them
        leaves = 8193
        star = Graph(leaves + 2, [0] + [1] * leaves, np.arange(1, leaves + 2))
        score_all(star, spec, NO_TEST, workers=1, chunk_size=1)
        score_from_vertex(star, 0, spec, NO_TEST)
        assert [ctx.dense for ctx in contexts[-2:]] == [True, True]
        assert contexts[-1].sparse_passes is None
        sparse_ctx = real(star, engine._marker(star, NO_TEST), spec, False)
        dense_fold = engine._fold_chunk(contexts[-1], 0, 1)
        sparse_fold = engine._fold_chunk(sparse_ctx, 0, 1)
        assert _count(dense_fold) == _count(sparse_fold) == leaves
        assert np.array_equal(_buckets(*dense_fold), _buckets(*sparse_fold))

    def test_diagonal_counts_as_a_training_edge(self):
        """Row 0 of DED reaches itself (0 -> 1 -> 0) and the training
        edge 0 -> 2 (0 -> 1 -> 2), each at 1/2: both backends list the
        two values and the listed pairs' values in key order, the
        diagonal's first and 0.0 for the training edge (0, 1), which no
        path reaches. The fold gives both pairs a training edge's deltas
        (0, -1), so that no candidate of the row counts."""
        g = graph_from_edges([(0, 1), (1, 0), (1, 2), (0, 2)])
        marker = engine._marker(g, NO_TEST)
        for dense in (True, False):
            ctx = engine._RunContext(g, marker, ScoreSpec(ScoreKind.DED), dense)
            keys, deltas = ctx.tagged_pairs(0, 1)
            assert keys.tolist() == [0, 1, 2] and deltas.tolist() == [[0, -1]] * 3
            values, fixed = _listed(ctx, 0, 1)
            assert values.tolist() == [0.5, 0.5]
            assert fixed.tolist() == [0.5, 0.0, 0.5]
            assert all(len(column) == 0 for column in engine._fold_chunk(ctx, 0, 1))
        buckets, count = score_from_vertex(g, 0, ScoreSpec(ScoreKind.DED), NO_TEST)
        assert len(buckets) == 0 and count == 0

    @pytest.mark.parametrize("kind", [ScoreKind.INF_LOG, ScoreKind.INF_LOG_KD])
    def test_zero_sums_of_a_directed_row(self, kind):
        """Row 0 has out-degree 1 and in-degree 1, so both INF passes
        weigh its paths by log 1 = 0: its candidates (0, 3), (0, 4) and
        (0, 5), the test pair (0, 4) among them, all score 0.0. Both
        backends drop a zero sum, as they do a pair without paths, so the
        row lists no value and 0.0 for each listed pair, counts no
        explicit candidate, fills no bucket, and leaves its pairs to the
        zero bucket."""
        g = graph_from_edges([(0, 1), (2, 0), (1, 3), (1, 4), (2, 5), (2, 3), (3, 1), (5, 4)])
        test = [(0, 4)]
        spec = ScoreSpec(kind)
        oracle = oracle_score_all(g, spec, test)
        assert [oracle.scores[(0, y)] for y in (3, 4, 5)] == [0.0, 0.0, 0.0]
        marker = engine._marker(g, np.array(test))
        for dense in (True, False):
            ctx = engine._RunContext(g, marker, spec, dense)
            # the diagonal, the training edge (0, 1) and the test pair (0, 4)
            assert ctx.tagged_pairs(0, 1)[0].tolist() == [0, 1, 4]
            values, fixed = _listed(ctx, 0, 1)
            assert len(values) == 0 and fixed.tolist() == [0.0, 0.0, 0.0]
            assert all(len(column) == 0 for column in engine._fold_chunk(ctx, 0, 1))
        buckets, count = score_from_vertex(g, 0, spec, test)
        assert len(buckets) == 0 and count == 0
        for forced in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if forced:
                    patch.setattr(engine, "DENSE_MAX_CELLS", -1)
                for chunk in (1, g.vertex_count):
                    assert score_all(g, spec, test, workers=1, chunk_size=chunk) == oracle.histogram

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_directed_kind_tags_its_own_direction_only(self, kind):
        """A pair that is a training or test edge only in the reverse
        direction is a plain candidate of a directed score, so it is not
        among the listed pairs of a context that scores each direction
        on its own: every kind's on the dense backend, and a directed
        kind's on scipy's. Every training edge and test pair of the rows
        is, in its own direction with its own deltas, and so is the
        diagonal, as a training edge."""
        train, test = _split_of(3, 80)
        marker = engine._marker(train, test)
        n = train.vertex_count
        edges = train.edge_keys()
        tests = test[:, 0] * n + test[:, 1]
        reverse = np.concatenate([train.reverse_edge_keys(), test[:, 1] * n + test[:, 0]])
        alone = np.setdiff1d(reverse, np.concatenate([edges, tests]))
        assert len(alone)  # the split has pairs tagged in the reverse direction alone
        # training edges and the diagonal (0, -1), test pairs (1, -1)
        listed = dict.fromkeys(edges.tolist() + (np.arange(n) * (n + 1)).tolist(), [0, -1])
        listed.update(dict.fromkeys(tests.tolist(), [1, -1]))
        for dense in (True, False) if kind not in UNDIRECTED_KINDS else (True,):
            ctx = engine._RunContext(train, marker, ScoreSpec(kind), dense)
            for lo, hi in ((0, n), (5, 12), (n - 1, n)):
                keys, deltas = ctx.tagged_pairs(lo, hi)
                assert not np.isin(keys, alone).any()
                expected = sorted(key for key in listed if lo * n <= key < hi * n)
                assert keys.tolist() == expected
                assert deltas.tolist() == [listed[key] for key in expected]

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_dense_digraph_above_the_path_count_matches_oracle(self, kind):
        """A 60-vertex digraph of ~800 edges: one chunk of all its rows
        holds over 8192 2-hop paths for every kind and still takes the
        dense backend, as do its chunks of 1 and 7 rows."""
        rng = np.random.default_rng(60)
        n = 60
        adjacency = rng.random((n, n)) < 0.23
        np.fill_diagonal(adjacency, False)
        g = Graph(n, *np.nonzero(adjacency))
        out, into = g.out_degrees, g.in_degrees
        # DED's paths x -> z -> y and IND's x <- z -> y, the fewest of any kind
        assert min(np.dot(into, out), np.dot(out, out)) > 8192
        assert n * n <= engine.DENSE_MAX_CELLS
        candidates = ~adjacency & ~np.eye(n, dtype=bool)
        test = np.argwhere(candidates & (rng.random((n, n)) < 0.05))
        for base in (math.e, 2.0):
            spec = ScoreSpec(kind, log_base=base)
            expected = oracle_score_all(g, spec, test).histogram
            for workers in (1, 2):
                for chunk in (1, 7, n):
                    assert score_all(g, spec, test, workers=workers, chunk_size=chunk) == expected

    def test_direct_value_one_ulp_off_raises(self, monkeypatch):
        """A tagged pair's direct value must be one of the product's values
        bit for bit; one ulp off is a mismatch, not a new bucket. IND's
        listed values are scored directly, not read from its product."""
        real = engine._direct

        def off(ctx, x, y):
            values = real(ctx, x, y)
            return np.where(values != 0.0, np.nextafter(values, np.inf), 0.0)

        train, test = _split_of(3, 80)
        spec = ScoreSpec(ScoreKind.IND)
        reference = score_all(train, spec, test, workers=1)
        monkeypatch.setattr(engine, "DENSE_MAX_CELLS", -1)
        assert score_all(train, spec, test, workers=1) == reference
        monkeypatch.setattr(engine, "_direct", off)
        with pytest.raises(ValidationError, match="direct value"):
            score_all(train, spec, test, workers=1)

    @pytest.mark.parametrize("kind", [kind for kind in ScoreKind if kind in UNDIRECTED_KINDS])
    @pytest.mark.parametrize("ids", ["permuted", "hub-first"])
    def test_symmetric_pairs_within_their_chunk(self, kind, ids, monkeypatch):
        """Forced onto scipy's backend, a symmetric chunk [lo, hi) reads
        its listed pairs from its product's rows, the first hi - lo of
        which it zeroes at y <= x. The test pairs lie a few ids apart and
        share a neighbour, so many fall inside one chunk, lo <= x < y < hi,
        and none is zero. 250 eligible vertices hold ids among 1000, spread
        or hubs first: every histogram, in chunks of 1, 2, 7 and 1000 rows
        and the default ones, on 1 and 2 workers, is the dense backend's
        and the oracle's."""
        rng = np.random.default_rng(29)
        core = preferential_attachment_digraph(rng, 250, out_per_vertex=3)
        n = 1000
        if ids == "permuted":
            label = rng.permutation(n)
            g = Graph(n, *(label[ends] for ends in core.edges()))
        else:
            g = hub_first(Graph(n, *core.edges()))
        near = [set(g.out_neighbors(x).tolist()) | set(g.in_neighbors(x).tolist()) for x in range(n)]
        eligible = np.flatnonzero(g.out_degrees + g.in_degrees)
        test = []
        for x in eligible.tolist():
            for y in eligible[(eligible > x) & (eligible <= x + 7)].tolist():
                if near[x] & near[y] and y not in near[x]:
                    # one direction, the other, or both, whose deltas sum in ``once``
                    test += [[(x, y)], [(y, x)], [(x, y), (y, x)]][len(test) % 3]
        test = np.array(test, dtype=np.int64)
        low, high = test.min(axis=1), test.max(axis=1)
        assert ((low // 2) == (high // 2)).sum() >= 5 and ((low // 7) == (high // 7)).sum() >= 50
        spec = ScoreSpec(kind)
        expected = oracle_score_all(g, spec, test, cap=n).histogram
        assert 7 * n <= engine.DENSE_MAX_CELLS
        assert score_all(g, spec, test, workers=1, chunk_size=7) == expected
        monkeypatch.setattr(engine, "DENSE_MAX_CELLS", -1)
        for workers in (1, 2):
            for chunk in (1, 2, 7, 1000, None):
                assert score_all(g, spec, test, workers=workers, chunk_size=chunk) == expected

    def test_only_in_out_rows_are_scored_directly(self, monkeypatch):
        """On scipy's backend, a symmetric kind and DED read every listed
        pair from the chunk's own product: no call scores one directly
        (``_direct``) or searches a view (``_path_sums``). IND's listed
        pairs are scored directly, and the INF family searches for its
        in-out pass alone."""
        train, test = _split_of(3, 80)
        calls = []
        for name in ("_direct", "_path_sums"):
            real = getattr(engine, name)

            def recorded(ctx, *args, name=name, real=real):
                calls.append((name, args[:2] if name == "_path_sums" else None))
                return real(ctx, *args)

            monkeypatch.setattr(engine, name, recorded)
        monkeypatch.setattr(engine, "DENSE_MAX_CELLS", -1)
        for kind in ScoreKind:
            calls.clear()
            for chunk in (1, 7, None):
                score_all(train, ScoreSpec(kind), test, workers=1, chunk_size=chunk)
            if kind in UNDIRECTED_KINDS or kind is ScoreKind.DED:
                assert calls == []
            else:
                assert ("_direct", None) in calls
                assert {passes for name, passes in calls if name == "_path_sums"} == {("in", "out")}

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_reciprocal_digraph_matches_oracle(self, kind, monkeypatch):
        """Forced onto scipy's backend, a digraph of 2-cycles and a hub:
        every directed kind meets its diagonal (x, x) in the product and
        fixes it as a training edge, on chunk borders and across them."""
        n = 24
        cycles = [(x, x + 1) for x in range(1, n - 1, 2)] + [(x + 1, x) for x in range(1, n - 1, 2)]
        hub = [(0, x) for x in range(1, n, 3)] + [(x, 0) for x in range(2, n, 4)]
        chain = [(x, x + 2) for x in range(1, n - 2, 5)]
        g = graph_from_edges(cycles + hub + chain)
        test = [(3, 0), (0, 2), (5, 1), (1, 6), (7, 9), (12, 3)]
        monkeypatch.setattr(engine, "DENSE_MAX_CELLS", -1)
        for base in (math.e, 2.0):
            spec = ScoreSpec(kind, log_base=base)
            expected = oracle_score_all(g, spec, test).histogram
            for workers in (1, 2):
                for chunk in (1, 7, g.vertex_count):
                    assert score_all(g, spec, test, workers=workers, chunk_size=chunk) == expected

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_search_past_the_last_key(self, kind, monkeypatch):
        """Forced onto scipy's backend, a tagged pair at the highest
        vertex id: the training edge (0, 3) of IND, and of the INF
        family's in-out pass, searches the "in" keys [1, 11, 12] for
        3*4+1, past all of them, and finds it nowhere; the other kinds
        read their pairs at id 3 from their product."""
        g = graph_from_edges([(0, 3), (3, 2), (1, 0)])
        test = [(2, 0)]
        monkeypatch.setattr(engine, "DENSE_MAX_CELLS", -1)
        spec = ScoreSpec(kind)
        expected = oracle_score_all(g, spec, test).histogram
        for chunk in (1, g.vertex_count):
            assert score_all(g, spec, test, workers=1, chunk_size=chunk) == expected


def _split_of(seed, n):
    from hierlp import split_edges

    g = preferential_attachment_digraph(np.random.default_rng(seed), n, out_per_vertex=3)
    split = split_edges(g, 0.1, seed=seed)
    return split.train_graph, split.test_edges


def _fresh(graph):
    """An equal graph with nothing derived or cached."""
    return Graph(graph.vertex_count, *graph.edges())


def _counting(monkeypatch, name):
    """Record every later call of ``engine.<name>`` in the returned list."""
    calls = []
    real = getattr(engine, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(engine, name, counted)
    return calls


class TestSplitSession:
    """Every score of one split checks its test pairs once: the graph
    keeps the checked marker of its last test set, keyed by the exact
    content of the pairs."""

    def test_one_check_and_sort_per_split(self, monkeypatch):
        train, test = _split_of(1, 300)
        checks = _counting(monkeypatch, "_held_out")
        for kind in ScoreKind:
            # the first call takes scipy's backend, the second the dense one
            score_all(train, ScoreSpec(kind), test, workers=2)
            score_all(train, ScoreSpec(kind, log_base=2.0), test, workers=1, chunk_size=7)
            score_from_vertex(train, 5, ScoreSpec(kind), test)
        universe_stats(train, test)
        assert len(checks) == 1
        copy = pickle.loads(pickle.dumps(train))
        assert copy == train and copy._derived == {} and copy._split is None
        # only O(n + E + T) arrays and the unit-weight CSR views stay,
        # nothing chunk-sized: the split's lists hold one row per training
        # edge, test pair and diagonal cell (own) or at most one per pair
        # (once), each a key and its (tp, fp) deltas
        pairs, n = train.edge_count + len(test), train.vertex_count
        once, own = train._split[1][1:]
        for (keys, deltas), rows in ((once, pairs), (own, pairs + n)):
            assert keys.shape == (len(keys),) and deltas.shape == (len(keys), 2)
            assert len(keys) <= rows
        assert len(own[0]) == pairs + n
        bound = 2 * pairs + n + 1
        kept = []
        for value in train._derived.values():
            if isinstance(value, engine.CandidateUniverse):
                value = value.eligible_mask
            elif sp.issparse(value):
                assert np.all(value.data == 1.0)
                value = (value.data, value.indices, value.indptr)
            kept.append(value)
        for value in kept:
            for array in value if isinstance(value, tuple) else (value,):
                assert isinstance(array, np.ndarray) and array.size <= bound

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
    @settings(max_examples=80, deadline=None)
    def test_lists_match_brute_force(self, seed, n):
        """The split's two lists, against sums over the graph's edges and
        the test pairs: ``own`` holds each training edge, test pair and
        diagonal cell in its own direction, ``once`` each pair once with
        both directions' deltas summed. Where the graph has them, the
        test set holds a pair whose reverse is a training edge and both
        directions of one pair."""
        rng = np.random.default_rng(seed)
        train = erdos_renyi_digraph(rng, n)
        eligible = np.flatnonzero(train.out_degrees + train.in_degrees).tolist()
        edges = list(zip(*(side.tolist() for side in train.edges())))
        known = set(edges)
        candidates = {(x, y) for x in eligible for y in eligible if x != y} - known
        test = {p for p in sorted(candidates) if rng.random() < 0.2}
        test.update(sorted(p for p in candidates if p[::-1] in known)[:1])
        for p in sorted(p for p in candidates if p[::-1] in candidates)[:1]:
            test.update((p, p[::-1]))
        test = np.array(sorted(test), dtype=np.int64).reshape(-1, 2)
        rng.shuffle(test)
        positives, once, own = engine._held_out(train, test, engine._universe(train).eligible_mask)
        assert positives == len(test)
        listed = [(e, (0, -1)) for e in edges] + [((x, x), (0, -1)) for x in range(n)]
        listed += [(tuple(p), (1, -1)) for p in test.tolist()]
        expected_own, expected_once = {}, {}
        for (x, y), (tp, fp) in listed:
            expected_own[x * n + y] = (tp, fp)
            if x != y:
                key = min(x, y) * n + max(x, y)
                before = expected_once.get(key, (0, 0))
                expected_once[key] = (before[0] + tp, before[1] + fp)
        assert len(expected_own) == len(listed)
        for (keys, deltas), expected in ((own, expected_own), (once, expected_once)):
            assert keys.dtype == np.int64 and deltas.dtype == np.int8
            assert keys.tolist() == sorted(expected)
            assert deltas.tolist() == [list(expected[key]) for key in sorted(expected)]

    def test_changed_pairs_or_graph_miss(self):
        train, test = _split_of(2, 120)
        test = test.copy()
        eligible = np.flatnonzero(train.out_degrees + train.in_degrees)
        known = set(train.edge_keys().tolist()) | set((test[:, 0] * 120 + test[:, 1]).tolist())
        a, b, c = [
            (x, y) for x in eligible for y in eligible if x != y and x * 120 + y not in known
        ][:3]
        # the training graph plus the edge c
        other = Graph(120, *(np.append(side, end) for side, end in zip(train.edges(), c)))
        for index, kind in enumerate(ScoreKind):
            spec = ScoreSpec(kind)
            assert score_all(train, spec, test, workers=1) == score_all(_fresh(train), spec, test)
            test[0] = (a, b)[index % 2]  # in place
            assert score_all(train, spec, test, workers=1) == score_all(_fresh(train), spec, test)
            assert score_all(other, spec, test, workers=1) == score_all(_fresh(other), spec, test)
            row, count = score_from_vertex(other, int(test[0, 0]), spec, test)
            fresh_row, fresh_count = score_from_vertex(_fresh(other), int(test[0, 0]), spec, test)
            assert np.array_equal(row, fresh_row) and count == fresh_count

    def test_invalid_pairs_raise_every_call_and_are_never_cached(self, monkeypatch):
        train, test = _split_of(3, 80)
        spec = ScoreSpec(ScoreKind.CN)
        reference = score_all(train, spec, test, workers=1)
        cached = train._split
        checks = _counting(monkeypatch, "_held_out")
        invalid = np.vstack([test, test[:1]])  # a duplicate
        calls = [
            lambda: score_all(train, spec, invalid),
            lambda: universe_stats(train, invalid),
            lambda: score_from_vertex(train, 0, spec, invalid),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="duplicate"):
                call()
            assert train._split is cached
        assert len(checks) == 3
        assert score_all(train, spec, test, workers=1) == reference
        assert len(checks) == 3

    def test_threads_with_different_test_sets(self):
        import sys

        train, test_a = _split_of(4, 150)
        test_b = np.array(_sample_non_edges(np.random.default_rng(4), train, 25)).T
        kinds = [ScoreKind.CN, ScoreKind.AA, ScoreKind.INF_LOG_KD, ScoreKind.JACCARD]
        serial = {
            (name, kind): score_all(_fresh(train), ScoreSpec(kind), test, workers=1)
            for name, test in (("a", test_a), ("b", test_b))
            for kind in kinds
        }
        failures = []

        def hammer(name, test):
            try:
                for round_ in range(15):
                    for kind in kinds:
                        hist = score_all(train, ScoreSpec(kind), test, workers=1 + round_ % 2)
                        if hist != serial[(name, kind)]:
                            failures.append((name, kind, round_))
            except Exception as exc:  # reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=("a", test_a)),
                threading.Thread(target=hammer, args=("b", test_b)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        kind=st.sampled_from(list(ScoreKind)),
        base=st.sampled_from([math.e, 2.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_add_up_to_score_all(self, seed, n, kind, base):
        from hierlp import split_edges

        g = erdos_renyi_digraph(np.random.default_rng(seed), n)
        if g.edge_count >= 10:
            split = split_edges(g, 0.1, seed=seed)
            train, test = split.train_graph, split.test_edges
        else:
            train, test = g, NO_TEST
        spec = ScoreSpec(kind, log_base=base)
        rows = [score_from_vertex(train, x, spec, test) for x in range(n)]
        for buckets, count in rows:  # the count is the row's explicit candidates
            assert count == int(buckets["tp"].sum() + buckets["fp"].sum())
        merged = _buckets(*_merge([(b["value"], b["tp"], b["fp"]) for b, _ in rows]))
        hist = score_all(train, spec, test, workers=1)
        assert np.array_equal(merged, hist.buckets)
        assert (int(merged["tp"].sum()), int(merged["fp"].sum())) == hist.explicit_totals()


class TestMemo:
    """Every value derived from the graph alone is built once per graph,
    whatever the test set, and by one thread."""

    def test_new_test_set_keeps_the_graph_arrays(self, monkeypatch):
        train, test_a = _split_of(5, 200)
        test_b = test_a[1:]
        checks = _counting(monkeypatch, "_held_out")
        weights = _counting(monkeypatch, "_inv_log_weights")
        builds = []  # (graph, memo key) of every value the memo builds
        real = Graph._memo
        monkeypatch.setattr(
            Graph, "_memo", lambda g, key, build: real(g, key, lambda: builds.append((g, key)) or build())
        )
        for test in (test_a, test_b):
            for kind in UNDIRECTED_KINDS:
                score_all(train, ScoreSpec(kind), test, workers=1)
        assert len(checks) == 2
        undirected = [g for g, key in builds if key == ("keys", "undirected")]
        assert len(undirected) == 1 and undirected[0] is train
        assert len(weights) == 1  # AA's weights

    @pytest.mark.parametrize(
        "first_call",
        [lambda graph: graph.undirected_csr(), lambda graph: engine._degrees(graph, "in")],
        ids=["undirected_csr", "degrees"],
    )
    def test_first_builds_race_to_one_object(self, first_call):
        """Two threads' first calls on a fresh graph get one object."""
        import sys

        g = preferential_attachment_digraph(np.random.default_rng(6), 20000, out_per_vertex=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                graph = _fresh(g)
                start = threading.Barrier(2)
                got = [None, None]

                def first(index):
                    start.wait()
                    got[index] = first_call(graph)

                threads = [threading.Thread(target=first, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert got[0] is not None and got[0] is got[1]
        finally:
            sys.setswitchinterval(interval)


def _star_on_a_path(n):
    """Vertex 0 points at every other vertex, and each of them at the
    next: row 0 lists about n 2-hop paths, every other row about one."""
    others = np.arange(1, n)
    return Graph(n, np.r_[np.zeros(n - 1, dtype=np.int64), others[:-1]], np.r_[others, others[1:]])


def _paths_listed(ctx, lo, hi):
    """The 2-hop paths scipy's product lists for rows [lo, hi), counted
    on the unit-weight views: every pass's rows times its right view, a
    symmetric kind's columns from lo alone."""
    g = ctx.graph
    if ctx.unordered:
        return int((g.undirected_csr()[lo:hi] @ g.undirected_csr()[:, lo:]).sum())
    return sum(int((g._csr(left)[lo:hi] @ g._csr(right)).sum()) for left, right in ctx.passes)


class TestPathBalancedChunks:
    """Without a chunk size, scipy's backend cuts each chunk as the
    longest run of rows whose product lists at most a budget of 2-hop
    paths, the paths of the call's 1000-row chunks over their count.
    Any row partition scores the same pairs, so the histograms are those
    of fixed chunks."""

    @pytest.fixture(scope="class")
    def hub_split(self):
        from hierlp import split_edges

        g = hub_first(preferential_attachment_digraph(np.random.default_rng(3), 2500, out_per_vertex=3))
        split = split_edges(g, 0.1, seed=3)
        return split.train_graph, split.test_edges

    @pytest.mark.parametrize("kind", [ScoreKind.CN, ScoreKind.DED, ScoreKind.IND, ScoreKind.INF_LOG])
    @pytest.mark.parametrize("hub_row", [False, True], ids=["hub-first", "star-on-a-path"])
    def test_chunks_cover_the_rows_within_the_budget(self, hub_split, kind, hub_row):
        g = _star_on_a_path(2001) if hub_row else hub_split[0]
        n = g.vertex_count
        ctx = engine._RunContext(g, engine._marker(g, NO_TEST), ScoreSpec(kind), False)
        chunks = list(engine._chunks(ctx, None))
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(lo < hi for lo, hi in chunks)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        fixed = [_paths_listed(ctx, lo, min(lo + 1000, n)) for lo in range(0, n, 1000)]
        assert engine._row_paths(g, ctx.passes, ctx.unordered)[1].tolist() == fixed
        chunk_count = math.ceil(n / 1000)
        budget = -(-sum(fixed) // chunk_count)
        listed = [_paths_listed(ctx, lo, hi) for lo, hi in chunks]
        over = [chunk for chunk, paths in zip(chunks, listed) if paths > budget]
        assert all(hi - lo == 1 for lo, hi in over)
        # the longest run: one row more passes the budget
        assert all(_paths_listed(ctx, lo, hi + 1) > budget for lo, hi in chunks[:-1])
        assert chunk_count <= len(chunks) <= chunk_count + 2 + len(over)
        # DED's row 0 lists the star's paths; through the hub, every row lists about n
        assert over == ([(0, 1)] if hub_row and kind is ScoreKind.DED else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_equals_fixed_chunks(self, hub_split, workers):
        g, test = hub_split
        for kind in ScoreKind:
            spec = ScoreSpec(kind)
            expected = score_all(g, spec, test, workers=workers)
            for chunk_size in (1, 7, 1000, g.vertex_count):
                assert score_all(g, spec, test, workers=workers, chunk_size=chunk_size) == expected, (kind, chunk_size)

    def test_score_all_folds_the_balanced_chunks(self, hub_split, monkeypatch):
        g, test = hub_split
        folded = []
        real = engine._fold_chunk
        monkeypatch.setattr(engine, "_fold_chunk", lambda ctx, lo, hi: folded.append((lo, hi)) or real(ctx, lo, hi))
        ctx = engine._RunContext(g, engine._marker(g, test), ScoreSpec(ScoreKind.CN), False)
        balanced = list(engine._chunks(ctx, None))
        score_all(g, ScoreSpec(ScoreKind.CN), test, workers=1)
        assert folded == balanced != [(0, 1000), (1000, 2000), (2000, g.vertex_count)]
        folded.clear()
        score_all(g, ScoreSpec(ScoreKind.CN), test, workers=1, chunk_size=1000)
        assert folded == [(0, 1000), (1000, 2000), (2000, g.vertex_count)]
