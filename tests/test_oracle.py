import numpy as np
import pytest

from hierlp import oracle_score_all, score_all
from hierlp.scores import ScoreKind, ScoreSpec

from conftest import erdos_renyi_digraph, graph_from_edges

NO_TEST = np.empty((0, 2), dtype=np.int64)


class TestOracle:
    def test_vertex_cap_refusal(self):
        rng = np.random.default_rng(61)
        g = erdos_renyi_digraph(rng, 40)
        with pytest.raises(ValueError):
            oracle_score_all(g, ScoreSpec(ScoreKind.CN), NO_TEST, cap=30)

    def test_empty_graph(self):
        g = graph_from_edges([], n=0)
        result = oracle_score_all(g, ScoreSpec(ScoreKind.CN), NO_TEST)
        assert result.scores == {}
        assert len(result.histogram.buckets) == 0

    def test_four_cycle_ded_reproduced(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        spec = ScoreSpec(ScoreKind.DED)
        result = oracle_score_all(g, spec, [(0, 2)])
        engine = score_all(g, spec, [(0, 2)], workers=1)
        assert result.histogram == engine
        assert result.scores[(0, 2)] == 1.0
        assert result.scores[(1, 3)] == 1.0

    def test_covers_whole_candidate_universe(self):
        from hierlp import universe_stats

        rng = np.random.default_rng(62)
        g = erdos_renyi_digraph(rng, 30)
        result = oracle_score_all(g, ScoreSpec(ScoreKind.CN), NO_TEST)
        uni = universe_stats(g, NO_TEST)
        assert len(result.scores) == uni.universe_size

    def test_scores_come_from_set_definitions(self):
        # spot-check one pair against a manual computation
        g = graph_from_edges([(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1)])
        result = oracle_score_all(g, ScoreSpec(ScoreKind.CN), NO_TEST)
        # Gamma(0) = {2, 3, 4}, Gamma(1) = {2, 3, 4}
        assert result.scores[(0, 1)] == 3.0
