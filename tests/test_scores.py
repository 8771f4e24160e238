import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hierlp.scores import (
    ScoreConsistencyError,
    ScoreKind,
    ScoreSpec,
    adamic_adar,
    common_neighbors,
    ded,
    ind,
    inf_family,
    jaccard,
    resource_allocation,
)

small_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=10)


class TestCommonNeighbors:
    def test_identical_sets(self):
        assert common_neighbors({3, 4}, {3, 4}) == 2

    def test_empty_intersection(self):
        assert common_neighbors(set(), {1, 2}) == 0

    def test_partial_overlap(self):
        assert common_neighbors({1, 2, 3}, {2, 3, 5}) == 2

    @given(small_sets, small_sets)
    def test_symmetric(self, gx, gy):
        assert common_neighbors(gx, gy) == common_neighbors(gy, gx)

    @given(small_sets, small_sets, st.integers(min_value=100, max_value=110))
    def test_adding_a_common_neighbor_never_decreases(self, gx, gy, z):
        before = common_neighbors(gx, gy)
        assert common_neighbors(gx | {z}, gy | {z}) >= before


class TestAdamicAdar:
    def test_empty_sum(self):
        assert adamic_adar(set(), lambda z: 2) == 0.0

    def test_single_degree_two_neighbor(self):
        value = adamic_adar({7}, lambda z: 2)
        assert value == 1.0 / math.log(2)
        assert value == pytest.approx(1.442695, abs=1e-6)

    def test_two_neighbors_degrees_2_and_4(self):
        degrees = {1: 2, 2: 4}
        value = adamic_adar({1, 2}, degrees.__getitem__)
        assert value == 1.0 / math.log(2) + 1.0 / math.log(4)
        assert value == pytest.approx(2.164043, abs=1e-6)

    def test_degree_below_two_is_a_corrupted_graph(self):
        with pytest.raises(ScoreConsistencyError):
            adamic_adar({1}, lambda z: 1)

    def test_log_base_rescales_uniformly(self):
        degrees = {1: 4, 2: 8}
        natural = adamic_adar({1, 2}, degrees.__getitem__)
        base2 = adamic_adar({1, 2}, degrees.__getitem__, log_base=2.0)
        assert base2 == pytest.approx(natural * math.log(2), rel=1e-12)


class TestResourceAllocation:
    def test_empty(self):
        assert resource_allocation(set(), lambda z: 2) == 0.0

    def test_single_even_split(self):
        assert resource_allocation({1}, lambda z: 2) == 0.5

    def test_degrees_2_and_5(self):
        degrees = {1: 2, 2: 5}
        assert resource_allocation({1, 2}, degrees.__getitem__) == 0.7


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint_nonempty(self):
        assert jaccard({1}, {2, 3}) == 0.0

    def test_partial(self):
        assert jaccard({1, 2, 3}, {2, 3, 5}) == 0.5

    def test_both_empty_defined_as_zero(self):
        assert jaccard(set(), set()) == 0.0

    @given(small_sets, small_sets)
    def test_bounds_and_symmetry(self, gx, gy):
        value = jaccard(gx, gy)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(gy, gx)


class TestDedInd:
    def test_ded_proportional(self):
        assert ded({1, 2}, {1}) == 0.5

    def test_empty_out_set_convention(self):
        assert ded(set(), {1, 2, 3}) == 0.0

    def test_ded_log_weighted_full_overlap(self):
        value = ded({1, 2, 3, 4}, {1, 2, 3, 4}, weighting="log-weighted")
        assert value == 1.0 * math.log(4)
        assert value == pytest.approx(1.386294, abs=1e-6)

    def test_log_weighted_vanishes_at_single_neighbor(self):
        assert ded({1}, {1}, weighting="log-weighted") == 0.0
        assert ind({1}, {1}, weighting="log-weighted") == 0.0

    def test_ind_proportional(self):
        assert ind({1, 2}, {1}) == 0.5

    def test_empty_in_set(self):
        assert ind(set(), {1}) == 0.0

    @given(small_sets, small_sets)
    def test_proportional_bounds(self, a_x, d_y):
        assert 0.0 <= ded(a_x, d_y) <= 1.0


class TestInfFamily:
    def test_inf_sums_sub_scores(self):
        # A(x)={a,b}, D(y)={a}, D(x)={c} with c not in D(y)
        value = inf_family({10, 11}, {12}, {10}, ScoreSpec(ScoreKind.INF))
        assert value == 0.5

    def test_all_empty(self):
        for kind in (ScoreKind.INF, ScoreKind.INF_LOG, ScoreKind.INF_LOG_KD):
            assert inf_family(set(), set(), set(), ScoreSpec(kind)) == 0.0

    def test_hybrid_with_k2(self):
        # A(x) of size 4 fully inside D(y); D(x)={p,q} with p in D(y)
        a_x = {1, 2, 3, 4}
        d_x = {5, 6}
        d_y = {1, 2, 3, 4, 5}
        value = inf_family(a_x, d_x, d_y, ScoreSpec(ScoreKind.INF_LOG_KD, k=2.0))
        assert value == 2.0 * (1.0 * math.log(4)) + (0.5 * math.log(2))
        assert value == pytest.approx(3.119162, abs=1e-6)

    @given(small_sets, small_sets, small_sets)
    def test_inf_bounds(self, a_x, d_x, d_y):
        assert 0.0 <= inf_family(a_x, d_x, d_y, ScoreSpec(ScoreKind.INF)) <= 2.0
        assert inf_family(a_x, d_x, d_y, ScoreSpec(ScoreKind.INF_LOG_KD)) >= 0.0

    def test_directional_asymmetry_witness(self):
        # x -> z -> y gives s(x->y) > 0 while s(y->x) has no evidence
        from conftest import graph_from_edges

        g = graph_from_edges([(0, 1), (1, 2)])
        def sets(v):
            return (
                set(g.out_neighbors(v).tolist()),
                set(g.in_neighbors(v).tolist()),
            )
        a_x, d_x = sets(0)
        a_y, d_y = sets(2)
        spec = ScoreSpec(ScoreKind.INF)
        assert inf_family(a_x, d_x, d_y, spec) > 0.0
        assert inf_family(a_y, d_y, d_x, spec) == 0.0


class TestScoreSpec:
    def test_defaults(self):
        spec = ScoreSpec(ScoreKind.INF_LOG_KD)
        assert spec.k == 2.0
        assert spec.log_base == math.e

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ScoreSpec(ScoreKind.INF_LOG_KD, k=0.0)
        with pytest.raises(ValueError):
            ScoreSpec(ScoreKind.CN, log_base=1.0)

    @pytest.mark.parametrize("field", ["k", "log_base"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ScoreSpec(ScoreKind.INF_LOG_KD, **{field: value})

    def test_infinite_k_token_refused(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreSpec.parse("inf_log_kd(k=inf)")

    def test_k_between_one_and_three_representable(self):
        for k in (1.0, 1.5, 2.0, 2.5, 3.0):
            assert ScoreSpec(ScoreKind.INF_LOG_KD, k=k).k == k

    @pytest.mark.parametrize("token", [
        "cn", "aa", "ra", "jaccard", "ded", "ind", "inf", "inf_log",
    ])
    def test_token_round_trip(self, token):
        assert ScoreSpec.parse(token).token() == token

    def test_kd_token_carries_k(self):
        spec = ScoreSpec.parse("inf_log_kd(k=1.5)")
        assert spec.kind is ScoreKind.INF_LOG_KD
        assert spec.k == 1.5
        assert spec.token() == "inf_log_kd(k=1.5)"

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            ScoreSpec.parse("katz")

    @pytest.mark.parametrize("k", [2.0, 1.5, 0.1, 1e-05, 10.0, 1e16, 1234567.0, 1.23456789])
    def test_token_reads_back_to_its_spec(self, k):
        spec = ScoreSpec(ScoreKind.INF_LOG_KD, k=k)
        assert ScoreSpec.parse(spec.token()) == spec

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_token_reads_back_for_every_finite_positive_k(self, k):
        spec = ScoreSpec(ScoreKind.INF_LOG_KD, k=k)
        assert ScoreSpec.parse(spec.token()) == spec

    @pytest.mark.parametrize("k, token", [
        (2.0, "inf_log_kd(k=2)"), (1.5, "inf_log_kd(k=1.5)"), (1234567.0, "inf_log_kd(k=1234567)"),
        (1.23456789, "inf_log_kd(k=1.23456789)"), (1e16, "inf_log_kd(k=1e+16)"),
    ])
    def test_token_writes_k_as_its_repr_without_a_trailing_zero(self, k, token):
        assert ScoreSpec(ScoreKind.INF_LOG_KD, k=k).token() == token

    @pytest.mark.parametrize("token", ["inf_log_kd(k=1_0)", "inf_log_kd(k=\u0663)", "inf_log_kd(k= 3)"])
    def test_k_that_is_no_ascii_numeral_refused(self, token):
        with pytest.raises(ValueError, match="not an ASCII numeral"):
            ScoreSpec.parse(token)

    def test_bare_kd_token_alone_takes_k(self):
        assert ScoreSpec.parse("inf_log_kd", k=3.0) == ScoreSpec(ScoreKind.INF_LOG_KD, k=3.0)
        assert ScoreSpec.parse("INF_LOG_KD(K=1.5)", k=3.0).k == 1.5
        assert ScoreSpec.parse("cn", k=5.0) == ScoreSpec(ScoreKind.CN)
