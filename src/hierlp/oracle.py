"""Brute-force reference implementations for small graphs.

Every candidate pair is scored directly from materialized neighbor
sets, with no path accumulation and no shared traversal machinery, so
an engine bug and an oracle bug are unlikely to coincide. Curves are
rebuilt with the literal quadratic threshold aggregation. Strictly a
verification tool: refuses graphs above a configurable vertex cap.
"""

from dataclasses import dataclass

import numpy as np

from .engine import BUCKET_DTYPE, ThresholdHistogram
from . import scores as sc


DEFAULT_VERTEX_CAP = 500


@dataclass
class OracleResult:
    scores: dict  # (u, v) -> value, every candidate ordered pair
    histogram: ThresholdHistogram
    thresholds: np.ndarray
    pr_points: np.ndarray
    roc_points: np.ndarray
    aupr: float
    auroc: float


def oracle_score_all(graph, spec, test_edges, cap=DEFAULT_VERTEX_CAP):
    """Score the complete candidate universe by direct set evaluation."""
    n = graph.vertex_count
    if n > cap:
        raise ValueError(f"oracle refuses graphs above {cap} vertices (got {n})")
    out_sets = [set(graph.out_neighbors(x).tolist()) for x in range(n)]
    in_sets = [set(graph.in_neighbors(x).tolist()) for x in range(n)]
    edge_set = set()
    for u in range(n):
        for v in out_sets[u]:
            edge_set.add((u, v))
    eligible = [x for x in range(n) if out_sets[x] or in_sets[x]]
    test_set = {(int(u), int(v)) for u, v in np.asarray(test_edges, dtype=np.int64).reshape(-1, 2)}

    kind = spec.kind
    if kind in sc.UNDIRECTED_KINDS:
        und_sets = [out_sets[x] | in_sets[x] for x in range(n)]
        und_deg = [len(s) for s in und_sets]
        degree_of = und_deg.__getitem__
        if kind is sc.ScoreKind.CN:
            pair_score = lambda x, y: float(len(und_sets[x] & und_sets[y]))
        elif kind is sc.ScoreKind.AA:
            pair_score = lambda x, y: sc.adamic_adar(
                und_sets[x] & und_sets[y], degree_of, spec.log_base
            )
        elif kind is sc.ScoreKind.RA:
            pair_score = lambda x, y: sc.resource_allocation(
                und_sets[x] & und_sets[y], degree_of
            )
        else:
            pair_score = lambda x, y: sc.jaccard(und_sets[x], und_sets[y])
    elif kind is sc.ScoreKind.DED:
        pair_score = lambda x, y: sc.ded(out_sets[x], in_sets[y], "proportional")
    elif kind is sc.ScoreKind.IND:
        pair_score = lambda x, y: sc.ind(in_sets[x], in_sets[y], "proportional")
    else:
        pair_score = lambda x, y: sc.inf_family(out_sets[x], in_sets[x], in_sets[y], spec)

    table = {}
    buckets = {}
    zero_tp = zero_fp = 0
    for x in eligible:
        for y in eligible:
            if x == y or (x, y) in edge_set:
                continue
            value = pair_score(x, y)
            table[(x, y)] = value
            is_tp = (x, y) in test_set
            if value == 0.0:
                if is_tp:
                    zero_tp += 1
                else:
                    zero_fp += 1
            else:
                tp, fp = buckets.get(value, (0, 0))
                buckets[value] = (tp + 1, fp) if is_tp else (tp, fp + 1)

    positives = len(test_set)
    m = len(eligible)
    negatives = m * (m - 1) - graph.edge_count - positives
    rows = sorted(((value, tp, fp) for value, (tp, fp) in buckets.items()), reverse=True)
    histogram = ThresholdHistogram(
        buckets=np.array(rows, dtype=BUCKET_DTYPE),
        zero_bucket=(zero_tp, zero_fp),
        positives_total=positives,
        negatives_total=negatives,
    )
    histogram.check_conservation()
    thresholds, pr_points, roc_points = naive_curves(histogram)
    return OracleResult(
        scores=table,
        histogram=histogram,
        thresholds=thresholds,
        pr_points=pr_points,
        roc_points=roc_points,
        aupr=naive_area_under_pr(pr_points),
        auroc=naive_area_under_roc(roc_points),
    )


def naive_curves(histogram):
    """Literal quadratic threshold aggregation over a histogram.

    For every distinct similarity sim1, accumulate the (tp, fp) of every
    bucket with sim2 >= sim1. The zero bucket, when non-empty, is the
    value-0 threshold. Only usable for modest threshold counts.
    """
    histogram.check_conservation()
    buckets = {value: (tp, fp) for value, tp, fp in histogram.buckets.tolist()}
    values = sorted(buckets, reverse=True)
    tp = [buckets[v][0] for v in values]
    fp = [buckets[v][1] for v in values]
    if histogram.zero_bucket != (0, 0) or not values:
        values.append(0.0)
        tp.append(histogram.zero_bucket[0])
        fp.append(histogram.zero_bucket[1])
    values_arr = np.array(values, dtype=np.float64)
    tp_arr = np.array(tp, dtype=np.int64)
    fp_arr = np.array(fp, dtype=np.int64)
    positives = histogram.positives_total
    negatives = histogram.negatives_total
    pr = []
    roc = []
    for sim1 in values:
        at_least = values_arr >= sim1
        tp_cum = int(tp_arr[at_least].sum())
        fp_cum = int(fp_arr[at_least].sum())
        recall = tp_cum / positives if positives > 0 else 1.0
        precision = tp_cum / (tp_cum + fp_cum) if tp_cum + fp_cum > 0 else 1.0
        fpr = fp_cum / negatives if negatives > 0 else 1.0
        pr.append((recall, precision))
        roc.append((fpr, recall))
    return values_arr, np.array(pr, dtype=np.float64).reshape(-1, 2), np.array(
        roc, dtype=np.float64
    ).reshape(-1, 2)


def naive_area_under_pr(pr_points):
    total = 0.0
    previous = 0.0
    for recall, precision in np.asarray(pr_points).tolist():
        total += precision * (recall - previous)
        previous = recall
    return total


def naive_area_under_roc(roc_points):
    total = 0.0
    prev_x = 0.0
    prev_y = 0.0
    for x, y in np.asarray(roc_points).tolist():
        total += (x - prev_x) * (y + prev_y) / 2.0
        prev_x, prev_y = x, y
    return total
