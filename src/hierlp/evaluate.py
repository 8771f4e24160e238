"""Train/test edge splits and exact PR/ROC curve construction.

A split removes a uniform sample of edges from the graph; sampled edges
whose endpoints become disconnected in the training graph are excluded
from evaluation entirely (they are recorded, but never counted as
missed positives). Curves are built from a ThresholdHistogram by a
single descending prefix sum; every distinct score value is one
threshold and a prediction at exactly the threshold counts as positive.
A run's summary is written by ``write_summary`` and read back by
``load_summary``, which checks the fields ``compare`` reads against one
table of their JSON types, ``_SUMMARY_FIELDS``.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .engine import _universe
from .graph import _FLOAT, _INTEGER_ID, Graph, _integer_pairs, _numeral, _opened, _read_artifact, _write_header, _write_rows
from .scores import ScoreSpec


@dataclass
class EdgeSplit:
    """Seeded partition of a graph's edges into train graph + test set."""

    train_graph: Graph
    test_edges: np.ndarray  # (T, 2), canonical (u, v) order
    dropped_test_edges: np.ndarray  # sampled edges with a disconnected endpoint
    seed: int
    fraction: float


@dataclass
class EvaluationReport:
    """PR/ROC curves with their areas and class counts."""

    thresholds: np.ndarray
    pr_points: np.ndarray  # (recall, precision), ascending recall
    roc_points: np.ndarray  # (fpr, tpr), ascending fpr
    aupr: float
    auroc: float
    positives_total: int
    negatives_total: int
    spec: ScoreSpec | None = None
    metadata: dict = field(default_factory=dict)


def split_edges(graph, fraction=0.10, seed=0):
    """Uniformly sample floor(fraction * |E|) edges as held-out positives.

    Deterministic for a given seed. Sampled edges with an endpoint of
    degree zero in the training graph land in dropped_test_edges.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    m = graph.edge_count
    sample_size = int(fraction * m)
    if sample_size < 1:
        raise ValueError("fraction * edge_count is below one edge")
    rng = np.random.default_rng(seed)
    picked = np.zeros(m, dtype=bool)
    picked[rng.permutation(m)[:sample_size]] = True
    u, v = graph.edges()
    train_graph = Graph(
        graph.vertex_count, u[~picked], v[~picked], vertex_labels=graph.vertex_labels
    )
    # the engine's eligibility rule; the first score reuses what it builds
    connected = _universe(train_graph).eligible_mask
    test_u, test_v = u[picked], v[picked]
    ok = connected[test_u] & connected[test_v]
    test = np.column_stack([test_u[ok], test_v[ok]])
    dropped = np.column_stack([test_u[~ok], test_v[~ok]])
    return EdgeSplit(
        train_graph=train_graph,
        test_edges=test,
        dropped_test_edges=dropped,
        seed=int(seed),
        fraction=float(fraction),
    )


#: the first line of a split file
_SPLIT_TITLE = "# hierlp edge split"
#: a split file's header keys, each with its value's parser: the values
#: ``split_edges`` can write, a count or seed >= 0 and a fraction in
#: (0, 1); "# test" and "# dropped" head the sections of their edges
_COUNT = _numeral(int, _INTEGER_ID, "an integer >= 0", lambda value: value >= 0)
_FRACTION = _numeral(float, _FLOAT, "a float in (0, 1)", lambda value: 0.0 < value < 1.0)
_SPLIT_HEADER = dict(seed=(_COUNT,), fraction=(_FRACTION,), vertices=(_COUNT,), test=(_COUNT,), dropped=(_COUNT,))


def save_split(split, sink):
    """Persist a split (test edges + seed); enough to rerun bit-exactly.

    The header lines come from the one header writer,
    ``graph._write_header``, and the edges of each section are "u v"
    lines from the one row writer, ``graph._write_rows``."""
    with _opened(sink, "w") as fh:
        fh.write(_SPLIT_TITLE + "\n")
        _write_header(
            fh, _SPLIT_HEADER, seed=split.seed, fraction=split.fraction,
            vertices=split.train_graph.vertex_count, test=len(split.test_edges),
        )
        _write_rows(fh, "%d %d\n", *split.test_edges.T)
        _write_header(fh, _SPLIT_HEADER, dropped=len(split.dropped_test_edges))
        _write_rows(fh, "%d %d\n", *split.dropped_test_edges.T)


def load_split(graph, source):
    """Rebuild an EdgeSplit against the original graph from a split file.

    The one artifact reader, ``graph._read_artifact``, reads its header
    lines "# key value", each key of ``_SPLIT_HEADER`` exactly once, and
    the edges after "# test" and after "# dropped" by the edge-list
    loader's integer-pair reader. Refuse, naming
    the line, a malformed, unknown or repeated header line, a value that
    ``split_edges`` could not have written (with the rule it breaks), a
    missing header line, and a malformed or misplaced edge line; refuse a file written
    for a graph of another vertex count, one whose section counts differ
    from the edges it lists, and one that lists an edge twice."""
    header, edges = _read_artifact(
        source, "split file", _SPLIT_HEADER, _integer_pairs, ("test", "dropped"), _SPLIT_TITLE
    )
    test, dropped = (edges.get(key, np.empty((0, 2), dtype=np.int64)) for key in ("test", "dropped"))
    if header["vertices"] != graph.vertex_count:
        raise ValueError(
            f"split file is for {header['vertices']} vertices, the graph has {graph.vertex_count}"
        )
    for name, edges in (("test", test), ("dropped", dropped)):
        if header[name] != len(edges):
            raise ValueError(
                f"split file declares {header[name]} {name} edges but lists {len(edges)}"
            )
    removed = np.concatenate([test, dropped])
    n = graph.vertex_count
    if len(removed) and removed.max() >= n:
        # a key u*n+v of such an id would alias another edge's
        raise ValueError("split file contains edges absent from the graph")
    removed_keys = np.sort(removed[:, 0] * n + removed[:, 1])
    twice = removed_keys[1:][removed_keys[1:] == removed_keys[:-1]]
    if len(twice):
        raise ValueError(f"split file lists edge ({twice[0] // n}, {twice[0] % n}) twice")
    kept = graph.edge_keys()[~np.isin(graph.edge_keys(), removed_keys)]
    if graph.edge_count - len(kept) != len(removed):
        raise ValueError("split file contains edges absent from the graph")
    train_graph = Graph(n, *np.divmod(kept, n), vertex_labels=graph.vertex_labels)
    return EdgeSplit(train_graph, test, dropped, header["seed"], header["fraction"])


def build_curves(histogram, spec=None, metadata=None):
    """One PR point and one ROC point per distinct threshold.

    Thresholds are the distinct score values sorted descending; the zero
    bucket, when non-empty, is the final threshold and captures every
    remaining candidate, so the last recall is always 1. Cumulative
    counts use a single descending prefix sum; equal scores are
    inherently one threshold. A rate over a denominator that is not
    positive is 1: with nothing to miss, a curve is vacuously complete.
    """
    buckets, zero = histogram.buckets, histogram.zero_bucket
    explicit = len(buckets)
    rows = explicit + (zero != (0, 0) or not explicit)
    thresholds = np.zeros(rows)  # the zero bucket's threshold last, when it has a row
    thresholds[:explicit] = buckets["value"]
    counts = np.zeros((2, rows), dtype=np.int64)
    counts[:, :explicit] = buckets["tp"], buckets["fp"]
    counts[:, -1] += zero  # a row of its own, or (0, 0) added to the last bucket
    cum_tp, cum_fp = counts.cumsum(axis=1, out=counts)
    histogram.check_conservation((int(cum_tp[-1]) - zero[0], int(cum_fp[-1]) - zero[1]))
    positives, negatives = histogram.positives_total, histogram.negatives_total
    # (recall, precision) and (fpr, recall), each 1 where it is left alone
    pr_points, roc_points = np.ones((2, rows, 2))
    if positives > 0:
        np.divide(cum_tp, positives, out=pr_points[:, 0])
    if negatives > 0:
        np.divide(cum_fp, negatives, out=roc_points[:, 0])
    seen = cum_tp + cum_fp
    np.divide(cum_tp, seen, out=pr_points[:, 1], where=seen > 0)
    roc_points[:, 1] = pr_points[:, 0]
    return EvaluationReport(
        thresholds=thresholds,
        pr_points=pr_points,
        roc_points=roc_points,
        aupr=area_under_pr(pr_points),
        auroc=area_under_roc(roc_points),
        positives_total=positives,
        negatives_total=negatives,
        spec=spec,
        metadata=dict(metadata or {}),
    )


def _with_previous(op, column):
    """``op`` of each value of ``column`` and the value before it, 0.0
    before the first."""
    previous = np.empty_like(column)
    previous[0] = 0.0
    previous[1:] = column[:-1]
    return op(column, previous, out=previous)


def area_under_pr(points):
    """Right-continuous step integration of the PR curve.

    sum of precision_i * (recall_i - recall_{i-1}) with recall_0 = 0;
    step rather than linear interpolation, which is known-optimistic.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return 0.0
    recall_steps = _with_previous(np.subtract, points[:, 0])
    if (recall_steps[1:] < 0).any():
        raise ValueError("PR points must be sorted by ascending recall")
    # cumsum adds in sequence, so the sum is bit-identical to a loop
    return float((points[:, 1] * recall_steps).cumsum()[-1])


def area_under_roc(points):
    """Trapezoidal area under the ROC curve, anchored at (0, 0)."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return 0.0
    fpr_steps = _with_previous(np.subtract, points[:, 0])
    if (fpr_steps[1:] < 0).any():
        raise ValueError("ROC points must be sorted by ascending fpr")
    return float((fpr_steps * _with_previous(np.add, points[:, 1]) / 2.0).cumsum()[-1])


def write_curve_csv(points, header, sink):
    """One CSV per curve, values with full round-trip precision (their
    repr). The rows go through the one row writer, ``graph._write_rows``,
    which computes a repr once per run of equal values in a block."""
    points = np.asarray(points).reshape(-1, 2)
    with _opened(sink, "w") as fh:
        fh.write(header + "\n")
        _write_rows(fh, "%s,%s\n", points[:, 0], points[:, 1])


def summary_record(report, seed, fraction, wall_time, threads, chunk_size, graph_name=""):
    """Flat summary of one experiment run, JSON-serializable."""
    spec = report.spec
    return {
        "score": spec.token() if spec else None,
        "k": spec.k if spec else None,
        "log_base": spec.log_base if spec else None,
        "seed": seed,
        "fraction": fraction,
        "positives": report.positives_total,
        "negatives": report.negatives_total,
        "aupr": report.aupr,
        "auroc": report.auroc,
        "wall_time_seconds": wall_time,
        "threads": threads,
        "chunk_size": chunk_size,
        "graph": graph_name,
    }


#: the fields of a run summary that ``compare`` reads, each with its JSON
#: type; a summary may lack "log_base" alone, which then reads as e
_SUMMARY_FIELDS = dict(score="string", seed="integer", fraction="number", positives="integer", negatives="integer",
                       aupr="number", auroc="number", log_base="number")
#: the Python types ``json`` reads each JSON type as; a bool is neither
#: an integer nor a number
_JSON_TYPES = {"string": (str,), "integer": (int,), "number": (int, float)}


def write_summary(record, sink):
    with _opened(sink, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_summary(source):
    """The run summary ``write_summary`` wrote to a path or a stream: a
    JSON object holding each field of ``_SUMMARY_FIELDS`` with a value of
    its type, "log_base" where present. Raises ValueError for a text
    that is no JSON, a JSON value that is no object, a missing field and
    a field of another type, naming the field."""
    with _opened(source) as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    for key, json_type in _SUMMARY_FIELDS.items():
        if key in record and type(record[key]) not in _JSON_TYPES[json_type]:
            raise ValueError(f"{key} is {json.dumps(record[key])}, not a JSON {json_type}")
        if key not in record and key != "log_base":  # an absent log_base is e
            raise ValueError(f"no {key}")
    return record
