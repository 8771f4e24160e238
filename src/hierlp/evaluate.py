"""Train/test edge splits and exact PR/ROC curve construction.

A split removes a uniform sample of edges from the graph; sampled edges
whose endpoints become disconnected in the training graph are excluded
from evaluation entirely (they are recorded, but never counted as
missed positives). Curves are built from a ThresholdHistogram by a
single descending prefix sum; every distinct score value is one
threshold and a prediction at exactly the threshold counts as positive.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .engine import _universe
from .graph import Graph, GraphParseError, _comment_spans, _integer_pairs, _opened, _write_rows
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


def save_split(split, sink):
    """Persist a split (test edges + seed); enough to rerun bit-exactly.

    The edges of each section are "u v" lines from the one row writer,
    ``graph._write_rows``."""
    with _opened(sink, "w") as fh:
        fh.write("# hierlp edge split\n")
        fh.write(f"# seed {split.seed}\n")
        fh.write(f"# fraction {split.fraction!r}\n")
        fh.write(f"# vertices {split.train_graph.vertex_count}\n")
        fh.write(f"# test {len(split.test_edges)}\n")
        _write_rows(fh, "%d %d\n", *split.test_edges.T)
        fh.write(f"# dropped {len(split.dropped_test_edges)}\n")
        _write_rows(fh, "%d %d\n", *split.dropped_test_edges.T)


#: split-file header keys: the type of their value, and whether it must be there
_SPLIT_KEYS = {
    "seed": (int, True),
    "fraction": (float, True),
    "vertices": (int, True),
    "test": (int, False),
    "dropped": (int, False),
}


def _split_header(line, line_number):
    """(key, value) of a split-file header line "# key [value]". The value
    is None when absent, and for a key not in ``_SPLIT_KEYS`` (the title
    line). Refuses, naming the line, one of another shape or a value
    that is missing or not a number."""
    fields = line.split()
    key = fields[1] if len(fields) > 1 else None
    parse, required = _SPLIT_KEYS.get(key, (None, False))
    try:
        if fields[0] != "#" or key is None or (required and len(fields) < 3):
            raise ValueError
        return key, parse(fields[2]) if parse and len(fields) > 2 else None
    except ValueError:
        raise ValueError(f"malformed split file: line {line_number}: {line.strip()!r}") from None


def load_split(graph, source):
    """Rebuild an EdgeSplit against the original graph from a split file.

    Header lines read "# key [value]"; the edges after "# test" and after
    "# dropped" are read by the edge-list loader's integer-pair reader.
    Refuse, naming the line, a malformed header or edge line; refuse a
    file written for a graph of another vertex count, one whose section
    counts differ from the edges it lists, and one that lists an edge
    twice."""
    with _opened(source) as fh:
        text = fh.read()
    header = {"seed": 0, "fraction": 0.0}
    pairs = {"test": [], "dropped": []}
    declared = {}
    section = None
    bodies = []  # (section, the lines up to the next header, first line number)
    previous = 0
    line_number = 1
    for start, end in _comment_spans(text):
        bodies.append((section, text[previous:start], line_number))
        line_number += text.count("\n", previous, start)
        key, value = _split_header(text[start:end], line_number)
        if key in pairs:
            section = key
            if value is not None:
                declared[key] = value
        elif key == "vertices" and value != graph.vertex_count:
            raise ValueError(
                f"split file is for {value} vertices, the graph has {graph.vertex_count}"
            )
        elif key in header:
            header[key] = value
        line_number += 1
        previous = end
    bodies.append((section, text[previous:], line_number))
    for section, body, first_line in bodies:
        if not body or body.isspace():
            continue
        if section is None:
            raise ValueError("malformed split file: edges before a section header")
        try:
            pairs[section].append(_integer_pairs(body, first_line))
        except GraphParseError as error:
            raise ValueError(f"malformed split file: {error}") from None
    test, dropped = (
        np.concatenate([np.empty((0, 2), dtype=np.int64), *pairs[name]])
        for name in ("test", "dropped")
    )
    for name, edges in (("test", test), ("dropped", dropped)):
        if name in declared and declared[name] != len(edges):
            raise ValueError(
                f"split file declares {declared[name]} {name} edges but lists {len(edges)}"
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
    return EdgeSplit(train_graph, test, dropped, **header)


def build_curves(histogram, spec=None, metadata=None):
    """One PR point and one ROC point per distinct threshold.

    Thresholds are the distinct score values sorted descending; the zero
    bucket, when non-empty, is the final threshold and captures every
    remaining candidate, so the last recall is always 1. Cumulative
    counts use a single descending prefix sum; equal scores are
    inherently one threshold.
    """
    histogram.check_conservation()
    buckets = histogram.buckets
    thresholds, tp, fp = buckets["value"], buckets["tp"], buckets["fp"]
    if histogram.zero_bucket != (0, 0) or not len(buckets):
        thresholds = np.concatenate((thresholds, [0.0]))
        tp = np.concatenate((tp, [histogram.zero_bucket[0]]))
        fp = np.concatenate((fp, [histogram.zero_bucket[1]]))
    thresholds = np.ascontiguousarray(thresholds)
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    positives = histogram.positives_total
    negatives = histogram.negatives_total
    recall = _safe_rate(cum_tp, positives)
    precision = _safe_rate(cum_tp, cum_tp + cum_fp)
    fpr = _safe_rate(cum_fp, negatives)
    pr_points = np.column_stack([recall, precision])
    roc_points = np.column_stack([fpr, recall])
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


def _safe_rate(numerator, denominator):
    # a zero denominator means "nothing to miss": vacuously complete
    numerator = np.asarray(numerator, dtype=np.int64)
    denominator = np.broadcast_to(np.asarray(denominator, dtype=np.int64), numerator.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = numerator / denominator
    return np.where(denominator > 0, rate, 1.0)


def area_under_pr(points):
    """Right-continuous step integration of the PR curve.

    sum of precision_i * (recall_i - recall_{i-1}) with recall_0 = 0;
    step rather than linear interpolation, which is known-optimistic.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return 0.0
    recall_steps = points[:, 0] - np.concatenate(([0.0], points[:-1, 0]))
    if (recall_steps[1:] < 0).any():
        raise ValueError("PR points must be sorted by ascending recall")
    # cumsum adds in sequence, so the sum is bit-identical to a loop
    return float(np.cumsum(points[:, 1] * recall_steps)[-1])


def area_under_roc(points):
    """Trapezoidal area under the ROC curve, anchored at (0, 0)."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return 0.0
    previous = np.concatenate(([[0.0, 0.0]], points[:-1]))
    fpr_steps = points[:, 0] - previous[:, 0]
    if (fpr_steps[1:] < 0).any():
        raise ValueError("ROC points must be sorted by ascending fpr")
    return float(np.cumsum(fpr_steps * (points[:, 1] + previous[:, 1]) / 2.0)[-1])


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


def write_summary(record, sink):
    with _opened(sink, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
