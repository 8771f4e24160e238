"""Exhaustive scoring of all candidate missing edges.

Candidates are never materialized as a full score table. Each chunk of
source vertices expands its 2-hop neighborhood as a sparse matrix
product, classifies every explicitly-reached candidate as true/false
positive, and folds the result into a per-worker threshold histogram.
The (overwhelming) zero-score remainder of the candidate universe is
accounted for analytically from the universe size.

Exclusion and membership are structural. One marker matrix per run
tags the training and the test edges (for the symmetric kinds, both
directions of a pair in one entry); the sort that builds it is also
the one check of the held-out pairs, for every entry point. One
elementwise product of a chunk's product (its entries numbered) with
the marker's rows, a per-row sparse intersection as in Gustavson's
row-wise SpGEMM, returns the position and the tags of every tagged
pair among the chunk's candidates. The diagonal is dropped by
comparing rows with columns. The chunk's other candidates are counted
per distinct value before the merge; its few tagged pairs go to the
merge one by one.

The undirected kinds (CN, AA, RA, Jaccard) are symmetric, so each
unordered pair is scored once. A chunk of rows [lo, hi) multiplies by
the columns y >= lo of the right factor only, keeps the pairs y > x,
and credits each value to (x, y) and to (y, x), each direction by its
own tag. The bits cannot differ from scoring (y, x) itself: the
product sums over the shared neighbours in ascending order either way,
and Jaccard's du + dv commutes. ``score_from_vertex`` scores its whole
row, y < x included, through the same fold.

Workers claim fixed-size chunks of source vertices dynamically, which
absorbs the degree skew of webgraphs; the first worker to fail stops
the others from claiming more. A histogram holds the distinct nonzero
score values, descending, with int64 (tp, fp) counts; one merge builds
every histogram. The result is bit identical for any worker count and
chunk size: every chunk's values depend only on its own rows, and the
merge sums the integer counts of exactly equal values.
"""

import os
import re
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import _csr_arrays, _opened, _reprs
from .scores import (
    INF_FAMILY,
    UNDIRECTED_KINDS,
    ScoreKind,
    ScoreSpec,
    log_in_base,
)

DEFAULT_CHUNK_SIZE = 1000


class ValidationError(ValueError):
    """Inputs violate the engine's preconditions."""


class MemoryGuardError(RuntimeError):
    """The distinct-score bucket count exceeded the configured cap."""


@dataclass(frozen=True)
class CandidateUniverse:
    """Ordered-pair candidate universe of a training graph."""

    eligible_mask: np.ndarray
    eligible_count: int
    universe_size: int


#: One histogram bucket: a distinct nonzero score value and its counts.
BUCKET_DTYPE = np.dtype([("value", np.float64), ("tp", np.int64), ("fp", np.int64)])

_TRAILER = re.compile(r"^#[ \t]*(\w+)[ \t]*(.*)$", re.MULTILINE)


@dataclass(eq=False)
class ThresholdHistogram:
    """Per-distinct-score (tp, fp) tallies plus the analytic zero bucket."""

    buckets: np.ndarray  # BUCKET_DTYPE, distinct nonzero values descending
    zero_bucket: tuple  # (tp, fp) of all zero-scored candidates
    positives_total: int
    negatives_total: int

    def __eq__(self, other):
        if not isinstance(other, ThresholdHistogram):
            return NotImplemented
        return (
            self.zero_bucket == other.zero_bucket
            and self.positives_total == other.positives_total
            and self.negatives_total == other.negatives_total
            and np.array_equal(self.buckets, other.buckets)
        )

    def explicit_totals(self):
        return int(self.buckets["tp"].sum()), int(self.buckets["fp"].sum())

    def check_conservation(self):
        tp, fp = self.explicit_totals()
        if tp + self.zero_bucket[0] != self.positives_total:
            raise ValidationError("true-positive counts do not sum to positives_total")
        if fp + self.zero_bucket[1] != self.negatives_total:
            raise ValidationError("false-positive counts do not sum to negatives_total")
        if self.zero_bucket[0] < 0 or self.zero_bucket[1] < 0:
            raise ValidationError("negative zero-bucket count")

    def dump(self, sink):
        """Write "score tp fp" lines sorted by descending score, plus a
        trailer with the zero bucket and totals. Scores are serialized
        with round-trip precision."""
        b = self.buckets
        rows = zip(b["value"].tolist(), _reprs(b["tp"].tolist()), _reprs(b["fp"].tolist()))
        with _opened(sink, "w") as fh:
            fh.writelines([f"{value!r} {tp} {fp}\n" for value, tp, fp in rows])
            fh.write(f"# zero_bucket {self.zero_bucket[0]} {self.zero_bucket[1]}\n")
            fh.write(f"# positives_total {self.positives_total}\n")
            fh.write(f"# negatives_total {self.negatives_total}\n")

    @classmethod
    def load(cls, source):
        with _opened(source) as fh:
            text = fh.read()
        trailer = dict(_TRAILER.findall(text))
        rows = np.array(_TRAILER.sub("", text).split()).reshape(-1, 3)
        part = (rows[:, 0].astype(np.float64), rows[:, 1].astype(np.int64), rows[:, 2].astype(np.int64))
        zero = tuple(int(x) for x in trailer.get("zero_bucket", "0 0").split())
        positives = int(trailer.get("positives_total", 0))
        return cls(_merge([part]), zero, positives, int(trailer.get("negatives_total", 0)))


def _columns(buckets):
    return buckets["value"], buckets["tp"], buckets["fp"]


def _merge(parts):
    """Combine (values, tp, fp) parts into one BUCKET_DTYPE array.

    Equal values become one bucket, sorted descending, whose tp and fp
    are the int64 sums of theirs: exact, so the result does not depend
    on the order or grouping of the parts. This is np.unique's sort
    done in the open, so the same permutation gathers the counts.
    """
    values = np.concatenate([part[0] for part in parts])
    if len(values) == 0:
        return np.empty(0, dtype=BUCKET_DTYPE)
    # the parts are runs (a histogram descending, a chunk's np.unique
    # values ascending), which a stable sort merges in linear time
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    merged = np.empty(len(starts), dtype=BUCKET_DTYPE)
    merged["value"] = values[starts]
    for index, name in ((1, "tp"), (2, "fp")):
        counts = np.concatenate([part[index] for part in parts])[order]
        merged[name] = np.add.reduceat(counts, starts, dtype=np.int64)
    return merged


def _held_out(graph, test_edges, unordered=False):
    """Check the held-out pairs and mark them beside the training edges.

    The pairs must lie in the candidate universe: no self-loop, both
    endpoints with a training edge, no training edge, no duplicate.
    Returns (test_keys, marker): the pairs as sorted u*n+v keys, and a
    CSR int64 matrix that holds the tag t(x, y) at every training edge
    (t = 1) and test edge (t = 2). With ``unordered`` it holds
    t(x, y) + 3 t(y, x) at every pair of which either direction is one,
    so each entry tags both directions of its pair.
    """
    n = graph.vertex_count
    pairs = np.asarray(test_edges, dtype=np.int64)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValidationError("edge set must be an array of (u, v) pairs")
    pairs = pairs.reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        raise ValidationError("edge endpoint out of range")
    u, v = pairs.T
    if np.any(u == v):
        raise ValidationError("self-loop test edge")
    eligible = _universe(graph).eligible_mask
    if not np.all(eligible[u] & eligible[v]):
        raise ValidationError("test edge with an ineligible (disconnected) endpoint")
    keys = [graph.edge_keys(), u * n + v]
    counts = [graph.edge_count, len(u)]
    if unordered:
        keys += [graph.reverse_edge_keys(), v * n + u]
        counts *= 2
    keys = np.concatenate(keys)
    tags = np.repeat(np.array([1, 2, 3, 6][: len(counts)]), counts)
    # stable, so at each key a training edge precedes the test pairs
    # equal to it, and both precede the reversed pairs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    tags = tags[order]
    test_keys = keys[tags == 2]
    tied = keys[1:] == keys[:-1]
    if tied.any():
        # a key holds at most a training edge (1), test pairs (2), a
        # reversed training edge (3) and reversed test pairs (6), in
        # this order; of adjacent tags only (1, 2) multiply to 2 and
        # (2, 2) to 4
        neighbours = (tags[:-1] * tags[1:])[tied]
        if np.any(neighbours == 2):
            raise ValidationError("test edge present in the training graph")
        if np.any(neighbours == 4):
            raise ValidationError("duplicate test edges")
        # the two directions of a pair: one entry with both tags
        first = np.ones(len(keys), dtype=bool)
        first[1:] = ~tied
        starts = np.flatnonzero(first)
        keys, tags = keys[starts], np.add.reduceat(tags, starts)
    indptr, indices = _csr_arrays(keys, n)
    return test_keys, sp.csr_matrix((tags, indices, indptr), shape=(n, n))


def universe_stats(graph, test_edges):
    """Eligible vertices and exact candidate-universe size.

    Eligible vertices have in-degree + out-degree > 0 in the training
    graph; the universe is every ordered non-edge pair between them.
    ``test_edges`` are checked as ``score_all`` checks them.
    """
    _held_out(graph, test_edges)
    return _universe(graph)


def _universe(graph):
    eligible = (graph.out_degrees + graph.in_degrees) > 0
    m = int(eligible.sum())
    universe = m * (m - 1) - graph.edge_count
    return CandidateUniverse(eligible_mask=eligible, eligible_count=m, universe_size=universe)


class _RunContext:
    """Per-run immutable scoring state shared read-only by all workers."""

    def __init__(self, graph, spec):
        self.graph = graph
        self.spec = spec
        kind = spec.kind
        base = spec.log_base
        if kind in UNDIRECTED_KINDS:
            und = graph.undirected_csr()
            deg = graph.undirected_degrees
            if kind is ScoreKind.AA:
                right = und.copy()
                right.data = np.repeat(_inv_log_weights(deg, base), deg)
            elif kind is ScoreKind.RA:
                right = und.copy()
                with np.errstate(divide="ignore"):
                    right.data = np.repeat(
                        np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0), deg
                    )
            else:
                right = und
            self.passes = [(und, right)]
            self.deg_float = deg.astype(np.float64)
        else:
            out = graph.out_csr()
            if kind is ScoreKind.IND or kind in INF_FAMILY:
                inn = graph.in_csr()
            self.out_deg = graph.out_degrees.astype(np.float64)
            self.in_deg = graph.in_degrees.astype(np.float64)
            self.log_out = _log_of_degrees(graph.out_degrees, base)
            self.log_in = _log_of_degrees(graph.in_degrees, base)
            if kind is ScoreKind.DED:
                self.passes = [(out, out)]
            elif kind is ScoreKind.IND:
                self.passes = [(inn, out)]
            else:
                self.passes = [(out, out), (inn, out)]

    def chunk_candidates(self, lo, hi, first=0):
        """Score rows [lo, hi) against columns [first, n); returns a CSR
        matrix of all n columns, row i for vertex lo + i, holding every
        explicitly-reached ordered pair before exclusions. The caller
        owns it."""
        mats = []
        for pass_index, (left, right) in enumerate(self.passes):
            if first:
                prod = _rows(left, lo, hi) @ right[:, first:]
                prod = sp.csr_matrix(
                    (prod.data, prod.indices + first, prod.indptr), shape=(hi - lo, right.shape[1])
                )
            else:
                prod = _rows(left, lo, hi) @ right
            prod.data = self._weight(pass_index, lo, prod)
            mats.append(prod)
        return mats[0] if len(mats) == 1 else mats[0] + mats[1]

    def _weight(self, pass_index, lo, prod):
        """Per-entry value transform; arithmetic mirrors scores.py exactly."""
        kind = self.spec.kind
        data = prod.data
        nnz_per_row = np.diff(prod.indptr)
        if kind in (ScoreKind.CN, ScoreKind.AA, ScoreKind.RA):
            return data
        if kind is ScoreKind.JACCARD:
            du = np.repeat(self.deg_float[lo:lo + len(nnz_per_row)], nnz_per_row)
            dv = self.deg_float[prod.indices]
            return data / (du + dv - data)
        if pass_index == 0 and kind is not ScoreKind.IND:
            denom = self.out_deg
            logs = self.log_out
        else:
            denom = self.in_deg
            logs = self.log_in
        d_rep = np.repeat(denom[lo:lo + len(nnz_per_row)], nnz_per_row)
        values = data / d_rep
        if kind in (ScoreKind.INF_LOG, ScoreKind.INF_LOG_KD):
            values = values * np.repeat(logs[lo:lo + len(nnz_per_row)], nnz_per_row)
        if kind is ScoreKind.INF_LOG_KD and pass_index == 0:
            values = values * self.spec.k
        return values


def _rows(matrix, lo, hi):
    """Rows [lo, hi) of a CSR matrix that is only read; the matrix
    itself when that is all of it, which saves a copy per small graph."""
    return matrix if hi - lo == matrix.shape[0] else matrix[lo:hi]


def _log_of_degrees(degrees, base):
    # scalar math.log per distinct degree so engine values match
    # scores.log_in_base bit for bit; vectorized np.log may differ in
    # the last ulp
    distinct, inverse = np.unique(degrees, return_inverse=True)
    logs = [log_in_base(int(d), base) if d > 0 else 0.0 for d in distinct]
    return np.array(logs, dtype=np.float64)[inverse]


def _inv_log_weights(degrees, base):
    logs = _log_of_degrees(degrees, base)
    # degree-1 vertices (log 0) only ever reach the excluded diagonal
    with np.errstate(divide="ignore"):
        return np.where(degrees > 0, 1.0 / logs, 0.0)


# The (tp, fp) a tagged pair counts, by its marker tag t(x, y) + 3 t(y, x)
# (t: 0 candidate, 1 training edge, 2 test edge): row 0 counts (x, y)
# alone, row 1 both directions.
_TAG_COUNTS = np.array(
    [
        [(int(t % 3 == 2), int(t % 3 == 0)) for t in range(9)],
        [((t % 3 == 2) + (t // 3 == 2), (t % 3 == 0) + (t // 3 == 0)) for t in range(9)],
    ],
    dtype=np.int64,
)


def _fold_chunk(ctx, lo, hi, marker, buckets, unordered=False):
    """Merge the candidates of rows [lo, hi) into ``buckets``.

    ``marker`` is the run's marker from ``_held_out``. With
    ``unordered`` (for a symmetric score) only the pairs y > x are
    scored, and each value counts for (x, y) and for (y, x), each
    direction by its own tag. Returns (merged buckets, explicit_count),
    the count of explicitly-scored candidates (diagonal and training
    edges excluded, zero-valued candidates included).
    """
    prod = ctx.chunk_candidates(lo, hi, lo if unordered else 0)
    values = prod.data
    if len(values) == 0:
        return buckets, 0
    rows = np.repeat(np.arange(lo, hi), np.diff(prod.indptr))
    keep = prod.indices > rows if unordered else prod.indices != rows
    # With entry p of the product stored as 16p + 1, the elementwise
    # product with the marker rows intersects them row by row and
    # yields (16p + 1) * tag at every tagged pair; a tag is below 16.
    prod.data = np.arange(1, 16 * len(values), 16, dtype=np.int64)
    hits = prod.multiply(_rows(marker, lo, hi)).data
    tags = hits % 16
    at = hits // (16 * tags)
    tagged = keep[at]  # a tagged pair on (unordered: below) the diagonal stays excluded
    at, tags = at[tagged], tags[tagged]
    keep[at] = False
    counts = _TAG_COUNTS[int(unordered)][tags]
    directions = 2 if unordered else 1
    explicit_count = directions * int(np.count_nonzero(keep)) + int(counts.sum())
    fp_values, fp_counts = np.unique(values[keep], return_counts=True)
    fp_counts *= directions
    tp, fp = counts.T
    # a chunk holds few tagged pairs: the merge counts them one by one
    scored = _scored(
        np.concatenate([fp_values, values[at]]),
        np.concatenate([np.zeros_like(fp_counts), tp]),
        np.concatenate([fp_counts, fp]),
    )
    return _merge([_columns(buckets), scored]), explicit_count


def _scored(values, tp, fp):
    """The (values, tp, fp) that count: nonzero values, each finite,
    with a nonzero count."""
    counted = (values != 0.0) & (tp + fp > 0)
    values = values[counted]
    if not np.all(np.isfinite(values)):
        raise ValidationError("non-finite score outside the excluded diagonal")
    return values, tp[counted], fp[counted]


def score_from_vertex(graph, n1, spec, test_edges):
    """Score every candidate (n1, y) reachable by a 2-hop expansion.

    ``test_edges`` are the held-out positives, (u, v) pairs, checked as
    ``score_all`` checks them. Returns (buckets, explicit_count): the
    nonzero-score buckets as a BUCKET_DTYPE array, distinct values
    descending, and the count of explicitly-scored candidates, from
    which the caller can complete the zero bucket analytically.
    Ineligible vertices are skipped, producing an empty contribution.
    """
    graph._check_vertex(n1)
    _, marker = _held_out(graph, test_edges)
    ctx = _RunContext(graph, spec)
    return _fold_chunk(ctx, n1, n1 + 1, marker, np.empty(0, dtype=BUCKET_DTYPE))


def score_all(
    graph,
    spec,
    test_edges,
    workers=None,
    chunk_size=None,
    max_buckets=None,
):
    """Complete ThresholdHistogram over the full candidate universe.

    ``test_edges`` is the positive class: distinct pairs of the
    candidate universe, so no self-loop, no training edge, and both
    endpoints eligible; anything else raises ValidationError. The
    result is bit identical regardless of ``workers`` and
    ``chunk_size``. ``max_buckets`` is a hard memory guardrail on the
    distinct-score count: exceeding it raises, never bins silently. It
    is checked on each worker's histogram after every chunk and on the
    merged result, so the workers together may hold up to
    ``workers * max_buckets`` buckets. A worker that raises stops the
    others from claiming further chunks, and its error is re-raised.
    """
    n = graph.vertex_count
    if chunk_size is None:
        chunk_size = min(DEFAULT_CHUNK_SIZE, max(n, 1))
    if not 1 <= chunk_size <= max(n, 1):
        raise ValidationError(f"chunk_size must be in [1, {max(n, 1)}], got {chunk_size}")
    unordered = spec.kind in UNDIRECTED_KINDS  # symmetric: score each pair once
    test_keys, marker = _held_out(graph, test_edges, unordered)
    positives = len(test_keys)
    negatives = _universe(graph).universe_size - positives

    ctx = _RunContext(graph, spec)
    chunk_bounds = [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), max(len(chunk_bounds), 1)))

    def run_worker(slot):
        while True:
            with claim_lock:
                index = next_chunk[0]
                if stop.is_set() or index >= len(chunk_bounds):
                    return
                next_chunk[0] += 1
            lo, hi = chunk_bounds[index]
            local_hists[slot], _ = _fold_chunk(ctx, lo, hi, marker, local_hists[slot], unordered)
            if max_buckets is not None and len(local_hists[slot]) > max_buckets:
                raise MemoryGuardError(
                    f"distinct score values exceeded max_buckets={max_buckets}"
                )

    claim_lock = threading.Lock()
    stop = threading.Event()  # set by the first failing worker
    next_chunk = [0]
    local_hists = [np.empty(0, dtype=BUCKET_DTYPE) for _ in range(workers)]
    if workers == 1:
        run_worker(0)
    else:
        errors = []

        def guarded(slot):
            try:
                run_worker(slot)
            except BaseException as exc:  # propagate to the caller
                errors.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=guarded, args=(slot,), daemon=True)
            for slot in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    # a single worker's histogram is merged already
    buckets = local_hists[0] if workers == 1 else _merge([_columns(b) for b in local_hists])
    if max_buckets is not None and len(buckets) > max_buckets:
        raise MemoryGuardError(f"distinct score values exceeded max_buckets={max_buckets}")
    explicit_tp = int(buckets["tp"].sum())
    explicit_fp = int(buckets["fp"].sum())
    hist = ThresholdHistogram(
        buckets=buckets,
        zero_bucket=(positives - explicit_tp, negatives - explicit_fp),
        positives_total=positives,
        negatives_total=negatives,
    )
    hist.check_conservation()
    return hist
