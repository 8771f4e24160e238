"""Exhaustive scoring of all candidate missing edges.

Candidates are never materialized as a full score table. Each chunk of
source vertices lists the candidates its 2-hop neighborhood reaches,
classifies each as true/false positive, and folds the result into a
part, which the calling thread merges into the call's one threshold
histogram. The (overwhelming) zero-score remainder of the candidate
universe is accounted for analytically from the universe size.

Every score reads two kinds of state. What depends on the training
graph alone is built on first use, once per graph, through the graph's
memo (``Graph._memo``): the "in" and "undirected" views' sorted keys
and every view's CSR arrays (``Graph._keys``, ``Graph._adjacency``),
the unit-weight scipy views, the candidate universe, the degrees and
their logs per log base, and the AA and RA weights. These are O(n + E)
arrays and nothing chunk-sized, and a new test set keeps them.
What depends on the test pairs is the split's two lists of the pairs
that count other than as plain candidates, the marker. ``_marker``
builds them once per split, and checks the pairs in the sort that
builds the first: each list is sorted int64 keys with an int8
(Δtp, Δfp) row per key, what the pair adds to its value's counts. A
training edge adds (0, -1) per direction, a test edge (1, -1). ``own``
holds every training edge and test pair in its own direction, and the
diagonal (x, x) as a training edge; ``once`` holds each pair once,
keyed min*n + max, with both directions' deltas summed. ``_held_out``
alone knows this format. The graph keeps the marker of its last test
set in one slot, keyed by the exact content of the pairs (shape and
bytes), so ``score_all``, ``score_from_vertex`` and ``universe_stats``
reuse it without a handle; finding it copies and compares the pairs'
bytes, O(T) per call. Any other test set, or the same array changed in
place, is checked anew, and a failed check caches nothing. Exclusion
and membership are structural, and the diagonal is never a candidate.

A chunk of rows [lo, hi) lists its candidates' values through one of
two backends, chosen once per call by the size of the dense one's
accumulator alone: the dense backend when a whole chunk's accumulator,
chunk_size * n cells, is at most DENSE_MAX_CELLS, scipy's otherwise,
with a chunk_size of min(DEFAULT_CHUNK_SIZE, n) when the call gives
none. Small graphs and small chunks take the first, large graphs the
second.

- Dense: every path (x, z, y) is listed with numpy in x, z, y order and
  summed per pair by ``np.bincount`` into a dense accumulator, the one
  of Gustavson's row-wise SpGEMM. It builds no scipy object.
- Sparse: scipy's SpGEMM. A directed kind of one pass multiplies the
  chunk's rows by the right factor, a symmetric kind the left factor's
  rows from lo on by the transpose of the right factor's chunk rows,
  and each weights its product. The INF family's two passes are unit
  products whose weight depends on the row alone: ``_binned`` lists
  the first pass's few pairs one by one, bins the second pass's pairs
  by (row, path count) and weights each bin once, so no chunk holds a
  weighted copy or a sum of its products. The scipy factors are built
  once per call, before any worker starts, and only when the call
  takes this backend; no call keeps them for the next.

Each kind multiplies the adjacency views its row of ``_PASSES`` names,
one (left, right) pair per directed pass, and each pass is weighted in
place by its left view: divided by that view's degrees, times their
logs for the log-weighted kinds, times k on INF_LOG_KD's "out" pass.
Their bits agree: ``np.bincount`` and scipy's csr_matmat both add each
pair's paths one by one from 0.0 in ascending z, both drop a zero sum,
and the dense backend adds every kind's weighted passes into one
accumulator from 0.0, the INF family's "out" pass first, and drops a
zero sum, as ``_binned`` adds a pair's weighted counts, "out" first,
and drops a zero value. A weight is a function of the row and the
count alone, so a bin's one weighted count has the bits of each of its
pairs'.

A backend only lists values; the fold after it, ``_fold_chunk``, is
one and does every step that follows. It slices the chunk's listed
pairs, those of the call's list in the chunk's rows, and hands their
keys to the backend, which returns the chunk's candidate values, in
any order, in an array the chunk owns, and the value at each listed
key, 0.0 where the chunk lists none, and, for the INF family's bins
alone, each value's multiplicity, the count of pairs that have it. The
fold sorts the values in place, so nothing after the product copies or
compacts them, or, with multiplicities, sorts the few bins and their
multiplicities together, and cuts off their leading run of 0.0: no
score is negative, and a zero is no candidate. It counts each run of
equal values as one distinct value's plain candidates, by its length
or by its summed multiplicities, drops the listed pairs with no value,
with their deltas, and adds the others' deltas at their values'
places. The dense backend reads the listed values from its own cells,
and scipy's from its own product by scipy's csr_sample_values
(``_at``), which scans each pair's row, or searches it where ``_at``
sorts the rows first: a symmetric kind's, DED's and the INF family's
first (out-out) pass's. The long in-out rows of IND and of the INF
family's second pass, too long to scan and too many to sort, it scores
directly (``_direct``), the masked product of Azad, Buluç and Gilbert:
it lists z over the shorter of left(x) and the right view's column y,
finds each z in the other by ``np.searchsorted`` in that view's sorted
keys (``Graph._keys``), and counts each pair's paths by
``np.bincount``, exactly, as the unit product sums its 1.0s.
``_binned`` looks up its first pass's pairs' second counts by the same
search (``_path_sums``). A listed pair's value found nowhere among the
chunk's distinct values is a bit mismatch and raises ValidationError.
A value read from the chunk's product is among them by construction,
so the check compares two computations only where a value is scored
directly; the oracle remains the independent check.

The undirected kinds (CN, AA, RA, Jaccard) are symmetric. scipy's
backend scores each unordered pair once: a chunk of rows [lo, hi)
keeps the pairs y > x only, credits each value to (x, y) and to
(y, x), and reads ``once``, which holds both directions' deltas. It
multiplies the left factor's rows [lo, n) by the transpose of the
right factor's rows [lo, hi): scipy's row-wise product then keeps an
accumulator of hi - lo cells, and its row y - lo and column x - lo
hold the pair (x, y), for every y >= lo. Each term is 1.0 times z's
weight, 1.0 but for AA's and RA's, whose right factor carries the
weight of its column z, and the terms are added in ascending z from
0.0, as a product of the chunk's rows adds them. It then zeroes in
place the pairs y <= x, all of which lie in the product's first
hi - lo rows, through a row index of those rows alone, and the fold's
cut drops them. The dense backend scores both directions, each in its
own row, and reads ``own``, as a directed kind does: on small chunks,
listing both directions cost no more than listing both and discarding
half. The bits cannot differ between (x, y) and (y, x): the product
sums over the shared neighbours in ascending order either way, and
Jaccard's du + dv commutes.
``score_from_vertex`` is a row query: it folds its whole row by the
dense backend, exactly as a dense ``score_all`` folds that row, in
O(n + T + paths of the row): the accumulator has n cells, and finding
the split's marker copies the test pairs. It takes the dense backend at
any n: scipy's factors would be built for its one row, and on hub rows
of 3-6 10^4 paths the dense backend took a fifth of the time scipy's
did.

The calling thread takes the chunks of source vertices from one
iterator, ``_chunks``, which cuts each chunk when it is handed out. A
given chunk_size, and the dense backend, cut fixed runs of rows. Without
one, scipy's backend cuts chunks by work: each is the longest run of
rows whose product lists at most a budget of 2-hop paths, the call's
paths over ceil(n / DEFAULT_CHUNK_SIZE), so there are about as many
chunks as fixed ones would be. Fixed chunks of a skewed graph are not: a
chunk of hubs lists many times the median chunk's paths, and a symmetric
chunk lists the paths to its pairs' y >= lo, so the first chunks list
the most. Per-row path counts come from the graph's memo
(``_row_paths``), and a row over the budget is a chunk of its own.
Workers only fold chunks (``_fold_chunk``): inline for one worker, on a
``ThreadPoolExecutor`` for more, where the calling thread keeps 2 x
workers chunks submitted and hands out one more for each part it takes.
Any error, a worker's, a merge's or an interrupt, cancels the queued
chunks, lets the running ones finish and is re-raised. A histogram holds
the distinct nonzero score values, descending, with int64 (tp, fp)
counts, as (values, tp, fp) columns; one merge, ``_merge``, builds every
histogram, in one sort of all its parts, and ``_buckets`` makes the
BUCKET_DTYPE array only where the engine hands a result to its caller. A
chunk's fold is one such part, and the calling thread alone merges them.
The first part is the call's histogram, with no merge. Later parts wait,
pending, and are merged with the histogram in one ``_merge`` once they
hold as many buckets as it. Such a merge sorts at most twice the pending
buckets it takes in, so the merges of a call sort at most about twice
the buckets of all its parts, where merging each part into the whole
histogram cost O(chunks x buckets); a call of one chunk never merges.
Without ``max_buckets`` the call holds at most about twice its
histogram, plus one chunk's part. With it, the call also merges once
histogram and pending parts hold more than the cap, and checks the cap
on every merge, so it holds at most the cap plus one chunk's part.
Beside them it holds only the parts of the at most 2 x workers chunks
submitted and not yet taken. The result is bit identical for any worker
count and chunk size: every chunk's values depend only on its own rows,
and the merge sums the integer counts of exactly equal values, in any
grouping.
"""

import io
import math
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .graph import _FLOAT, _INT64_MAX, _INTEGER_ID, _ascii_int, _expected, _numeral, _opened, _read_artifact
from .graph import _scipy_csr, _write_header, _write_rows
from .scores import INF_FAMILY, UNDIRECTED_KINDS, ScoreKind, log_in_base

DEFAULT_CHUNK_SIZE = 1000


class ValidationError(ValueError):
    """Inputs violate the engine's preconditions."""


class MemoryGuardError(RuntimeError):
    """The distinct-score bucket count exceeded the configured cap."""


def chunk_size_for(n, chunk_size=None):
    """The rows per chunk by which ``score_all`` picks its backend on
    ``n`` vertices: ``chunk_size``, which must be a Python or numpy
    integer, not a bool, in [1, max(n, 1)], or min(DEFAULT_CHUNK_SIZE,
    max(n, 1)), which the dense backend also cuts by. Without
    ``chunk_size`` scipy's backend cuts its chunks by their paths
    (``_chunks``)."""
    if chunk_size is None:
        return min(DEFAULT_CHUNK_SIZE, max(n, 1))
    if not _is_integer(chunk_size):
        raise ValidationError(f"chunk_size must be None or an integer, got {chunk_size!r}")
    if not 1 <= chunk_size <= max(n, 1):
        raise ValidationError(f"chunk_size must be in [1, {max(n, 1)}], got {chunk_size}")
    return chunk_size


def _is_integer(value):
    """Whether ``value`` is a Python or numpy integer: a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CandidateUniverse:
    """Ordered-pair candidate universe of a training graph."""

    eligible_mask: np.ndarray
    eligible_count: int
    universe_size: int


#: One histogram bucket: a distinct nonzero score value and its counts.
BUCKET_DTYPE = np.dtype([("value", np.float64), ("tp", np.int64), ("fp", np.int64)])

#: the keys of a histogram dump's trailer, each with its values' parsers:
#: ThresholdHistogram's fields
_TRAILER_KEYS = {"zero_bucket": (_ascii_int,) * 2, "positives_total": (_ascii_int,), "negatives_total": (_ascii_int,)}
#: the parsers of a dump row's numbers, one per BUCKET_DTYPE field, with
#: their rules; each ``holds`` also checks a whole parsed column
_COUNT = _numeral(int, _INTEGER_ID, "counts in [0, 2^63)", lambda count: (count >= 0) & (count <= _INT64_MAX))
_VALUE = _numeral(float, _FLOAT, "a finite value above 0", lambda value: (value > 0.0) & (value < math.inf))
_ROW = (_VALUE, _COUNT, _COUNT)


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

    def check_conservation(self, explicit=None):
        """Raise ValidationError unless the explicit counts plus the zero
        bucket sum to the totals; ``explicit`` is ``explicit_totals()``
        when the caller has it."""
        tp, fp = explicit or self.explicit_totals()
        if tp + self.zero_bucket[0] != self.positives_total:
            raise ValidationError("true-positive counts do not sum to positives_total")
        if fp + self.zero_bucket[1] != self.negatives_total:
            raise ValidationError("false-positive counts do not sum to negatives_total")
        if self.zero_bucket[0] < 0 or self.zero_bucket[1] < 0:
            raise ValidationError("negative zero-bucket count")

    def dump(self, sink):
        """Write "score tp fp" lines sorted by descending score, plus a
        trailer with the zero bucket and totals. Scores are serialized
        with round-trip precision (their repr). The rows go through the
        one row writer, ``graph._write_rows``, a block at a time, and
        the trailer through the one header writer,
        ``graph._write_header``."""
        b = self.buckets
        with _opened(sink, "w") as fh:
            _write_rows(fh, "%r %d %d\n", b["value"], b["tp"], b["fp"])
            _write_header(
                fh, _TRAILER_KEYS, zero_bucket=self.zero_bucket,
                positives_total=self.positives_total, negatives_total=self.negatives_total,
            )

    @classmethod
    def load(cls, source):
        """Read a histogram ``dump`` wrote by the one artifact reader,
        ``graph._read_artifact``: its rows by ``_bucket_rows``, each
        number under its rule in ``_ROW``, values descending, then its
        trailer, each key of ``_TRAILER_KEYS`` exactly once and no row
        after it. Raises ValueError naming the line at fault, and
        ValidationError when the counts break ``check_conservation``."""
        trailer, rows = _read_artifact(source, "histogram dump", _TRAILER_KEYS, _bucket_rows, (None,))
        hist = cls(rows.get(None, np.empty(0, dtype=BUCKET_DTYPE)), **trailer)
        hist.check_conservation()
        return hist


def _bucket_rows(body, first_line):
    """The BUCKET_DTYPE rows of a histogram dump's body, one "value tp
    fp" per line, blank lines skipped, each number read by its parser of
    ``_ROW`` and under its rule, the values strictly descending.
    ``np.loadtxt`` reads the rows at once, and the parsers' ``holds``
    check its columns; when it fails or a row breaks a rule, a line loop
    reads them again by the parsers and raises ValueError naming the
    first line at fault, counted from ``first_line``, in
    ``graph._read_artifact``'s form."""
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=BUCKET_DTYPE, comments=None, ndmin=1)
    except ValueError:
        pass  # the line loop names the line
    else:
        held = all(parse.holds(rows[name]).all() for parse, name in zip(_ROW, BUCKET_DTYPE.names))
        if held and (rows["value"][1:] < rows["value"][:-1]).all():
            return rows
    rows = []
    for line_number, line in enumerate(io.StringIO(body), start=first_line):
        if line.isspace():
            continue
        try:
            row = tuple(parse(field) for parse, field in zip(_ROW, line.split(), strict=True))
        except ValueError:
            raise ValueError(f"line {line_number}: {line.strip()!r}: {_expected(BUCKET_DTYPE.names, _ROW)}") from None
        if rows and row[0] >= rows[-1][0]:
            raise ValueError(f"line {line_number}: {line.strip()!r}: a value not below the one before")
        rows.append(row)
    return np.array(rows, dtype=BUCKET_DTYPE)


def _merge(parts):
    """Combine (values, tp, fp) parts into one such part.

    Equal values become one bucket, sorted descending, whose tp and fp
    are the int64 sums of theirs: exact, so the result does not depend
    on the order or grouping of the parts. One permutation sorts the
    values and gathers their counts.
    """
    values = np.concatenate([part[0] for part in parts])
    # every part is a run of descending values (a histogram, or a
    # chunk's distinct values), which a stable sort merges in linear time
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    starts = _run_bounds(values)[:-1]
    counts = [np.concatenate([part[index] for part in parts])[order] for index in (1, 2)]
    return values[starts], *(np.add.reduceat(c, starts, dtype=np.int64) for c in counts)


def _run_bounds(values):
    """The index of the first value of each run of equal values, then
    len(values)."""
    bounds = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=bounds[1:-1])
    return bounds.nonzero()[0]


def _buckets(values, tp, fp):
    """A BUCKET_DTYPE array of the columns of distinct values, descending."""
    buckets = np.empty(len(values), dtype=BUCKET_DTYPE)
    buckets["value"], buckets["tp"], buckets["fp"] = values, tp, fp
    return buckets


def _held_out(graph, pairs, eligible):
    """Check the held-out pairs and list them beside the training edges.

    ``pairs`` is an int64 array of (u, v) pairs, which must lie in the
    candidate universe: no self-loop, both endpoints ``eligible`` (with
    a training edge), no training edge, no duplicate. Returns
    (positives, once, own): the count of pairs and two lists of the
    pairs that count other than as plain candidates, each as sorted
    unique int64 keys with an int8 (Δtp, Δfp) row per key: what the pair
    adds to its value's counts. Per direction a training edge adds
    (0, -1), a test edge (1, -1): its own counts less the plain
    candidate's it replaces. ``own``, read by the directed kinds and the
    row query, holds every training edge and test pair in its own
    direction, u*n+v, and the diagonal (x, x), which counts as a
    training edge. ``once``, read by the symmetric kinds, holds each
    pair once, keyed min*n + max, with both directions' deltas summed.
    """
    n = graph.vertex_count
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValidationError("edge set must be an array of (u, v) pairs")
    pairs = pairs.reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        raise ValidationError("edge endpoint out of range")
    u, v = pairs.T
    if np.any(u == v):
        raise ValidationError("self-loop test edge")
    if not np.all(eligible[u] & eligible[v]):
        raise ValidationError("test edge with an ineligible (disconnected) endpoint")
    keys = np.concatenate([graph.edge_keys(), u * n + v, np.arange(n) * (n + 1)])
    deltas = np.repeat(
        np.array([(0, -1), (1, -1), (0, -1)], dtype=np.int8), [graph.edge_count, len(u), n], axis=0
    )
    # stable, so a training edge precedes the test pairs equal to it
    order = np.argsort(keys, kind="stable")
    # the deltas' rows are gathered by take and compress (here and in the
    # fold): numpy's fancy index gathers int8 pairs several times slower
    own = keys[order], deltas.take(order, axis=0)
    tied = (own[0][1:] == own[0][:-1]).nonzero()[0]
    if len(tied):
        # a tie starts at a training edge (Δtp 0) or at a test pair; the
        # diagonal ties nothing, as neither edge set has a self-loop
        if not own[1][tied, 0].all():
            raise ValidationError("test edge present in the training graph")
        raise ValidationError("duplicate test edges")
    x, y = np.divmod(keys[: len(keys) - n], n)
    once = np.minimum(x, y) * n + np.maximum(x, y)
    order = np.argsort(once)  # a pair's deltas sum to the same in any order
    once = once[order]
    starts = _run_bounds(once)[:-1]
    once = once[starts], np.add.reduceat(deltas.take(order, axis=0), starts, axis=0, dtype=np.int8)
    return len(pairs), once, own


def _marker(graph, test_edges):
    """(positives, once, own) of ``test_edges`` on ``graph``, as
    ``_held_out`` returns them: the graph's split slot when its test
    pairs had exactly this shape and these bytes, else a new check,
    which fills the slot once it has passed. The key copies the pairs'
    bytes: O(T) per call, a hit included."""
    pairs = np.asarray(test_edges)
    if pairs.size and pairs.dtype.kind not in "iu":  # numpy's integer types
        raise ValidationError(f"test edges must be integer vertex ids, got {pairs.dtype}")
    pairs = pairs.astype(np.int64, copy=False)
    key = (pairs.shape, pairs.tobytes())
    cached = graph._split
    if cached is not None and cached[0] == key:
        return cached[1]
    marker = _held_out(graph, pairs, _universe(graph).eligible_mask)
    graph._split = (key, marker)
    return marker


def universe_stats(graph, test_edges):
    """Eligible vertices and exact candidate-universe size.

    Eligible vertices have in-degree + out-degree > 0 in the training
    graph; the universe is every ordered non-edge pair between them.
    ``test_edges`` are checked as ``score_all`` checks them.
    """
    _marker(graph, test_edges)
    return _universe(graph)


def _universe(graph):
    def build():
        eligible = (graph.out_degrees + graph.in_degrees) > 0
        eligible.setflags(write=False)  # every later check of the graph reads it
        m = int(eligible.sum())
        universe = m * (m - 1) - graph.edge_count
        return CandidateUniverse(eligible_mask=eligible, eligible_count=m, universe_size=universe)

    return graph._memo("universe", build)


#: A call takes the dense backend when a whole chunk's accumulator,
#: chunk_size * n cells, is at most this, at any path count. Below it a
#: whole fold took 0.25-0.8 of scipy's time on Zipf digraphs of 40-10^4
#: vertices, and a whole score_all 0.1-0.7 of it on dense digraphs of
#: 60-180 vertices whose one chunk holds 10^4-10^6 paths.
DENSE_MAX_CELLS = 1 << 15


def _degrees(graph, view):
    """The float64 degrees of the "out", "in" or "undirected" view."""
    return graph._memo(("degrees", view), lambda: np.diff(graph._adjacency(view)[0]).astype(np.float64))


def _logs(graph, view, base):
    """The degrees' logs in ``base``, 0 at degree 0."""
    return graph._memo(("logs", view, base), lambda: _log_of_degrees(_degrees(graph, view), base))


def _z_weight(graph, kind, base):
    """The AA or RA weight of each vertex, by its undirected degree."""

    def build():
        deg = _degrees(graph, "undirected")
        if kind is ScoreKind.RA:
            return np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)
        return _inv_log_weights(deg, base)

    return graph._memo(("z_weight", kind, None if kind is ScoreKind.RA else base), build)


#: The (left, right) adjacency views each kind multiplies, one pair per
#: directed pass. The INF family adds its two passes in this order.
_PASSES = {
    **dict.fromkeys(UNDIRECTED_KINDS, (("undirected", "undirected"),)),
    ScoreKind.DED: (("out", "out"),),
    ScoreKind.IND: (("in", "out"),),
    **dict.fromkeys(INF_FAMILY, (("out", "out"), ("in", "out"))),
}

#: The view whose row y is column y of a right view.
_TRANSPOSED = {"out": "in", "undirected": "undirected"}


class _RunContext:
    """Per-call scoring state shared read-only by all workers.

    The graph-level arrays come from the graph's memo, the split's
    lists from ``_marker``. ``dense`` says which backend every chunk of
    the call takes; the scipy factors exist only when it is False. The
    mode follows from it: ``unordered`` (each unordered pair scored
    once) holds for a symmetric kind on scipy's backend alone, and the
    call keeps the list its mode reads, ``once`` when ``unordered``,
    ``own`` otherwise.
    """

    def __init__(self, graph, marker, spec, dense):
        self.graph = graph
        self.spec = spec
        self.n = graph.vertex_count
        self.unordered = not dense and spec.kind in UNDIRECTED_KINDS
        self.tagged_keys, self.tagged_deltas = marker[1] if self.unordered else marker[2]
        self.passes = _PASSES[spec.kind]
        # AA and RA weight each path by a per-vertex weight of its z
        self.z_weight = None
        if spec.kind in (ScoreKind.AA, ScoreKind.RA):
            self.z_weight = _z_weight(graph, spec.kind, spec.log_base)
        self.dense = dense
        self.sparse_passes = None
        if not dense:
            self.sparse_passes = []
            for left, right in self.passes:
                right = graph._csr(right)
                if self.z_weight is not None:  # the weight of column z, on the graph's index arrays
                    right = _scipy_csr(self.z_weight[right.indices], right.indptr, right.indices, self.n)
                self.sparse_passes.append((left, graph._csr(left), right))

    def weight(self, left, data, at_rows, at_cols):
        """Per-entry value transform of the sums ``data`` of the pass whose
        left view is ``left``, done in place: ``data`` must be an array
        the caller owns (a product's data, or sums gathered by index),
        and is returned. ``at_rows(a)`` and ``at_cols(a)`` are the
        per-vertex array ``a`` at each entry's row and column. Arithmetic
        mirrors scores.py exactly, operation by operation."""
        kind = self.spec.kind
        if kind in (ScoreKind.CN, ScoreKind.AA, ScoreKind.RA):
            return data
        degrees = _degrees(self.graph, left)
        if kind is ScoreKind.JACCARD:
            denominator = at_rows(degrees) + at_cols(degrees)
            denominator -= data
            return np.divide(data, denominator, out=data)
        np.divide(data, at_rows(degrees), out=data)
        if kind in (ScoreKind.INF_LOG, ScoreKind.INF_LOG_KD):
            np.multiply(data, at_rows(_logs(self.graph, left, self.spec.log_base)), out=data)
        if kind is ScoreKind.INF_LOG_KD and left == "out":
            data *= self.spec.k
        return data

    def tagged_pairs(self, lo, hi):
        """(keys, deltas) of the pairs of rows [lo, hi) that count other
        than as plain candidates: the slice of the call's list, in key
        order. A pair that is a training or test edge in the reverse
        direction alone is a plain candidate of a directed score."""
        start, stop = self.tagged_keys.searchsorted((lo * self.n, hi * self.n))
        return self.tagged_keys[start:stop], self.tagged_deltas[start:stop]


def _expand(indptr, indices, rows):
    """(counts, entries): the entry count of each of ``rows`` of a CSR
    view, and their entries, row after row, each row's ascending."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    # entry i of the listing belongs to row r at starts[r] + i - (entries before r)
    offsets = (starts - counts.cumsum() + counts).repeat(counts)
    offsets += np.arange(len(offsets))
    return counts, indices[offsets]


def _dense_candidates(ctx, lo, hi, keys):
    """(values, None, fixed) of the candidates of rows [lo, hi), by a
    dense accumulator of (hi - lo) * n cells: the values of its nonzero
    cells, in cell order, in an array the chunk owns, no multiplicities,
    and the cell of each of the listed ``keys``, 0.0 where the chunk
    lists none.

    Every 2-hop path (x, z, y) is listed in x, z, y order and its pair
    summed by ``np.bincount``, which adds in array order: each pair's
    sum adds its z ascending from 0.0, as scipy's csr_matmat does, and
    a zero sum is no candidate, as in scipy's product. Every kind adds
    each pass's weighted nonzero sums into one accumulator of 0.0s, in
    pass order, and drops a zero cell, as ``_binned`` adds and drops
    the INF family's; a kind of one pass keeps its weighted sums' bits,
    since 0.0 + v is v.
    """
    n = ctx.n
    cells = (hi - lo) * n
    total = np.zeros(cells)
    for left, right in ctx.passes:
        indptr, indices = ctx.graph._adjacency(left)
        z = indices[indptr[lo]:indptr[hi]]
        # y runs over row z of the right factor, for each (x, z)
        counts, ys = _expand(*ctx.graph._adjacency(right), z)
        # the first cell of each entry's row x, (x - lo) * n, with x its
        # sorted key x * n + z over n
        cell = ((ctx.graph._keys(left)[indptr[lo]:indptr[hi]] // n - lo) * n).repeat(counts)
        cell += ys
        w = None if ctx.z_weight is None else ctx.z_weight[z].repeat(counts)
        sums = np.bincount(cell, weights=w, minlength=cells).astype(np.float64, copy=False)
        found = (sums != 0.0).nonzero()[0]
        total[found] += ctx.weight(left, sums[found], lambda a: a[lo + found // n], lambda a: a[found % n])
    return total[total != 0.0], None, total[keys - lo * n]


def _sparse_candidates(ctx, lo, hi, keys):
    """(values, multiplicities, fixed) of the candidates of rows [lo, hi),
    by scipy's SpGEMM, and the value at each of the listed ``keys``, 0.0
    where the product has none.

    A kind of one pass lists its weighted product's data, in the
    product's order, without multiplicities. A directed kind multiplies
    the chunk's rows by the unsliced right factor, and its product holds
    the pair (x, y) at row x - lo, column y. A symmetric kind, whose
    pairs y < lo the chunks of rows below lo score as (y, x), multiplies
    the left factor's rows [lo, n) by the transpose of the right
    factor's rows [lo, hi), so that its product holds the pair (x, y) at
    row y - lo, column x - lo, for every y >= lo, and the accumulator of
    scipy's csr_matmat spans hi - lo cells. It drops its pairs y <= x,
    which lie in the product's first hi - lo rows, each at a column at
    or past its row's index: it zeroes them in place, through a row
    index of those rows alone, for the fold to cut off. The listed
    pairs' values are read from the weighted product (``_at``), so
    ``_fold_chunk``'s bit check holds for them by construction, but for
    IND's, whose in-out rows are long: ``_direct`` scores those, and the
    check compares its values with the product's. The INF family lists
    its values by ``_binned``.
    """
    if len(ctx.passes) > 1:
        return _binned(ctx, lo, hi, keys)
    x, y = np.divmod(keys, ctx.n)
    ((view, left, right),) = ctx.sparse_passes
    if ctx.unordered:  # the pair (x, y) at row y - lo, column x - lo
        prod, first, x, y = _rows(left, lo, ctx.n) @ _rows(right, lo, hi).T, lo, y, x
    else:  # the pair (x, y) at row x - lo, column y
        prod, first = _rows(left, lo, hi) @ right, 0
    counts = np.diff(prod.indptr)
    prod.data = ctx.weight(
        view, prod.data, lambda a: np.repeat(a[lo:lo + len(counts)], counts), lambda a: a[first:][prod.indices]
    )
    if ctx.unordered:
        end = prod.indptr[hi - lo]
        row = np.repeat(np.arange(hi - lo, dtype=prod.indices.dtype), counts[:hi - lo])
        prod.data[:end][prod.indices[:end] >= row] = 0.0
    # IND's in-out rows are long: a search per path beats scanning them
    return prod.data, None, _direct(ctx, x, y) if view == "in" else _at(prod, x - lo, y - first)


def _rows(matrix, lo, hi):
    """Rows [lo, hi) of a scipy CSR ``matrix`` on a new indptr, their
    entries a view on the matrix's while they are at least half of them
    (scipy copies a smaller view), where scipy's row slice copies them
    always."""
    start = matrix.indptr[lo]
    return _scipy_csr(
        matrix.data[start:matrix.indptr[hi]], matrix.indptr[lo:hi + 1] - start,
        matrix.indices[start:matrix.indptr[hi]], matrix.shape[1],
    )


def _at(product, rows, cols):
    """The values of a scipy ``product`` at the int64 (rows, cols), 0.0
    where it has none: scipy's csr_sample_values, which takes each
    pair's entry of the product, so the bits are the product's. It scans
    the pair's row, but searches it when the rows are sorted and the
    pairs outnumber a tenth of the entries: so then it sorts the rows in
    place first, as a few long rows with many pairs each, the hubs of an
    out-out product, cost more to scan than to sort."""
    if 10 * len(rows) > product.nnz:
        product.sort_indices()
    return np.asarray(product[rows, cols]).reshape(-1) if len(rows) else np.zeros(0)


def _binned(ctx, lo, hi, keys):
    """(values, multiplicities, fixed) of the INF family's candidates of
    rows [lo, hi): nonzero values, in no order, each with the count of
    the chunk's pairs it stands for, equal values possibly repeated, and
    the value at each of the listed ``keys``, 0.0 where there is none.

    Both passes are unit products whose weight depends on the row alone,
    so a pair's value follows from its row and its two path counts. The
    first pass's pairs (out-out), few, are listed one by one: each looks
    up its second pass's count, unweighted, as ``_direct`` does, and its
    value is its first pass's weighted count plus its second's, in pass
    order, as ``_direct`` and the dense backend add them. The listed
    pairs' values are ``_direct``'s, which reads their first pass's
    counts from this product and finds their second's by the same
    search. The second pass's pairs (in-out) are binned by
    (row, count), by a key per pair, the row's offset plus the count,
    each row's offsets as wide as its largest count, sorted in place and
    cut into runs, in int32 where the keys fit. The first pass's pairs
    are taken out of their bins, and each bin is weighted once.
    """
    (first, first_left, right), (second, second_left, _) = ctx.sparse_passes
    pairs = _rows(first_left, lo, hi) @ right
    fixed = _direct(ctx, *np.divmod(keys, ctx.n), pairs, lo)  # first: it may sort the product's rows
    rows = np.repeat(np.arange(lo, hi), np.diff(pairs.indptr))
    # int64 columns: the lookup's y * n overflows int32 past n = 46,340
    counts = _path_sums(ctx, *ctx.passes[1], rows, pairs.indices.astype(np.int64))
    values = ctx.weight(first, pairs.data, lambda a: a[rows], None)
    shared = (counts != 0.0).nonzero()[0]
    values[shared] += ctx.weight(second, counts[shared], lambda a: a[rows[shared]], None)
    product = _rows(second_left, lo, hi) @ right
    per_row = np.diff(product.indptr)
    width = np.zeros(hi - lo, dtype=np.int64)
    width[per_row > 0] = np.maximum.reduceat(product.data, product.indptr[:-1][per_row > 0])
    offsets = np.cumsum(width) - width  # row i's keys lie in (offsets[i], offsets[i] + width[i]]
    keys = offsets.astype(np.int32 if width.sum() <= np.iinfo(np.int32).max else np.int64).repeat(per_row)
    np.add(keys, product.data, out=keys, casting="unsafe")
    del product  # freed before the sort: the keys are a third of its size
    keys.sort()
    bounds = _run_bounds(keys)
    bins, multiplicities = keys[bounds[:-1]].astype(np.int64), np.diff(bounds)
    taken = bins.searchsorted(offsets[rows[shared] - lo] + counts[shared].astype(np.int64))
    multiplicities -= np.bincount(taken, minlength=len(bins))
    row = offsets.searchsorted(bins) - 1
    values = np.r_[values, ctx.weight(second, (bins - offsets[row]).astype(np.float64), lambda a: a[lo + row], None)]
    multiplicities = np.concatenate([np.ones(len(rows), dtype=np.int64), multiplicities])
    kept = (values != 0.0) & (multiplicities > 0)
    return values[kept], multiplicities[kept], fixed


def _path_sums(ctx, left, right, x, y):
    """The counts of the paths x -> z -> y of the pass (left, right) at
    the int64 pairs (x, y), as float64, 0.0 where there are none: the
    one sum read other than from a product, which only IND's pass and
    the INF family's in-out pass read.

    It lists z over the shorter of left(x) and the right view's column y
    (row y of its transpose) and finds each z in the other by
    ``np.searchsorted`` in that view's sorted keys, so a pair's searches
    ascend within one row. It counts each pair's paths by
    ``np.bincount``: an integer count, exact, as the product's sum of
    1.0s is.
    """
    graph, n = ctx.graph, ctx.n
    column = _TRANSPOSED[right]
    shorter = _degrees(graph, left)[x] <= _degrees(graph, column)[y]
    pairs = []
    for picked, view, ends, other, others in (
        (shorter.nonzero()[0], left, x, column, y),
        ((~shorter).nonzero()[0], column, y, left, x),
    ):
        counts, z = _expand(*graph._adjacency(view), ends[picked])
        pair = np.repeat(picked, counts)
        wanted = others[pair] * n + z
        keys = graph._keys(other)
        # a key past the view's last one is found nowhere
        hit = keys[np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)] == wanted
        pairs.append(pair[hit])
    return np.bincount(np.concatenate(pairs), minlength=len(x)).astype(np.float64)


def _direct(ctx, x, y, product=None, lo=0):
    """The product's values at the int64 pairs (x, y), 0.0 where it has
    none: each pass's path counts (``_path_sums``), only the nonzero
    ones weighted, added in pass order from 0.0, as the backends add
    them. IND's listed pairs are scored so. The INF family's hand in
    their first pass's unit ``product``, of the rows from ``lo`` on, and
    read that pass's counts from it (``_at``), so that only the second
    pass is searched.
    """
    values = np.zeros(len(x))
    for index, (left, right) in enumerate(ctx.passes):
        sums = _at(product, x - lo, y) if product is not None and not index else _path_sums(ctx, left, right, x, y)
        found = (sums != 0.0).nonzero()[0]
        values[found] += ctx.weight(left, sums[found], lambda a: a[x[found]], lambda a: a[y[found]])
    return values


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


def _row_paths(graph, passes, unordered):
    """(cumulative, fixed): the int64 prefix sums, over rows 0..n, of the
    2-hop paths that scipy's product of a kind's ``passes`` lists for
    each row, and the paths each chunk of DEFAULT_CHUNK_SIZE rows lists.
    Built in O(n + E), once per graph.

    A directed pass lists, for row x, the right view's degree of each z
    in left(x). A chunk [lo, hi) of a symmetric kind (``unordered``)
    lists every path to a y >= lo, so what a row lists depends on
    the chunk's lo. Its count here is its paths to y >= x, what it lists
    as a chunk's first row: through z, z's neighbours from x's rank in
    row z on, summed over the entries of each row z. A chunk also lists
    its pairs lo <= y < x, a(a - 1) / 2 of them through each z with a
    neighbours among its rows: ``fixed`` adds them, by the runs of one
    row's neighbours in one chunk.
    """

    def build():
        n = graph.vertex_count
        chunks = math.ceil(n / DEFAULT_CHUNK_SIZE)
        per_row, within = np.zeros(n, dtype=np.int64), np.zeros(chunks, dtype=np.int64)
        for left, right in passes:
            indptr, indices = graph._adjacency(left)
            if unordered:
                # of the entry of x in row z: z's entries from it on
                from_rank = np.repeat(indptr[1:], np.diff(indptr)) - np.arange(len(indices))
                # float sums of counts below 2^53: exact
                per_row += np.bincount(indices, weights=from_rank, minlength=n).astype(np.int64)
                # row z's neighbours, run by run of one fixed chunk
                chunk = indices // DEFAULT_CHUNK_SIZE
                bounds = _run_bounds(graph._keys(left) - indices + chunk)
                runs = np.diff(bounds)
                pairs = runs * (runs - 1) // 2
                within += np.bincount(chunk[bounds[:-1]], weights=pairs, minlength=chunks).astype(np.int64)
            else:
                listed = np.zeros(len(indices) + 1, dtype=np.int64)
                np.cumsum(np.diff(graph._adjacency(right)[0])[indices], out=listed[1:])
                per_row += np.diff(listed[indptr])
        cumulative = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_row, out=cumulative[1:])
        return cumulative, np.diff(cumulative[np.r_[0:n:DEFAULT_CHUNK_SIZE, n]]) + within

    return graph._memo(("row_paths", passes, unordered), build)


def _chunks(ctx, rows):
    """The (lo, hi) row ranges of a call, in row order, each cut only
    when the calling thread hands it out: runs of ``rows`` rows, or with
    None the longest runs whose product lists at most a budget of 2-hop
    paths, scipy's default.

    The budget is the mean paths of the DEFAULT_CHUNK_SIZE-row chunks
    (``_row_paths``), rounded up, so the count of chunks stays about
    theirs, while the work of each chunk, and what it holds, no longer
    depends on where its rows lie. A row over the budget is a
    chunk of its own: a row is never split, as a chunk must hold all
    paths of its pairs. A directed kind's chunk lists the sum of its
    rows' counts, so one search cuts it. A symmetric chunk's rows list
    their paths to the y >= lo, which their counts bound from below:
    the search bounds the chunk, and the count of z's neighbours in
    [lo, n), kept for the chunk's lo, gives the exact paths of each row
    up to that bound, in O(the entries of its rows).
    """
    n = ctx.n
    if rows is not None:
        yield from ((lo, min(lo + rows, n)) for lo in range(0, n, rows))
        return
    cumulative, fixed = _row_paths(ctx.graph, ctx.passes, ctx.unordered)
    budget = -(-int(fixed.sum()) // len(fixed))  # rounded up
    if ctx.unordered:
        indptr, indices = ctx.graph._adjacency("undirected")
        ahead = np.diff(indptr)  # of each z: its neighbours in [lo, n)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(cumulative.searchsorted(cumulative[lo] + budget, side="right")) - 1)
        if ctx.unordered:
            listed = np.zeros(indptr[hi] - indptr[lo] + 1, dtype=np.int64)
            np.cumsum(ahead[indices[indptr[lo]:indptr[hi]]], out=listed[1:])
            # the paths of rows [lo, h), for each h in [lo, hi]
            fits = listed[indptr[lo:hi + 1] - indptr[lo]]
            hi = max(lo + 1, lo + int(fits.searchsorted(budget, side="right")) - 1)
            ahead -= np.bincount(indices[indptr[lo]:indptr[hi]], minlength=n)
        yield lo, hi
        lo = hi


def _fold_chunk(ctx, lo, hi):
    """The candidates of rows [lo, hi), folded into one (values, tp, fp)
    part: the distinct counted values, descending, and their int64
    counts.

    The fold hands the keys of the chunk's listed pairs,
    ``ctx.tagged_pairs``, to the backend ``ctx.dense`` picks, which lists
    the chunk's values, an optional multiplicity column, and the listed
    pairs' values. Without the column each value counts once, and the
    fold sorts the values in place; with it, each value counts its
    multiplicity, and the fold sorts the values and the column together.
    It cuts off their leading run of 0.0: no score is negative, and a
    pair whose paths sum to 0.0, such as the INF family's on a row of
    out- and in-degree 1 (log 1 = 0), or one scipy's backend zeroed, is
    left to the zero bucket. Each run of equal values is one distinct
    value, counted by the run's length or its summed multiplicities,
    twice with ``ctx.unordered``, where each value counts for (x, y)
    and for (y, x). The listed pairs with
    no value are dropped with their deltas, and the others' (Δtp, Δfp)
    deltas are added at their values. Raises ValidationError when a
    listed pair's value is not bit for bit among the chunk's values.
    """
    keys, deltas = ctx.tagged_pairs(lo, hi)
    values, multiplicities, fixed = (_dense_candidates if ctx.dense else _sparse_candidates)(ctx, lo, hi, keys)
    if multiplicities is None:
        values.sort()
    else:
        order = values.argsort()
        # the multiplicities become the ends of their values' runs
        values, multiplicities = values[order], np.r_[0, multiplicities[order].cumsum()]
    cut = values.searchsorted(0.0, side="right")
    values = values[cut:]
    hit = fixed != 0.0
    fixed, deltas = fixed[hit], deltas.compress(hit, axis=0)
    bounds = _run_bounds(values)  # the values ascend: a run is one distinct value
    distinct = values[bounds[:-1]]
    at = distinct.searchsorted(fixed)
    if (at >= len(distinct)).any() or (distinct[at].view(np.int64) != fixed.view(np.int64)).any():
        raise ValidationError("a tagged pair's direct value differs from the product's bits")
    # float sums of a chunk's few small counts: exact
    tp, fp = (np.bincount(at, weights=column, minlength=len(distinct)) for column in deltas.T)
    ends = bounds if multiplicities is None else multiplicities[cut + bounds]
    fp += (ends[1:] - ends[:-1]) * (2 if ctx.unordered else 1)
    # the values that count: with a nonzero count, each finite, which
    # the ascending order lets the ends show
    counted = (tp + fp) > 0
    values = distinct[counted][::-1]
    if len(values) and not (math.isfinite(values[0]) and math.isfinite(values[-1])):
        raise ValidationError("non-finite score outside the excluded diagonal")
    return values, tp[counted][::-1].astype(np.int64), fp[counted][::-1].astype(np.int64)


def score_from_vertex(graph, n1, spec, test_edges):
    """Score every candidate (n1, y) reachable by a 2-hop expansion.

    ``test_edges`` are the held-out positives, (u, v) pairs, checked as
    ``score_all`` checks them. Returns (buckets, explicit_count): the
    nonzero-score buckets as a BUCKET_DTYPE array, distinct values
    descending, and the count of explicitly-scored candidates (diagonal
    and training edges excluded), their tp + fp, from which the caller
    can complete the zero bucket analytically. The row is folded as a
    dense ``score_all`` folds it. Ineligible vertices are skipped,
    producing an empty contribution.
    """
    n1 = graph._check_vertex(n1)
    values, tp, fp = _fold_chunk(_RunContext(graph, _marker(graph, test_edges), spec, True), n1, n1 + 1)
    return _buckets(values, tp, fp), int(tp.sum() + fp.sum())


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
    ``chunk_size``, the rows per chunk; without it, scipy's backend
    cuts about ceil(n / DEFAULT_CHUNK_SIZE) chunks of about equal 2-hop
    paths (``_chunks``). ``max_buckets`` is a hard memory guardrail on the
    distinct-score count: exceeding it raises MemoryGuardError, never
    bins silently. The calling thread alone merges: it merges before the
    call's one histogram and its pending parts could pass the cap, and
    checks the cap after every merge and on the result, so a run holds at
    most the cap and one chunk's part, plus the parts of at most 2 x
    ``workers`` chunks folded but not yet merged. Whether a run raises
    does not depend on ``workers`` or ``chunk_size``: every merge holds a
    subset of the result's values, so the run raises exactly when the
    result exceeds the cap. Workers only fold chunks; any error, a
    worker's, a merge's or an interrupt, cancels the chunks not yet
    started, waits for the running ones and is re-raised.
    ``workers`` (one per CPU when None) must be an integer >= 1 and
    ``max_buckets`` None or an integer >= 0, neither a bool, as checked
    before any work.
    """
    for name, value, least in (("workers", workers, 1), ("max_buckets", max_buckets, 0)):
        if value is not None and not (_is_integer(value) and value >= least):
            raise ValidationError(f"{name} must be None or an integer >= {least}, got {value!r}")
    n = graph.vertex_count
    rows = chunk_size_for(n, chunk_size)
    marker = _marker(graph, test_edges)
    positives = marker[0]
    negatives = _universe(graph).universe_size - positives

    ctx = _RunContext(graph, marker, spec, rows * n <= DENSE_MAX_CELLS)
    # scipy's default chunks are cut by the paths they list, about as many
    chunks = _chunks(ctx, None if chunk_size is None and not ctx.dense else rows)
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, max(math.ceil(n / rows), 1))

    def capped(count):
        if max_buckets is not None and count > max_buckets:
            raise MemoryGuardError(f"distinct score values exceeded max_buckets={max_buckets}")
        return count

    # parts[0] is the call's histogram, of ``held`` buckets, and the parts
    # after it are pending, ``pending`` buckets in all
    parts, held, pending = [], 0, 0

    def add(part):
        nonlocal parts, held, pending
        if not len(part[0]):
            return
        parts.append(part)
        pending += len(part[0])
        # the first part becomes the histogram without a merge
        if pending >= held or (max_buckets is not None and held + pending > max_buckets):
            merged = _merge(parts) if len(parts) > 1 else parts[0]
            parts, held, pending = [merged], capped(len(merged[0])), 0

    if workers == 1:
        for chunk in chunks:
            add(_fold_chunk(ctx, *chunk))
    else:
        pool = ThreadPoolExecutor(workers)
        try:
            # two chunks per worker: one to fold, one queued for when it is done
            running = {pool.submit(_fold_chunk, ctx, *chunk) for chunk in islice(chunks, 2 * workers)}
            while running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    add(future.result())
                    running |= {pool.submit(_fold_chunk, ctx, *chunk) for chunk in islice(chunks, 1)}
        finally:
            # on any error, queued chunks are cancelled and running ones finish
            pool.shutdown(cancel_futures=True)
    buckets = _buckets(*(_merge(parts) if len(parts) > 1 else parts[0] if parts else (np.empty(0),) * 3))
    capped(len(buckets))
    explicit = int(buckets["tp"].sum()), int(buckets["fp"].sum())
    hist = ThresholdHistogram(buckets, (positives - explicit[0], negatives - explicit[1]), positives, negatives)
    hist.check_conservation(explicit)
    return hist
