"""Exhaustive scoring of all candidate missing edges.

Candidates are never materialized as a full score table. Each chunk of
source vertices lists the candidates its 2-hop neighborhood reaches,
classifies each as true/false positive, and folds the result into a
per-worker threshold histogram. The (overwhelming) zero-score remainder
of the candidate universe is accounted for analytically from the
universe size.

Exclusion and membership are structural. One marker per run tags the
training and the test edges (for the symmetric kinds, both directions
of a pair in one entry) as sorted keys u*n+v with a tag each; the sort
that builds it is also the one check of the held-out pairs, for every
entry point. The diagonal is never a candidate.

A chunk of rows [lo, hi) lists its candidates as (keys, values, tags)
through one of two backends, chosen per chunk from what the code can
observe: the dense one when its accumulator of (hi - lo) * n cells and
its 2-hop path count are both small (DENSE_MAX_CELLS, DENSE_MAX_PATHS),
scipy's otherwise. Small graphs and small chunks take the first, the
1000-row chunks of large graphs the second.

- Dense: every path (x, z, y) is listed with numpy in x, z, y order and
  summed per pair by ``np.bincount`` into a dense accumulator, the one
  of Gustavson's row-wise SpGEMM; the marker's entries in the chunk are
  spread over the same cells for the tags. It builds no scipy object.
- Sparse: scipy's SpGEMM, then one elementwise product of the chunk's
  product (its entries numbered) with the rows of a CSR copy of the
  marker, a per-row sparse intersection that returns the position and
  the tag of every tagged pair. The CSR marker and the scipy factors
  are built once per call, before any worker starts, and only when
  some chunk takes this backend.

Their bits agree: ``np.bincount`` and scipy's csr_matmat both add each
pair's paths one by one from 0.0 in ascending z, both drop a zero sum,
and the INF family's two weighted passes are added pass 0 first and a
zero sum dropped, as scipy's csr_plus_csr does. The fold after either
is one: the chunk's untagged candidates are counted per distinct value
before the merge, its few tagged pairs go to the merge one by one.

The undirected kinds (CN, AA, RA, Jaccard) are symmetric, so each
unordered pair is scored once. A chunk of rows [lo, hi) keeps the pairs
y > x only (scipy's multiplies by the columns y >= lo of the right
factor), and credits each value to (x, y) and to (y, x), each direction
by its own tag. The bits cannot differ from scoring (y, x) itself: the
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

from .graph import _csr_arrays, _opened, _reprs, _scipy_csr
from .scores import UNDIRECTED_KINDS, ScoreKind, log_in_base

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


def _held_out(graph, test_edges, eligible, unordered=False):
    """Check the held-out pairs and mark them beside the training edges.

    The pairs must lie in the candidate universe: no self-loop, both
    endpoints ``eligible`` (with a training edge), no training edge, no
    duplicate. Returns (test_keys, keys, tags): the pairs as sorted
    u*n+v keys, and the marker as sorted unique keys with an int64 tag
    each, t(x, y) at every training edge (t = 1) and test edge (t = 2).
    With ``unordered`` it holds t(x, y) + 3 t(y, x) at every pair of
    which either direction is one, so each entry tags both directions
    of its pair.
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
    return test_keys, keys, tags


def universe_stats(graph, test_edges):
    """Eligible vertices and exact candidate-universe size.

    Eligible vertices have in-degree + out-degree > 0 in the training
    graph; the universe is every ordered non-edge pair between them.
    ``test_edges`` are checked as ``score_all`` checks them.
    """
    universe = _universe(graph)
    _held_out(graph, test_edges, universe.eligible_mask)
    return universe


def _universe(graph):
    eligible = (graph.out_degrees + graph.in_degrees) > 0
    m = int(eligible.sum())
    universe = m * (m - 1) - graph.edge_count
    return CandidateUniverse(eligible_mask=eligible, eligible_count=m, universe_size=universe)


#: A chunk takes the dense backend when its accumulator, (hi - lo) * n
#: cells, and its 2-hop path count are both at most these. On Zipf
#: digraphs of 40-10^4 vertices a whole fold took 0.25-0.8 of scipy's
#: time below them, and up to 1.2-20 times it above (INF the worst).
DENSE_MAX_CELLS = 1 << 15
DENSE_MAX_PATHS = 1 << 13


class _RunContext:
    """Per-run immutable scoring state shared read-only by all workers.

    Built for a fixed list of chunks (lo, hi): ``dense[i]`` says which
    backend chunk i takes, and the scipy factors and the CSR marker
    exist only when some chunk takes scipy's.
    """

    def __init__(self, graph, spec, marker_keys, marker_tags, chunks, unordered=False):
        self.graph = graph
        self.spec = spec
        self.n = graph.vertex_count
        self.unordered = unordered
        self.marker_keys = marker_keys
        self.marker_tags = marker_tags
        kind = spec.kind
        base = spec.log_base
        # each pass multiplies a left by a right adjacency view; the
        # right one is weighted by a per-vertex weight of its row z
        weight = None
        if kind in UNDIRECTED_KINDS:
            deg = graph.undirected_degrees
            if kind is ScoreKind.AA:
                weight = _inv_log_weights(deg, base)
            elif kind is ScoreKind.RA:
                weight = np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)
            self.passes = [("undirected", "undirected")]
            self.deg_float = deg.astype(np.float64)
        else:
            self.out_deg = graph.out_degrees.astype(np.float64)
            self.in_deg = graph.in_degrees.astype(np.float64)
            if kind in (ScoreKind.INF_LOG, ScoreKind.INF_LOG_KD):
                self.log_out = _log_of_degrees(graph.out_degrees, base)
                self.log_in = _log_of_degrees(graph.in_degrees, base)
            if kind is ScoreKind.DED:
                self.passes = [("out", "out")]
            elif kind is ScoreKind.IND:
                self.passes = [("in", "out")]
            else:
                self.passes = [("out", "out"), ("in", "out")]
        self.z_weight = weight
        self.dense = self._dense_chunks(chunks)
        self.sparse_passes = self.marker = None
        if not all(self.dense):
            self.sparse_passes = []
            for left, right in self.passes:
                right = graph._csr(right)
                if weight is not None:
                    right = right.copy()
                    right.data = np.repeat(weight, np.diff(right.indptr))
                self.sparse_passes.append((graph._csr(left), right))
            self.marker = _scipy_csr(marker_tags, *_csr_arrays(marker_keys, self.n), self.n)

    def _dense_chunks(self, chunks):
        small = [(hi - lo) * self.n <= DENSE_MAX_CELLS for lo, hi in chunks]
        if not any(small):
            return small
        # paths[x - first]: the 2-hop paths of rows [first, x), all
        # passes, over the rows the small chunks span
        first = min(lo for fits, (lo, _) in zip(small, chunks) if fits)
        last = max(hi for fits, (_, hi) in zip(small, chunks) if fits)
        paths = 0
        for left, right in self.passes:
            indptr, indices = self.graph._adjacency(left)
            right_indptr = self.graph._adjacency(right)[0]
            z = indices[indptr[first]:indptr[last]]
            ends = np.zeros(len(z) + 1, dtype=np.int64)
            np.cumsum(right_indptr[z + 1] - right_indptr[z], out=ends[1:])
            paths = paths + ends[indptr[first:last + 1] - indptr[first]]
        return [
            fits and int(paths[hi - first] - paths[lo - first]) <= DENSE_MAX_PATHS
            for fits, (lo, hi) in zip(small, chunks)
        ]

    def weight(self, pass_index, data, at_rows, cols):
        """Per-entry value transform of pass ``pass_index``'s sums
        ``data`` at columns ``cols``; ``at_rows(a)`` is the per-vertex
        array ``a`` at each entry's row. Arithmetic mirrors scores.py
        exactly."""
        kind = self.spec.kind
        if kind in (ScoreKind.CN, ScoreKind.AA, ScoreKind.RA):
            return data
        if kind is ScoreKind.JACCARD:
            du = at_rows(self.deg_float)
            dv = self.deg_float[cols]
            return data / (du + dv - data)
        out = pass_index == 0 and kind is not ScoreKind.IND
        values = data / at_rows(self.out_deg if out else self.in_deg)
        if kind in (ScoreKind.INF_LOG, ScoreKind.INF_LOG_KD):
            values = values * at_rows(self.log_out if out else self.log_in)
        if kind is ScoreKind.INF_LOG_KD and pass_index == 0:
            values = values * self.spec.k
        return values


def _dense_candidates(ctx, lo, hi):
    """(keys, values, tags) of the candidates of rows [lo, hi), by a
    dense accumulator of (hi - lo) * n cells.

    Every 2-hop path (x, z, y) is listed in x, z, y order and its pair
    summed by ``np.bincount``, which adds in array order: each pair's
    sum adds its z ascending from 0.0, as scipy's csr_matmat does, and
    a zero sum is no candidate, as in scipy's product. The INF family
    adds its two weighted passes, pass 0 first, and again drops a zero
    sum, as scipy's csr_plus_csr does.
    """
    n = ctx.n
    cells = (hi - lo) * n
    x = np.arange(lo, hi)
    keys = values = None
    for pass_index, (left, right) in enumerate(ctx.passes):
        indptr, indices = ctx.graph._adjacency(left)
        right_indptr, right_indices = ctx.graph._adjacency(right)
        z = indices[indptr[lo]:indptr[hi]]
        xs = np.repeat(x, indptr[lo + 1:hi + 1] - indptr[lo:hi])
        starts = right_indptr[z]
        counts = right_indptr[z + 1] - starts
        # y runs over row z of the right factor, for each (x, z)
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
        ys = right_indices[np.arange(len(offsets)) + offsets]
        xs = np.repeat(xs, counts)
        keep = ys > xs if ctx.unordered else ys != xs
        cell = ((xs - lo) * n + ys)[keep]
        if ctx.z_weight is None:
            sums = np.bincount(cell, minlength=cells).astype(np.float64)
        else:
            w = np.repeat(ctx.z_weight[z], counts)[keep]
            sums = np.bincount(cell, weights=w, minlength=cells)
        found = np.flatnonzero(sums)
        pass_values = ctx.weight(pass_index, sums[found], lambda a: a[lo + found // n], found % n)
        if keys is None:
            keys, values = found, pass_values
        else:
            sums = np.bincount(
                np.concatenate([keys, found]),
                weights=np.concatenate([values, pass_values]),
                minlength=cells,
            )
            keys = np.flatnonzero(sums)
            values = sums[keys]
    # the marker's entries in these rows, spread over the same cells
    start, stop = np.searchsorted(ctx.marker_keys, (lo * n, hi * n))
    tag_cells = np.zeros(cells, dtype=np.int8)
    tag_cells[ctx.marker_keys[start:stop] - lo * n] = ctx.marker_tags[start:stop]
    return keys + lo * n, values, tag_cells[keys]


def _sparse_candidates(ctx, lo, hi, with_keys=False):
    """(keys, values, tags) of the candidates of rows [lo, hi), by
    scipy's SpGEMM and one elementwise product with the CSR marker.

    A chunk of a symmetric kind multiplies by the right factor's columns
    y >= lo only. The keys are in row order, columns unsorted, and are
    None unless ``with_keys``: the fold does not read them, and at this
    backend's sizes forming them costs about a tenth of the chunk.
    """
    n = ctx.n
    first = lo if ctx.unordered else 0
    prod = None
    for pass_index, (left, right) in enumerate(ctx.sparse_passes):
        part = _rows(left, lo, hi) @ (right[:, first:] if first else right)
        if first:
            part = sp.csr_matrix((part.data, part.indices + first, part.indptr), shape=(hi - lo, n))
        counts = np.diff(part.indptr)
        part.data = ctx.weight(
            pass_index, part.data, lambda a: np.repeat(a[lo:hi], counts), part.indices
        )
        prod = part if prod is None else prod + part
    rows = np.repeat(np.arange(lo, hi), np.diff(prod.indptr))
    values = prod.data
    keep = prod.indices > rows if ctx.unordered else prod.indices != rows
    # With entry p of the product stored as 16p + 1, the elementwise
    # product with the marker rows intersects them row by row and
    # yields (16p + 1) * tag at every tagged pair; a tag is below 16.
    prod.data = np.arange(1, 16 * len(values), 16, dtype=np.int64)
    hits = prod.multiply(_rows(ctx.marker, lo, hi)).data
    hit_tags = hits % 16
    tags = np.zeros(len(values), dtype=np.int8)
    tags[hits // (16 * hit_tags)] = hit_tags
    keys = (rows * n + prod.indices)[keep] if with_keys else None
    return keys, values[keep], tags[keep]


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


def _fold_chunk(ctx, lo, hi, dense, buckets):
    """Merge the candidates of rows [lo, hi) into ``buckets``.

    ``dense`` picks the backend that lists them. With ``ctx.unordered``
    (a symmetric score) only the pairs y > x are scored, and each value
    counts for (x, y) and for (y, x), each direction by its own tag.
    Returns (merged buckets, explicit_count), the count of
    explicitly-scored candidates (diagonal and training edges excluded,
    zero-valued candidates included).
    """
    _, values, tags = (_dense_candidates if dense else _sparse_candidates)(ctx, lo, hi)
    if len(values) == 0:
        return buckets, 0
    tagged = np.flatnonzero(tags != 0)  # faster on bool than on int8
    counts = _TAG_COUNTS[int(ctx.unordered)][tags[tagged]]
    directions = 2 if ctx.unordered else 1
    explicit_count = directions * (len(values) - len(tagged)) + int(counts.sum())
    fp_values, fp_counts = np.unique(values, return_counts=True)
    # the tagged pairs count by their tags, not as plain candidates
    tagged_values = values[tagged]
    fp_counts -= np.bincount(np.searchsorted(fp_values, tagged_values), minlength=len(fp_values))
    fp_counts *= directions
    tp, fp = counts.T
    # a chunk holds few tagged pairs: the merge counts them one by one
    scored = _scored(
        np.concatenate([fp_values, tagged_values]),
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
    _, marker_keys, marker_tags = _held_out(graph, test_edges, _universe(graph).eligible_mask)
    ctx = _RunContext(graph, spec, marker_keys, marker_tags, [(n1, n1 + 1)])
    return _fold_chunk(ctx, n1, n1 + 1, ctx.dense[0], np.empty(0, dtype=BUCKET_DTYPE))


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
    universe = _universe(graph)
    test_keys, marker_keys, marker_tags = _held_out(
        graph, test_edges, universe.eligible_mask, unordered
    )
    positives = len(test_keys)
    negatives = universe.universe_size - positives

    chunk_bounds = [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]
    ctx = _RunContext(graph, spec, marker_keys, marker_tags, chunk_bounds, unordered)
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
            local_hists[slot], _ = _fold_chunk(ctx, lo, hi, ctx.dense[index], local_hists[slot])
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
