"""Immutable directed graph with sorted adjacency in both directions.

Vertices are dense internal ids 0..n-1. External ids from an edge-list
file are remapped on load and kept in ``vertex_labels``. Adjacency is
stored CSR-style (offset array + flat neighbor array) so neighbor
iteration is a contiguous slice and set intersections can run as linear
merges.
"""

import contextlib
import gzip
import io
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class GraphParseError(ValueError):
    """Raised when an edge-list stream cannot be parsed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class LoadReport:
    """Raw vs. retained accounting for one edge-list load."""

    lines_total: int
    comment_lines: int
    raw_edges: int
    self_loops_dropped: int
    duplicate_edges_dropped: int
    edges_retained: int


def _csr_arrays(keys, n):
    """(indptr, indices) of the pairs u->v given as sorted u*n+v keys."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def _scipy_csr(data, indptr, indices, n):
    """An n x n scipy CSR matrix. Its index arrays are int32 when n and
    the entry count fit, which spares scipy checking the contents of
    int64 ones and downcasting them."""
    if max(n, len(indices)) <= np.iinfo(np.int32).max:
        indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _unique(keys):
    """Sorted distinct int64 keys: a sort and a neighbour compare.
    Plain ``np.unique`` on int64 takes a slower hash path in numpy 2.4."""
    keys = np.sort(keys)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


class Graph:
    """Directed graph, frozen after construction.

    Invariants enforced here: no self loops, no duplicate edges, neighbor
    lists sorted ascending, in/out adjacency mirror each other.
    Construction is single-threaded; afterwards the graph is read-only
    and safe to share between any number of concurrent readers.
    """

    def __init__(self, vertex_count, edge_u, edge_v, vertex_labels=None):
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        if edge_u.shape != edge_v.shape:
            raise ValueError("edge endpoint arrays must have equal length")
        n = int(vertex_count)
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        if len(edge_u) and (edge_u.min() < 0 or edge_v.min() < 0):
            raise ValueError("negative vertex id")
        if len(edge_u) and max(edge_u.max(), edge_v.max()) >= n:
            raise ValueError("vertex id out of range")
        if np.any(edge_u == edge_v):
            raise ValueError("self loops are not allowed")
        keys = np.sort(edge_u * n + edge_v)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        if vertex_labels is not None and len(vertex_labels) != n:
            raise ValueError("vertex_labels length must equal vertex_count")

        self.vertex_count = n
        self.edge_count = len(edge_u)
        self.vertex_labels = list(vertex_labels) if vertex_labels is not None else None
        self._out_indptr, self._out_indices = _csr_arrays(keys, n)
        self._in_indptr, self._in_indices = _csr_arrays(np.sort(edge_v * n + edge_u), n)
        self._und = None  # lazy union view, built once on demand
        self._csr_views = {}  # lazy scipy views, built once on demand
        for a in (self._out_indptr, self._out_indices, self._in_indptr, self._in_indices):
            a.setflags(write=False)

    # -- neighbor access ---------------------------------------------------

    def _check_vertex(self, x):
        if not 0 <= x < self.vertex_count:
            raise IndexError(f"vertex id {x} out of range [0, {self.vertex_count})")

    def out_neighbors(self, x):
        """Sorted out-neighbors of x (targets of edges x->y)."""
        self._check_vertex(x)
        return self._out_indices[self._out_indptr[x]:self._out_indptr[x + 1]]

    def in_neighbors(self, x):
        """Sorted in-neighbors of x (sources of edges y->x)."""
        self._check_vertex(x)
        return self._in_indices[self._in_indptr[x]:self._in_indptr[x + 1]]

    def undirected_neighbors(self, x):
        """Sorted deduplicated union of out- and in-neighbors of x."""
        self._check_vertex(x)
        indptr, indices = self._undirected_arrays()
        return indices[indptr[x]:indptr[x + 1]]

    def _undirected_arrays(self):
        if self._und is None:
            n = self.vertex_count
            u, v = self.edges()
            self._und = _csr_arrays(_unique(np.concatenate([u * n + v, v * n + u])), n)
            for a in self._und:
                a.setflags(write=False)
        return self._und

    # -- degrees -----------------------------------------------------------

    @property
    def out_degrees(self):
        return self._out_indptr[1:] - self._out_indptr[:-1]

    @property
    def in_degrees(self):
        return self._in_indptr[1:] - self._in_indptr[:-1]

    @property
    def undirected_degrees(self):
        indptr = self._undirected_arrays()[0]
        return indptr[1:] - indptr[:-1]

    # -- whole-graph views ---------------------------------------------------

    def edges(self):
        """All edges as (u, v) arrays in canonical (u, v) order."""
        u = np.repeat(np.arange(self.vertex_count, dtype=np.int64), self.out_degrees)
        return u, self._out_indices.copy()

    def edge_keys(self):
        """Edges encoded as sorted u*n+v keys (n = vertex_count)."""
        u, v = self.edges()
        return u * self.vertex_count + v

    def reverse_edge_keys(self):
        """Edges encoded as sorted v*n+u keys, head first."""
        v = np.repeat(np.arange(self.vertex_count, dtype=np.int64), self.in_degrees)
        return v * self.vertex_count + self._in_indices

    def out_csr(self):
        """Out-adjacency as a read-only scipy CSR matrix with unit weights."""
        return self._csr("out")

    def in_csr(self):
        """In-adjacency as a read-only scipy CSR matrix with unit weights."""
        return self._csr("in")

    def undirected_csr(self):
        """Union view as a read-only symmetric scipy CSR matrix with unit
        weights."""
        return self._csr("undirected")

    def _adjacency(self, view):
        """(indptr, indices) of the "out", "in" or "undirected" view:
        read-only int64 arrays."""
        if view == "out":
            return self._out_indptr, self._out_indices
        if view == "in":
            return self._in_indptr, self._in_indices
        return self._undirected_arrays()

    def _csr(self, view):
        # built once per graph and shared by every caller, so frozen
        matrix = self._csr_views.get(view)
        if matrix is None:
            indptr, indices = self._adjacency(view)
            matrix = _scipy_csr(np.ones(len(indices)), indptr, indices, self.vertex_count)
            for a in (matrix.data, matrix.indices, matrix.indptr):
                a.setflags(write=False)
            self._csr_views[view] = matrix
        return matrix

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.edge_count == other.edge_count
            and np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
        )

    def __repr__(self):
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


@contextlib.contextmanager
def _opened(target, mode="r"):
    """Yield a text stream for a path or a stream. A path is opened in
    ``mode``, through gzip when it ends in .gz, and closed afterwards; a
    binary stream is read or written as text and left open; a text
    stream is used as it is."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        opener = gzip.open if os.fsdecode(target).endswith(".gz") else open
        with opener(target, mode + "t") as fh:
            yield fh
    elif not isinstance(target, io.TextIOBase):
        wrapper = io.TextIOWrapper(target)
        try:
            yield wrapper
        finally:
            # detach flushes, and a wrapper closes its buffer when it is
            # collected; the caller's stream stays the caller's to close
            wrapper.detach()
    else:
        yield target


def _reprs(column):
    """repr of every item of a list, computed once per run of equal
    items: a curve column repeats its values in long runs."""
    texts = []
    previous = text = None
    for value in column:
        # 0.0 == -0.0, but their reprs differ
        if value != previous or not value:
            text = repr(value)
            previous = value
        texts.append(text)
    return texts


def load_edge_list(source, format="auto"):
    """Parse a whitespace-delimited edge list into a Graph.

    Lines starting with '#' are comments; blank lines are skipped.
    ``format`` is one of "auto", "integer", "token". Integer ids are
    remapped to dense ids in ascending numeric order, tokens in ascending
    lexicographic order. Duplicate edges and self loops are dropped
    silently with counters (real webgraph dumps contain both).

    Returns (Graph, LoadReport). Raises GraphParseError with the line
    number on malformed input, and on empty input.
    """
    if format not in ("auto", "integer", "token"):
        raise ValueError(f"unknown edge-list format {format!r}")
    src_pairs = []
    dst_pairs = []
    lines_total = 0
    comment_lines = 0
    integer_ok = True
    with _opened(source) as fh:
        for line_number, line in enumerate(fh, start=1):
            lines_total += 1
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                comment_lines += 1
                continue
            fields = stripped.split()
            if len(fields) != 2:
                raise GraphParseError(
                    f"expected 2 fields, got {len(fields)}: {stripped!r}", line_number
                )
            a, b = fields
            if format == "integer" or (format == "auto" and integer_ok):
                try:
                    ia, ib = int(a), int(b)
                    if ia < 0 or ib < 0:
                        raise ValueError
                except ValueError:
                    if format == "integer":
                        raise GraphParseError(
                            f"non-numeric vertex id in integer mode: {stripped!r}",
                            line_number,
                        ) from None
                    integer_ok = False
            src_pairs.append(a)
            dst_pairs.append(b)

    if not src_pairs:
        raise GraphParseError("empty input: no edges found")

    if format == "token" or (format == "auto" and not integer_ok):
        tokens = sorted(set(src_pairs) | set(dst_pairs))
        mapping = {t: i for i, t in enumerate(tokens)}
        u = np.fromiter((mapping[t] for t in src_pairs), dtype=np.int64, count=len(src_pairs))
        v = np.fromiter((mapping[t] for t in dst_pairs), dtype=np.int64, count=len(dst_pairs))
        labels = tokens
    else:
        raw_u = np.fromiter(map(int, src_pairs), dtype=np.int64, count=len(src_pairs))
        raw_v = np.fromiter(map(int, dst_pairs), dtype=np.int64, count=len(dst_pairs))
        ids = _unique(np.concatenate([raw_u, raw_v]))
        u = np.searchsorted(ids, raw_u)
        v = np.searchsorted(ids, raw_v)
        # identity mapping needs no label table
        labels = None if np.array_equal(ids, np.arange(len(ids))) else [int(i) for i in ids]

    n = len(labels) if labels is not None else (int(max(u.max(), v.max())) + 1 if len(u) else 0)
    raw_edges = len(u)
    loop_mask = u == v
    self_loops = int(loop_mask.sum())
    u, v = u[~loop_mask], v[~loop_mask]
    keys = _unique(u * n + v)
    duplicates = len(u) - len(keys)
    graph = Graph(n, keys // n, keys % n, vertex_labels=labels)
    report = LoadReport(
        lines_total=lines_total,
        comment_lines=comment_lines,
        raw_edges=raw_edges,
        self_loops_dropped=self_loops,
        duplicate_edges_dropped=duplicates,
        edges_retained=graph.edge_count,
    )
    return graph, report


def write_edge_list(graph, sink):
    """Write the canonical edge list: one "u v" per line, sorted by (u, v).

    Internal dense ids are used, so a reload yields an identical Graph.
    """
    u, v = graph.edges()
    with _opened(sink, "w") as fh:
        for a, b in zip(u.tolist(), v.tolist()):
            fh.write(f"{a} {b}\n")
