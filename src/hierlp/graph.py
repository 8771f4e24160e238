"""Immutable directed graph stored as its sorted edge keys.

Vertices are dense internal ids 0..n-1. External ids from an edge-list
file are remapped on load and kept in ``vertex_labels``. A graph stores
its edges alone, as sorted unique u*n+v keys. The "in" and "undirected"
views' keys and every view's CSR arrays (offset array + flat neighbor
array) are derived from them on first use and kept, so neighbor
iteration is a contiguous slice and set intersections can run as linear
merges.
"""

import contextlib
import gzip
import io
import operator
import os
import re
import threading
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
    """An n x n scipy CSR matrix, the one builder of one. Its index
    arrays are int32 when n and the entry count fit, which spares scipy
    checking the contents of int64 ones and downcasting them; int32
    arrays are taken as they are, not copied."""
    if max(n, len(indices)) <= np.iinfo(np.int32).max:
        indptr, indices = indptr.astype(np.int32, copy=False), indices.astype(np.int32, copy=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _unique(keys):
    """Sorted distinct int64 keys of ``keys``, which it sorts in place: a
    sort and a neighbour compare. Plain ``np.unique`` on int64 takes a
    slower hash path in numpy 2.4."""
    keys.sort()
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


def _vertex_ids(ends):
    """``ends`` as an array of vertex ids. Values of a non-integer dtype
    must be finite and integral, or ValueError is raised; they are checked
    before any cast to int64, which would truncate them, and warn at NaN
    or infinity."""
    ends = np.asarray(ends)
    if not np.issubdtype(ends.dtype, np.integer):
        ends = ends.astype(np.float64)
        if not (np.all(np.isfinite(ends)) and np.all(ends == np.trunc(ends))):
            raise ValueError("vertex ids must be finite integers")
    return ends


#: Guards every graph's memo. A value is built once per graph, rarely,
#: and its build may ask the memo for another.
_MEMO_LOCK = threading.RLock()


class Graph:
    """Directed graph, frozen after construction.

    The graph is its edges as sorted unique u*n+v keys (n = vertex_count):
    no self loops, no duplicate edges. Every other view is derived from
    them on first use, once, through ``_memo``: the sorted keys of the
    "in" and "undirected" views (``_keys``), each view's CSR arrays
    (``_adjacency``), the scipy views, and the engine's candidate
    universe, degrees, their logs and weights. Construction is
    single-threaded; afterwards the graph is read-only and safe to share
    between any number of concurrent readers.
    """

    def __init__(self, vertex_count, edge_u, edge_v, vertex_labels=None):
        edge_u, edge_v = _vertex_ids(edge_u), _vertex_ids(edge_v)
        if edge_u.shape != edge_v.shape:
            raise ValueError("edge endpoint arrays must have equal length")
        if not float(vertex_count).is_integer():  # int() would truncate it
            raise ValueError(f"vertex_count must be a finite integer, got {vertex_count!r}")
        n = int(vertex_count)
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        if len(edge_u) and (edge_u.min() < 0 or edge_v.min() < 0):
            raise ValueError("negative vertex id")
        if len(edge_u) and max(edge_u.max(), edge_v.max()) >= n:
            raise ValueError("vertex id out of range")
        edge_u, edge_v = edge_u.astype(np.int64, copy=False), edge_v.astype(np.int64, copy=False)
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
        keys.setflags(write=False)
        self._out_keys = keys
        self._derived = {}  # key -> value built by _memo
        # the engine's (key, (positives, once, own)) of the last test set
        # it checked: the count of test pairs and its two delta lists
        self._split = None

    # -- neighbor access ---------------------------------------------------

    def _check_vertex(self, x):
        """``x`` as an int (``operator.index``), a vertex of this graph:
        TypeError naming any other value, IndexError out of range."""
        try:
            x = operator.index(x)
        except TypeError:
            raise TypeError(f"vertex id must be an integer, got {x!r}") from None
        if not 0 <= x < self.vertex_count:
            raise IndexError(f"vertex id {x} out of range [0, {self.vertex_count})")
        return x

    def _neighbors(self, view, x):
        x = self._check_vertex(x)
        indptr, indices = self._adjacency(view)
        return indices[indptr[x]:indptr[x + 1]]

    def out_neighbors(self, x):
        """Sorted out-neighbors of x (targets of edges x->y)."""
        return self._neighbors("out", x)

    def in_neighbors(self, x):
        """Sorted in-neighbors of x (sources of edges y->x)."""
        return self._neighbors("in", x)

    def undirected_neighbors(self, x):
        """Sorted deduplicated union of out- and in-neighbors of x."""
        return self._neighbors("undirected", x)

    def _memo(self, key, build):
        """The value under ``key``, built by ``build()`` on the first call
        of any thread and kept: a lookup, then a second one under the
        lock before building."""
        value = self._derived.get(key)
        if value is None:
            with _MEMO_LOCK:
                value = self._derived.get(key)
                if value is None:
                    value = self._derived[key] = build()
        return value

    # -- degrees -----------------------------------------------------------

    @property
    def out_degrees(self):
        return np.diff(self._adjacency("out")[0])

    @property
    def in_degrees(self):
        return np.diff(self._adjacency("in")[0])

    @property
    def undirected_degrees(self):
        return np.diff(self._adjacency("undirected")[0])

    # -- whole-graph views ---------------------------------------------------

    def edges(self):
        """All edges as (u, v) arrays in canonical (u, v) order."""
        return np.divmod(self._out_keys, self.vertex_count)

    def edge_keys(self):
        """Edges encoded as sorted u*n+v keys (n = vertex_count): the
        graph's own array, shared and read-only."""
        return self._out_keys

    def reverse_edge_keys(self):
        """Edges encoded as sorted v*n+u keys, head first: shared and
        read-only, as ``edge_keys``."""
        return self._keys("in")

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

    def _keys(self, view):
        """The sorted unique row*n+col keys of the "out", "in" or
        "undirected" view: a read-only int64 array, shared."""
        if view == "out":
            return self._out_keys

        def build():
            n, out = self.vertex_count, self._out_keys
            if view == "in":
                # v*n+u of every edge u->v, built in place
                keys = out % n
                keys *= n
                keys += out // n
                keys.sort()
            else:
                keys = _unique(np.concatenate([out, self._keys("in")]))
            keys.setflags(write=False)
            return keys

        return self._memo(("keys", view), build)

    def _adjacency(self, view):
        """(indptr, indices) of the "out", "in" or "undirected" view:
        read-only int64 arrays, shared."""

        def build():
            arrays = _csr_arrays(self._keys(view), self.vertex_count)
            for a in arrays:
                a.setflags(write=False)
            return arrays

        return self._memo(("adjacency", view), build)

    def _csr(self, view):
        def build():
            indptr, indices = self._adjacency(view)
            matrix = _scipy_csr(np.ones(len(indices)), indptr, indices, self.vertex_count)
            for a in (matrix.data, matrix.indices, matrix.indptr):
                a.setflags(write=False)
            return matrix

        # shared by every caller, so frozen
        return self._memo(("csr", view), build)

    def __getstate__(self):
        # derived values are rebuilt on demand: a pickle holds the keys alone
        return {**self.__dict__, "_derived": {}, "_split": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._out_keys.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(
            self._out_keys, other._out_keys
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


_INT64_MAX = int(np.iinfo(np.int64).max)
#: the form of an integer id; ``_is_id`` adds its range
_INTEGER_ID = re.compile(r"[+-]?[0-9]+")
#: the form of a float: a decimal numeral, or a word ``float`` reads as
#: infinity or NaN
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))")
#: every byte the fast path accepts outside comment lines
_PLAIN_BYTES = b"0123456789 \t\r\n"
#: rows formatted by one ``%`` and written by one ``fh.write`` in ``_write_rows``
_WRITE_BLOCK = 4096


def _sections(text):
    """Cut ``text`` at its comment lines, those whose first character
    that is not whitespace (``str.isspace``) is '#'. Yields (comment
    line, its line number, body, the body's first line number) with
    line numbers from 1: first (None, None, the lines before any comment
    line, 1), then one per comment line, whose body runs up to the next.
    The only code that recognises a comment line: the one walker of edge
    lists, split files and histogram dumps, whose readers read only the
    bodies it cuts."""
    comment = comment_line = None
    previous, line_number = 0, 1
    at = text.find("#")
    while at >= 0:
        start = text.rfind("\n", 0, at) + 1
        end = text.find("\n", at) + 1 or len(text)
        if not text[start:at].strip():
            yield comment, comment_line, text[previous:start], line_number
            line_number += text.count("\n", previous, start)
            comment, comment_line = text[start:end], line_number
            line_number += 1
            previous = end
        at = text.find("#", end)
    yield comment, comment_line, text[previous:], line_number


def _read_artifact(source, name, table, read_rows, row_keys, title=None):
    """Read the artifact ``name`` from a path or a stream: one walk over
    its comment lines, each a header line "# key value..." read by the
    one header parser, and the rows between them.

    ``table`` maps each key to one ``_numeral`` parser per value, named
    with its rule where it refuses (``_expected``). Returns (values,
    rows): ``values`` maps each key to its parsed value, or to the tuple
    of them for a key of several; ``rows`` maps each key of ``row_keys``
    whose header line is followed by a non-blank body to
    ``read_rows(body, the body's first line number)``, None standing for
    the lines before any header line. A first line equal to ``title`` is
    no header line. Raises ValueError "malformed <name>: ...", naming
    the line of a header line of another shape, of a key not in
    ``table``, of a key's second line and of a row after a key not in
    ``row_keys``, with the errors of ``read_rows``; and naming a key of
    ``table`` that has no line."""
    with _opened(source) as fh:
        text = fh.read()
    values, rows = {}, {}
    key = None
    try:
        for line, line_number, body, first_line in _sections(text):
            if line is not None and not (line_number == 1 and line.strip() == title):
                fields, line = line.split(), line.strip()
                key = fields[1] if len(fields) > 1 and fields[0] == "#" else None
                if key not in table:
                    raise ValueError(f"line {line_number}: {line!r}: no key of {', '.join(table)}")
                if key in values:
                    raise ValueError(f"line {line_number}: {line!r}: a second {key!r} line")
                try:
                    value = tuple(parse(f) for parse, f in zip(table[key], fields[2:], strict=True))
                except ValueError:
                    shape = ["#", key, *(parse.__name__ for parse in table[key])]
                    raise ValueError(f"line {line_number}: {line!r}: {_expected(shape, table[key])}") from None
                values[key] = value if len(value) > 1 else value[0]
            if body and not body.isspace():
                if key not in row_keys:
                    row_line = first_line + body[:len(body) - len(body.lstrip())].count("\n")
                    where = f"after {line!r}" if key else "before any header line"
                    raise ValueError(f"line {row_line}: a row {where}")
                rows[key] = read_rows(body, first_line)
        missing = [key for key in table if key not in values]
        if missing:
            raise ValueError(f"no '# {missing[0]}' line")
    except ValueError as error:
        raise ValueError(f"malformed {name}: {error}") from None
    return values, rows


def _plain_pairs(text):
    """The fast path: the (E, 2) int64 array of ``text``'s id pairs,
    parsed at once, when every line is blank or two decimal ids below
    2^63 and some line is not blank; otherwise None. ``text`` holds no
    comment line."""
    if not text or not text.isascii() or text.isspace():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _PLAIN_BYTES):
        return None
    try:
        pairs = np.loadtxt(io.BytesIO(raw), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # lines of unequal width, an id past int64, a '\r' inside a line
        return None
    return pairs if pairs.shape[1] == 2 else None


def _is_id(token):
    """Whether ``token`` is an integer id: an optional sign, then ASCII
    digits, with a value in [0, 2^63). ``int`` alone would also take
    '1_0' (as 10) and digits of other scripts."""
    return _INTEGER_ID.fullmatch(token) is not None and 0 <= int(token) <= _INT64_MAX


def _numeral(parse, form, rule=None, holds=None):
    """The one factory of number parsers: ``parse`` of a text of
    ``form`` alone, in ASCII, since ``int`` and ``float`` alone would
    also take '1_0' (as 10) and digits of other scripts. Raises
    ValueError for any other text and, given a ``rule``, for each value
    for which ``holds`` is false. The parser keeps its ``rule``, which
    says which values it takes (None: every one of ``form``) and which
    the refusals of its readers name (``_expected``), and its
    ``holds``. Written with ``&`` rather than ``and`` or a chained
    comparison, ``holds`` also checks a whole parsed numpy column, as
    the histogram dump's fast path does."""

    def parser(text):
        if form.fullmatch(text) is None:
            raise ValueError(f"not an ASCII numeral: {text!r}")
        value = parse(text)
        if rule is not None and not holds(value):
            raise ValueError(rule)
        return value

    parser.__name__, parser.rule, parser.holds = parse.__name__, rule, holds
    return parser


def _expected(shape, parsers):
    """The refusal of a line that ``parsers`` do not read: "expected
    '<the words of shape>'", then each distinct rule of theirs."""
    rules = dict.fromkeys(parse.rule for parse in parsers if parse.rule)
    return "".join([f"expected {' '.join(shape)!r}", *(f", {rule}" for rule in rules)])


#: the parsers of numbers that take every value of their form: a histogram
#: dump trailer's counts and a score token's k
_ascii_int = _numeral(int, _INTEGER_ID)
_ascii_float = _numeral(float, _FLOAT)


def _parse_lines(bodies, format):
    """The line loop over ``bodies``, the (text, first line number) pairs
    that ``_sections`` cut, in order: (source tokens, target tokens,
    whether every id is an integer id, ``_is_id``). When a line holds
    another id, "auto" reads every id as a token and "integer" refuses
    that line. The only parser of token mode and the only one that
    names a malformed line: raises GraphParseError with its number."""
    sources, targets = [], []
    integer = format != "token"
    for body, first_line in bodies:
        # ``body`` had its stream's newlines translated when it was read;
        # a StringIO breaks it at '\n' alone
        for line_number, line in enumerate(io.StringIO(body), start=first_line):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise GraphParseError(
                    f"expected 2 fields, got {len(fields)}: {line.strip()!r}", line_number
                )
            if integer and not (_is_id(fields[0]) and _is_id(fields[1])):
                if format == "integer":
                    raise GraphParseError(
                        f"non-numeric vertex id in integer mode: {line.strip()!r}", line_number
                    )
                integer = False
            sources.append(fields[0])
            targets.append(fields[1])
    return sources, targets, integer


def _id_pairs(sources, targets, read=int):
    """The (E, 2) int64 array of ``read`` of every source and target token."""
    return np.column_stack([
        np.fromiter(map(read, tokens), dtype=np.int64, count=len(tokens))
        for tokens in (sources, targets)
    ])


def _integer_pairs(text, first_line):
    """(E, 2) int64 id pairs of one body of a split file, one pair per
    line, blank lines skipped: the fast path when it applies, else the
    edge-list loader's line loop in integer mode, which raises
    GraphParseError naming a malformed line (counted from
    ``first_line``)."""
    pairs = _plain_pairs(text)
    if pairs is None:
        sources, targets, _ = _parse_lines([(text, first_line)], "integer")
        pairs = _id_pairs(sources, targets)
    return pairs


def _dense_ids(pairs):
    """Renumber the integer ids of the (E, 2) array ``pairs`` in place to
    0..n-1 in ascending order, by the inverse of one sort: a counting
    sort when the ids span fewer values than ``pairs`` holds (a webgraph
    dump numbers its vertices nearly densely), else an argsort. Returns
    the ids as labels, or None when they already were 0..n-1."""
    flat = pairs.ravel()  # a view: both parsers return C-ordered arrays
    low, high = int(flat.min()), int(flat.max())
    if high - low < len(flat):
        flat -= low
        present = np.zeros(high - low + 1, dtype=bool)
        present[flat] = True
        ids = np.flatnonzero(present) + low
        rank = np.cumsum(present) - 1
        np.take(rank, flat, out=flat)
    else:
        order = np.argsort(flat)
        ordered = flat[order]
        distinct = np.ones(len(flat), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
        ids = ordered[distinct]
        np.cumsum(distinct, out=ordered)
        ordered -= 1
        flat[order] = ordered
        del order, ordered  # before the labels, at the peak of the load's memory
    return None if np.array_equal(ids, np.arange(len(ids))) else ids.tolist()


def _line_edge_list(bodies, format):
    """(dense id pairs, labels) of an edge list's bodies, (text, first
    line number) pairs, from the line loop."""
    sources, targets, integer = _parse_lines(bodies, format)
    if not sources:
        raise GraphParseError("empty input: no edges found")
    if integer:
        pairs = _id_pairs(sources, targets)
        return pairs, _dense_ids(pairs)
    labels = sorted(set(sources) | set(targets))
    rank = {t: i for i, t in enumerate(labels)}
    return _id_pairs(sources, targets, rank.__getitem__), labels


def _line_count(text):
    # the last line may lack its newline
    return text.count("\n") + (text[-1:] not in ("", "\n"))


def _edge_list_graph(lines_total, pairs, labels, comment_lines):
    """(Graph, LoadReport) of an edge list parsed into dense id pairs:
    self loops and duplicate edges are dropped and counted."""
    n = len(labels) if labels is not None else int(pairs.max()) + 1
    keys = pairs[:, 0] * n
    keys += pairs[:, 1]
    loops = pairs[:, 0] == pairs[:, 1]
    self_loops = int(loops.sum())
    keys = _unique(keys[~loops])
    graph = Graph(n, keys // n, keys % n, vertex_labels=labels)
    report = LoadReport(
        lines_total=lines_total,
        comment_lines=comment_lines,
        raw_edges=len(pairs),
        self_loops_dropped=self_loops,
        duplicate_edges_dropped=len(pairs) - self_loops - len(keys),
        edges_retained=graph.edge_count,
    )
    return graph, report


def load_edge_list(source, format="auto"):
    """Parse a whitespace-delimited edge list into a Graph.

    Lines whose first character that is not whitespace is '#' are
    comments; blank lines are skipped; a line ends at '\\n' (a path is
    read with universal newlines). ``format`` is one of "auto",
    "integer", "token". An integer id is an optional sign, then ASCII
    digits, with a value below 2^63; "auto" reads a file with any other
    id as tokens, "integer" refuses it. Integer ids are remapped to dense
    ids in ascending numeric order, tokens in ascending lexicographic
    order. Duplicate edges and self loops are dropped silently with
    counters (real webgraph dumps contain both).

    The input is read at once and walked once: ``_sections`` alone
    finds its comment lines and cuts the bodies between them. Unless
    ``format`` is "token", a fast path parses the joined bodies in one
    vectorised pass (``np.loadtxt``) when every line of them is blank or
    two plain decimal ids below 2^63, separated by spaces or tabs.
    Anything else (a sign, another character, a line of one or three
    fields, a '#' after an id, a '\\r' inside a line, an id past int64)
    goes to the line loop, which reads the same bodies from their first
    line numbers, alone reads token mode and names the line of an error.
    Both give the same Graph, labels and counters; ``lines_total`` and
    ``comment_lines`` count the whole input exactly.

    Returns (Graph, LoadReport). Raises GraphParseError with the line
    number on malformed input, and on empty input.
    """
    if format not in ("auto", "integer", "token"):
        raise ValueError(f"unknown edge-list format {format!r}")
    with _opened(source) as fh:
        text = fh.read()
    bodies = [(body, first_line) for _, _, body, first_line in _sections(text)]
    lines_total, comment_lines = _line_count(text), len(bodies) - 1
    pairs = None if format == "token" else _plain_pairs("".join(body for body, _ in bodies if body))
    if pairs is None:
        pairs, labels = _line_edge_list(bodies, format)
    else:
        del text, bodies  # the remap and the build are the peak of the load's memory
        labels = _dense_ids(pairs)
    return _edge_list_graph(lines_total, pairs, labels, comment_lines)


def _reprs(values):
    """repr of every item of a list, computed once per run of equal
    items: a curve column repeats its values in long runs."""
    texts = []
    previous = text = None
    for value in values:
        # 0.0 == -0.0, but their reprs differ
        if value != previous or not value:
            text = repr(value)
            previous = value
        texts.append(text)
    return texts


def _write_rows(fh, line, *columns):
    """Write equal-length numpy columns as one ``line % row`` per row,
    ``_WRITE_BLOCK`` rows per ``fh.write``, each block formatted by one
    ``%``. ``line`` holds one conversion per column: ``%d`` and ``%r``
    format each value, ``%s`` passes a column's values as their reprs,
    computed once per run of equal values within the block (``_reprs``).
    A writer so holds one block of text, never the whole artifact."""
    for at in range(0, len(columns[0]), _WRITE_BLOCK):
        blocks = [column[at:at + _WRITE_BLOCK].tolist() for column in columns]
        cells = [None] * (len(columns) * len(blocks[0]))
        for i, (values, conversion) in enumerate(zip(blocks, line.split("%")[1:])):
            cells[i::len(columns)] = _reprs(values) if conversion.startswith("s") else values
        fh.write(line * len(blocks[0]) % tuple(cells))


def _write_header(fh, table, **values):
    """Write one header line "# key value..." per keyword, in order: the
    one header writer. Each value's text passes through its parser in
    ``table[key]``, so the writer refuses what the reader would; a key
    of several values takes them as a sequence, as ``_read_artifact``
    returns them."""
    for key, value in values.items():
        value = value if len(table[key]) > 1 else (value,)
        fields = [str(parse(str(v))) for parse, v in zip(table[key], value, strict=True)]
        fh.write(f"# {key} {' '.join(fields)}\n")


def write_edge_list(graph, sink):
    """Write the canonical edge list: one "u v" per line, sorted by (u, v).

    Internal dense ids are used, so a reload yields an identical Graph.
    The lines come from the one row writer, ``_write_rows``.
    """
    with _opened(sink, "w") as fh:
        _write_rows(fh, "%d %d\n", *graph.edges())
