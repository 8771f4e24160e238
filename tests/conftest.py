import io
import warnings

import numpy as np
import pytest

from hierlp import Graph

# hypothesis imports this module to print a failing example; with libcst
# installed the import warns (mypy_extensions.TypedDict), which -W error
# would turn into an INTERNALERROR in place of the test's failure
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


def graph_from_edges(edges, n=None):
    """Build a Graph from a list of (u, v) pairs."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if len(edges) else 0
    return Graph(n, edges[:, 0], edges[:, 1])


def erdos_renyi_digraph(rng, n, edge_factor=3):
    """Random directed graph with roughly edge_factor * n edges."""
    m_target = int(rng.integers(n, edge_factor * n + 1))
    u = rng.integers(0, n, m_target)
    v = rng.integers(0, n, m_target)
    mask = u != v
    keys = np.unique(u[mask] * n + v[mask])
    return Graph(n, keys // n, keys % n)


def preferential_attachment_digraph(rng, n, out_per_vertex=2):
    """Degree-skewed directed graph via the repeated-endpoints trick."""
    src, dst = [], []
    pool = [0]
    for x in range(1, n):
        for _ in range(out_per_vertex):
            t = pool[int(rng.integers(0, len(pool)))]
            if t != x:
                src.append(x)
                dst.append(t)
        pool.append(x)
        pool.extend(dst[-out_per_vertex:])
    if not src:
        return Graph(n, [], [])
    keys = np.unique(np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64))
    return Graph(n, keys // n, keys % n)


def hub_first(graph):
    """``graph`` relabelled by descending total degree, hubs first, as a
    crawl-ordered dump is."""
    order = np.argsort(-(graph.out_degrees + graph.in_degrees), kind="stable")
    label = np.empty_like(order)
    label[order] = np.arange(len(order))
    u, v = graph.edges()
    return Graph(graph.vertex_count, label[u], label[v])


@pytest.fixture
def four_cycle():
    # a -> b -> c -> d -> a
    return graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])


def text_stream(content):
    return io.StringIO(content)
