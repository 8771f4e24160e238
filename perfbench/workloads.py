"""Workload definitions and the seeded power-law digraph generator.

The generator is vectorised: out- and in-weights follow Zipf(0.9) over
vertex rank, each independently permuted, and edges are drawn in
batches with ``numpy.random.Generator`` until the target count of
distinct non-loop edges is reached. The program under test only ever
sees the edge-list files written here.
"""

import os
from dataclasses import dataclass

import numpy as np

ZIPF_EXPONENT = 0.9
SPLIT_FRACTION = 0.10
#: The large workloads draw one of this many graph instances
#: (``seed % LARGE_INSTANCES``); each has a stored reference digest.
LARGE_INSTANCES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    scores: tuple  # score tokens, in the order ``hierlp run --score`` gets them
    vertices: int  # per graph; many-small draws from ``small_vertex_range``
    edges: int
    graphs: int = 1
    single_worker: bool = False  # False: workers = nproc
    small_vertex_range: tuple = ()


ALL_KINDS = ("cn", "aa", "ra", "jaccard", "ded", "ind", "inf", "inf_log", "inf_log_kd")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fold-heavy",
            scores=("cn", "inf_log_kd"),
            vertices=30_000,
            edges=120_000,
        ),
        Workload(
            name="threshold-heavy",
            scores=("aa", "ra"),
            vertices=20_000,
            edges=80_000,
        ),
        Workload(
            name="many-small",
            scores=ALL_KINDS,
            vertices=0,
            edges=0,
            graphs=500,
            single_worker=True,
            small_vertex_range=(5, 60),
        ),
    )
}


def power_law_edges(rng, n, m):
    """Distinct directed non-loop edges (u, v), Zipf(0.9) out/in weights.

    Returns two int64 arrays of length ``m`` in first-drawn order. Raises
    ValueError when ``m`` exceeds the n*(n-1) possible edges.
    """
    if m > n * (n - 1):
        raise ValueError(f"{m} edges do not fit in {n} vertices")
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    p_out = rng.permutation(weights)
    p_in = rng.permutation(weights)
    p_out /= p_out.sum()
    p_in /= p_in.sum()
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        batch = max(2 * (m - len(keys)), 64)
        u = rng.choice(n, size=batch, p=p_out)
        v = rng.choice(n, size=batch, p=p_in)
        fresh = (u * n + v)[u != v]
        keys = np.concatenate([keys, fresh])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:m]
    return keys // n, keys % n


def write_edges(path, u, v):
    with open(path, "w") as fh:
        fh.write("# synthetic Zipf(0.9) power-law digraph\n")
        fh.write("\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())))
        fh.write("\n")


def make_inputs(workload, seed, directory):
    """Write the workload's edge lists into ``directory``.

    Returns a list of (edge_list_path, split_seed) pairs, one per graph.
    The same (workload, seed) always writes the same files.
    """
    os.makedirs(directory, exist_ok=True)
    tag = sorted(WORKLOADS).index(workload.name)
    graphs = []
    if workload.graphs == 1:
        instance = seed % LARGE_INSTANCES
        rng = np.random.default_rng([tag, instance])
        path = os.path.join(directory, "graph.txt")
        write_edges(path, *power_law_edges(rng, workload.vertices, workload.edges))
        return [(path, instance)]
    rng = np.random.default_rng([tag, seed % 2**63])
    lo, hi = workload.small_vertex_range
    for index in range(workload.graphs):
        # sizes cycle through the range instead of being drawn, so the
        # total work hardly depends on the seed; 3n >= 15 edges lets a
        # 10 % split hold out at least one edge
        n = lo + index % (hi - lo + 1)
        path = os.path.join(directory, f"g{index:03d}.txt")
        write_edges(path, *power_law_edges(rng, n, 3 * n))
        graphs.append((path, index))
    return graphs


def make_parity_input(workload, seed, directory):
    """One small graph for the ``hierlp run`` parity check."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([99, seed % 2**63])
    path = os.path.join(directory, "parity.txt")
    if workload.graphs == 1:
        write_edges(path, *power_law_edges(rng, 1500, 6000))
    else:
        write_edges(path, *power_law_edges(rng, 60, 200))
    return path
