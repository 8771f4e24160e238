"""One benchmark repetition, run in a fresh interpreter.

Usage: python3 child.py JOB.json RESULT.json

Makes the public calls of ``hierlp run`` in its order: import,
``load_edge_list``, ``split_edges``, ``save_split``, then for each score
``score_all``, ``build_curves``, ``ThresholdHistogram.dump``,
``write_curve_csv`` twice, ``summary_record`` and ``write_summary``.
Clocks are read only between those calls. Artifacts are written into
in-memory text streams, so no time includes the machine's file system;
only the parity pass also writes them to files, after its clock stops.
Correctness checks (artifact digests, conservation, counters) run
between the timed segments and are excluded from every time. Only the standard library is imported before
the clock starts, so ``setup_s`` includes the package import.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

_NULL_SPAN = contextlib.nullcontext()
ARTIFACTS = ("histogram.txt", "pr.csv", "roc.csv", "summary.json")


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """In-memory spans [name, tag, start, end, parent, cpu_s].

    ``parent`` is the index of the enclosing span or -1. Disabled, every
    span is a shared no-op context, so untraced passes read no clock for it.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name, tag=""):
        return self._span(name, tag) if self.enabled else _NULL_SPAN

    @contextlib.contextmanager
    def _span(self, name, tag):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, tag, time.perf_counter(), 0.0, parent, _cpu_seconds()]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[5] = _cpu_seconds() - record[5]
            record[3] = time.perf_counter()


def _keep(directory, name, sink):
    with open(os.path.join(directory, name), "w") as fh:
        fh.write(sink.getvalue())


def run_pass(job, tracer):
    """One full pass; returns the result dict written for the parent."""
    started = time.perf_counter()
    with tracer.span("setup.import"):
        sys.path.insert(0, job["src"])
        import hierlp
        from hierlp import (
            build_curves,
            load_edge_list,
            save_split,
            score_all,
            split_edges,
        )
        from hierlp.engine import DEFAULT_CHUNK_SIZE
        from hierlp.evaluate import summary_record, write_curve_csv, write_summary
        from hierlp.scores import ScoreSpec
    setup_s = time.perf_counter() - started
    if not os.path.abspath(hierlp.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        raise RuntimeError(f"imported hierlp from {hierlp.__file__}, not {job['src']}")

    workers = job["workers"]
    result = {"ops": [], "graphs": []}
    op_segments = []
    out = job.get("out")  # only the parity pass keeps its artifacts
    if out:
        os.makedirs(out, exist_ok=True)
    for gi, (path, split_seed) in enumerate(job["graphs"]):
        split_sink = io.StringIO()
        t0 = time.perf_counter()
        with tracer.span("setup.graph", str(gi)):
            with tracer.span("graph.load_edge_list"):
                graph, _ = load_edge_list(path)
            with tracer.span("evaluate.split_edges"):
                split = split_edges(graph, fraction=job["fraction"], seed=split_seed)
            with tracer.span("evaluate.save_split"):
                save_split(split, split_sink)
        setup_s += time.perf_counter() - t0
        if out:
            _keep(out, "split.txt", split_sink)
        train = split.train_graph
        result["graphs"].append(
            {"vertices": graph.vertex_count, "edges": graph.edge_count,
             "test_edges": len(split.test_edges)}
        )
        for token in job["scores"]:
            op = {"graph": gi, "kind": token, "ok": False, "error": None}
            result["ops"].append(op)
            try:
                spec = ScoreSpec.parse(token, log_base=math.e)
                sinks = {name: io.StringIO() for name in ARTIFACTS}
                t0 = time.perf_counter()
                with tracer.span("op", token):
                    with tracer.span("engine.score_all", token):
                        hist = score_all(train, spec, split.test_edges, workers=workers)
                    wall = time.perf_counter() - t0
                    with tracer.span("evaluate.build_curves", token):
                        rep = build_curves(hist, spec=spec, metadata={"seed": split.seed})
                    with tracer.span("evaluate.dump", token):
                        hist.dump(sinks["histogram.txt"])
                    with tracer.span("evaluate.write_curve_csv", token):
                        write_curve_csv(rep.pr_points, "recall,precision", sinks["pr.csv"])
                    with tracer.span("evaluate.write_curve_csv", token):
                        write_curve_csv(rep.roc_points, "fpr,tpr", sinks["roc.csv"])
                    with tracer.span("evaluate.summary_record", token):
                        record = summary_record(
                            rep, seed=split.seed, fraction=split.fraction, wall_time=wall,
                            threads=workers,
                            chunk_size=min(DEFAULT_CHUNK_SIZE, max(train.vertex_count, 1)),
                            graph_name=str(path),
                        )
                    with tracer.span("evaluate.write_summary", token):
                        write_summary(record, sinks["summary.json"])
                elapsed = time.perf_counter() - t0
                op_segments.append(elapsed)
                # checks, outside every timed segment
                hist.check_conservation()
                tp, fp = hist.explicit_totals()
                t0 = time.perf_counter()
                digest = hashlib.sha256(sinks["histogram.txt"].getvalue().encode()).hexdigest()
                digest_s = time.perf_counter() - t0
                universe = hist.positives_total + hist.negatives_total
                result["graphs"][gi]["universe"] = universe
                op.update(
                    ok=True, ms=elapsed * 1e3, score_ms=wall * 1e3,
                    digest=digest, digest_s=digest_s, universe=universe,
                    buckets=len(hist.buckets), nonzero=tp + fp,
                    thresholds=len(rep.thresholds),
                    write_bytes=sum(len(sink.getvalue().encode()) for sink in sinks.values()),
                )
                if job.get("trace"):
                    op["two_hop_paths"] = two_hop_paths(train, spec.kind)
                if out:
                    for name, sink in sinks.items():
                        _keep(out, f"{spec.kind.value}_{name}", sink)
            except Exception:  # one failed op must not stop the pass
                op["error"] = traceback.format_exc()
    result["setup_s"] = setup_s
    result["run_s"] = setup_s + sum(op_segments)
    result["op_s"] = sum(op_segments)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def two_hop_paths(graph, kind):
    """2-hop paths the engine's sparse products expand for ``kind``.

    One SpMV per product: left @ (row counts of right). Mirrors the
    engine's passes: undirected kinds use Gamma @ Gamma, DED out @ out,
    IND in @ out, the INF family both.
    """
    from hierlp.scores import INF_FAMILY, UNDIRECTED_KINDS, ScoreKind

    out_deg = graph.out_degrees.astype("float64")
    if kind in UNDIRECTED_KINDS:
        products = [(graph.undirected_csr(), graph.undirected_degrees.astype("float64"))]
    elif kind is ScoreKind.DED:
        products = [(graph.out_csr(), out_deg)]
    elif kind is ScoreKind.IND:
        products = [(graph.in_csr(), out_deg)]
    elif kind in INF_FAMILY:
        products = [(graph.out_csr(), out_deg), (graph.in_csr(), out_deg)]
    else:
        raise ValueError(f"unknown kind {kind}")
    return int(sum(float((left @ right_rows).sum()) for left, right_rows in products))


def single_worker_seconds(job):
    """score_all with workers=1 on every (graph, score): the serial baseline."""
    from hierlp import load_edge_list, score_all, split_edges
    from hierlp.scores import ScoreSpec

    seconds = {}
    for path, split_seed in job["graphs"]:
        graph, _ = load_edge_list(path)
        split = split_edges(graph, fraction=job["fraction"], seed=split_seed)
        for token in job["scores"]:
            spec = ScoreSpec.parse(token, log_base=math.e)
            t0 = time.perf_counter()
            score_all(split.train_graph, spec, split.test_edges, workers=1)
            seconds[token] = seconds.get(token, 0.0) + time.perf_counter() - t0
    return seconds


def main(argv):
    if len(argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        job = json.load(fh)
    tracer = Tracer(bool(job.get("trace")))
    result = run_pass(job, tracer)
    result["spans"] = tracer.spans
    if job.get("single_worker_baseline"):
        failed = {op["kind"] for op in result["ops"] if not op["ok"]}
        job["scores"] = [token for token in job["scores"] if token not in failed]
        result["single_worker_s"] = single_worker_seconds(job)
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
