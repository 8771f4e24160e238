"""hierlp benchmark: the ``hierlp run`` pipeline on seeded synthetic graphs.

Usage (from the repository root):

    python3 perfbench/run.py --workload fold-heavy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Every repetition is a fresh ``child.py`` process making the calls of
``hierlp run``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json (medians over repetitions), ``--trace 1`` the per-layer
metrics from traced repetitions. Human-readable lines come first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exits 2, printing no result, when the
package sources are missing. See perfbench/README.md for the workloads.
"""

import argparse
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference_digests.json")

import workloads as wl  # noqa: E402  (this directory is sys.path[0])

MIN_REPS = 3
CHILD_TIMEOUT_S = 150
#: Leaf spans of one pass; together they cover every timed call.
SETUP_LEAVES = ("setup.import", "graph.load_edge_list", "evaluate.split_edges",
                "evaluate.save_split")
OP_LEAVES = ("engine.score_all", "evaluate.build_curves", "evaluate.dump",
             "evaluate.write_curve_csv", "evaluate.summary_record", "evaluate.write_summary")
WRITE_SPANS = OP_LEAVES[2:]


def run_child(job, workdir, name):
    """Run one repetition in a fresh interpreter; returns its result dict."""
    job_path = os.path.join(workdir, f"{name}.job.json")
    result_path = os.path.join(workdir, f"{name}.result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.run(
        [sys.executable, CHILD, job_path, result_path],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def base_job(workload, graphs, trace=False):
    return {
        "src": SRC,
        "graphs": graphs,
        "scores": list(workload.scores),
        "workers": 1 if workload.single_worker else (os.cpu_count() or 1),
        "fraction": wl.SPLIT_FRACTION,
        "trace": trace,
    }


def import_package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hierlp

    if not os.path.abspath(hierlp.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported hierlp from {hierlp.__file__}, not {SRC}")
    return hierlp


def oracle_digests(workload, graphs):
    """SHA-256 of the oracle histogram dump for every (graph, score)."""
    hierlp = import_package()
    from hierlp.scores import ScoreSpec

    digests = []
    for path, split_seed in graphs:
        graph, _ = hierlp.load_edge_list(path)
        split = hierlp.split_edges(graph, fraction=wl.SPLIT_FRACTION, seed=split_seed)
        row = {}
        for token in workload.scores:
            spec = ScoreSpec.parse(token, log_base=math.e)
            result = hierlp.oracle_score_all(split.train_graph, spec, split.test_edges)
            buf = io.StringIO()
            result.histogram.dump(buf)
            row[token] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        digests.append(row)
    return digests


def stored_digests(workload, seed):
    with open(REFERENCE) as fh:
        table = json.load(fh)
    return [table[workload.name][str(seed % wl.LARGE_INSTANCES)]]


def parity_check(workload, seed, workdir):
    """``hierlp run`` and the benchmark pipeline must write identical files."""
    directory = os.path.join(workdir, "parity")
    graph = wl.make_parity_input(workload, seed, directory)
    job = base_job(workload, [[graph, seed % 1000]])
    job["out"] = os.path.join(directory, "bench")
    run_child(job, workdir, "parity")
    cli_out = os.path.join(directory, "cli")
    cmd = [sys.executable, "-m", "hierlp.cli", "run", "--graph", graph,
           "--seed", str(seed % 1000), "--split-fraction", str(wl.SPLIT_FRACTION),
           "--threads", str(job["workers"]), "--out", cli_out]
    for token in workload.scores:
        cmd += ["--score", token]
    env = {k: v for k, v in os.environ.items() if not k.startswith("HIERLP")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return [f"hierlp run exited {proc.returncode}: {proc.stderr[-2000:]}"]
    names = ["split.txt"] + [
        f"{token}_{suffix}" for token in workload.scores
        for suffix in ("histogram.txt", "pr.csv", "roc.csv")
    ]
    return [f"parity: {name} differs from hierlp run" for name in names
            if _read(cli_out, name) != _read(job["out"], name)]


def _read(directory, name):
    """File bytes, or None when the file was not written."""
    try:
        with open(os.path.join(directory, name), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def check_ops(result, expected):
    """Failed-op messages: raised, or histogram digest != reference."""
    failures = []
    for op in result["ops"]:
        if not op["ok"]:
            failures.append(f"graph {op['graph']} {op['kind']} raised:\n{op['error']}")
        elif op["digest"] != expected[op["graph"]][op["kind"]]:
            failures.append(f"graph {op['graph']} {op['kind']}: histogram differs from reference")
    return failures


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(reps):
    per_rep = []
    for r in reps:
        done = [op for op in r["ops"] if op["ok"]]
        ms = [op["ms"] for op in done]
        per_rep.append({
            "run_s": r["run_s"],
            "setup_s": r["setup_s"],
            "pairs_per_s": sum(op["universe"] for op in done) / r["op_s"],
            "peak_rss_mb": r["peak_rss_mb"],
            "op_ms.p50": percentile(ms, 50),
            "op_ms.p99": percentile(ms, 99),
        })
    metrics = {k: statistics.median(row[k] for row in per_rep) for k in per_rep[0]}
    return metrics, per_rep


def layer_values(rep, workers, oracle_s):
    """Per-layer metrics of one traced repetition, plus a per-kind breakdown."""
    done = [op for op in rep["ops"] if op["ok"]]
    done_kinds = {op["kind"] for op in done}
    total = {}
    by_kind = {}
    for name, tag, start, end, _parent, cpu in rep["spans"]:
        total[name] = total.get(name, 0.0) + (end - start)
        if tag in done_kinds and name.startswith(("engine", "evaluate")):
            kind = by_kind.setdefault(tag, {})
            key = "evaluate.write_s" if name in WRITE_SPANS else name
            kind[key] = kind.get(key, 0.0) + (end - start)
            if name == "engine.score_all":
                kind["engine.cpu_s"] = kind.get("engine.cpu_s", 0.0) + cpu
    for kind in by_kind.values():
        kind["engine.score_s"] = kind.pop("engine.score_all")
        kind["evaluate.curves_s"] = kind.pop("evaluate.build_curves")
    counters = ("two_hop_paths", "nonzero", "buckets", "thresholds", "write_bytes", "digest_s")
    for op in done:
        kind = by_kind[op["kind"]]
        ms = kind.setdefault("score_ms", [])
        ms.append(op["score_ms"])
        for c in counters:
            kind[c] = kind.get(c, 0) + op[c]
    for token, kind in by_kind.items():
        kind["engine.score_ms.p50"] = statistics.median(kind.pop("score_ms"))
        kind["engine.two_hop_paths"] = kind.pop("two_hop_paths")
        kind["engine.paths_per_s"] = kind["engine.two_hop_paths"] / kind["engine.score_s"]
        kind["engine.nonzero_candidates"] = kind.pop("nonzero")
        kind["engine.buckets"] = kind.pop("buckets")
        kind["evaluate.thresholds"] = kind.pop("thresholds")
        kind["evaluate.write_bytes"] = kind.pop("write_bytes")
        kind["engine.parallel_eff"] = kind["engine.cpu_s"] / (kind["engine.score_s"] * workers)

    def kind_sum(key):
        return sum(kind[key] for kind in by_kind.values())

    graphs = rep["graphs"]
    score_s = kind_sum("engine.score_s")
    check_s = oracle_s + kind_sum("digest_s")
    metrics = {
        "setup.import_s": total["setup.import"],
        "graph.load_s": total["graph.load_edge_list"],
        "graph.edges_per_s": sum(g["edges"] for g in graphs) / total["graph.load_edge_list"],
        "evaluate.split_s": total["evaluate.split_edges"],
        "evaluate.save_split_s": total["evaluate.save_split"],
        "evaluate.test_edges": sum(g["test_edges"] for g in graphs),
        "engine.universe_pairs": sum(g["universe"] for g in graphs),
        "engine.score_s": score_s,
        "engine.cpu_s": kind_sum("engine.cpu_s"),
        "engine.parallel_eff": kind_sum("engine.cpu_s") / (score_s * workers),
        "engine.score_ms.p50": statistics.median(op["score_ms"] for op in done),
        "engine.two_hop_paths": kind_sum("engine.two_hop_paths"),
        "engine.paths_per_s": kind_sum("engine.two_hop_paths") / score_s,
        "engine.nonzero_candidates": kind_sum("engine.nonzero_candidates"),
        "engine.buckets": kind_sum("engine.buckets"),
        "evaluate.curves_s": kind_sum("evaluate.curves_s"),
        "evaluate.thresholds": kind_sum("evaluate.thresholds"),
        "evaluate.write_s": kind_sum("evaluate.write_s"),
        "evaluate.write_bytes": kind_sum("evaluate.write_bytes"),
        "oracle.check_s": check_s,
        "engine.check_share": score_s / (score_s + check_s),
    }
    leaves = sum(total.get(name, 0.0) for name in SETUP_LEAVES + OP_LEAVES)
    for kind in by_kind.values():
        kind.pop("digest_s")
    return metrics, by_kind, leaves


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(workload, seed, graphs_info):
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "graphs": len(graphs_info),
        "vertices": sum(g["vertices"] for g in graphs_info),
        "edges": sum(g["edges"] for g in graphs_info),
        "test_edges": sum(g["test_edges"] for g in graphs_info),
        "scores": list(workload.scores),
    }


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the result record."""
    workdir = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    graphs = wl.make_inputs(workload, seed, os.path.join(workdir, "inputs"))
    started = time.perf_counter()
    if workload.graphs == 1:
        expected, pending = stored_digests(workload, seed), []
    else:
        expected, pending = [], list(graphs)
    oracle_s = time.perf_counter() - started
    problems = parity_check(workload, seed, workdir)

    reps, traced = [], []
    oracle_slice = math.ceil(len(pending) / MIN_REPS)
    measure_started = time.perf_counter()
    while (len(traced) < 1 if trace else len(reps) < MIN_REPS) or \
            time.perf_counter() - measure_started < seconds:
        modes = (False, True) if trace else (False,)
        for traced_mode in modes:
            job = base_job(workload, graphs, traced_mode)
            job["single_worker_baseline"] = (traced_mode and not traced
                                             and job["workers"] > 1)
            rep = run_child(job, workdir, f"rep{len(reps) + len(traced)}")
            (traced if traced_mode else reps).append(rep)
        # a share of the oracle between repetitions spreads them over a
        # longer stretch of time, which evens out the machine's drift
        started = time.perf_counter()
        expected += oracle_digests(workload, pending[:oracle_slice])
        del pending[:oracle_slice]
        oracle_s += time.perf_counter() - started
    started = time.perf_counter()
    expected += oracle_digests(workload, pending)
    oracle_s += time.perf_counter() - started

    attempted = failed = 0
    for rep in reps + traced:
        failures = check_ops(rep, expected)
        attempted += len(rep["ops"])
        failed += len(failures)
        problems += failures

    e2e, per_rep = end_to_end(reps)
    record = {
        "environment": environment(workload, seed, reps[0]["graphs"]),
        "repetitions": per_rep,
        "problems": problems,
        "end_to_end": e2e,
    }
    if workload.graphs == 1:
        record["environment"]["instance"] = seed % wl.LARGE_INSTANCES
    if trace:
        workers = base_job(workload, graphs)["workers"]
        rows = [layer_values(rep, workers, oracle_s) for rep in traced]
        layers = {k: statistics.median(row[0][k] for row in rows) for k in rows[0][0]}
        single = traced[0].get("single_worker_s")  # absent with one worker
        per_kind = {
            token: {k: statistics.median(row[1][token][k] for row in rows if token in row[1])
                    for k in kind}
            for token, kind in rows[0][1].items()
        }
        for token, kind in per_kind.items():
            kind["engine.speedup"] = single[token] / kind["engine.score_s"] if single else 1.0
        layers["engine.speedup"] = (
            sum(single.values()) / sum(rows[0][1][t]["engine.score_s"] for t in single)
            if single else 1.0
        )
        traced_run_s = statistics.median(rep["run_s"] for rep in traced)
        leaves = statistics.median(row[2] for row in rows)
        record["trace"] = {
            "traced_run_s": traced_run_s,
            "untraced_run_s": e2e["run_s"],
            "tracing_overhead_s": traced_run_s - e2e["run_s"],
            "layer_sum_s": leaves,
            "unaccounted_s": traced_run_s - leaves,
        }
        record["per_layer"] = layers
        record["per_kind"] = per_kind
    shutil.rmtree(workdir)
    record["correct"] = not problems
    record["attempted"] = attempted
    record["failed"] = failed
    return record


def report(record, trace, e2e_units, layer_units):
    """Print human-readable lines; returns the contract JSON object."""
    env = record["environment"]
    print(f"workload {env['workload']} seed {env['seed']}: {len(record['repetitions'])} "
          f"untraced repetitions, {record['attempted']} ops, {record['failed']} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in record["problems"][:20]:
        print("PROBLEM " + line)
    source, units = (record["per_layer"], layer_units) if trace else (record["end_to_end"], e2e_units)
    if set(source) != set(units):
        raise RuntimeError(f"measured {sorted(source)} but BENCHMARK.json declares {sorted(units)}")
    for name in units:
        print(f"  {name:<28} {source[name]:>16.6g} {units[name]}")
    if trace:
        for token, kind in record["per_kind"].items():
            for name in sorted(kind):
                print(f"  {name + '.' + token:<40} {kind[name]:>16.6g}")
        print("trace " + json.dumps(record["trace"], sort_keys=True))
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hierlp", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    outputs = {}
    for name in names:
        record = run_workload(wl.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        outputs[name] = report(record, bool(args.trace), e2e_units, layer_units)
        path = os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    if args.workload == "all":
        with open(os.path.join(OUT, f"BENCH_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
            json.dump(outputs, fh, indent=1, sort_keys=True)
    for name, output in outputs.items():
        print((f"{name} " if args.workload == "all" else "") + json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
