"""Regenerate reference_digests.json: SHA-256 of every large-workload
histogram dump, for each of the LARGE_INSTANCES graph instances.

Usage (from the repository root): python3 perfbench/make_reference.py

Histograms must stay bit-identical across versions, so this is run once,
on the commit that introduced the benchmark, and the file is committed.
"""

import json
import os
import shutil

import run
import workloads as wl


def main():
    table = {}
    workdir = os.path.join(run.OUT, "reference")
    for workload in wl.WORKLOADS.values():
        if workload.graphs != 1:
            continue
        table[workload.name] = {}
        for instance in range(wl.LARGE_INSTANCES):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            graphs = wl.make_inputs(workload, instance, os.path.join(workdir, "inputs"))
            job = run.base_job(workload, graphs)
            result = run.run_child(job, workdir, "reference")
            digests = {}
            for op in result["ops"]:
                if not op["ok"]:
                    raise RuntimeError(op["error"])
                digests[op["kind"]] = op["digest"]
            table[workload.name][str(instance)] = digests
            print(workload.name, instance, digests, flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
