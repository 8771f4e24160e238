"""Batch front end: load -> split -> score -> evaluate -> report.

Every run is a pure function of (graph file, configuration): rerunning
with the same seed produces byte-identical curve CSVs. A run removes the
manifest of ``--out`` before it writes anything and writes a new one
last, so a directory without a manifest is incomplete. Flags can also
be set through environment variables prefixed HIERLP_RUN_ /
HIERLP_COMPARE_ (click's auto envvar mapping).
"""

import hashlib
import math
import os
import sys
import time
from pathlib import Path

import click

from .engine import DEFAULT_CHUNK_SIZE, MemoryGuardError, chunk_size_for, score_all
from .evaluate import (
    build_curves,
    load_split,
    load_summary,
    save_split,
    split_edges,
    summary_record,
    write_curve_csv,
    write_summary,
)
from .graph import load_edge_list
from .scores import ScoreSpec

CONTEXT_SETTINGS = {"auto_envvar_prefix": "HIERLP"}

#: written last into ``--out`` by a run that completed
MANIFEST = "manifest.json"
#: bytes of an artifact read at a time to hash it for the manifest
_HASH_BLOCK = 1 << 20


def _sha256(path):
    """Hex SHA-256 of a file, read ``_HASH_BLOCK`` bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


@click.group(context_settings=CONTEXT_SETTINGS)
def main():
    """Link prediction on directed graphs with exact PR/ROC evaluation."""


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", default="auto", type=click.Choice(["auto", "integer", "token"]))
@click.option("--score", "score_tokens", multiple=True, required=True,
              help="Score token, repeatable: cn aa ra jaccard ded ind inf inf_log inf_log_kd")
@click.option("--k", default=2.0, show_default=True, help="DED multiplier of a bare inf_log_kd token; a token's k wins.")
@click.option("--log-base", default=0.0, help="Logarithm base; 0 means natural log.")
@click.option("--split-fraction", default=0.10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--split-file", type=click.Path(dir_okay=False), default=None,
              help="Reuse a persisted split so every score sees the same test set.")
@click.option("--threads", default=None, type=click.IntRange(min=1),
              help="Worker count; default: all cores.")
@click.option("--chunk-size", default=None, type=click.IntRange(min=1),
              help=f"Source vertices per work unit. Default: about one chunk per "
                   f"{DEFAULT_CHUNK_SIZE} vertices, cut so that each lists about as many "
                   f"2-hop paths (a hub vertex may be a chunk of its own); one chunk on "
                   f"graphs small enough for the dense backend.")
@click.option("--max-buckets", default=None, type=click.IntRange(min=0),
              help="Hard cap on distinct score values; exceeding it aborts the run. "
                   "It is checked on the run's one histogram after every merge and on "
                   "the result, so a run holds at most the cap and one chunk's part, "
                   "plus the parts of at most 2 x threads chunks not yet merged; "
                   "whether it aborts does not depend on --threads or --chunk-size.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def run(graph_path, fmt, score_tokens, k, log_base, split_fraction, seed,
        split_file, threads, chunk_size, max_buckets, out_dir):
    """Run the full experiment and write split, histograms, curves, summaries."""
    base = math.e if not log_base else float(log_base)
    out = Path(out_dir)
    try:
        specs = [ScoreSpec.parse(token, log_base=base, k=k) for token in score_tokens]
        # artifacts are named by score kind alone, so two runs of one
        # kind would overwrite each other's files
        stems = [spec.kind.value for spec in specs]
        if len(set(stems)) < len(stems):
            raise click.ClickException(
                f"--score values of one kind would overwrite each other's artifacts "
                f"({', '.join(f'{stem}_*' for stem in stems)}); use separate --out directories"
            )
        out.mkdir(parents=True, exist_ok=True)
        (out / MANIFEST).unlink(missing_ok=True)
        written = []  # every artifact of the run, for the manifest
        graph, report = load_edge_list(graph_path, format=fmt)
        click.echo(
            f"loaded {graph.vertex_count} vertices, {graph.edge_count} edges "
            f"(raw {report.raw_edges}, dropped {report.duplicate_edges_dropped} duplicates, "
            f"{report.self_loops_dropped} self-loops)",
            err=True,
        )
        if chunk_size is not None:
            chunk_size_for(graph.vertex_count, chunk_size)  # before the split is written
        if split_file and Path(split_file).exists():
            split = load_split(graph, split_file)
            click.echo(f"reusing split from {split_file}", err=True)
        else:
            split = split_edges(graph, fraction=split_fraction, seed=seed)
            target = Path(split_file) if split_file else out / "split.txt"
            save_split(split, target)
            written.append(target)
            click.echo(f"wrote split to {target}", err=True)
        click.echo(
            f"split: {len(split.test_edges)} test edges, "
            f"{len(split.dropped_test_edges)} dropped (disconnected endpoint)",
            err=True,
        )
        workers = threads if threads is not None else (os.cpu_count() or 1)
        for spec in specs:
            started = time.perf_counter()
            hist = score_all(
                split.train_graph,
                spec,
                split.test_edges,
                workers=workers,
                chunk_size=chunk_size,
                max_buckets=max_buckets,
            )
            wall = time.perf_counter() - started
            rep = build_curves(hist, spec=spec, metadata={"seed": split.seed})
            histogram, pr, roc, summary = (
                out / f"{spec.kind.value}_{name}"
                for name in ("histogram.txt", "pr.csv", "roc.csv", "summary.json")
            )
            hist.dump(histogram)
            write_curve_csv(rep.pr_points, "recall,precision", pr)
            write_curve_csv(rep.roc_points, "fpr,tpr", roc)
            record = summary_record(
                rep, seed=split.seed, fraction=split.fraction, wall_time=wall,
                threads=workers, chunk_size=chunk_size, graph_name=str(graph_path),
            )
            write_summary(record, summary)
            written += [histogram, pr, roc, summary]
            click.echo(
                f"{spec.token()}: AUPR={rep.aupr:.5f} AUROC={rep.auroc:.5f} "
                f"P={rep.positives_total} Neg={rep.negatives_total} wall={wall:.2f}s"
            )
        digests = {os.path.relpath(path, out): _sha256(path) for path in written}
        write_summary({"artifacts": digests}, out / MANIFEST)
    except (ValueError, OSError, MemoryGuardError) as exc:
        raise click.ClickException(str(exc)) from exc


def compare_reports(records, names=None):
    """Ranking table with pairwise AUPR improvement percentages.

    All records must come from the same split; comparisons across
    splits are invalid and refused. Improvements are keyed by
    ``score_label`` pairs, so one score run with two log bases is
    two entries, and two records of one label are refused: their entries
    would collapse into one. ``names`` name the records in that error
    (default: "report 1", "report 2", ...).
    """
    if len(records) < 2:
        raise ValueError("need at least 2 reports to compare")
    split_meta = {(r["seed"], r["fraction"], r["positives"], r["negatives"]) for r in records}
    if len(split_meta) != 1:
        raise ValueError("reports come from different splits; comparison refused")
    first = {}  # the name of the first record of each label
    for name, record in zip(names or [f"report {i}" for i in range(1, len(records) + 1)], records):
        label = score_label(record)
        if label in first:
            raise ValueError(f"{first[label]} and {name} both summarise {label!r}; compare distinct scores")
        first[label] = name
    ranked = sorted(records, key=lambda r: r["aupr"], reverse=True)
    labelled = [(score_label(r), r["aupr"]) for r in ranked]
    improvements = {}
    for a, aupr_a in labelled:
        for b, aupr_b in labelled:
            if a != b:
                improvements[(a, b)] = improvement_percent(aupr_a, aupr_b)
    return {"ranking": ranked, "improvements": improvements}


def score_label(record):
    """The record's score token, plus its log base when that is not e."""
    base = record.get("log_base")
    if base is None or base == math.e:
        return record["score"]
    return f"{record['score']} (log base {float(base)!r})"


def improvement_percent(aupr_a, aupr_b):
    """Relative AUPR improvement of a over b, in percent.

    Against b = 0 the improvement is infinite, or 0 when a is 0 too.
    """
    if aupr_b == 0.0:
        return 0.0 if aupr_a == 0.0 else math.inf
    return (aupr_a / aupr_b - 1.0) * 100.0


@main.command()
@click.argument("summaries", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
def compare(summaries):
    """Compare summary JSONs produced by `run` on one shared split, one
    per score."""
    records = []
    for path in summaries:
        try:
            records.append(load_summary(path))
        except ValueError as exc:  # not text, not JSON, or not a summary
            raise click.ClickException(f"{path} is not a run summary: {exc}") from exc
    try:
        result = compare_reports(records, summaries)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"{'score':<20} {'AUPR':>10} {'AUROC':>10}")
    for record in result["ranking"]:
        click.echo(f"{score_label(record):<20} {record['aupr']:>10.5f} {record['auroc']:>10.5f}")
    click.echo("")
    best = score_label(result["ranking"][0])
    for other in map(score_label, result["ranking"][1:]):
        click.echo(f"{best} over {other}: {result['improvements'][(best, other)]:+.2f}%")


if __name__ == "__main__":
    main()
