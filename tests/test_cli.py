import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from hierlp.cli import compare_reports, improvement_percent, main
from hierlp.evaluate import load_summary
from hierlp import (
    ScoreKind,
    ScoreSpec,
    ThresholdHistogram,
    load_edge_list,
    load_split,
    score_all,
    split_edges,
    write_edge_list,
)

from conftest import hub_first, preferential_attachment_digraph


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    rng = np.random.default_rng(71)
    g = preferential_attachment_digraph(rng, 400, out_per_vertex=3)
    path = tmp_path_factory.mktemp("data") / "graph.txt"
    write_edge_list(g, path)
    return path


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestRun:
    def test_full_run_writes_artifacts(self, graph_file, tmp_path):
        out = tmp_path / "out"
        result = run_cli([
            "run", "--graph", str(graph_file), "--score", "inf_log_kd",
            "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0
        assert (out / "split.txt").exists()
        assert (out / "inf_log_kd_histogram.txt").exists()
        assert (out / "inf_log_kd_pr.csv").exists()
        assert (out / "inf_log_kd_roc.csv").exists()
        summary = json.loads((out / "inf_log_kd_summary.json").read_text())
        assert summary["score"] == "inf_log_kd(k=2)"
        assert summary["seed"] == 5
        assert summary["wall_time_seconds"] >= 0
        assert summary["threads"] >= 1
        assert summary["chunk_size"] is None  # the engine's default chunks

    def test_default_chunks_write_the_bytes_of_fixed_ones(self, tmp_path):
        """On a hub-first graph of more than 1000 vertices, the default
        cuts scipy's chunks by their paths; the histograms are those of
        1000-row chunks, and each summary records its chunk size, null
        for the default."""
        graph = tmp_path / "hub_first.txt"
        write_edge_list(hub_first(preferential_attachment_digraph(np.random.default_rng(9), 1500, 3)), graph)
        runs = {}
        for name, extra in (("default", []), ("fixed", ["--chunk-size", "1000"])):
            out = tmp_path / name
            result = run_cli([
                "run", "--graph", str(graph), "--score", "aa", "--score", "inf_log_kd",
                "--seed", "4", "--threads", "2", "--out", str(out), *extra,
            ])
            assert result.exit_code == 0, result.output
            runs[name] = out
        for kind in ("aa", "inf_log_kd"):
            histogram = f"{kind}_histogram.txt"
            assert (runs["default"] / histogram).read_bytes() == (runs["fixed"] / histogram).read_bytes()
            chunk_sizes = [json.loads((runs[name] / f"{kind}_summary.json").read_text())["chunk_size"]
                           for name in ("default", "fixed")]
            assert chunk_sizes == [None, 1000]

    def test_same_seed_byte_identical_csvs(self, graph_file, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_cli([
                "run", "--graph", str(graph_file), "--score", "cn",
                "--score", "inf_log_kd", "--seed", "11", "--out", str(out),
            ])
            assert result.exit_code == 0
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.suffix in (".csv", ".txt")
            })
        assert outputs[0] == outputs[1]

    def test_split_file_reuse_gives_same_split(self, graph_file, tmp_path):
        out_a = tmp_path / "a"
        run_cli(["run", "--graph", str(graph_file), "--score", "cn",
                 "--seed", "3", "--out", str(out_a)])
        out_b = tmp_path / "b"
        result = run_cli([
            "run", "--graph", str(graph_file), "--score", "aa",
            "--split-file", str(out_a / "split.txt"), "--out", str(out_b),
        ])
        assert result.exit_code == 0
        summary_a = json.loads((out_a / "cn_summary.json").read_text())
        summary_b = json.loads((out_b / "aa_summary.json").read_text())
        assert summary_a["positives"] == summary_b["positives"]
        assert summary_a["seed"] == summary_b["seed"]

    def test_artifacts_load_back(self, graph_file, tmp_path):
        out = tmp_path / "out"
        kinds = [kind.value for kind in ScoreKind]
        result = run_cli([
            "run", "--graph", str(graph_file), *(a for kind in kinds for a in ("--score", kind)),
            "--log-base", "2", "--seed", "6", "--out", str(out),
        ])
        assert result.exit_code == 0
        graph, _ = load_edge_list(graph_file)
        split = split_edges(graph, 0.10, seed=6)
        reloaded = load_split(graph, out / "split.txt")
        assert (reloaded.seed, reloaded.fraction) == (6, 0.10)
        assert reloaded.train_graph == split.train_graph
        assert np.array_equal(reloaded.test_edges, split.test_edges)
        assert np.array_equal(reloaded.dropped_test_edges, split.dropped_test_edges)
        assert sorted(p.name for p in out.glob("*_histogram.txt")) == sorted(
            f"{kind}_histogram.txt" for kind in kinds
        )
        for kind in kinds:
            spec = ScoreSpec.parse(kind, log_base=2.0)
            expected = score_all(split.train_graph, spec, split.test_edges, workers=1)
            assert ThresholdHistogram.load(out / f"{kind}_histogram.txt") == expected, kind

    def test_missing_graph_fails_nonzero(self, tmp_path):
        result = CliRunner().invoke(main, [
            "run", "--graph", str(tmp_path / "missing.txt"),
            "--score", "cn", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code != 0

    def test_scores_sharing_artifact_names_refused(self, graph_file, tmp_path):
        out = tmp_path / "clash"
        result = CliRunner().invoke(main, [
            "run", "--graph", str(graph_file), "--score", "inf_log_kd(k=1)",
            "--score", "inf_log_kd(k=3)", "--out", str(out),
        ])
        assert result.exit_code != 0
        assert "inf_log_kd_*" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--score", "cn", "--score", "inf_log_kd(k=inf)"],
        ["--score", "inf_log_kd", "--k", "inf"],
        ["--score", "cn", "--log-base", "inf"],
    ])
    def test_infinite_parameter_writes_nothing(self, graph_file, tmp_path, args):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "--graph", str(graph_file), *args, "--out", str(out)])
        assert result.exit_code == 1
        assert "finite" in result.output
        assert not out.exists()

    def test_bucket_cap_is_a_clean_error(self, graph_file, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--graph", str(graph_file), "--score", "aa",
            "--max-buckets", "1", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: distinct score values exceeded max_buckets=1" in result.output
        # the split is written, and nothing marks the directory complete
        assert (out / "split.txt").exists()
        assert not (out / "manifest.json").exists()

    def test_manifest_lists_every_artifact_with_its_digest(self, graph_file, tmp_path):
        out = tmp_path / "out"
        result = run_cli([
            "run", "--graph", str(graph_file), "--score", "cn",
            "--score", "inf_log_kd", "--seed", "4", "--out", str(out),
        ])
        assert result.exit_code == 0
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert sorted(artifacts) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert len(artifacts) == 9
        for name, digest in artifacts.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_failed_rerun_removes_the_manifest(self, graph_file, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--graph", str(graph_file), "--score", "aa", "--out", str(out)]
        assert run_cli(args).exit_code == 0
        assert (out / "manifest.json").exists()
        result = CliRunner().invoke(main, [*args, "--max-buckets", "1"])
        assert result.exit_code == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("option, value", [("--threads", "0"), ("--max-buckets", "-1")])
    def test_out_of_range_engine_options_refused(self, graph_file, tmp_path, option, value):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--graph", str(graph_file), "--score", "cn",
            option, value, "--out", str(out),
        ])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()

    def test_chunk_size_zero_refused_before_out_exists(self, graph_file, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--graph", str(graph_file), "--score", "cn",
            "--chunk-size", "0", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "Invalid value for '--chunk-size'" in result.output
        assert not out.exists()

    def test_chunk_size_above_vertex_count_refused_before_the_split(self, graph_file, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--graph", str(graph_file), "--score", "cn",
            "--chunk-size", "401", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert "chunk_size must be in [1, 400], got 401" in result.output
        assert not (out / "split.txt").exists()

    def test_k_in_an_uppercase_token_is_kept(self, graph_file, tmp_path):
        """A token's own k wins over --k."""
        out = tmp_path / "out"
        result = run_cli([
            "run", "--graph", str(graph_file), "--score", "INF_LOG_KD(K=3)",
            "--k", "5", "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0
        summary = json.loads((out / "inf_log_kd_summary.json").read_text())
        assert summary["k"] == 3.0
        assert summary["score"] == "inf_log_kd(k=3)"

    @pytest.mark.parametrize("token, k, score, recorded", [
        ("inf_log_kd", "3", "inf_log_kd(k=3)", 3.0),
        ("cn", "5", "cn", 2.0),
    ])
    def test_k_option_sets_a_bare_kd_token_alone(self, graph_file, tmp_path, token, k, score, recorded):
        out = tmp_path / "out"
        result = run_cli([
            "run", "--graph", str(graph_file), "--score", token,
            "--k", k, "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0
        summary = json.loads((out / f"{token}_summary.json").read_text())
        assert (summary["score"], summary["k"]) == (score, recorded)

    def test_four_headline_scores_one_invocation(self, graph_file, tmp_path):
        out = tmp_path / "all"
        result = run_cli([
            "run", "--graph", str(graph_file),
            "--score", "cn", "--score", "aa", "--score", "ra",
            "--score", "inf_log_kd", "--seed", "2", "--out", str(out),
        ])
        assert result.exit_code == 0
        summaries = sorted(out.glob("*_summary.json"))
        assert len(summaries) == 4

    @pytest.mark.parametrize("log_base", ["0", "2"])
    def test_every_kind_writes_a_summary_compare_reads(self, graph_file, tmp_path, log_base):
        """The summary of each of the nine kinds passes the one summary
        reader, ``evaluate.load_summary``, and compare ranks them all."""
        out = tmp_path / "nine"
        kinds = [kind.value for kind in ScoreKind]
        result = run_cli(["run", "--graph", str(graph_file), *(a for k in kinds for a in ("--score", k)),
                          "--log-base", log_base, "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0
        records = [load_summary(out / f"{kind}_summary.json") for kind in kinds]
        assert [ScoreSpec.parse(r["score"]).kind.value for r in records] == kinds
        result = run_cli(["compare", *(str(out / f"{kind}_summary.json") for kind in kinds)])
        assert result.exit_code == 0


class TestCompare:
    def test_improvement_formula(self):
        assert improvement_percent(0.52640, 0.31855) == pytest.approx(65.24, abs=0.01)
        assert improvement_percent(0.45156, 0.05491) == pytest.approx(722.36, abs=0.01)
        assert improvement_percent(0.4, 0.4) == 0.0
        assert improvement_percent(0.4, 0.0) == math.inf
        assert improvement_percent(0.0, 0.0) == 0.0

    def test_mismatched_splits_refused(self):
        a = {"score": "cn", "aupr": 0.1, "auroc": 0.5,
             "seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100}
        b = dict(a, score="aa", seed=2)
        with pytest.raises(ValueError):
            compare_reports([a, b])

    def test_ranking_and_pairwise(self):
        base = {"seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100,
                "auroc": 0.5}
        a = dict(base, score="inf_log_kd(k=2)", aupr=0.5264)
        b = dict(base, score="cn", aupr=0.31855)
        result = compare_reports([b, a])
        assert [r["score"] for r in result["ranking"]] == ["inf_log_kd(k=2)", "cn"]
        pct = result["improvements"][("inf_log_kd(k=2)", "cn")]
        assert pct == pytest.approx(65.23, abs=0.02)

    def test_zero_aupr_record(self):
        base = {"seed": 1, "fraction": 0.1, "positives": 0, "negatives": 100,
                "auroc": 0.5}
        a = dict(base, score="cn", aupr=0.0)
        b = dict(base, score="aa", aupr=0.0)
        c = dict(base, score="ra", aupr=0.25)
        improvements = compare_reports([a, b, c])["improvements"]
        assert improvements[("cn", "aa")] == 0.0
        assert improvements[("ra", "cn")] == math.inf
        assert improvements[("cn", "ra")] == -100.0

    def test_k_apart_in_the_seventh_digit_ranked(self):
        base = {"seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100, "auroc": 0.5}
        records = [
            dict(base, score=ScoreSpec(ScoreKind.INF_LOG_KD, k=k).token(), aupr=aupr)
            for k, aupr in ((1.234567, 0.25), (1.234568, 0.5))
        ]
        result = compare_reports(records)
        assert result["improvements"] == {
            ("inf_log_kd(k=1.234568)", "inf_log_kd(k=1.234567)"): 100.0,
            ("inf_log_kd(k=1.234567)", "inf_log_kd(k=1.234568)"): -50.0,
        }

    def test_log_bases_kept_apart(self):
        base = {"seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100,
                "auroc": 0.5, "score": "aa"}
        natural = dict(base, log_base=math.e, aupr=0.25)
        binary = dict(base, log_base=2.0, aupr=0.5)
        result = compare_reports([natural, binary])
        assert result["improvements"] == {
            ("aa (log base 2.0)", "aa"): 100.0,
            ("aa", "aa (log base 2.0)"): -50.0,
        }

    def test_one_label_twice_refused(self):
        base = {"seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100, "auroc": 0.5}
        records = [dict(base, score="cn", aupr=0.2), dict(base, score="aa", aupr=0.3),
                   dict(base, score="cn", aupr=0.2)]
        with pytest.raises(ValueError, match="^report 1 and report 3 both summarise 'cn'"):
            compare_reports(records)
        # one score with two log bases is two labels
        assert len(compare_reports([dict(records[1], log_base=2.0), records[1]])["improvements"]) == 2

    def test_compare_names_both_summaries_of_one_score(self, graph_file, tmp_path):
        """Two runs on one split each summarise a score: compare refuses
        the pair of summaries of one score, naming both files."""
        first, second = tmp_path / "a", tmp_path / "b"
        run_cli(["run", "--graph", str(graph_file), "--score", "cn", "--score", "ra",
                 "--seed", "4", "--out", str(first)])
        run_cli(["run", "--graph", str(graph_file), "--score", "cn", "--score", "ra",
                 "--split-file", str(first / "split.txt"), "--out", str(second)])
        paths = [first / "cn_summary.json", first / "ra_summary.json", second / "cn_summary.json"]
        result = CliRunner().invoke(main, ["compare", *map(str, paths)])
        assert result.exit_code == 1
        assert f"{paths[0]} and {paths[2]} both summarise 'cn'" in result.output
        result = run_cli(["compare", str(paths[0]), str(second / "ra_summary.json")])
        assert result.exit_code == 0

    def test_compare_command(self, graph_file, tmp_path):
        out = tmp_path / "cmp"
        run_cli(["run", "--graph", str(graph_file), "--score", "cn",
                 "--score", "ra", "--seed", "4", "--out", str(out)])
        result = run_cli([
            "compare", str(out / "cn_summary.json"), str(out / "ra_summary.json"),
        ])
        assert result.exit_code == 0
        assert "cn" in result.output and "ra" in result.output

    def test_compare_names_a_file_that_is_no_summary(self, graph_file, tmp_path):
        out = tmp_path / "cmp"
        run_cli(["run", "--graph", str(graph_file), "--score", "cn",
                 "--score", "ra", "--seed", "4", "--out", str(out)])
        # what `hierlp compare out/*` matches: the split, histograms and CSVs too
        paths = sorted(out.iterdir())
        result = CliRunner().invoke(main, ["compare", *map(str, paths)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{paths[0]} is not a run summary" in result.output

    @pytest.mark.parametrize(
        "field, value, message",
        [("aupr", "0.5", 'aupr is "0.5"'), ("aupr", None, "aupr is null"),
         ("score", ["x"], 'score is ["x"]'), ("seed", True, "seed is true")],
        ids=["string-aupr", "null-aupr", "list-score", "bool-seed"],
    )
    def test_compare_names_a_summary_field_of_another_type(self, tmp_path, field, value, message):
        base = {"score": "cn", "aupr": 0.1, "auroc": 0.5,
                "seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100}
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(dict(base, score="aa")))
        bad.write_text(json.dumps(dict(base, **{field: value})))
        result = CliRunner().invoke(main, ["compare", str(good), str(bad)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{bad} is not a run summary: {message}" in result.output
        assert "Traceback" not in result.output

    def test_compare_names_a_summary_without_seed(self, tmp_path):
        base = {"score": "cn", "aupr": 0.1, "auroc": 0.5,
                "seed": 1, "fraction": 0.1, "positives": 10, "negatives": 100}
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(base))
        bad.write_text(json.dumps({k: v for k, v in base.items() if k != "seed"}))
        result = CliRunner().invoke(main, ["compare", str(good), str(bad)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{bad} is not a run summary: no seed" in result.output
