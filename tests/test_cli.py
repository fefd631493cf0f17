"""End-to-end command tests, run in-process against temp files."""

import argparse
import hashlib
import json
import math

import pytest

from blockcomm import cli
from blockcomm.graph import load_communities, load_edge_list, write_edge_list

from conftest import bridge_graph, disjoint_cliques, partition_f1


def write_graph(path, graph):
    with open(path, "w") as fh:
        write_edge_list(graph, fh)


def write_cliques_fixture(tmp_path, k=3, m=4):
    g = disjoint_cliques(k, m)
    write_graph(tmp_path / "g.edges", g)
    with open(tmp_path / "g.cmty", "w") as fh:
        for c in range(k):
            fh.write(" ".join(str(i) for i in range(m * c, m * c + m)) + "\n")
    return g


def masked_rows(path):
    """Row-file lines with the trailing elapsed_s column dropped."""
    out = []
    with open(path) as fh:
        for line in fh:
            out.append(line.rstrip("\n").split("\t")[:-1])
    return out


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestDetect:
    def test_bridge_community(self, in_tmp, capsys):
        write_graph("g.edges", bridge_graph())
        rc = cli.main(["detect", "--graph", "g.edges", "--seed", "0",
                       "--method", "adcbm", "--rng-seed", "0"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "0 1 2 3"
        assert out[2] == "n=4 w=6 v=13"
        assert out[3] == f"conductance={1 / 13:.10g}"

    def test_sbm_method_reports_the_stalled_singleton(self, in_tmp, capsys):
        # On two disjoint edges the SBM score puts the seed alone above every
        # community that contains it (the prior cost of a two-node community
        # exceeds the edge evidence), so neither the passes nor the
        # first-step fallback leave it, and the command reports the seed
        # alone. See the local-search tests.
        write_graph("g.edges", disjoint_cliques(2, 2))
        rc = cli.main(["detect", "--graph", "g.edges", "--seed", "0",
                       "--method", "asbm", "--rng-seed", "0"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "0"
        assert out[2] == "n=1 w=0 v=1"

    def test_adcbm_singleton_score_is_the_bound(self, in_tmp, capsys):
        # A bare seed's rate shapes are alpha + count > 0, so its score is
        # the bound's value and not a shape-floor penalty (-1e9 when the
        # local fit floored an edgeless bucket).
        with open("g.edges", "w") as fh:
            fh.write("0 1\n1 2\n0 2\n3 4\n")
        rc = cli.main(["detect", "--graph", "g.edges", "--seed", "3",
                       "--method", "adcbm"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "3"
        score = float(out[1].removeprefix("log_score="))
        assert math.isfinite(score) and score > -1e3

    @pytest.mark.parametrize("formal_n", [[], ["--formal-n", "100"]])
    def test_adcbm_seed_without_edges_is_named(self, in_tmp, capsys, formal_n):
        # Node 1 appears only in a dropped self-loop, so its volume is zero
        # and no candidate scores finitely under aDCBM, whatever N is. The
        # error names the seed, not a --formal-n flag (once "--formal-n None
        # is too small for seed 1").
        with open("g.edges", "w") as fh:
            fh.write("0 2\n2 3\n0 3\n1 1\n")
        with pytest.warns(UserWarning):
            rc = cli.main(["detect", "--graph", "g.edges", "--seed", "1",
                           "--method", "adcbm", *formal_n])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: seed 1 has no edges: no candidate has a finite score\n"
        assert captured.out == ""

    def test_json_output(self, in_tmp, capsys):
        write_graph("g.edges", bridge_graph())
        rc = cli.main(["detect", "--graph", "g.edges", "--seed", "0",
                       "--method", "adcbm", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["members"] == [0, 1, 2, 3]
        assert payload["n"] == 4 and payload["w"] == 6 and payload["v"] == 13
        assert payload["conductance"] == pytest.approx(1 / 13)
        assert payload["log_score"] < 0

    def test_byte_identical_reruns(self, in_tmp, capsys):
        write_graph("g.edges", bridge_graph())
        args = ["detect", "--graph", "g.edges", "--seed", "2",
                "--method", "adcbm", "--restarts", "1", "--rng-seed", "7"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_formal_n_flag(self, in_tmp, capsys):
        write_graph("g.edges", bridge_graph())
        rc = cli.main(["detect", "--graph", "g.edges", "--seed", "0",
                       "--method", "adcbm", "--formal-n", "1000"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        members = [int(t) for t in out[0].split()]
        assert 0 in members

    def test_manifest_checksum(self, in_tmp):
        write_graph("g.edges", bridge_graph())
        cli.main(["detect", "--graph", "g.edges", "--seed", "0",
                  "--method", "adcbm", "--manifest", "m.json"])
        manifest = json.loads(open("m.json").read())
        want = hashlib.sha256(open("g.edges", "rb").read()).hexdigest()
        assert manifest["graph_checksum"] == want
        assert manifest["command"] == "detect"
        assert manifest["flags"]["method"] == "adcbm"
        assert manifest["rng_seed"] == 0
        assert manifest["wall_time_s"] >= 0.0

    def test_unknown_seed_exits_2(self, in_tmp, capsys):
        write_graph("g.edges", bridge_graph())
        rc = cli.main(["detect", "--graph", "g.edges", "--seed", "99",
                       "--method", "adcbm"])
        assert rc == 2
        assert "99" in capsys.readouterr().err

    def test_missing_file_exits_1(self, in_tmp, capsys):
        rc = cli.main(["detect", "--graph", "nope.edges", "--seed", "0",
                       "--method", "adcbm"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_graph_exits_1(self, in_tmp, capsys):
        with open("bad.edges", "w") as fh:
            fh.write("0 1\nthree four\n")
        rc = cli.main(["detect", "--graph", "bad.edges", "--seed", "0",
                       "--method", "adcbm"])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err


class TestGlobal:
    def test_two_cliques_two_line_partition(self, in_tmp, capsys):
        write_graph("g.edges", disjoint_cliques(2, 4))
        rc = cli.main(["global", "--graph", "g.edges", "--method", "gsbm",
                       "--out", "part.txt", "--rng-seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = open("part.txt").read().splitlines()
        assert len(lines) == 2
        assert sorted(sorted(int(t) for t in ln.split()) for ln in lines) == [
            [0, 1, 2, 3], [4, 5, 6, 7]]
        assert out.startswith("objective=")
        assert "communities=2" in out

    def test_empty_edge_file_exits_1(self, in_tmp, capsys):
        # An edgeless graph cannot be expressed in the edge-list format, so
        # the loader's empty-input error surfaces as an I/O failure.
        open("empty.edges", "w").close()
        rc = cli.main(["global", "--graph", "empty.edges", "--method", "gsbm",
                       "--out", "part.txt"])
        assert rc == 1
        assert "empty" in capsys.readouterr().err

    def test_planted_recovery_end_to_end(self, in_tmp, capsys):
        rc = cli.main(["generate", "--model", "sbm", "--communities", "5",
                       "--size", "20", "--lambda-in", "0.4",
                       "--lambda-out", "0.01", "--out", "planted",
                       "--rng-seed", "11"])
        assert rc == 0
        capsys.readouterr()
        rc = cli.main(["global", "--graph", "planted.edges", "--method", "gsbm",
                       "--out", "found.txt", "--rng-seed", "1"])
        assert rc == 0
        with open("planted.edges") as fh:
            g = load_edge_list(fh)
        with open("planted.cmty") as fh:
            truth = load_communities(fh, g)
        with open("found.txt") as fh:
            found = load_communities(fh, g, min_size=1)
        assert partition_f1(truth, found) >= 0.95


class TestGenerate:
    def test_degenerate_probabilities_roundtrip(self, in_tmp, capsys):
        rc = cli.main(["generate", "--model", "sbm", "--communities", "3",
                       "--size", "4", "--lambda-in", "1.0",
                       "--lambda-out", "0.0", "--out", "cl", "--rng-seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nodes=12 edges=18" in out
        with open("cl.edges") as fh:
            g = load_edge_list(fh)
        assert g.node_count == 12 and g.edge_count == 18
        with open("cl.cmty") as fh:
            truth = load_communities(fh, g)
        assert sorted(sorted(g.external_ids[i] for i in t) for t in truth) == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

    def test_invalid_spec_exits_2(self, in_tmp, capsys):
        rc = cli.main(["generate", "--model", "sbm", "--communities", "2",
                       "--size", "5", "--lambda-in", "1.5",
                       "--lambda-out", "0.0", "--out", "x"])
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    def test_rate_overflow_exits_2(self, in_tmp, capsys):
        rc = cli.main(["generate", "--model", "dcbm", "--communities", "2",
                       "--size", "5", "--lambda-in", "1.0",
                       "--lambda-out", "0.1", "--alpha", "3", "--theta", "1e4",
                       "--out", "x"])
        assert rc == 2
        assert "smaller" in capsys.readouterr().err

    def test_deterministic_files(self, in_tmp, capsys):
        args = ["generate", "--model", "dcbm", "--communities", "3",
                "--size", "8", "--lambda-in", "0.3", "--lambda-out", "0.01",
                "--alpha", "3", "--theta", "1", "--rng-seed", "42"]
        assert cli.main(args + ["--out", "a"]) == 0
        assert cli.main(args + ["--out", "b"]) == 0
        assert open("a.edges").read() == open("b.edges").read()
        assert open("a.cmty").read() == open("b.cmty").read()


class TestEval:
    GOLDEN_HEADER = ["method", "seed", "truth_size", "found_size",
                     "precision", "recall", "f1", "conductance"]
    GOLDEN_ROWS = [
        ["adcbm", "9", "4", "4", "1.000000", "1.000000", "1.000000", "0.000000"],
        ["adcbm", "0", "4", "4", "1.000000", "1.000000", "1.000000", "0.000000"],
        ["adcbm", "6", "4", "4", "1.000000", "1.000000", "1.000000", "0.000000"],
    ]

    def test_golden_rows(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "3", "--restarts", "2",
                       "--rng-seed", "0", "--out", "rows.tsv"])
        assert rc == 0
        rows = masked_rows("rows.tsv")
        assert rows[0] == self.GOLDEN_HEADER
        assert rows[1:] == self.GOLDEN_ROWS
        summary = capsys.readouterr().out.splitlines()
        fields = dict(zip(summary[0].split("\t"), summary[1].split("\t")))
        assert fields["mean_f1"] == "1.000000"
        assert fields["failed"] == "0"

    def test_byte_identical_modulo_timing(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        args = ["eval", "--graph", "g.edges", "--communities", "g.cmty",
                "--method", "adcbm", "--samples", "5", "--rng-seed", "3"]
        assert cli.main(args + ["--out", "a.tsv"]) == 0
        out_a = capsys.readouterr().out
        assert cli.main(args + ["--out", "b.tsv"]) == 0
        out_b = capsys.readouterr().out
        assert masked_rows("a.tsv") == masked_rows("b.tsv")
        # summary line: every column except mean_elapsed must match
        assert out_a.split("\t")[:-1] == out_b.split("\t")[:-1]

    def test_external_results_scored(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        # sampled community order under rng-seed 0 is C, A, B (seeds 9, 0, 6)
        with open("ext.txt", "w") as fh:
            fh.write("8 9 10 11\n0 1 2 3\n4 5 6 7\n")
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "3", "--rng-seed", "0",
                       "--external-results", "ext.txt", "--out", "rows.tsv"])
        assert rc == 0
        summary = capsys.readouterr().out.splitlines()
        fields = dict(zip(summary[0].split("\t"), summary[1].split("\t")))
        assert fields["method"] == "external"
        assert fields["mean_f1"] == "1.000000"
        rows = masked_rows("rows.tsv")
        assert [r[1] for r in rows[1:]] == ["9", "0", "6"]
        assert all(r[3] == "4" for r in rows[1:])

    def test_external_results_unknown_id_exits_2(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        with open("ext.txt", "w") as fh:
            fh.write("0 1 2 77\n")
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "1", "--rng-seed", "0",
                       "--external-results", "ext.txt", "--out", "rows.tsv"])
        assert rc == 2
        assert "77" in capsys.readouterr().err

    def test_external_results_bad_token_is_located(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        with open("ext.txt", "w") as fh:
            fh.write("0 1 2 3\n\n4 x 6\n")
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "1", "--rng-seed", "0",
                       "--external-results", "ext.txt", "--out", "rows.tsv"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ext.txt: line 3: non-integer node id 'x'\n")

    def test_pool_exhaustion_noted_in_manifest(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "8", "--rng-seed", "0",
                       "--out", "rows.tsv", "--manifest", "m.json"])
        assert rc == 0
        manifest = json.loads(open("m.json").read())
        assert "exhausted" in manifest["notes"]
        assert list(manifest["columns"]) == self.GOLDEN_HEADER + ["elapsed_s"]
        assert len(masked_rows("rows.tsv")) == 9

    def test_no_usable_communities_exits_2(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "1",
                       "--min-size", "10", "--out", "rows.tsv"])
        assert rc == 2


class TestNsweep:
    def test_single_value_matches_eval_with_formal_n(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "4", "--restarts", "3",
                       "--rng-seed", "5", "--formal-n", "1000",
                       "--out", "rows.tsv"])
        assert rc == 0
        summary = capsys.readouterr().out.splitlines()
        fields = dict(zip(summary[0].split("\t"), summary[1].split("\t")))
        rc = cli.main(["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
                       "--n-values", "1000", "--samples", "4", "--restarts", "3",
                       "--rng-seed", "5"])
        assert rc == 0
        sweep = capsys.readouterr().out.splitlines()
        assert sweep[0] == "formal_n\tmean_f1\tmean_size"
        n, f1, size = sweep[1].split("\t")
        assert (n, f1, size) == ("1000", fields["mean_f1"], fields["mean_found_size"])

    def test_actual_n_matches_plain_eval(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "4", "--restarts", "3",
                       "--rng-seed", "5", "--out", "rows.tsv"])
        assert rc == 0
        summary = capsys.readouterr().out.splitlines()
        fields = dict(zip(summary[0].split("\t"), summary[1].split("\t")))
        rc = cli.main(["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
                       "--n-values", "12", "--samples", "4", "--restarts", "3",
                       "--rng-seed", "5"])
        assert rc == 0
        sweep = capsys.readouterr().out.splitlines()
        assert sweep[1].split("\t")[1:] == [fields["mean_f1"],
                                            fields["mean_found_size"]]

    def test_byte_identical_reruns(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        args = ["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
                "--n-values", "12,1000", "--samples", "3", "--rng-seed", "1"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_bad_n_values_exits_2(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        rc = cli.main(["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
                       "--n-values", "ten"])
        assert rc == 2
        assert "n-values" in capsys.readouterr().err


class TestInvalidFlagValues:
    # A flag value outside its domain is a usage error (exit 2) reported
    # before any output, whichever command reads it; a malformed input
    # file stays exit 1 (see TestDetect and TestGlobal).
    GRAPH = ["--graph", "g.edges"]
    CASES = {
        "restarts": ["detect", *GRAPH, "--seed", "0", "--method", "adcbm",
                     "--restarts", "0"],
        "formal-n": ["eval", *GRAPH, "--communities", "g.cmty", "--method", "asbm",
                     "--formal-n", "0", "--out", "rows.tsv"],
        "gamma": ["global", *GRAPH, "--method", "gsbm", "--gamma", "1",
                  "--out", "parts.txt"],
        "alpha": ["detect", *GRAPH, "--seed", "0", "--method", "adcbm",
                  "--alpha", "0"],
        "n-values": ["nsweep", *GRAPH, "--communities", "g.cmty",
                     "--n-values", "12,0", "--samples", "1"],
        # Non-finite priors: once an endless Louvain, a score with
        # conductance 1, and an exit 1 from deep inside the search.
        "gamma-inf-global": ["global", *GRAPH, "--method", "gsbm", "--gamma", "inf",
                             "--out", "parts.txt"],
        "gamma-inf-detect": ["detect", *GRAPH, "--seed", "0", "--method", "asbm",
                             "--gamma", "inf"],
        "alpha-plus-inf": ["detect", *GRAPH, "--seed", "0", "--method", "asbm",
                           "--alpha-plus", "inf"],
        # Sample counts below 1: once two samples for -1 and an empty summary
        # for 0.
        "samples-eval-neg": ["eval", *GRAPH, "--communities", "g.cmty", "--method",
                             "asbm", "--samples", "-1", "--out", "rows.tsv"],
        "samples-eval-zero": ["eval", *GRAPH, "--communities", "g.cmty", "--method",
                              "asbm", "--samples", "0", "--out", "rows.tsv"],
        "samples-nsweep": ["nsweep", *GRAPH, "--communities", "g.cmty",
                           "--n-values", "12", "--samples", "-2"],
        # A formal N too small for the seed's community: once exit 1 from
        # deep inside the score, or a -Infinity score in the JSON output.
        "formal-n-adcbm-1": ["detect", *GRAPH, "--seed", "0", "--method", "adcbm",
                             "--formal-n", "1"],
        "formal-n-adcbm-3": ["detect", *GRAPH, "--seed", "0", "--method", "adcbm",
                             "--formal-n", "3"],
        "formal-n-asbm-1": ["detect", *GRAPH, "--seed", "0", "--method", "asbm",
                            "--formal-n", "1"],
        "formal-n-asbm-2-json": ["detect", *GRAPH, "--seed", "0", "--method", "asbm",
                                 "--formal-n", "2", "--json"],
        # Non-finite planted parameters: once an exit 2 only through the
        # Poisson sampler's "lam value too large", naming no parameter.
        "lambda-in-nan": ["generate", "--model", "dcbm", "--communities", "2",
                          "--size", "4", "--lambda-in", "nan", "--lambda-out", "0.1",
                          "--out", "planted"],
        "theta-nan": ["generate", "--model", "dcbm", "--communities", "2",
                      "--size", "4", "--lambda-in", "0.5", "--lambda-out", "0.1",
                      "--theta", "nan", "--out", "planted"],
    }
    # Words the error line must contain, where the case pins them.
    NAMED = {"samples-eval-neg": "samples", "samples-eval-zero": "samples",
             "samples-nsweep": "samples", "formal-n-adcbm-1": "--formal-n 1",
             "formal-n-adcbm-3": "--formal-n 3", "formal-n-asbm-1": "--formal-n 1",
             "formal-n-asbm-2-json": "--formal-n 2", "lambda-in-nan": "lambda_in",
             "theta-nan": "dcbm_theta"}

    @pytest.mark.parametrize("flag", CASES)
    def test_exits_2_with_error_line(self, in_tmp, capsys, flag):
        write_cliques_fixture(in_tmp)
        rc = cli.main(self.CASES[flag])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ")
        assert self.NAMED.get(flag, "") in captured.err
        assert captured.out == ""


class TestInputFiles:
    # Every input file is read through one helper: its errors read
    # "error: <path>: line N: ...", an unknown node id exits 2 and any
    # other malformed line exits 1, before any output.
    EVAL = ["eval", "--graph", "g.edges", "--communities", "g.cmty",
            "--method", "adcbm", "--samples", "1", "--restarts", "1",
            "--out", "rows.tsv"]
    NSWEEP = ["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
              "--n-values", "12", "--samples", "1", "--restarts", "1"]
    # (command, the file the case rewrites, the flag that names it)
    FILES = {
        "graph-detect": (["detect", "--graph", "g.edges", "--seed", "0",
                          "--method", "adcbm", "--restarts", "1"], "g.edges", None),
        "graph-global": (["global", "--graph", "g.edges", "--method", "gsbm",
                          "--out", "part.txt"], "g.edges", None),
        "graph-eval": (EVAL, "g.edges", None),
        "graph-nsweep": (NSWEEP, "g.edges", None),
        "communities-eval": (EVAL, "g.cmty", None),
        "communities-nsweep": (NSWEEP, "g.cmty", None),
        "external-results": (EVAL, "ext.txt", "--external-results"),
    }

    def run(self, capsys, case, text):
        argv, path, flag = self.FILES[case]
        with open(path, "w") as fh:
            fh.write(text)
        rc = cli.main(argv + ([flag, path] if flag else []))
        captured = capsys.readouterr()
        assert captured.out == ""
        return rc, path, captured.err

    @pytest.mark.parametrize("case", FILES)
    def test_malformed_token_exits_1(self, in_tmp, capsys, case):
        write_cliques_fixture(in_tmp)
        text = "0 1\n1 x\n" if case.startswith("graph") else "0 1 2 3\n4 x 6\n"
        rc, path, err = self.run(capsys, case, text)
        assert rc == 1
        assert err.startswith(f"error: {path}: line 2: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("case", [c for c in FILES if not c.startswith("graph")])
    def test_unknown_id_exits_2(self, in_tmp, capsys, case):
        write_cliques_fixture(in_tmp)
        rc, path, err = self.run(capsys, case, "# a comment\n0 1 2 3\n4 99 6\n")
        assert rc == 2
        assert err == f"error: {path}: line 3: node id 99 not present in the graph\n"

    def test_external_results_skip_comment_lines(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        # sampled community order under rng-seed 0 is C, A, B (seeds 9, 0, 6)
        with open("ext.txt", "w") as fh:
            fh.write("# detector output\n8 9 10 11\n\n# next\n0 1 2 3\n4 5 6 7\n")
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "3", "--rng-seed", "0",
                       "--external-results", "ext.txt", "--out", "rows.tsv"])
        assert rc == 0
        summary = capsys.readouterr().out.splitlines()
        fields = dict(zip(summary[0].split("\t"), summary[1].split("\t")))
        assert (fields["failed"], fields["mean_f1"]) == ("0", "1.000000")

    def test_short_external_results_exits_2_before_output(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        with open("ext.txt", "w") as fh:
            fh.write("8 9 10 11\n")
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "3", "--rng-seed", "0",
                       "--external-results", "ext.txt", "--out", "rows.tsv"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: ext.txt: 1 result line(s) for --samples 3: "
                                "one line per sample is needed\n")
        assert not (in_tmp / "rows.tsv").exists()
        assert not (in_tmp / "rows.tsv.manifest.json").exists()

    def test_failed_samples_name_their_error(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        # the samples draw seeds 9, 0 and 6; the first two lines lack them
        with open("ext.txt", "w") as fh:
            fh.write("0 1 2 3\n4 5 6 7\n4 5 6 7\n")
        rc = cli.main(["eval", "--graph", "g.edges", "--communities", "g.cmty",
                       "--method", "adcbm", "--samples", "3", "--rng-seed", "0",
                       "--external-results", "ext.txt", "--out", "rows.tsv",
                       "--manifest", "m.json"])
        assert rc == 0
        captured = capsys.readouterr()
        summary = captured.out.splitlines()
        assert summary[1].split("\t")[:4] == ["external", "3", "2", "1.000000"]
        assert masked_rows("rows.tsv")[1:] == [
            ["external", "9", "4", "0", "0.000000", "0.000000", "0.000000", "1.000000"],
            ["external", "0", "4", "0", "0.000000", "0.000000", "0.000000", "1.000000"],
            ["external", "6", "4", "4", "1.000000", "1.000000", "1.000000", "0.000000"],
        ]
        notes = ["1 failed sample(s): ValueError: seed 9 missing from the recovered set",
                 "1 failed sample(s): ValueError: seed 0 missing from the recovered set"]
        assert captured.err == "".join(f"warning: {n}\n" for n in notes)
        assert json.loads(open("m.json").read())["notes"] == "; ".join(notes)

    def test_nsweep_failed_samples_name_their_error(self, in_tmp, capsys):
        write_cliques_fixture(in_tmp)
        # formal N 2 is smaller than any 4-node community's volume needs
        rc = cli.main(["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
                       "--n-values", "2,12", "--samples", "1", "--restarts", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "2\t0.000000\t0.000000"
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: --formal-n 2: 1 failed sample(s): ValueError: ")
        notes = json.loads(open("nsweep.manifest.json").read())["notes"]
        assert notes == err[0].removeprefix("warning: ")

    @pytest.mark.parametrize("argv, manifest", [
        (["detect", "--graph", "g.edges", "--seed", "0", "--method", "adcbm",
          "--restarts", "1"], "detect.manifest.json"),
        (["global", "--graph", "g.edges", "--method", "gsbm", "--out", "part.txt"],
         "part.txt.manifest.json"),
        (["generate", "--model", "sbm", "--communities", "2", "--size", "3",
          "--lambda-in", "0.5", "--lambda-out", "0.1", "--out", "planted"],
         "planted.manifest.json"),
        (["eval", "--graph", "g.edges", "--communities", "g.cmty", "--method", "adcbm",
          "--samples", "1", "--restarts", "1", "--out", "rows.tsv"],
         "rows.tsv.manifest.json"),
        (["nsweep", "--graph", "g.edges", "--communities", "g.cmty",
          "--n-values", "12", "--samples", "1", "--restarts", "1"],
         "nsweep.manifest.json"),
    ])
    def test_default_manifest_names(self, in_tmp, capsys, argv, manifest):
        write_cliques_fixture(in_tmp)
        assert cli.main(argv) == 0
        written = sorted(p.name for p in in_tmp.glob("*.manifest.json"))
        assert written == [manifest]
        assert json.loads(open(manifest).read())["flags"]["manifest"] == manifest

    PRIORS = {"--gamma", "--alpha", "--theta", "--alpha-plus", "--alpha-minus"}
    COMMON = {"-h", "--help", "--rng-seed", "--manifest"}
    OPTIONS = {
        "detect": COMMON | PRIORS | {"--graph", "--seed", "--method", "--formal-n",
                                     "--restarts", "--json"},
        "global": COMMON | PRIORS | {"--graph", "--method", "--out"},
        "generate": COMMON | {"--model", "--communities", "--size", "--lambda-in",
                              "--lambda-out", "--alpha", "--theta", "--out"},
        "eval": COMMON | PRIORS | {"--graph", "--communities", "--method", "--samples",
                                   "--min-size", "--restarts", "--formal-n",
                                   "--external-results", "--out"},
        "nsweep": COMMON | {"--graph", "--communities", "--n-values", "--samples",
                            "--min-size", "--restarts", "--gamma", "--alpha", "--theta"},
    }

    def test_each_command_keeps_its_options(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        options = {name: {s for a in sub._actions for s in a.option_strings}
                   for name, sub in commands.items()}
        assert options == self.OPTIONS
