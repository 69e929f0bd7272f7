"""The arrgraph command-line front end."""

import itertools
import json
import os

import pytest

from arrgraph import graphio
from arrgraph.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, main
from arrgraph.graphs import build_arrangement_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_arrangement_counts(capsys, tmp_path):
    out_path = str(tmp_path / "g.json")
    code, out, _ = run(capsys, "gen", "arrangement", "--n", "4", "--k", "2",
                       "--r", "2", "-o", out_path)
    assert code == EXIT_OK
    assert "12 vertices, 42 edges" in out
    g = graphio.load_file(out_path)
    assert g.vertex_count == 12 and g.metadata["family"] == "arrangement"


def test_gen_cayley_counts(capsys, tmp_path):
    out_path = str(tmp_path / "g.json")
    code, out, _ = run(capsys, "gen", "cayley", "--n", "4", "--set",
                       "derangements", "-o", out_path)
    assert code == EXIT_OK
    assert "24 vertices, 108 edges" in out


def test_gen_edgeless(capsys, tmp_path):
    out_path = str(tmp_path / "g.json")
    code, out, _ = run(capsys, "gen", "arrangement", "--n", "4", "--k", "4",
                       "--r", "1", "-o", out_path)
    assert code == EXIT_OK
    assert "24 vertices, 0 edges" in out


def test_gen_to_stdout(capsys):
    code, out, err = run(capsys, "gen", "arrangement", "--n", "3", "--k", "2",
                         "--r", "1", "--format", "edgelist")
    assert code == EXIT_OK
    assert out.startswith("# vertices 6")
    assert "6 vertices" in err  # counts go to stderr when the doc is on stdout


def test_gen_invalid_parameters_no_partial_file(capsys, tmp_path):
    out_path = str(tmp_path / "bad.json")
    code, _, err = run(capsys, "gen", "arrangement", "--n", "4", "--k", "5",
                       "--r", "1", "-o", out_path)
    assert code == EXIT_VALIDATION
    assert "error" in err
    assert not os.path.exists(out_path)


def test_gen_bad_connection_set(capsys):
    code, _, err = run(capsys, "gen", "cayley", "--n", "4", "--set", "rotations")
    assert code == EXIT_VALIDATION


def test_aut_command(capsys, tmp_path):
    path = tmp_path / "a422.json"
    path.write_text(graphio.to_graphdoc(build_arrangement_graph(4, 2, 2)))
    code, out, _ = run(capsys, "aut", str(path))
    assert code == EXIT_OK
    assert "order 48" in out
    assert "certificate " in out


def test_aut_k4_edgelist(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("# vertices 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "aut", str(path), "--generators")
    assert code == EXIT_OK
    assert "order 24" in out
    assert "generator" in out


def test_aut_missing_file(capsys):
    code, _, err = run(capsys, "aut", "/nonexistent/graph.json")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("command", [["aut"], ["mis", "--all"]], ids=["aut", "mis-all"])
def test_aut_budget_exit_code(command, capsys, tmp_path, monkeypatch):
    path = tmp_path / "a422.json"
    path.write_text(graphio.to_graphdoc(build_arrangement_graph(4, 2, 2)))
    monkeypatch.setenv("ARRGRAPH_NODE_BUDGET", "2")
    code, _, err = run(capsys, *command, str(path))
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_mis_command(capsys, tmp_path):
    path = tmp_path / "a422.json"
    path.write_text(graphio.to_graphdoc(build_arrangement_graph(4, 2, 2)))
    code, out, _ = run(capsys, "mis", str(path), "--all")
    assert code == EXIT_OK
    assert "independence number 3" in out
    assert "8 maximum independent sets" in out


@pytest.mark.parametrize("flags", [[], ["--all"]], ids=["size", "all"])
def test_mis_command_deep_clique(flags, capsys, tmp_path):
    # the clique search is as deep as the independent set is large
    path = tmp_path / "isolated.txt"
    path.write_text("# vertices 1100\n")
    code, out, _ = run(capsys, "mis", str(path), *flags)
    assert code == EXIT_OK
    assert out.startswith("independence number 1100\n")
    if flags:
        assert "1 maximum independent sets" in out


def test_blocks_command(capsys):
    code, out, _ = run(capsys, "blocks", "--n", "4", "--k", "2")
    assert code == EXIT_OK
    assert "prop2.1/n=4/k=2" in out
    assert "blocks/n=4/k=2" in out
    assert "{'quotient': 24, 'kernel': 2}" in out
    assert "3 passed, 0 failed" in out


@pytest.mark.parametrize("n", [3, 4])
def test_blocks_command_k_eq_n(n, capsys):
    # Sigma and Sigma' are block systems under the value/position
    # relabelings only; the inversion map breaks them, as the suite records
    code, out, _ = run(capsys, "blocks", "--n", str(n), "--k", str(n))
    assert code == EXIT_OK
    assert f"blocks/n={n}/k={n}" in out and "PASS" in out and "FAIL" not in out
    violation = json.loads(out.split("inversion violation: ", 1)[1])
    assert violation["block"] != violation["image"]
    assert "lemma2.5" not in out


def test_verify_command(capsys, tmp_path):
    report = str(tmp_path / "claims.jsonl")
    summary = str(tmp_path / "summary.txt")
    code, out, _ = run(capsys, "verify", "--n-max", "3",
                       "--report", report, "--summary", summary)
    assert code == EXIT_OK
    assert "0 failed" in out
    lines = open(report).read().splitlines()
    assert all(json.loads(line)["passed"] in (True, None) for line in lines)
    assert open(summary).read() == out


def test_verify_invalid_n_max(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "7")
    assert code == EXIT_VALIDATION


def test_verify_has_no_include_n6_flag(capsys):
    # --n-max 6 covers the n = 6 cases; there is no separate flag for them
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--include-n6"])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments: --include-n6" in capsys.readouterr().err


def test_conjecture_command(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "4", "--k", "1")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["exploratory"] is True
    assert record["details"]["candidate_order"] == 1152


def test_conjecture_anchored(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "4", "--k", "2")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


_A422_DOC = json.loads(graphio.to_graphdoc(build_arrangement_graph(4, 2, 2)))


def _doc_without_labels():
    doc = dict(_A422_DOC)
    del doc["labels"]
    return json.dumps(doc)


def _doc_with_three_entry_edge():
    doc = dict(_A422_DOC)
    doc["edges"] = doc["edges"][:-1] + [[0, 1, 2]]
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    _doc_without_labels(),
    _doc_with_three_entry_edge(),
    "# vertices x\n0 1\n",
], ids=["graphdoc-no-labels", "edge-three-entries", "edgelist-vertices-x"])
def test_aut_malformed_input_exit_code(text, capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, _, err = run(capsys, "aut", str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("gen", "cayley", "--n", "11", "--set", "transpositions"),
    ("conjecture", "--n", "11", "--k", "1"),
], ids=["gen-cayley", "conjecture"])
def test_symmetric_group_over_vertex_guard(argv, capsys, monkeypatch):
    # 11! is over the guard: exit 2 before S_11 is enumerated
    def enumerate_nothing(*args):
        raise AssertionError("S_n enumerated before the vertex guard")
    monkeypatch.setattr(itertools, "permutations", enumerate_nothing)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and "over the vertex guard" in err


@pytest.mark.parametrize("command", ["aut", "mis"])
def test_loaded_graph_over_vertex_guard(command, capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("# vertices 50001\n")
    code, _, err = run(capsys, command, str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and "over the guard" in err


def test_aut_stats(capsys, tmp_path):
    path = tmp_path / "a543.json"
    path.write_text(graphio.to_graphdoc(build_arrangement_graph(5, 4, 3)))
    code, out, _ = run(capsys, "aut", str(path), "--stats")
    assert code == EXIT_OK
    assert out.splitlines()[2:] == ["nodes 21", "leaves 6",
                                    "automorphisms found 5",
                                    "generators kept 5"]
