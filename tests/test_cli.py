"""The arrgraph command-line front end."""

import collections
import itertools
import json
import os
import random
import re

import pytest

from arrgraph import graphio, suite
from arrgraph.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, main
from arrgraph.config import Config, decimal
from arrgraph.errors import ValidationError
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


# int() takes each of the first four (\u0662 is the Arabic-Indic two)
NOT_ASCII_DECIMAL = ["1_0", "+2", " 2", "\u0662", "", "2 ", "9" * 5000]
NOT_ASCII_DECIMAL_IDS = ["underscore", "plus", "space", "arabic-indic", "empty",
                         "trailing-space", "5000-digits"]


@pytest.mark.parametrize("spec", ["fixed:" + s for s in NOT_ASCII_DECIMAL])
def test_gen_cayley_fixed_count_is_ascii_decimal(spec, capsys):
    code, _, err = run(capsys, "gen", "cayley", "--n", "4", "--set", spec)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: bad connection set") and "fixed:K" in err


@pytest.mark.parametrize("value", NOT_ASCII_DECIMAL, ids=NOT_ASCII_DECIMAL_IDS)
@pytest.mark.parametrize("flag", ["--n", "--k", "--r", "--n-max"])
def test_integer_flags_are_ascii_decimal(flag, value, capsys):
    args = {"--n": "10", "--k": "2", "--r": "1", flag: value}
    argv = (["verify", flag, value] if flag == "--n-max"
            else ["gen", "arrangement", *itertools.chain(*args.items())])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert f"argument {flag}: invalid decimal value" in capsys.readouterr().err


@pytest.mark.parametrize("value", NOT_ASCII_DECIMAL, ids=NOT_ASCII_DECIMAL_IDS)
def test_environment_integers_are_ascii_decimal(value, capsys, monkeypatch):
    monkeypatch.setenv("ARRGRAPH_WORKERS", value)
    code, out, err = run(capsys, "gen", "arrangement", "--n", "10", "--k", "2", "--r", "1")
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("error: environment variable ARRGRAPH_WORKERS: not an ASCII decimal")


def test_decimal_takes_ascii_digits_and_a_minus():
    assert [decimal(s) for s in ("007", "-12", "0", "9" * 4300)] == [7, -12, 0, int("9" * 4300)]


def test_gen_cayley_fixed_count(capsys, tmp_path):
    out_path = str(tmp_path / "g.json")
    code, out, _ = run(capsys, "gen", "cayley", "--n", "4", "--set", "fixed:02", "-o", out_path)
    assert code == EXIT_OK
    assert "24 vertices, 72 edges" in out
    assert graphio.load_file(out_path).metadata["kind"] == "fixed:2"


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


@pytest.mark.parametrize("fmt", ["graphdoc", "edgelist", "dot"])
def test_gen_writes_the_text_of_the_writer(capsys, tmp_path, fmt):
    # the file is written piece by piece, and holds what graphio's to_*
    # writer returns as one string
    out_path = tmp_path / "g.out"
    code, _, _ = run(capsys, "gen", "arrangement", "--n", "4", "--k", "3", "--r", "2",
                     "--format", fmt, "-o", str(out_path))
    assert code == EXIT_OK
    writer = {"graphdoc": graphio.to_graphdoc, "edgelist": graphio.to_edgelist,
              "dot": graphio.to_dot}[fmt]
    assert out_path.read_text() == writer(build_arrangement_graph(4, 3, 2))


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


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_aut_unreadable_input_exit_code(kind, capsys, tmp_path):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe0 1\n")
    code, _, err = run(capsys, "aut", str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [["aut"], ["mis", "--all"]], ids=["aut", "mis-all"])
def test_aut_budget_exit_code(command, capsys, tmp_path, monkeypatch):
    path = tmp_path / "a422.json"
    path.write_text(graphio.to_graphdoc(build_arrangement_graph(4, 2, 2)))
    monkeypatch.setenv("ARRGRAPH_NODE_BUDGET", "2")
    code, _, err = run(capsys, *command, str(path))
    assert code == EXIT_BUDGET
    assert "budget" in err


@pytest.mark.parametrize("name, value", [("WORKERS", "0"), ("NODE_BUDGET", "ten")])
def test_bad_environment_exit_code(name, value, capsys, monkeypatch):
    monkeypatch.setenv("ARRGRAPH_" + name, value)
    code, out, err = run(capsys, "gen", "arrangement", "--n", "3", "--k", "2",
                         "--r", "1", "--format", "edgelist")
    assert code == EXIT_VALIDATION
    assert out == "" and err.startswith("error: ") and name.lower() in err.lower()


@pytest.mark.parametrize("field, value", [
    ("workers", "2"), ("vertex_guard", None), ("node_budget", 1.5),
    ("workers", True), ("seed", "x"), ("workers", 0), ("node_budget", -1)])
def test_config_rejects_bad_fields(field, value):
    with pytest.raises(ValidationError, match=f"config field {field} must be"):
        Config(**{field: value})


@pytest.mark.parametrize("fixed", ["0", "1"], ids=["anchored", "exploratory"])
def test_conjecture_budget_exit_code(fixed, capsys, monkeypatch):
    monkeypatch.setenv("ARRGRAPH_NODE_BUDGET", "3")
    code, out, err = run(capsys, "conjecture", "--n", "4", "--k", fixed)
    assert code == EXIT_BUDGET
    assert out == "" and "search exceeded node budget 3" in err


def test_gen_cayley_s8_derangements_bounded_by_vertex_guard(capsys, tmp_path, monkeypatch):
    # a Cayley build costs the same per row whatever the connection set, so
    # Cay(S_8, D) is bounded as A(8,8,8) is: one vertex under 8! = 40320,
    # it exits 2 and writes nothing
    monkeypatch.setenv("ARRGRAPH_VERTEX_GUARD", "40319")
    path = tmp_path / "c8d.json"
    code, out, err = run(capsys, "gen", "cayley", "--n", "8", "--set", "derangements",
                         "-o", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert "S_8 has more than 40319 elements" in err and not path.exists()


def test_aut_deep_search_over_node_budget(capsys, tmp_path, monkeypatch):
    # 1100 isolated vertices are 1100 parts of one search node each, all
    # charged to the one node budget, which 1000 falls short of
    path = tmp_path / "isolated.txt"
    path.write_text("# vertices 1100\n")
    monkeypatch.setenv("ARRGRAPH_NODE_BUDGET", "1000")
    code, _, err = run(capsys, "aut", str(path))
    assert code == EXIT_BUDGET
    assert "node budget" in err


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


def test_blocks_command_searches_once(capsys, monkeypatch):
    # prop2.1, blocks and lemma2.5 share one context, so A(5,4,4) is
    # searched once for all three
    searched = []
    search = suite.automorphism_group

    def counting(graph, config):
        searched.append(graph.vertex_count)
        return search(graph, config)

    monkeypatch.setattr(suite, "automorphism_group", counting)
    code, out, _ = run(capsys, "blocks", "--n", "5", "--k", "4")
    assert code == EXIT_OK and "3 passed, 0 failed" in out
    assert searched == [120]


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


def _doc_with_list_row():
    doc = dict(_A422_DOC)
    doc["rows"] = doc["rows"][:-1] + [[0, 1, 2]]
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    _doc_without_labels(),
    _doc_with_list_row(),
    "# vertices x\n0 1\n",
    '{"a": ' + "[" * 200_000 + "]" * 200_000 + "}",
    '{"vertex_count": 1' + "0" * 5000 + "}",
    # a bool is an int to isinstance; this once loaded as one vertex
    '{"format":"arrgraph-graphdoc","version":2,"vertex_count":true,'
    '"labels":[[1]],"rows":["0"]}',
], ids=["graphdoc-no-labels", "row-a-list", "edgelist-vertices-x",
        "graphdoc-nested-deep", "graphdoc-long-integer", "graphdoc-vertex-count-true"])
def test_aut_malformed_input_exit_code(text, capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, _, err = run(capsys, "aut", str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("gen", "cayley", "--n", "11", "--set", "transpositions"),
    ("conjecture", "--n", "11", "--k", "1"),
    ("gen", "arrangement", "--n", "2000", "--k", "2000", "--r", "1"),
    ("blocks", "--n", "2000", "--k", "1999"),
], ids=["gen-cayley", "conjecture", "gen-arrangement", "blocks"])
def test_symmetric_group_over_vertex_guard(argv, capsys, monkeypatch):
    # 11! and 2000!/(2000-k)! are over the guard: exit 2 before a vertex
    # label is enumerated
    def enumerate_nothing(*args):
        raise AssertionError("vertex labels enumerated before the vertex guard")
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


def _changed_rows(change, graph=None):
    doc = json.loads(graphio.to_graphdoc(graph or _A544))
    change(doc["rows"])
    return json.dumps(doc)


def _last_row(row, graph=None):
    return _changed_rows(lambda rows: rows.__setitem__(-1, row), graph)


_A544 = build_arrangement_graph(5, 4, 4)  # 120 vertices, rows of 30 digits
_A544_LAST = "00000039ece3780febcc0ffc8c0afc"


@pytest.mark.parametrize("text, message", [
    (_last_row(_A544_LAST[:-1] + "g"), "0-9a-f"),
    (_last_row(_A544_LAST.upper()), "0-9a-f"),
    # int(row, 16) takes each of these four
    (_last_row("0x" + _A544_LAST[2:]), "0-9a-f"),
    (_last_row(_A544_LAST[:10] + "_" + _A544_LAST[11:]), "0-9a-f"),
    (_last_row("+" + _A544_LAST[1:]), "0-9a-f"),
    (_last_row(" " + _A544_LAST[1:]), "0-9a-f"),
    (_last_row(_A544_LAST[1:]), "30 hex digits"),
    (_last_row("0" + _A544_LAST), "30 hex digits"),
    # 120 bits fill 30 digits, so the bit past the last vertex is shown on
    # the 6 vertices of A(3,2,2), whose rows have 2 digits
    (_last_row("8e", build_arrangement_graph(3, 2, 2)), "bit at 6"),
    (_last_row("8" + _A544_LAST[1:]), "self-loop"),
    (_last_row(_A544_LAST[:-1] + "d"), "not symmetric"),
    (_changed_rows(list.pop), "120 strings"),
    (_changed_rows(lambda rows: rows.append(rows[-1])), "120 strings"),
    (_last_row(int(_A544_LAST, 16)), "120 strings"),
    ('{"edges":[[0,1]],"format":"arrgraph-graphdoc","labels":[[1],[2]],'
     '"metadata":{},"version":1,"vertex_count":2}', "regenerate"),
], ids=["non-hex", "uppercase", "0x", "underscore", "plus", "space", "short",
        "long", "bit-past-last-vertex", "loop", "asymmetric", "one-row-short",
        "one-row-over", "row-an-int", "version-1"])
def test_bad_last_row(text, message, capsys, tmp_path):
    assert _A544.vertex_count == 120
    assert json.loads(graphio.to_graphdoc(_A544))["rows"][-1] == _A544_LAST
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "mis", str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("bad", [[0, "x"], [0, 1, 2], [True, 1], [0, 0], [0, 120], 7])
def test_bad_edge_at_the_end_of_a_long_list(bad, capsys, tmp_path):
    # an edge list still builds its graph edge by edge, so the last of 3181
    # edges is checked too
    text = graphio.to_edgelist(_A544)
    assert text.count("\n") == 3181
    line = " ".join(map(str, bad)) if isinstance(bad, list) else str(bad)
    path = tmp_path / "bad.txt"
    path.write_text(text + line + "\n")
    code, _, err = run(capsys, "mis", str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")


def test_aut_stats(capsys, tmp_path):
    path = tmp_path / "a543.json"
    path.write_text(graphio.to_graphdoc(build_arrangement_graph(5, 4, 3)))
    code, out, _ = run(capsys, "aut", str(path), "--stats")
    assert code == EXIT_OK
    assert out.splitlines()[2:] == ["nodes 21", "leaves 6",
                                    "automorphisms found 5"]


def test_loader_fuzz_exit_codes(capsys, tmp_path, monkeypatch):
    # tokens inserted, deleted or replaced in valid documents: every mutant
    # loads (exit 0) or is rejected (exit 2), never a traceback; the small
    # guard keeps mutants whose vertex counts grew by digit joins fast
    monkeypatch.setenv("ARRGRAPH_VERTEX_GUARD", "24")
    rng = random.Random(20240811)
    junk = ["", " ", "\n", "-1", "0", "7", "99", "1.5", "x", "#", "vertices",
            "null", "true", '"', "[", "]", "{", "}", ",", ":"]
    docs = []
    for n, k, r in [(3, 2, 1), (4, 2, 2), (3, 3, 2)]:
        g = build_arrangement_graph(n, k, r)
        for text in (graphio.to_graphdoc(g), graphio.to_edgelist(g)):
            docs.append(re.findall(r'"[^"]*"|-?\d+|\s+|.', text))
    path = tmp_path / "mutant.txt"
    codes = collections.Counter()
    for _ in range(300):
        tokens = list(rng.choice(docs))
        pool = tokens + junk
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(len(tokens))
            op = rng.randrange(3)
            if op == 0:
                tokens.insert(j, rng.choice(pool))
            elif op == 1:
                del tokens[j]
            else:
                tokens[j] = rng.choice(pool)
        path.write_text("".join(tokens))
        for command in ("aut", "mis"):
            codes[main([command, str(path)])] += 1
    capsys.readouterr()
    assert set(codes) <= {EXIT_OK, EXIT_VALIDATION}, codes
    assert codes[EXIT_OK] and codes[EXIT_VALIDATION]
