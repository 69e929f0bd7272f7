"""Flat-file formats: edge list, DOT, graphdoc."""

import json
import random
import tracemalloc

import pytest

from arrgraph import graphio, graphs
from arrgraph.config import Config
from arrgraph.errors import ValidationError
from arrgraph.graphs import build_arrangement_graph, build_cayley_graph
from arrgraph.perms import Permutation, connection_set
from oracles import edges


def test_edgelist_round_trip():
    g = build_arrangement_graph(4, 2, 2)
    text = graphio.to_edgelist(g)
    assert text.startswith("# vertices 12\n")
    h = graphio.from_edgelist(text)
    assert h.vertex_count == 12
    assert sorted(edges(h)) == sorted(edges(g))


def test_edgelist_isolated_vertices_survive():
    g = build_arrangement_graph(3, 3, 1)  # edgeless
    h = graphio.from_edgelist(graphio.to_edgelist(g))
    assert h.vertex_count == 6 and h.edge_count() == 0


def test_edgelist_rejects_garbage():
    with pytest.raises(ValidationError):
        graphio.from_edgelist("0 1\nnot an edge\n")


@pytest.mark.parametrize("text, message", [
    # int() takes the first four
    ("0 1_0\n", "bad edge list line"),
    ("+3 1\n", "bad edge list line"),
    ("0 \u0663\n", "bad edge list line"),  # the Arabic-Indic three
    ("# vertices 1_0\n", "bad vertex count line"),
    ("-1 0\n", "bad edge list line"),
    ("0 " + "9" * 5000 + "\n", "bad edge list line"),
    ("# vertices " + "9" * 5000 + "\n", "bad vertex count line"),
    ("# vertices\n", "bad vertex count line"),
    ("# vertices -3\n", "negative vertex count"),
    ("0 1 2\n", "bad edge list line"),
    ("1\n", "bad edge list line"),
    ("0 0\n", "self-loop at vertex 0"),
    ("# vertices 2\n0 2\n", r"edge \(0,2\) out of range"),
    ("0 7\n# vertices 5\n", "edge to vertex 7 out of range for 5 vertices"),
    ("# vertices 5\n0 4\n# vertices 3\n", "edge to vertex 4 out of range for 3 vertices"),
], ids=["underscore", "plus", "arabic-indic", "count-underscore", "minus", "long-index",
        "long-count", "no-count", "negative-count", "three-tokens", "one-token", "loop",
        "out-of-range", "count-after-edges", "smaller-count-later"])
def test_edgelist_rejects(text, message):
    with pytest.raises(ValidationError, match=message):
        graphio.from_edgelist(text)


def test_edgelist_vertex_count_line():
    # without the line the count is one past the largest index; with
    # several, the last counts, and it may follow the edges
    for text, count in [("2 0\n\n1 3\n", 4), ("0 1\n# vertices 6\n", 6),
                        ("# vertices 5\n# vertices 3\n0 1\n", 3),
                        ("#vertices 4\n# a comment\n0\t1\r\n", 4), ("", 0)]:
        g = graphio.from_edgelist(text)
        assert g.vertex_count == count and g.labels == tuple((i,) for i in range(count))
    assert sorted(edges(graphio.from_edgelist("2 0\n1 3\n2 0\n0 2\n"))) == [(0, 2), (1, 3)]


def test_edgelist_guard_is_checked_on_the_count_line():
    # the guard fires before the bad line after it is read
    with pytest.raises(ValidationError, match="over the guard"):
        graphio.from_edgelist("# vertices 50001\nnot an edge\n")
    # without a count line, at the first index over it
    with pytest.raises(ValidationError, match="50001 vertices, over the guard"):
        graphio.from_edgelist("0 1\n0 50000\nnot an edge\n")


def test_edgelist_keeps_no_edge_list():
    # 95 400 edges in 734 KB of text: the rows take 80 KB, a list of the
    # edges as tuples about 10 MB
    g = build_cayley_graph(6, connection_set(6, "derangements"))
    text = graphio.to_edgelist(g)
    assert g.edge_count() == 95400
    tracemalloc.start()
    try:
        h = graphio.from_edgelist(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.adjacency == g.adjacency
    assert peak < 2 * 2**20, peak


def test_writers_build_one_string_per_row():
    # the 734 KB edge list of Cay(S6,D) peaks at about twice its size; a
    # string per edge took about ten times it. The text is that of the
    # edges listed one by one
    g = build_cayley_graph(6, connection_set(6, "derangements"))
    tracemalloc.start()
    try:
        text = graphio.to_edgelist(g)
        edgelist_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dot = graphio.to_dot(g)
        dot_peak = tracemalloc.get_traced_memory()[1] - len(text)
    finally:
        tracemalloc.stop()
    assert text == "".join(["# vertices 720\n"] + [f"{u} {v}\n" for u, v in edges(g)])
    assert dot == "".join(["graph G {\n"]
                          + [f'  {v} [label="[{",".join(str(x + 1) for x in lab)}]"];\n'
                             for v, lab in enumerate(g.labels)]
                          + [f"  {u} -- {v};\n" for u, v in edges(g)] + ["}\n"])
    assert edgelist_peak < 3 * len(text), (edgelist_peak, len(text))
    assert dot_peak < 3 * len(dot), (dot_peak, len(dot))


def test_vertex_guard_applies_to_loaded_graphs():
    doc = ('{"format":"arrgraph-graphdoc","version":2,"metadata":{},'
           '"vertex_count":50001,"labels":[],"rows":[]}')
    for text in (doc, "# vertices 50001\n", "0 50000\n"):
        with pytest.raises(ValidationError, match="over the guard"):
            graphio.load(text)
    g = build_arrangement_graph(4, 2, 2)  # 12 vertices
    for text in (graphio.to_edgelist(g), graphio.to_graphdoc(g)):
        assert graphio.load(text, Config(vertex_guard=12)).vertex_count == 12
        with pytest.raises(ValidationError, match="over the guard"):
            graphio.load(text, Config(vertex_guard=11))


def _round_trip_graphs():
    # the aut benchmark's A(4,k,r) and A(5,k<5,r), each also shuffled, and
    # two Cayley graphs
    rng = random.Random(20240811)
    for n in (4, 5):
        for k in range(1, min(n, 4) + 1):
            for r in range(1, k + 1):
                g = build_arrangement_graph(n, k, r)
                yield g
                images = list(range(g.vertex_count))
                rng.shuffle(images)
                yield g.relabeled(Permutation(images))
    for n in (3, 4):
        yield build_cayley_graph(n, connection_set(n, "transpositions"))


def test_graphdoc_round_trip_bit_exact():
    for g in _round_trip_graphs():
        text = graphio.to_graphdoc(g)
        h = graphio.from_graphdoc(text)
        assert h.labels == g.labels
        assert h.adjacency == g.adjacency
        assert h.metadata == g.metadata
        assert graphio.to_graphdoc(h) == text


def test_graphdoc_labels_are_one_based():
    g = build_arrangement_graph(3, 2, 2)
    assert '"labels":[[1,2],' in graphio.to_graphdoc(g)


def test_graphdoc_rejects_non_documents():
    with pytest.raises(ValidationError):
        graphio.from_graphdoc("{}")
    with pytest.raises(ValidationError):
        graphio.from_graphdoc("not json")
    # null metadata is rejected, before the rows' format is looked at
    doc = ('{"format":"arrgraph-graphdoc","version":2,"metadata":null,'
           '"vertex_count":2,"labels":[[1],[2]],"rows":["zz","0"]}')
    with pytest.raises(ValidationError, match="metadata is not an object"):
        graphio.from_graphdoc(doc)


def test_graphdoc_rows_are_hex_bit_rows():
    # A(3,2,2): vertex 0 = (1,2) is adjacent to 2, 3 and 4
    rows = json.loads(graphio.to_graphdoc(build_arrangement_graph(3, 2, 2)))["rows"]
    assert rows == ["1c", "34", "23", "31", "0b", "0e"]


def test_graphdoc_metadata_is_checked_before_the_rows():
    # row 0 has a self-loop, which is never reached
    doc = ('{"format":"arrgraph-graphdoc","version":2,"metadata":[],'
           '"vertex_count":2,"labels":[[1],[2]],"rows":["1","0"]}')
    with pytest.raises(ValidationError, match="metadata"):
        graphio.from_graphdoc(doc)


def test_graphdoc_load_makes_one_transpose(monkeypatch):
    # the rows are checked once, by the constructor; graphio's own binding
    # of _transpose is counted too
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return transpose(rows)

    transpose = graphs._transpose
    monkeypatch.setattr(graphs, "_transpose", counted)
    monkeypatch.setattr(graphio, "_transpose", counted)
    g = build_arrangement_graph(5, 4, 4)
    assert graphio.from_graphdoc(graphio.to_graphdoc(g)).adjacency == g.adjacency
    assert calls == [120]


def test_graphdoc_labels_are_checked_by_the_constructor():
    doc = json.loads(graphio.to_graphdoc(build_arrangement_graph(3, 2, 2)))
    doc["labels"][5] = doc["labels"][0]
    with pytest.raises(ValidationError, match="pairwise distinct"):
        graphio.from_graphdoc(json.dumps(doc))


def test_dot_output():
    g = build_arrangement_graph(3, 2, 2)
    dot = graphio.to_dot(g)
    assert dot.startswith("graph G {") and dot.rstrip().endswith("}")
    assert '0 [label="[1,2]"];' in dot
    assert sum(1 for line in dot.splitlines() if "--" in line) == g.edge_count()


def test_dump_load_dispatch():
    g = build_arrangement_graph(4, 2, 1)
    for fmt in (graphio.FORMAT_EDGELIST, graphio.FORMAT_GRAPHDOC):
        h = graphio.load("".join(graphio.dump(g, fmt)))
        assert h.vertex_count == g.vertex_count
        assert sorted(edges(h)) == sorted(edges(g))
    with pytest.raises(ValidationError):
        graphio.dump(g, "gml")


def test_graphdoc_pieces_match_one_json_text():
    # the document is written a row at a time around a head and a tail cut
    # from the JSON text of the rowless document; joined, it is the text that
    # json.dumps gives for the whole one, also when the metadata or a string
    # in it holds "rows"
    cases = [build_arrangement_graph(4, 3, 2), graphs.Graph([], [], None),
             graphs.Graph([(1, 2), (0,)], [2, 1], {"rows": [], "note": '"rows":[]'})]
    for g in cases:
        pieces = list(graphio.dump(g, graphio.FORMAT_GRAPHDOC))
        assert len(pieces) == g.vertex_count + 2
        width = (g.vertex_count + 3) // 4
        doc = {"format": "arrgraph-graphdoc", "version": 2, "metadata": g.metadata,
               "vertex_count": g.vertex_count,
               "labels": [[x + 1 for x in lab] for lab in g.labels],
               "rows": [format(row, f"0{width}x") for row in g.adjacency]}
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert "".join(pieces) == graphio.to_graphdoc(g) == expected
        assert graphio.load(expected).adjacency == g.adjacency


def test_dump_yields_a_row_at_a_time():
    g = build_arrangement_graph(4, 2, 1)
    for fmt, to_text in [(graphio.FORMAT_EDGELIST, graphio.to_edgelist),
                         (graphio.FORMAT_DOT, graphio.to_dot)]:
        pieces = list(graphio.dump(g, fmt))
        assert "".join(pieces) == to_text(g)
        # no piece holds the edges of two rows
        assert max(len({line.split()[0] for line in p.splitlines()}) for p in pieces) == 1


def test_load_file(tmp_path):
    g = build_arrangement_graph(4, 2, 2)
    path = tmp_path / "g.json"
    path.write_text(graphio.to_graphdoc(g))
    h = graphio.load_file(str(path))
    assert h.adjacency == g.adjacency
