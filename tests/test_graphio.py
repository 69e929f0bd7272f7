"""Flat-file formats: edge list, DOT, graphdoc."""

import pytest

from arrgraph import graphio
from arrgraph.config import Config
from arrgraph.errors import ValidationError
from arrgraph.graphs import build_arrangement_graph, build_cayley_graph
from arrgraph.perms import connection_set


def test_edgelist_round_trip():
    g = build_arrangement_graph(4, 2, 2)
    text = graphio.to_edgelist(g)
    assert text.startswith("# vertices 12\n")
    h = graphio.from_edgelist(text)
    assert h.vertex_count == 12
    assert sorted(h.edges()) == sorted(g.edges())


def test_edgelist_isolated_vertices_survive():
    g = build_arrangement_graph(3, 3, 1)  # edgeless
    h = graphio.from_edgelist(graphio.to_edgelist(g))
    assert h.vertex_count == 6 and h.edge_count() == 0


def test_edgelist_rejects_garbage():
    with pytest.raises(ValidationError):
        graphio.from_edgelist("0 1\nnot an edge\n")


def test_vertex_guard_applies_to_loaded_graphs():
    doc = ('{"format":"arrgraph-graphdoc","version":1,"metadata":{},'
           '"vertex_count":50001,"labels":[],"edges":[]}')
    for text in (doc, "# vertices 50001\n", "0 50000\n"):
        with pytest.raises(ValidationError, match="over the guard"):
            graphio.load(text)
    g = build_arrangement_graph(4, 2, 2)  # 12 vertices
    for text in (graphio.to_edgelist(g), graphio.to_graphdoc(g)):
        assert graphio.load(text, Config(vertex_guard=12)).vertex_count == 12
        with pytest.raises(ValidationError, match="over the guard"):
            graphio.load(text, Config(vertex_guard=11))


def test_graphdoc_round_trip_bit_exact():
    for g in (build_arrangement_graph(4, 2, 2),
              build_cayley_graph(3, connection_set(3, "transpositions"))):
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


def test_dot_output():
    g = build_arrangement_graph(3, 2, 2)
    dot = graphio.to_dot(g)
    assert dot.startswith("graph G {") and dot.rstrip().endswith("}")
    assert '0 [label="[1,2]"];' in dot
    assert sum(1 for line in dot.splitlines() if "--" in line) == g.edge_count()


def test_dump_load_dispatch():
    g = build_arrangement_graph(4, 2, 1)
    for fmt in (graphio.FORMAT_EDGELIST, graphio.FORMAT_GRAPHDOC):
        h = graphio.load(graphio.dump(g, fmt))
        assert h.vertex_count == g.vertex_count
        assert sorted(h.edges()) == sorted(g.edges())
    with pytest.raises(ValidationError):
        graphio.dump(g, "gml")


def test_load_file(tmp_path):
    g = build_arrangement_graph(4, 2, 2)
    path = tmp_path / "g.json"
    path.write_text(graphio.to_graphdoc(g))
    h = graphio.load_file(str(path))
    assert h.adjacency == g.adjacency
