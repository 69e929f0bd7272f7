"""Flat-file graph formats: edge list, DOT, and the self-describing
"graphdoc" JSON document (bit-exact round-trip)."""

from __future__ import annotations

import json

from .config import Config, DEFAULT_CONFIG
from .errors import ValidationError
from .graphs import Graph

FORMAT_EDGELIST = "edgelist"
FORMAT_DOT = "dot"
FORMAT_GRAPHDOC = "graphdoc"

FORMATS = (FORMAT_EDGELIST, FORMAT_DOT, FORMAT_GRAPHDOC)

_GRAPHDOC_MAGIC = "arrgraph-graphdoc"


def _label_str(label: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x + 1) for x in label) + "]"


def to_edgelist(graph: Graph) -> str:
    """One `u v` pair per line, 0-based vertex indexes."""
    lines = [f"{u} {v}" for u, v in graph.edges()]
    header = f"# vertices {graph.vertex_count}"
    return "\n".join([header] + lines) + "\n"


def _check_vertex_guard(vertex_count: int, config: Config) -> None:
    if vertex_count > config.vertex_guard:
        raise ValidationError(
            f"{vertex_count} vertices, over the guard {config.vertex_guard}")


def from_edgelist(text: str, config: Config = DEFAULT_CONFIG) -> Graph:
    vertex_count = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["vertices"]:
                try:
                    vertex_count = int(parts[1])
                except (IndexError, ValueError):
                    raise ValidationError(f"bad vertex count line: {line!r}")
                if vertex_count < 0:
                    raise ValidationError(f"negative vertex count: {line!r}")
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValidationError(f"bad edge list line: {line!r}")
        edges.append((u, v))
    if vertex_count is None:
        vertex_count = max((max(u, v) for u, v in edges), default=-1) + 1
    _check_vertex_guard(vertex_count, config)
    labels = [(i,) for i in range(vertex_count)]
    return Graph(labels, edges, {"family": "plain"})


def to_dot(graph: Graph) -> str:
    lines = ["graph G {"]
    for v in range(graph.vertex_count):
        lines.append(f'  {v} [label="{_label_str(graph.labels[v])}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_graphdoc(graph: Graph) -> str:
    """Self-describing JSON: metadata, 1-based tuple labels, sorted edges.
    Canonical serialization (sorted keys, fixed separators) so re-export of
    an imported document is byte-identical."""
    doc = {
        "format": _GRAPHDOC_MAGIC,
        "version": 1,
        "metadata": graph.metadata,
        "vertex_count": graph.vertex_count,
        "labels": [[x + 1 for x in lab] for lab in graph.labels],
        "edges": sorted(graph.edges()),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def from_graphdoc(text: str, config: Config = DEFAULT_CONFIG) -> Graph:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers malformed JSON and integers too long to convert;
        # RecursionError, arrays or objects nested too deep to decode
        raise ValidationError(f"not a graph document: {e}")
    if not isinstance(doc, dict) or doc.get("format") != _GRAPHDOC_MAGIC:
        raise ValidationError("not a graph document (missing format marker)")
    if isinstance(doc.get("vertex_count"), int):
        _check_vertex_guard(doc["vertex_count"], config)
    labels = [tuple(x - 1 for x in _int_list(lab, "label"))
              for lab in _list(doc.get("labels"), "labels")]
    if len(labels) != doc.get("vertex_count"):
        raise ValidationError("label count does not match vertex_count")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("graph document metadata is not an object")
    # streamed, so no second edge list is made; Graph checks range and loops
    return Graph(labels, map(_edge, _list(doc.get("edges"), "edges")), metadata)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"graph document {what} missing or not a list")
    return value


def _edge(value) -> list[int]:
    """value, once it is a list of two ints: exact types keep bool out and
    cost less than isinstance on millions of edges."""
    if not (type(value) is list and len(value) == 2
            and type(value[0]) is int and type(value[1]) is int):
        raise ValidationError(f"graph document edge {value!r} is not a pair of integers")
    return value


def _int_list(value, what: str) -> list[int]:
    if not (isinstance(value, list)
            and all(isinstance(x, int) and not isinstance(x, bool) for x in value)):
        raise ValidationError(f"graph document {what} {value!r} is not a list of integers")
    return value


def dump(graph: Graph, fmt: str) -> str:
    if fmt == FORMAT_EDGELIST:
        return to_edgelist(graph)
    if fmt == FORMAT_DOT:
        return to_dot(graph)
    if fmt == FORMAT_GRAPHDOC:
        return to_graphdoc(graph)
    raise ValidationError(f"unknown format {fmt!r}; choose from {FORMATS}")


def load(text: str, config: Config = DEFAULT_CONFIG) -> Graph:
    """Read a graphdoc or, as a fallback, an edge list. A vertex count over
    the vertex guard is rejected before any vertex is allocated."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_graphdoc(text, config)
    return from_edgelist(text, config)


def load_file(path: str, config: Config = DEFAULT_CONFIG) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path} is not UTF-8 text: {e}")
    return load(text, config)
