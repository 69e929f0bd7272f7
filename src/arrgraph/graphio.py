"""Flat-file graph formats: edge list, DOT, and the "graphdoc" JSON document.

A graphdoc (version 2) holds the metadata, the 1-based tuple labels and the
adjacency as one lowercase hex string per vertex: row v has ceil(V/4)
digits, and bit u of it is set when u and v are adjacent. Re-exporting an
imported document gives the same bytes. Edge lists and DOT keep one line
per edge, for other tools. A loaded graphdoc's format is checked here, and
its distinct labels and row contents by the Graph constructor (see
Graph.__init__); an edge list, line by line as it is read."""

from __future__ import annotations

import json
from operator import or_
from typing import Iterator

from .config import Config, DEFAULT_CONFIG, decimal
from .errors import ValidationError
from .graphs import Graph, _bits, _transpose

FORMAT_EDGELIST = "edgelist"
FORMAT_DOT = "dot"
FORMAT_GRAPHDOC = "graphdoc"

FORMATS = (FORMAT_EDGELIST, FORMAT_DOT, FORMAT_GRAPHDOC)

_GRAPHDOC_MAGIC = "arrgraph-graphdoc"
_GRAPHDOC_VERSION = 2
_HEX_DIGITS = b"0123456789abcdef"


def _label_str(label: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x + 1) for x in label) + "]"


def to_edgelist(graph: Graph) -> str:
    """One `u v` pair per line, 0-based vertex indexes."""
    return "".join(_edgelist_chunks(graph))


def _edgelist_chunks(graph: Graph):
    yield f"# vertices {graph.vertex_count}\n"
    yield from _edge_lines(graph, "", " ", "\n")


def _edge_lines(graph: Graph, pre: str, mid: str, post: str):
    """One string per row u: the lines pre + u + mid + v + post of its edges u < v."""
    for u, row in enumerate(graph.adjacency):
        later = [str(v) for v in _bits(row & -(2 << u))]  # the bits above u
        if later:
            head = f"{pre}{u}{mid}"
            yield head + (post + head).join(later) + post


def _check_vertex_guard(vertex_count: int, config: Config) -> None:
    if vertex_count > config.vertex_guard:
        raise ValidationError(f"{vertex_count} vertices, over the guard {config.vertex_guard}")


def from_edgelist(text: str, config: Config = DEFAULT_CONFIG) -> Graph:
    """Read an edge list: one `u v` pair of 0-based vertex indexes per line,
    with blank lines and `#` comment lines skipped. A `# vertices N` line
    gives the vertex count, checked against the vertex guard on that line;
    without one, the count is one more than the largest index, and an index
    at the guard or above is rejected as soon as it is read. Bit v of row u
    is set as the line is read, so no edge is kept, and one transpose adds
    bit u of row v to every row at the end. Counts and indexes are ASCII
    decimal only: int() would also take signs, "_" separators and other
    scripts' digits."""
    vertex_count = None
    rows: list[int] = []
    for line in _lines(text):
        parts = line.split()
        if not (len(parts) == 2 and line.isascii()
                and parts[0].isdigit() and parts[1].isdigit()):
            if not parts:
                continue
            if not parts[0].startswith("#"):
                raise ValidationError(f"bad edge list line: {line.strip()!r}")
            parts = line.strip()[1:].split()
            if parts[:1] == ["vertices"]:
                vertex_count = _vertex_count(parts[1:], line)
                _check_vertex_guard(vertex_count, config)
                rows.extend([0] * (vertex_count - len(rows)))
            continue
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:  # over the 4300 digits int() takes
            raise ValidationError(f"bad edge list line: {line.strip()!r}")
        if vertex_count is None:
            top = max(u, v)
            if top >= len(rows):
                _check_vertex_guard(top + 1, config)
                rows.extend([0] * (top + 1 - len(rows)))
        elif u >= vertex_count or v >= vertex_count:
            raise ValidationError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
    rows = list(map(or_, rows, _transpose(rows)))
    if vertex_count is not None:
        # the last `# vertices` line counts, and an edge read before it may
        # reach past it
        reach = max(map(int.bit_length, rows), default=0)
        if reach > vertex_count:
            raise ValidationError(
                f"edge to vertex {reach - 1} out of range for {vertex_count} vertices")
        del rows[vertex_count:]
    labels = [(i,) for i in range(len(rows))]
    return Graph._from_adjacency(labels, rows, {"family": "plain"})


def _vertex_count(tokens: list[str], line: str) -> int:
    """The count of a `# vertices N` line, from its tokens after `vertices`.
    A count of over 4300 digits, which decimal refuses, is over every guard."""
    try:
        count = decimal(tokens[0] if tokens else "")
    except ValidationError:
        raise ValidationError(f"bad vertex count line: {line.strip()!r}") from None
    if count < 0:
        raise ValidationError(f"negative vertex count: {line.strip()!r}")
    return count


def _lines(text: str, chunk: int = 1 << 16):
    """The lines of text, as str.splitlines gives them, split a chunk of
    about 64 KB at a time so that the whole list of lines is never held."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk)
        end = len(text) if end < 0 else end + 1
        yield from text[start:end].splitlines()
        start = end


def to_dot(graph: Graph) -> str:
    return "".join(_dot_chunks(graph))


def _dot_chunks(graph: Graph):
    yield "graph G {\n"
    for v, lab in enumerate(graph.labels):
        yield f'  {v} [label="{_label_str(lab)}"];\n'
    yield from _edge_lines(graph, "  ", " -- ", ";\n")
    yield "}\n"


def to_graphdoc(graph: Graph) -> str:
    """Graphdoc version 2: metadata, 1-based tuple labels, and adjacency
    row v as ceil(V/4) lowercase hex digits with bit u for vertex u.
    Canonical serialization (sorted keys, fixed separators) so re-export of
    an imported document is byte-identical."""
    return "".join(_graphdoc_chunks(graph))


def _graphdoc_chunks(graph: Graph):
    """The graphdoc in pieces: the JSON text of the document with no rows,
    cut at its empty rows array, with one piece per row in between. "rows"
    is the last key with a string value in sorted order, so the cut is at
    the text's last '"rows":[]'; a metadata key "rows" comes before it."""
    doc = {
        "format": _GRAPHDOC_MAGIC,
        "version": _GRAPHDOC_VERSION,
        "metadata": graph.metadata,
        "vertex_count": graph.vertex_count,
        "labels": [[x + 1 for x in lab] for lab in graph.labels],
        "rows": [],
    }
    head, tail = json.dumps(doc, sort_keys=True, separators=(",", ":")).rsplit('"rows":[]', 1)
    yield head + '"rows":['
    width = (graph.vertex_count + 3) // 4
    for v, row in enumerate(graph.adjacency):
        yield f'{"," if v else ""}"{row:0{width}x}"'
    yield "]" + tail + "\n"


def from_graphdoc(text: str, config: Config = DEFAULT_CONFIG) -> Graph:
    """Read a version-2 graphdoc. Checked here: the format marker, the
    version (an older one is rejected with a hint to regenerate the file),
    vertex_count against the guard before any row is parsed, the labels'
    count, the metadata, then the rows' format; the rest by Graph()."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers malformed JSON and integers too long to convert;
        # RecursionError, arrays or objects nested too deep to decode
        raise ValidationError(f"not a graph document: {e}")
    if not isinstance(doc, dict) or doc.get("format") != _GRAPHDOC_MAGIC:
        raise ValidationError("not a graph document (missing format marker)")
    version = doc.get("version")
    if not (type(version) is int and version == _GRAPHDOC_VERSION):
        raise ValidationError(
            f"graph document version {version!r} is not {_GRAPHDOC_VERSION}; "
            "regenerate the file with `arrgraph gen`")
    nv = doc.get("vertex_count")
    # exact type: a bool is an int to isinstance
    if not (type(nv) is int and nv >= 0):
        raise ValidationError(f"graph document vertex_count {nv!r} is not an integer >= 0")
    _check_vertex_guard(nv, config)
    labels = doc.get("labels")
    if not isinstance(labels, list):
        raise ValidationError("graph document labels missing or not a list")
    labels = [tuple(x - 1 for x in _int_list(lab, "label")) for lab in labels]
    if len(labels) != nv:
        raise ValidationError("label count does not match vertex_count")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("graph document metadata is not an object")
    return Graph(labels, _rows(doc.get("rows"), nv), metadata)


def _rows(value, nv: int) -> list[int]:
    """The ints of a graphdoc's rows, once they are nv strings of
    ceil(nv/4) lowercase hex digits."""
    width = (nv + 3) // 4
    if not (type(value) is list and len(value) == nv
            and all(type(s) is str and len(s) == width for s in value)):
        raise ValidationError(f"graph document rows are not {nv} strings of {width} hex digits")
    # int(s, 16) alone would also take "0x", "_", signs, whitespace and
    # uppercase, so every character is checked at once
    joined = "".join(value)
    if not joined.isascii() or joined.encode().translate(None, _HEX_DIGITS):
        raise ValidationError("graph document rows hold a character other than 0-9a-f")
    return [int(s, 16) for s in value]


def _int_list(value, what: str) -> list[int]:
    if not (isinstance(value, list) and all(type(x) is int for x in value)):
        raise ValidationError(f"graph document {what} {value!r} is not a list of integers")
    return value


def dump(graph: Graph, fmt: str) -> Iterator[str]:
    """The text of graph in format fmt, one row's string at a time, as the
    to_* writers join it. The format is checked here, before the first
    piece is made, so that a bad format leaves no file."""
    chunks = {FORMAT_EDGELIST: _edgelist_chunks, FORMAT_DOT: _dot_chunks,
              FORMAT_GRAPHDOC: _graphdoc_chunks}.get(fmt)
    if chunks is None:
        raise ValidationError(f"unknown format {fmt!r}; choose from {FORMATS}")
    return chunks(graph)


def load(text: str, config: Config = DEFAULT_CONFIG) -> Graph:
    """Read a graphdoc or, as a fallback, an edge list. A vertex count over
    the vertex guard is rejected before any vertex is allocated."""
    if text.lstrip().startswith("{"):
        return from_graphdoc(text, config)
    return from_edgelist(text, config)


def load_file(path: str, config: Config = DEFAULT_CONFIG) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path} is not UTF-8 text: {e}")
    return load(text, config)
