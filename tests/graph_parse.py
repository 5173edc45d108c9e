"""Parse graphs written by socmine.graph.export_graph back into a graph.

A test oracle for the exporters, not part of the package: DOT through
regular expressions, GraphML through ElementTree.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from socmine.errors import DataError
from socmine.graph import CooccurrenceGraph
from socmine.ngrams import TagPair

_DOT_GRAPH_RE = re.compile(r"graph \[threshold=(\d+)\];")
_DOT_NODE_RE = re.compile(r'^"((?:[^"\\]|\\.)*)";$')
_DOT_EDGE_RE = re.compile(
    r'^"((?:[^"\\]|\\.)*)" -- "((?:[^"\\]|\\.)*)" \[weight=(\d+), penwidth=(\d+)\];$'
)


def _dot_unquote(inner: str) -> str:
    return inner.replace('\\"', '"').replace("\\\\", "\\")


def parse_graph(text: str, fmt: str = "dot") -> CooccurrenceGraph:
    """Parse a graph previously produced by export_graph."""
    if fmt == "dot":
        return _parse_dot(text)
    if fmt == "graphml":
        return _parse_graphml(text)
    raise ValueError(f"unsupported graph format: {fmt!r}")


def _parse_dot(text: str) -> CooccurrenceGraph:
    threshold = 1
    nodes: set[str] = set()
    edges: dict[TagPair, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        match = _DOT_GRAPH_RE.fullmatch(line)
        if match:
            threshold = int(match.group(1))
            continue
        match = _DOT_NODE_RE.fullmatch(line)
        if match:
            nodes.add(_dot_unquote(match.group(1)))
            continue
        match = _DOT_EDGE_RE.fullmatch(line)
        if match:
            pair = TagPair.of(_dot_unquote(match.group(1)), _dot_unquote(match.group(2)))
            edges[pair] = int(match.group(3))
    if not nodes and not edges and "graph cooccurrence {" not in text:
        raise DataError("not a recognized DOT co-occurrence graph")
    return CooccurrenceGraph(nodes=frozenset(nodes), edges=edges, threshold=threshold)


def _parse_graphml(text: str) -> CooccurrenceGraph:
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DataError(f"invalid GraphML: {exc}") from exc
    graph_el = root.find("g:graph", ns)
    if graph_el is None:
        raise DataError("GraphML file has no <graph> element")
    threshold = 1
    threshold_el = graph_el.find("g:data[@key='threshold']", ns)
    if threshold_el is not None and threshold_el.text:
        threshold = int(threshold_el.text)
    nodes = {el.attrib["id"] for el in graph_el.findall("g:node", ns)}
    edges: dict[TagPair, int] = {}
    for el in graph_el.findall("g:edge", ns):
        pair = TagPair.of(el.attrib["source"], el.attrib["target"])
        weight_el = el.find("g:data[@key='weight']", ns)
        if weight_el is None or weight_el.text is None:
            raise DataError(f"edge {pair} is missing its weight attribute")
        edges[pair] = int(weight_el.text)
    return CooccurrenceGraph(nodes=frozenset(nodes), edges=edges, threshold=threshold)
