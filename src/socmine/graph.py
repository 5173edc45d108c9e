"""Thresholded weighted tag co-occurrence network: build, cluster, export.

Exports are byte-deterministic: nodes and edges are emitted in sorted order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .ngrams import _csv_text, _rows_text


class CooccurrenceGraph(NamedTuple):
    """Weighted undirected graph of tags; edge weight = co-occurrence count.

    Edges are keyed by plain (a, b) tuples with a < b and listed in rank
    order: weight descending, ties ascending by (a, b).
    """

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]
    threshold: int


def build_graph(
    rows: Iterable[tuple[tuple[str, str], int]],
    threshold: int,
    node_whitelist: Iterable[str] | None = None,
    retain_isolates: bool = False,
) -> CooccurrenceGraph:
    """Keep pairs with count >= threshold as edges, in rank order.

    Rows are the pair table in rank order, as `ngrams.ranked` returns them,
    so the edges are read off its prefix down to the first row below the
    threshold. Pair keys are (a, b) with a < b, as count_tag_pairs writes
    them. With a whitelist, both endpoints must be whitelisted. Nodes are
    the endpoints of surviving edges; whitelisted nodes without edges are
    retained only when retain_isolates is set.
    """
    whitelist = set(node_whitelist) if node_whitelist is not None else None

    # Each edge key is a new plain tuple, whatever tuple type the rows hold.
    edges: dict[tuple[str, str], int] = {}
    for (a, b), count in rows:
        if count < threshold:
            break
        if whitelist is None or (a in whitelist and b in whitelist):
            edges[a, b] = count

    nodes = {tag for pair in edges for tag in pair}
    if retain_isolates and whitelist is not None:
        nodes |= whitelist
    return CooccurrenceGraph(nodes=frozenset(nodes), edges=edges, threshold=threshold)


def components(graph: CooccurrenceGraph) -> list[set[str]]:
    """Connected components, ordered by their lexicographically smallest member."""
    adjacency: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for a, b in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    seen: set[str] = set()
    result: list[set[str]] = []
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen |= component
        result.append(component)
    return result


def dyads_csv(graph: CooccurrenceGraph) -> str:
    """Every edge as a tag_a,tag_b,weight,ratio row in rank order: the ratio
    is to the first, heaviest edge's weight, written with 4 decimals."""
    top = next(iter(graph.edges.values()), 1)
    edges = graph.edges.items()
    body = _rows_text(edges, ",".join, lambda weight: f",{weight},{weight / top:.4f}\n")
    fields = ((a, b, weight, f"{weight / top:.4f}") for (a, b), weight in edges)
    return _csv_text("tag_a,tag_b,weight,ratio", body, len(edges), fields)


def _per_weight(graph: CooccurrenceGraph, cap: int, text: str) -> dict[int, str]:
    """Each distinct edge weight -> text formatted with it and its drawn
    width, so that an export formats each weight once."""
    weights = set(graph.edges.values())
    return {w: text.format(weight=w, width=min(w, cap) if cap else w) for w in weights}


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(graph: CooccurrenceGraph, fmt: str = "dot", cap: int = 0) -> str:
    """Emit the graph as DOT (fmt "dot") or GraphML text.

    The drawn edge width is capped at `cap`, 0 for no cap (the true weight
    is always carried as a data attribute), mirroring plots that thin their
    dominant edges so the rest of the network stays visible.
    """
    return _export_dot(graph, cap) if fmt == "dot" else _export_graphml(graph, cap)


def _sorted_edges(graph: CooccurrenceGraph) -> list[tuple[tuple[str, str], int]]:
    # Sorted by pair alone, as ngrams.ranked sorts a Mapping: no tuple is
    # built per edge, and pairs are distinct, so the weight never decides.
    return sorted(graph.edges.items(), key=itemgetter(0))


def _export_dot(graph: CooccurrenceGraph, cap: int) -> str:
    quoted = {node: _dot_quote(node) for node in graph.nodes}
    lines = ["graph cooccurrence {", f"  graph [threshold={graph.threshold}];"]
    for node in sorted(graph.nodes):
        lines.append(f"  {quoted[node]};")
    attrs = _per_weight(graph, cap, "[weight={weight}, penwidth={width}];")
    for (a, b), weight in _sorted_edges(graph):
        lines.append(f"  {quoted[a]} -- {quoted[b]} {attrs[weight]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoteattr(value: str) -> str:
    """The bytes of xml.sax.saxutils.quoteattr, which imports urllib and http."""
    value = value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    value = value.replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def _export_graphml(graph: CooccurrenceGraph, cap: int) -> str:
    quoted = {node: _quoteattr(node) for node in graph.nodes}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>',
        '  <key id="render_width" for="edge" attr.name="render_width" attr.type="double"/>',
        '  <key id="threshold" for="graph" attr.name="threshold" attr.type="int"/>',
        '  <graph id="cooccurrence" edgedefault="undirected">',
        f'    <data key="threshold">{graph.threshold}</data>',
    ]
    for node in sorted(graph.nodes):
        lines.append(f"    <node id={quoted[node]}/>")
    data = _per_weight(graph, cap, '      <data key="weight">{weight}</data>\n'
                                   '      <data key="render_width">{width}</data>\n')
    lines += [
        f"    <edge source={quoted[a]} target={quoted[b]}>\n{data[weight]}    </edge>"
        for (a, b), weight in _sorted_edges(graph)
    ]
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"
