"""Thresholded weighted tag co-occurrence network: build, cluster, export.

Exports are byte-deterministic: nodes and edges are emitted in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .ngrams import CountTable, TagPair, _rank_key

FORMATS = ("dot", "graphml")


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Weighted undirected graph of tags; edge weight = co-occurrence count."""

    nodes: frozenset[str]
    edges: Mapping[TagPair, int]
    threshold: int

    def __post_init__(self) -> None:
        for pair, weight in self.edges.items():
            if weight < self.threshold:
                raise ValueError(f"edge {pair} weight {weight} below threshold")
            if pair.a not in self.nodes or pair.b not in self.nodes:
                raise ValueError(f"edge {pair} has an endpoint outside the node set")

    def __len__(self) -> int:
        return len(self.nodes)


class DyadRow(NamedTuple):
    pair: TagPair
    weight: int
    ratio: float


def build_graph(
    pairs: CountTable,
    threshold: int,
    node_whitelist: Iterable[str] | None = None,
    retain_isolates: bool = False,
) -> CooccurrenceGraph:
    """Keep pairs with count >= threshold as edges.

    With a whitelist, both endpoints must be whitelisted. Nodes are the
    endpoints of surviving edges; whitelisted nodes without edges are
    retained only when retain_isolates is set.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    whitelist = set(node_whitelist) if node_whitelist is not None else None

    edges: dict[TagPair, int] = {}
    for (a, b), count in pairs.entries.items():
        if count < threshold:
            continue
        if whitelist is not None and (a not in whitelist or b not in whitelist):
            continue
        edges[TagPair.of(a, b)] = count

    nodes: set[str] = set()
    for pair in edges:
        nodes.add(pair.a)
        nodes.add(pair.b)
    if retain_isolates and whitelist is not None:
        nodes |= whitelist
    return CooccurrenceGraph(nodes=frozenset(nodes), edges=edges, threshold=threshold)


def components(graph: CooccurrenceGraph) -> list[set[str]]:
    """Connected components, ordered by their lexicographically smallest member."""
    adjacency: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for pair in graph.edges:
        adjacency[pair.a].add(pair.b)
        adjacency[pair.b].add(pair.a)

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


def dyad_report(graph: CooccurrenceGraph, k: int) -> list[DyadRow]:
    """Top-k edges by weight with each edge's weight ratio to the maximum edge."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not graph.edges:
        return []
    ordered = sorted(graph.edges.items(), key=_rank_key)
    max_weight = ordered[0][1]
    return [DyadRow(pair, weight, weight / max_weight) for pair, weight in ordered[:k]]


def _render_width(weight: int, cap: int | None) -> int:
    return min(weight, cap) if cap is not None else weight


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(
    graph: CooccurrenceGraph,
    fmt: str = "dot",
    cap: int | None = None,
) -> str:
    """Emit the graph as DOT or GraphML text.

    The drawn edge width is capped at `cap` (the true weight is always
    carried as a data attribute), mirroring plots that thin their dominant
    edges so the rest of the network stays visible.
    """
    if fmt == "dot":
        return _export_dot(graph, cap)
    if fmt == "graphml":
        return _export_graphml(graph, cap)
    raise ValueError(f"unsupported graph format: {fmt!r}")


def _sorted_edges(graph: CooccurrenceGraph) -> list[tuple[str, str, int]]:
    # Flat (a, b, weight) tuples sort on list.sort's fast path; pairs are
    # distinct, so the weight never decides the order.
    return sorted((pair.a, pair.b, weight) for pair, weight in graph.edges.items())


def _export_dot(graph: CooccurrenceGraph, cap: int | None) -> str:
    quoted = {node: _dot_quote(node) for node in graph.nodes}
    lines = ["graph cooccurrence {", f"  graph [threshold={graph.threshold}];"]
    for node in sorted(graph.nodes):
        lines.append(f"  {quoted[node]};")
    for a, b, weight in _sorted_edges(graph):
        width = _render_width(weight, cap)
        lines.append(
            f"  {quoted[a]} -- {quoted[b]} [weight={weight}, penwidth={width}];"
        )
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


def _export_graphml(graph: CooccurrenceGraph, cap: int | None) -> str:
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
    for a, b, weight in _sorted_edges(graph):
        width = _render_width(weight, cap)
        lines.append(f"    <edge source={quoted[a]} target={quoted[b]}>")
        lines.append(f'      <data key="weight">{weight}</data>')
        lines.append(f'      <data key="render_width">{width}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"
