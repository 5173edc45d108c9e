from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graph_parse import parse_graph
from helpers import GOLDEN
from socmine.errors import DataError
from socmine.graph import (
    CooccurrenceGraph,
    build_graph,
    components,
    dyad_report,
    export_graph,
    _quoteattr,
)
from socmine.ngrams import CountTable, TagPair

PAIRS = CountTable(
    {
        TagPair("police", "riots"): 5,
        TagPair("husby", "riots"): 2,
        TagPair("nyheter", "police"): 1,
    }
)


def test_build_graph_threshold_drops_weak_edges():
    graph = build_graph(PAIRS, threshold=2)
    assert graph.nodes == frozenset({"police", "riots", "husby"})
    assert graph.edges == {
        TagPair("police", "riots"): 5,
        TagPair("husby", "riots"): 2,
    }
    assert graph.threshold == 2
    assert len(graph) == 3


def test_build_graph_whitelist_and_isolates():
    whitelist = {"police", "riots", "kista"}
    graph = build_graph(PAIRS, threshold=1, node_whitelist=whitelist)
    assert graph.edges == {TagPair("police", "riots"): 5}
    assert graph.nodes == frozenset({"police", "riots"})
    kept = build_graph(PAIRS, threshold=1, node_whitelist=whitelist, retain_isolates=True)
    assert kept.nodes == frozenset(whitelist)


def test_build_graph_accepts_plain_tuples_and_rejects_bad_threshold():
    graph = build_graph(CountTable({("b", "a"): 3}), threshold=1)
    assert graph.edges == {TagPair("a", "b"): 3}
    with pytest.raises(ValueError):
        build_graph(PAIRS, threshold=0)


def test_graph_validation():
    with pytest.raises(ValueError, match="below threshold"):
        CooccurrenceGraph(
            nodes=frozenset({"a", "b"}), edges={TagPair("a", "b"): 1}, threshold=2
        )
    with pytest.raises(ValueError, match="outside the node set"):
        CooccurrenceGraph(nodes=frozenset({"a"}), edges={TagPair("a", "b"): 3}, threshold=1)


def test_components_ordering():
    edges = CountTable(
        {
            TagPair("a", "b"): 2,
            TagPair("b", "c"): 2,
            TagPair("x", "y"): 2,
        }
    )
    graph = build_graph(edges, threshold=2)
    assert components(graph) == [{"a", "b", "c"}, {"x", "y"}]


def test_components_include_isolates():
    graph = CooccurrenceGraph(nodes=frozenset({"a", "b", "z"}),
                              edges={TagPair("a", "b"): 4}, threshold=1)
    assert components(graph) == [{"a", "b"}, {"z"}]


def test_dyad_report():
    graph = build_graph(PAIRS, threshold=1)
    rows = dyad_report(graph, 3)
    assert [(r.pair, r.weight) for r in rows] == [
        (TagPair("police", "riots"), 5),
        (TagPair("husby", "riots"), 2),
        (TagPair("nyheter", "police"), 1),
    ]
    assert rows[0].ratio == 1.0
    assert rows[1].ratio == pytest.approx(0.4)
    assert dyad_report(graph, 1) == rows[:1]
    with pytest.raises(ValueError):
        dyad_report(graph, 0)


def test_dyad_report_empty_graph():
    graph = CooccurrenceGraph(nodes=frozenset(), edges={}, threshold=1)
    assert dyad_report(graph, 5) == []


@pytest.mark.parametrize("fmt,name", [("dot", "graph.dot"), ("graphml", "graph.graphml")])
def test_export_matches_golden(fmt, name):
    graph = build_graph(PAIRS, threshold=2)
    rendered = export_graph(graph, fmt=fmt, cap=3)
    assert rendered == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["dot", "graphml"])
def test_export_parse_round_trip(fmt):
    graph = build_graph(PAIRS, threshold=1)
    first = export_graph(graph, fmt=fmt, cap=2)
    parsed = parse_graph(first, fmt=fmt)
    assert parsed.nodes == graph.nodes
    assert dict(parsed.edges) == dict(graph.edges)
    assert parsed.threshold == graph.threshold
    # capping touches only the drawn width, so a re-export is byte-identical
    assert export_graph(parsed, fmt=fmt, cap=2) == first


def test_parse_rejects_garbage():
    with pytest.raises(DataError):
        parse_graph("digraph nope {}", fmt="dot")
    with pytest.raises(DataError):
        parse_graph("<not xml", fmt="graphml")
    with pytest.raises(ValueError):
        export_graph(build_graph(PAIRS, threshold=2), fmt="gexf")


def test_dot_quoting_survives_odd_names():
    table = CountTable({TagPair.of('we"ird', "pla\\in"): 2})
    graph = build_graph(table, threshold=2)
    parsed = parse_graph(export_graph(graph, fmt="dot"), fmt="dot")
    assert parsed.nodes == graph.nodes
    assert dict(parsed.edges) == dict(graph.edges)


@given(st.text(alphabet=st.sampled_from("ab&<>\"'\n\r\t;#é") | st.characters(), max_size=12))
def test_quoteattr_replica_matches_saxutils(value):
    assert _quoteattr(value) == quoteattr(value)
