import csv
import io
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
    dyads_csv,
    export_graph,
    _quoteattr,
)
from socmine.ngrams import ranked

PAIRS = {
    ("police", "riots"): 5,
    ("husby", "riots"): 2,
    ("nyheter", "police"): 1,
}


def test_build_graph_threshold_drops_weak_edges():
    graph = build_graph(ranked(PAIRS), threshold=2)
    assert graph.nodes == frozenset({"police", "riots", "husby"})
    assert graph.edges == {
        ("police", "riots"): 5,
        ("husby", "riots"): 2,
    }
    assert graph.threshold == 2
    assert len(graph.nodes) == 3


def test_build_graph_whitelist_and_isolates():
    whitelist = {"police", "riots", "kista"}
    graph = build_graph(ranked(PAIRS), threshold=1, node_whitelist=whitelist)
    assert graph.edges == {("police", "riots"): 5}
    assert graph.nodes == frozenset({"police", "riots"})
    kept = build_graph(ranked(PAIRS), threshold=1, node_whitelist=whitelist, retain_isolates=True)
    assert kept.nodes == frozenset(whitelist)


def test_build_graph_accepts_plain_tuples():
    graph = build_graph(ranked({("a", "b"): 3}), threshold=1)
    assert graph.edges == {("a", "b"): 3}


def test_components_ordering():
    edges = {
        ("a", "b"): 2,
        ("b", "c"): 2,
        ("x", "y"): 2,
    }
    graph = build_graph(ranked(edges), threshold=2)
    assert components(graph) == [{"a", "b", "c"}, {"x", "y"}]


def test_components_include_isolates():
    graph = CooccurrenceGraph(nodes=frozenset({"a", "b", "z"}),
                              edges={("a", "b"): 4}, threshold=1)
    assert components(graph) == [{"a", "b"}, {"z"}]


def test_dyad_report():
    graph = build_graph(ranked(PAIRS), threshold=1)
    assert dyads_csv(graph) == (
        "tag_a,tag_b,weight,ratio\n"
        "police,riots,5,1.0000\n"
        "husby,riots,2,0.4000\n"
        "nyheter,police,1,0.2000\n"
    )


def test_dyad_report_empty_graph():
    graph = CooccurrenceGraph(nodes=frozenset(), edges={}, threshold=1)
    assert dyads_csv(graph) == "tag_a,tag_b,weight,ratio\n"


@pytest.mark.parametrize("fmt,name", [("dot", "graph.dot"), ("graphml", "graph.graphml")])
def test_export_matches_golden(fmt, name):
    graph = build_graph(ranked(PAIRS), threshold=2)
    rendered = export_graph(graph, fmt=fmt, cap=3)
    assert rendered == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["dot", "graphml"])
def test_export_parse_round_trip(fmt):
    graph = build_graph(ranked(PAIRS), threshold=1)
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


# Hand edits of the golden exports (threshold 2, nodes husby, police, riots).
@pytest.mark.parametrize(
    "fmt,old,new,match",
    [
        ("dot", '"husby" -- "riots"', '"husby" -- "husby"', "self-loop"),
        ("dot", '  "husby";\n', "", "outside the node set"),
        ("dot", "weight=2,", "weight=1,", "below threshold"),
        ("graphml", 'source="husby" target="riots"', 'source="husby" target="husby"', "self-loop"),
        ("graphml", '    <node id="husby"/>\n', "", "outside the node set"),
        ("graphml", '<data key="weight">2<', '<data key="weight">1<', "below threshold"),
    ],
)
def test_parse_rejects_edited_edges(fmt, old, new, match):
    text = export_graph(build_graph(ranked(PAIRS), threshold=2), fmt=fmt)
    assert parse_graph(text, fmt=fmt).edges == {("police", "riots"): 5, ("husby", "riots"): 2}
    assert text.count(old) == 1
    with pytest.raises(DataError, match=match):
        parse_graph(text.replace(old, new), fmt=fmt)


def test_dot_quoting_survives_odd_names():
    table = {("pla\\in", 'we"ird'): 2}
    graph = build_graph(ranked(table), threshold=2)
    parsed = parse_graph(export_graph(graph, fmt="dot"), fmt="dot")
    assert parsed.nodes == graph.nodes
    assert dict(parsed.edges) == dict(graph.edges)


TAGS = st.text("abc", min_size=1, max_size=2)


@given(
    st.dictionaries(
        st.tuples(TAGS, TAGS).filter(lambda t: t[0] < t[1]),
        st.integers(1, 4),
        max_size=12,
    ),
    st.integers(1, 4),
    st.none() | st.frozensets(TAGS, max_size=6),
    st.booleans(),
)
def test_build_graph_and_dyad_report_match_brute_force(entries, threshold, whitelist, retain_isolates):
    graph = build_graph(ranked(entries), threshold, whitelist, retain_isolates)

    want = {
        (a, b): n
        for (a, b), n in entries.items()
        if n >= threshold and (whitelist is None or (a in whitelist and b in whitelist))
    }
    want_nodes = {tag for pair in want for tag in pair}
    if retain_isolates and whitelist is not None:
        want_nodes |= whitelist
    assert graph.edges == want
    assert graph.nodes == want_nodes
    assert all(type(pair) is tuple for pair in graph.edges)

    order = ranked(want)
    assert list(graph.edges.items()) == order
    assert list(csv.reader(io.StringIO(dyads_csv(graph))))[1:] == [
        [a, b, str(weight), f"{weight / order[0][1]:.4f}"] for (a, b), weight in order
    ]


@given(st.text(alphabet=st.sampled_from("ab&<>\"'\n\r\t;#é") | st.characters(), max_size=12))
def test_quoteattr_replica_matches_saxutils(value):
    assert _quoteattr(value) == quoteattr(value)


# Tags with and without a comma or a quote.
CSV_TAGS = st.text(st.sampled_from('ab,"'), min_size=1, max_size=3)


@given(
    st.dictionaries(
        st.tuples(CSV_TAGS, CSV_TAGS).filter(lambda t: t[0] < t[1]),
        st.integers(1, 4),
        max_size=12,
    )
)
def test_dyads_csv_equals_csv_writer(entries):
    graph = build_graph(ranked(entries), threshold=1)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["tag_a", "tag_b", "weight", "ratio"])
    heaviest = max(graph.edges.values(), default=1)
    writer.writerows(
        (a, b, weight, f"{weight / heaviest:.4f}") for (a, b), weight in graph.edges.items()
    )
    assert dyads_csv(graph) == buffer.getvalue()
