"""Every artifact of a run parses back to the in-memory result it came from.

The corpora are small and drawn from everything ingest accepts, tags above
all: CSV, DOT, GraphML, SVG and JSON each have characters they must quote
or escape, and a tag may hold any of them.
"""

import csv
import json
import xml.etree.ElementTree as ET
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graph_parse import parse_graph
from helpers import BASE
from socmine.config import make_config
from socmine.corpus import _check_tag, _iso_utc, load_corpus, normalize_tag
from socmine.report import MANIFEST_NAME, Context, run_pipeline


def _accepted(tag: str) -> bool:
    try:
        _check_tag(tag)
    except ValueError:
        return False
    return True


# What a CSV, DOT, GraphML, SVG or JSON writer must quote or escape, the C1
# range (U+0085 is whitespace, which ingest rejects) and non-BMP characters,
# then any character ingest might accept.
_SPECIAL = list(",\"'\\&<>;{}|\x7f\x80\x9f\xa9\U0001f600\U0001d538") + ["ab", "Ab"]
_TAG_CHARS = st.sampled_from(_SPECIAL) | st.characters(blacklist_categories=("Cs",))
TAGS = st.lists(_TAG_CHARS, min_size=1, max_size=4).map("".join).filter(
    lambda raw: _accepted(normalize_tag(raw))
)
# Lexicon stems (dobr, fatal) give the power rows nonzero strengths.
WORDS = st.sampled_from(["dobry", "fatalny", "policja", "oni", "my", "a,b", '"q"', "x;y", "é"])


@st.composite
def corpora(draw):
    """JSONL records over a few days, tags drawn from a small pool so that
    pairs repeat."""
    pool = draw(st.lists(TAGS, min_size=1, max_size=5, unique_by=normalize_tag))
    records = []
    for i in range(draw(st.integers(1, 6))):
        when = BASE + timedelta(days=draw(st.integers(0, 3)), seconds=draw(st.integers(0, 9)))
        records.append(
            {
                "id": f"d{i}",
                "ts": _iso_utc(when),
                "text": " ".join(draw(st.lists(WORDS, max_size=6))),
                "tags": draw(st.lists(st.sampled_from(pool), max_size=4)),
            }
        )
    return records


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _ranked_rows(ranking) -> list[list[str]]:
    return [[*key, str(n)] if isinstance(key, tuple) else [key, str(n)] for key, n in ranking]


def _check_run(run_dir: Path, ctx: Context, fmt: str) -> None:
    corpus = ctx.corpus
    loaded, _ = load_corpus(run_dir / "corpus.jsonl", window=corpus.window)
    assert loaded == corpus

    for name in ("tags", "pairs"):
        rows = _csv_rows(run_dir / f"{name}.csv")
        assert rows[1:] == _ranked_rows(ctx.ranking(name)), name

    graph = ctx.graph
    parsed = parse_graph((run_dir / f"graph.{fmt}").read_text(encoding="utf-8"), fmt)
    assert parsed.nodes == graph.nodes
    assert list(parsed.edges.items()) == list(graph.edges.items())
    assert parsed.threshold == graph.threshold
    heaviest = max(graph.edges.values(), default=1)
    dyads = [[a, b, str(weight), f"{weight / heaviest:.4f}"] for (a, b), weight in graph.edges.items()]
    assert _csv_rows(run_dir / "dyads.csv") == [["tag_a", "tag_b", "weight", "ratio"], *dyads]

    series = ctx.series
    if series:
        rows = _csv_rows(run_dir / "timeline.csv")
        assert rows[0] == ["date", *(s.tag for s in series)]
        assert [row[0] for row in rows[1:]] == [day.isoformat() for day in series[0].days]
        for column, item in enumerate(series, start=1):
            assert [int(row[column]) for row in rows[1:]] == [n for _, n in item.buckets]
        svg = ET.parse(run_dir / "timeline.svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        labels = [el.text for el in svg.iter(f"{ns}text")]
        first, last = series[0].days[0], series[0].days[-1]
        assert labels[:2] == [first.isoformat(), last.isoformat()]
        assert labels[4:] == [s.tag for s in series]
        assert len(list(svg.iter(f"{ns}polyline"))) == len(series)

    report = ctx.power
    rows = _csv_rows(run_dir / "power.csv")
    assert rows[1:-1] == [
        [" ".join(r.ngram), str(r.freq), str(r.strength), str(r.power)] for r in report.rows
    ]
    assert rows[-1] == ["# sum_power", str(report.sum_power)]

    _, coding, _ = ctx.coding
    rows = _csv_rows(run_dir / "coding.csv")
    assert rows[-1] == ["# vocabulary_size", str(coding.vocabulary_size)]
    pronouns = ctx.pronouns
    rows = _csv_rows(run_dir / "pronouns.csv")
    assert [tuple(row[:3]) + (int(row[3]),) for row in rows[1:-3]] == list(pronouns.rows)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_every_artifact_parses_back(tmp_path_factory, records):
    workspace = tmp_path_factory.mktemp("artifacts")
    (workspace / "corpus.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
    )
    for fmt in ("dot", "graphml"):
        config = make_config(
            {
                "corpus": {"path": "corpus.jsonl"},
                "run": {"out_dir": "runs"},
                "tags": {"top": 0},
                "pairs": {"top": 0},
                "graph": {"threshold": 1, "format": fmt},
                "sentiment": {"min_freq": 1},
            },
            base_dir=workspace,
        )
        manifest = run_pipeline(config)
        run_dir = Path(manifest.run_dir)
        ctx = Context(config.values)
        _check_run(run_dir, ctx, fmt)
        payload = json.loads((run_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert payload["stages"] == [
            {"name": s.name, "artifacts": list(s.artifacts), "summary": s.summary}
            for s in manifest.stages
        ]
        summaries = {s["name"]: s["summary"] for s in payload["stages"]}
        assert summaries["tags"]["top"] == [[tag, n] for tag, n in ctx.ranking("tags")]
        assert summaries["pairs"]["top"] == [[a, b, n] for (a, b), n in ctx.ranking("pairs")]
