import csv
import io
from datetime import date
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import DAY, GOLDEN, make_corpus, make_doc
from socmine.corpus import Corpus, parse_window
from socmine.ngrams import count_tags
from socmine.timeline import (
    CumulativeSeries,
    classify_shape,
    cumulative_series_bulk,
    export_timeline,
)

D = date(2013, 5, 20)


def _series(tag, values):
    days = tuple(date.fromordinal(D.toordinal() + i) for i in range(len(values)))
    return CumulativeSeries(tag=tag, days=days, totals=tuple(values))


def test_series_increments():
    series = _series("x", [2, 2, 5, 9])
    assert series.increments() == [2, 0, 3, 4]
    assert series.total == 9


def test_cumulative_series_covers_whole_window():
    corpus = make_corpus(
        ("a", 0, ("riots",)),
        ("b", 0, ("riots", "husby")),
        ("c", 3, ("riots",)),
    )
    series = cumulative_series_bulk(corpus, ["riots"])["riots"]
    assert len(series.days) == 4
    assert series.totals == (2, 2, 2, 3)
    # a tag absent from the corpus still gets a flat zero series
    assert cumulative_series_bulk(corpus, ["ghost"])["ghost"].total == 0


def test_series_window_crosses_1970():
    # A negative epoch second belongs to the day before 1970-01-01.
    times = {"a": -2 * DAY + 5, "b": -1, "c": 0, "d": DAY - 1}
    docs = [make_doc(doc_id, tags=("x",))._replace(timestamp=ts) for doc_id, ts in times.items()]
    window = parse_window("1969-12-30T00:00:05Z..1970-01-02")
    corpus = Corpus.from_documents(docs, window)
    series = cumulative_series_bulk(corpus, ["x"])["x"]
    assert series.days == (date(1969, 12, 30), date(1969, 12, 31), date(1970, 1, 1), date(1970, 1, 2))
    assert series.totals == (1, 2, 4, 4)


def test_bulk_series_share_one_axis():
    corpus = make_corpus(("a", 0, ("x",)), ("b", 2, ("y",)))
    bulk = cumulative_series_bulk(corpus, ["x", "y"])
    assert bulk["x"].days is bulk["y"].days
    assert bulk["x"].total == 1
    assert bulk["y"].total == 1


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
def test_series_endpoint_equals_event_total(increments):
    series = _series("t", list(accumulate(increments)))
    assert series.total == sum(increments)
    assert series.increments() == increments


def test_classify_linear():
    verdict = classify_shape(_series("svpol", [i + 1 for i in range(30)]))
    assert verdict.shape == "linear"
    assert verdict.linearity_r2 == pytest.approx(1.0)
    assert verdict.reason is None


def test_classify_stepwise():
    values = [1] * 10 + [50] * 10 + [51] * 10
    verdict = classify_shape(_series("media", values))
    assert verdict.shape == "stepwise"
    assert verdict.max_step_fraction == pytest.approx(49 / 51)


def test_classify_burst():
    # everything lands inside one week, but no single day dominates
    values = [0, 3, 6, 9, 12, 15, 18, 20] + [20] * 20
    verdict = classify_shape(_series("event", values))
    assert verdict.shape == "burst"
    assert verdict.burst_mass_fraction >= 0.6
    assert verdict.burst_window[0] >= D
    assert verdict.burst_window[1] <= date.fromordinal(D.toordinal() + 27)


def test_classify_other():
    # two spread-out waves: poor line fit, no step, no single burst week
    values = [0, 6, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 18, 24, 24]
    verdict = classify_shape(_series("waves", values))
    assert verdict.shape == "other"
    assert verdict.reason is None


def test_classify_small_totals_are_other():
    verdict = classify_shape(_series("rare", [0, 1, 2, 9]))
    assert verdict.shape == "other"
    assert verdict.reason == "total 9 below minimum 10"


def test_classify_flat_series():
    assert classify_shape(_series("flat", [0, 0, 0])).reason == "series has no events"


def test_stepwise_beats_burst_beats_linear():
    # one giant day: both step and burst thresholds are exceeded
    step = classify_shape(_series("s", [0, 0, 100, 100, 100]))
    assert step.max_step_fraction >= 0.4
    assert step.burst_mass_fraction >= 0.6
    assert step.shape == "stepwise"


def _golden_series():
    corpus = make_corpus(
        ("a1", 0, ("husby", "riots")),
        ("a2", 0, ("riots",)),
        ("a3", 1, ("husby",)),
        ("a4", 2, ("riots", "husby")),
    )
    bulk = cumulative_series_bulk(corpus, ["husby", "riots"])
    return [bulk[tag] for tag in sorted(bulk)]


def test_timeline_csv_golden():
    rendered = export_timeline(_golden_series(), fmt="csv")
    assert rendered == (GOLDEN / "timeline.csv").read_text(encoding="utf-8")


def test_timeline_svg_golden():
    rendered = export_timeline(_golden_series(), fmt="svg")
    assert rendered == (GOLDEN / "timeline.svg").read_text(encoding="utf-8")


def test_svg_legend_escapes_markup():
    import xml.etree.ElementTree as ET

    corpus = make_corpus(("a", 0, ("a&b", "<x>")), ("b", 1, ("a&b",)))
    bulk = cumulative_series_bulk(corpus, ["a&b", "<x>"])
    svg = export_timeline([bulk[tag] for tag in sorted(bulk)], fmt="svg")
    root = ET.fromstring(svg)
    legend = [el.text for el in root if el.tag.endswith("text") and el.get("font-size") == "12"]
    assert legend == ["<x>", "a&b"]


def test_series_endpoint_matches_tag_count():
    corpus = make_corpus(
        ("a", 0, ("riots", "husby")),
        ("b", 1, ("riots",)),
        ("c", 5, ("husby", "riots")),
    )
    counts = count_tags(corpus)
    for tag in ("riots", "husby"):
        assert cumulative_series_bulk(corpus, [tag])[tag].total == counts[tag]


def _frozen_export_csv(series):
    """export_timeline's CSV as written before ngrams._writer_text, frozen as
    the reference for the bytes it must keep."""
    axis = series[0].days
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["date"] + [s.tag for s in series])
    for i, day in enumerate(axis):
        writer.writerow([day.isoformat()] + [s.totals[i] for s in series])
    return buffer.getvalue()


# A tag may hold a comma or a quote, which CSV must quote.
CSV_TAGS = st.text(st.sampled_from(["a", ",", '"', "é", "#", "'"]), min_size=1, max_size=5)


@given(
    st.lists(CSV_TAGS, min_size=1, max_size=4, unique=True),
    st.integers(1, 5),
    st.data(),
)
def test_timeline_csv_gives_the_frozen_writers_bytes(tags, days, data):
    series = [
        _series(tag, data.draw(st.lists(st.integers(0, 99), min_size=days, max_size=days)))
        for tag in tags
    ]
    assert export_timeline(series, fmt="csv") == _frozen_export_csv(series)
