from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import GOLDEN, make_corpus
from socmine.ngrams import count_tags
from socmine.timeline import (
    CumulativeSeries,
    classify_shape,
    cumulative_series_bulk,
    export_timeline,
)

D = date(2013, 5, 20)


def _series(tag, values):
    buckets = tuple((date.fromordinal(D.toordinal() + i), v) for i, v in enumerate(values))
    return CumulativeSeries(tag=tag, buckets=buckets)


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
    assert len(series.buckets) == 4
    assert [cum for _, cum in series.buckets] == [2, 2, 2, 3]
    # a tag absent from the corpus still gets a flat zero series
    assert cumulative_series_bulk(corpus, ["ghost"])["ghost"].total == 0


def test_bulk_series_share_one_axis():
    corpus = make_corpus(("a", 0, ("x",)), ("b", 2, ("y",)))
    bulk = cumulative_series_bulk(corpus, ["x", "y"])
    assert bulk["x"].days == bulk["y"].days
    assert bulk["x"].total == 1
    assert bulk["y"].total == 1


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
def test_series_endpoint_equals_event_total(increments):
    running, buckets = 0, []
    for i, inc in enumerate(increments):
        running += inc
        buckets.append((date.fromordinal(D.toordinal() + i), running))
    series = CumulativeSeries(tag="t", buckets=tuple(buckets))
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
