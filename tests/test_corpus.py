import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socmine.corpus
from helpers import BASE, FIXTURES, UTC, make_doc
from socmine.corpus import (
    _BAD_TAG_CHAR,
    Corpus,
    Document,
    filter_multi_tag,
    load_corpus,
    normalize_tag,
    parse_timestamp,
    parse_window,
    write_corpus,
)
from socmine.errors import DataError


def test_normalize_tag():
    assert normalize_tag("#Svpol") == "svpol"
    assert normalize_tag("##SVPOL") == "svpol"
    assert normalize_tag("husby") == "husby"
    assert normalize_tag("#Stkhlmriot", {"stkhlmriot": "sthlmriot"}) == "sthlmriot"


def test_document_validation():
    with pytest.raises(ValueError):
        Document(id="", timestamp=BASE, text="")
    with pytest.raises(ValueError):
        Document(id="a", timestamp=datetime(2013, 5, 20), text="")
    with pytest.raises(ValueError):
        Document(id="a", timestamp=BASE, text="", hashtags=("Has Space",))
    with pytest.raises(ValueError):
        Document(id="a", timestamp=BASE, text="", hashtags=("UPPER",))
    with pytest.raises(ValueError):
        Document(id="a", timestamp=BASE, text="", source="blog")


def test_tag_rule_adds_only_what_xml_cannot_carry():
    # Every code point: the old rule ('#' or str.isspace) plus C0 controls,
    # lone surrogates, U+FFFE and U+FFFF, which XML 1.0 cannot carry.
    xml_forbidden = {chr(c) for c in [*range(0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF]}
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = {c for c in every if c == "#" or c.isspace()} | xml_forbidden
    assert set(_BAD_TAG_CHAR.findall(every)) == expected


def test_corpus_sorting_and_window_inference():
    docs = [make_doc("b", day=2), make_doc("a", day=0), make_doc("c", day=1)]
    corpus = Corpus.from_documents(docs)
    assert [d.id for d in corpus] == ["a", "c", "b"]
    assert corpus.window == (docs[1].timestamp, docs[0].timestamp)


def test_corpus_rejects_duplicates_and_unsorted():
    with pytest.raises(ValueError):
        Corpus.from_documents([make_doc("a"), make_doc("a", day=1)])
    window = (BASE, BASE)
    with pytest.raises(ValueError):
        Corpus(documents=(make_doc("b"), make_doc("a")), window=window)
    with pytest.raises(ValueError):
        Corpus(documents=(make_doc("a", day=3),), window=window)


def test_parse_timestamp_forms():
    expected = datetime(2013, 5, 20, 10, 30, 0, tzinfo=UTC)
    assert parse_timestamp("2013-05-20T10:30:00Z") == expected
    assert parse_timestamp("2013-05-20T10:30:00+00:00") == expected
    assert parse_timestamp("2013-05-20T12:30:00+02:00") == expected
    assert parse_timestamp("2013-05-20 10:30:00") == expected
    assert parse_timestamp("2013-05-20T10:30:00.654321Z") == expected
    assert parse_timestamp(expected.timestamp()) == expected


def test_parse_window_bare_date_end_covers_the_day():
    start, end = parse_window("2013-05-15..2013-07-15")
    assert start == datetime(2013, 5, 15, 0, 0, 0, tzinfo=UTC)
    assert end == datetime(2013, 7, 15, 23, 59, 59, tzinfo=UTC)
    _, precise = parse_window("2013-05-15..2013-07-15T12:00:00Z")
    assert precise == datetime(2013, 7, 15, 12, 0, 0, tzinfo=UTC)


def test_parse_window_rejects_bad_specs():
    with pytest.raises(ValueError):
        parse_window("2013-05-15")
    with pytest.raises(ValueError):
        parse_window("2013-07-15..2013-05-15")


def _write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def test_load_corpus_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "ts": "2013-05-20T10:00:00Z", "text": "hej", "tags": ["#Svpol", "husby"]},
            {"id": "b", "ts": "2013-05-21T10:00:00Z", "text": "", "tags": [], "source": "forum_post"},
        ],
    )
    corpus, report = load_corpus(path)
    assert len(corpus) == 2
    assert corpus.documents[0].hashtags == ("svpol", "husby")
    assert corpus.documents[1].source == "forum_post"
    assert report.records_read == 2
    assert report.records_kept == 2
    assert report.records_dropped == 0


def test_load_corpus_window_drops_and_reports(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "ts": "2013-05-20T10:00:00Z", "text": ""},
            {"id": "b", "ts": "2013-08-01T10:00:00Z", "text": ""},
        ],
    )
    window = parse_window("2013-05-15..2013-07-15")
    corpus, report = load_corpus(path, window=window)
    assert [d.id for d in corpus] == ["a"]
    assert report.dropped["out_of_window"] == 1
    assert "out_of_window" in report.as_table()
    assert corpus.window == window


def test_load_corpus_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "ts": "2013-05-20T10:00:00Z", "text": ""},
            {"id": "a", "ts": "2013-05-21T10:00:00Z", "text": ""},
        ],
    )
    with pytest.raises(DataError, match=r"line 2: duplicate id 'a' \(first seen at line 1\)"):
        load_corpus(path)


def test_load_corpus_malformed_field_has_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [{"id": "a", "ts": "not a time", "text": ""}])
    with pytest.raises(DataError, match="line 1: malformed field 'ts'"):
        load_corpus(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("ts", 1e20),
        ("ts", -1e20),
        ("ts", 10**400),
        ("ts", True),
        ("ts", "9999-12-31T23:59:59-01:00"),
        ("id", "a\ud800"),
        ("text", "x \udfff y"),
        ("lang", "\ud800"),
    ],
    ids=["ts-1e20", "ts--1e20", "ts-10**400", "ts-true", "ts-past-9999", "id", "text", "lang"],
)
def test_load_corpus_rejects_unloadable_values_with_line_number(tmp_path, field, value):
    path = tmp_path / "c.jsonl"
    record = {"id": "b", "ts": "2013-05-21T10:00:00Z", "text": "", field: value}
    path.write_text(
        json.dumps({"id": "a", "ts": "2013-05-20T10:00:00Z"}) + "\n" + json.dumps(record) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=f"line 2: malformed field '{field}'"):
        load_corpus(path)


# Text that often holds a lone surrogate, a control or a non-character.
_text = st.text(st.sampled_from("a#\x01 \ud800\udfff\uffff") | st.characters(blacklist_categories=()))
# Any JSON value, with timestamps at and past the ends of the datetime range.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(
        [1e20, -1e20, 10**400, 1369000000, "9999-12-31T23:59:59-01:00", "tweet", "forum_post"]
    )
    | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            "id": _text | _json_values,
            "ts": st.datetimes().map(lambda d: d.isoformat()) | _json_values,
        },
        optional={
            "text": _text | _json_values,
            "tags": st.lists(_text, max_size=3) | _json_values,
            "lang": _text | _json_values,
            "source": _json_values,
        },
    )
)
def test_every_json_object_record_loads_or_names_its_line(tmp_path_factory, record):
    directory = tmp_path_factory.mktemp("record")
    path = directory / "c.jsonl"
    # ensure_ascii (the default) writes lone surrogates as \uXXXX escapes.
    path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    try:
        corpus, _ = load_corpus(path)
    except DataError as exc:
        assert str(exc).startswith("line 2: "), str(exc)
        return
    write_corpus(corpus, directory / "out.jsonl")


@pytest.mark.parametrize("tag", ["a\x01b", "\ud800", "a\uffffb", "a b", "x#y"])
def test_load_corpus_rejects_forbidden_tag_characters(tmp_path, tag):
    path = tmp_path / "c.jsonl"
    # json.dumps escapes the lone surrogate, as a JSONL producer would.
    path.write_text(
        json.dumps({"id": "a", "ts": "2013-05-20T10:00:00Z", "tags": ["ok"]}) + "\n"
        + json.dumps({"id": "b", "ts": "2013-05-21T10:00:00Z", "tags": ["ok", tag]}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="line 2: malformed field 'tags'"):
        load_corpus(path)


def test_load_corpus_checks_each_tag_once(monkeypatch):
    checked = []
    original = socmine.corpus._check_tag

    def counting(tag):
        checked.append(tag)
        original(tag)

    monkeypatch.setattr(socmine.corpus, "_check_tag", counting)
    corpus, _ = load_corpus(FIXTURES / "twitter.jsonl")
    assert sorted(checked) == sorted(t for doc in corpus for t in doc.hashtags)


def test_load_corpus_invalid_json_and_missing_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1: invalid JSON"):
        load_corpus(path)
    with pytest.raises(DataError, match="not found"):
        load_corpus(tmp_path / "nope.jsonl")


def test_load_corpus_empty_after_filter(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [{"id": "a", "ts": "2013-01-01T00:00:00Z", "text": ""}])
    with pytest.raises(DataError, match="empty corpus"):
        load_corpus(path, window=parse_window("2013-05-15..2013-07-15"))


def test_load_corpus_csv_with_pipe_tags(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id,ts,text,tags,lang,source\n"
        'a,2013-05-20T10:00:00Z,"hej, hej",svpol|husby,sv,tweet\n'
        "b,2013-05-21T10:00:00Z,post,,pl,forum_post\n",
        encoding="utf-8",
    )
    corpus, _ = load_corpus(path, fmt="csv")
    assert corpus.documents[0].hashtags == ("svpol", "husby")
    assert corpus.documents[0].text == "hej, hej"
    assert corpus.documents[1].hashtags == ()


def test_load_corpus_csv_lang_and_source_are_optional(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id,ts,text,tags\na,2013-05-20T10:00:00Z,hej,svpol|husby\n", encoding="utf-8"
    )
    corpus, _ = load_corpus(path, fmt="csv")
    (doc,) = corpus.documents
    assert (doc.hashtags, doc.lang, doc.source) == (("svpol", "husby"), None, "tweet")


def test_load_corpus_csv_missing_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,text\na,x\n", encoding="utf-8")
    with pytest.raises(DataError, match="missing columns"):
        load_corpus(path, fmt="csv")


def test_load_corpus_aliases_merge_tags(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [{"id": "a", "ts": "2013-05-20T10:00:00Z", "text": "", "tags": ["Stkhlmriot", "svpol"]}],
    )
    corpus, _ = load_corpus(path, aliases={"stkhlmriot": "sthlmriot"})
    assert corpus.documents[0].hashtags == ("sthlmriot", "svpol")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_write_corpus_round_trip(tmp_path, fmt):
    docs = [
        make_doc("a", day=0, text="żółć på gatan", tags=("svpol", "husby"), lang="sv"),
        make_doc("b", day=1, text="x", tags=(), source="forum_post"),
    ]
    corpus = Corpus.from_documents(docs)
    path = tmp_path / f"out.{fmt}"
    write_corpus(corpus, path, fmt=fmt)
    loaded, _ = load_corpus(path, fmt=fmt, window=corpus.window)
    assert loaded == corpus


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@settings(max_examples=50)
@given(
    st.datetimes(
        min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)
    ).map(lambda dt: dt.replace(microsecond=0, tzinfo=UTC))
)
def test_write_corpus_round_trips_any_year(tmp_path_factory, fmt, when):
    corpus = Corpus.from_documents([replace(make_doc("a", text="x"), timestamp=when)])
    path = tmp_path_factory.mktemp("years") / f"out.{fmt}"
    write_corpus(corpus, path, fmt=fmt)
    loaded, _ = load_corpus(path, fmt=fmt, window=corpus.window)
    assert loaded == corpus
    # Years 1000 and later keep the bytes they always had.
    if when.year >= 1000:
        assert when.strftime("%Y-%m-%dT%H:%M:%SZ") in path.read_text(encoding="utf-8")


def test_document_tokens_are_cached_and_not_a_field():
    doc = make_doc("a", text="Policja, policja!")
    twin = make_doc("a", text="Policja, policja!")
    assert doc.tokens == ["policja", "policja"]
    assert doc.tokens is doc.tokens
    assert doc == twin and hash(doc) == hash(twin)
    assert "tokens" not in asdict(doc) and "tokens" not in repr(doc)


def test_filter_multi_tag():
    corpus = Corpus.from_documents(
        [
            make_doc("a", tags=("svpol", "husby")),
            make_doc("b", tags=("svpol",)),
            make_doc("c", tags=()),
        ]
    )
    filtered = filter_multi_tag(corpus, 2)
    assert [d.id for d in filtered] == ["a"]
    assert filtered.window == corpus.window
    with pytest.raises(ValueError):
        filter_multi_tag(corpus, 0)
