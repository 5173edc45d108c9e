import hashlib
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socmine.corpus
from helpers import FIXTURES, UTC, make_doc, write_csv_corpus
from socmine.config import file_digest
from socmine.corpus import (
    _BAD_TAG_CHAR,
    _iso_utc,
    Corpus,
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


def test_parse_timestamp_forms():
    expected = datetime(2013, 5, 20, 10, 30, 0, tzinfo=UTC)
    assert parse_timestamp("2013-05-20T10:30:00Z") == expected
    assert parse_timestamp("2013-05-20T10:30:00+00:00") == expected
    assert parse_timestamp("2013-05-20T12:30:00+02:00") == expected
    assert parse_timestamp("2013-05-20 10:30:00") == expected
    assert parse_timestamp("2013-05-20T10:30:00.654321Z") == expected
    assert parse_timestamp(expected.timestamp()) == expected


def _reference_parse_timestamp(value):
    if isinstance(value, (int, float)):
        ts = datetime.fromtimestamp(float(value), tz=timezone.utc)
    else:
        text = value.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def _outcome(parse, value):
    try:
        return repr(parse(value))
    except (ValueError, OverflowError, OSError) as exc:
        return type(exc)


@settings(max_examples=300)
@given(
    st.builds(
        lambda when, timespec, suffix: when.isoformat(timespec=timespec) + suffix,
        st.datetimes(),
        st.sampled_from(["seconds", "milliseconds", "microseconds"]),
        st.sampled_from(["", "Z", "z", "+00:00", "+02:00", "-05:30", "+23:59"]),
    )
    | st.floats(min_value=0, max_value=4e9)
    | st.integers(min_value=-(10**11), max_value=10**11)
)
def test_parse_timestamp_matches_its_reference(value):
    # parse_timestamp drops a microsecond only when there is one.
    assert _outcome(parse_timestamp, value) == _outcome(_reference_parse_timestamp, value)


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
        ("id", ""),
        ("text", "x \udfff y"),
        ("lang", "\ud800"),
        ("source", "blog"),
        ("tags", ["ok", "#Upper"]),
        ("tags", ["spaced"]),
        # Only a missing field, null or "" means no language, or a tweet.
        ("lang", False),
        ("lang", 0),
        ("lang", []),
        ("source", 0),
        ("source", []),
        ("source", False),
    ],
    ids=[
        "ts-1e20", "ts--1e20", "ts-10**400", "ts-true", "ts-past-9999", "id", "id-empty",
        "text", "lang", "source", "alias-to-uppercase", "alias-to-space",
        "lang-false", "lang-0", "lang-empty-list", "source-0", "source-empty-list", "source-false",
    ],
)
def test_load_corpus_rejects_unloadable_values_with_line_number(tmp_path, field, value):
    path = tmp_path / "c.jsonl"
    record = {"id": "b", "ts": "2013-05-21T10:00:00Z", "text": "", field: value}
    path.write_text(
        json.dumps({"id": "a", "ts": "2013-05-20T10:00:00Z", "tags": ["ok"]}) + "\n"
        + json.dumps(record) + "\n",
        encoding="utf-8",
    )
    # An alias target is checked like any tag.
    aliases = {"upper": "UPPER", "spaced": "has space"}
    with pytest.raises(DataError, match=f"line 2: malformed field '{field}'"):
        load_corpus(path, aliases=aliases)


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


# Lines of whitespace, also whitespace that JSON does not allow; none ends
# a line for a file read in text mode.
_blank_line = st.text(st.sampled_from(" \t\u3000\x1c\x1d\x1e\x1f\xa0\x0b\x0c\x85\u2028"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_blank_line, max_size=3),
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
def test_every_json_object_record_loads_or_names_its_line(tmp_path_factory, blanks, record):
    directory = tmp_path_factory.mktemp("record")
    path = directory / "c.jsonl"
    # ensure_ascii (the default) writes lone surrogates as \uXXXX escapes.
    # Blank lines are skipped but counted.
    path.write_text("".join(line + "\n" for line in blanks) + json.dumps(record) + "\n", encoding="utf-8")
    try:
        corpus, report = load_corpus(path)
    except DataError as exc:
        assert str(exc).startswith(f"line {len(blanks) + 1}: "), str(exc)
        return
    assert report.records_read == 1
    out = directory / "out.jsonl"
    write_corpus(corpus, out)
    encode = json.JSONEncoder(ensure_ascii=False).encode
    records = [
        {
            "id": doc.id,
            "ts": _iso_utc(doc.timestamp),
            "text": doc.text,
            "tags": list(doc.hashtags),
            "lang": doc.lang,
            "source": doc.source,
        }
        for doc in corpus
    ]
    assert out.read_bytes().decode("utf-8") == "".join(encode(r) + "\n" for r in records)
    assert load_corpus(out, window=corpus.window)[0] == corpus


def test_load_corpus_escaped_backslash_before_u_is_text(tmp_path):
    # On disk "\\u00e9": an escaped backslash, then the letters u00e9.
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a\\\\ud800", "ts": "2013-05-20T10:00:00Z", "text": "caf\\\\u00e9"}\n',
        encoding="utf-8",
    )
    corpus, _ = load_corpus(path)
    assert (corpus.documents[0].id, corpus.documents[0].text) == ("a\\ud800", "caf\\u00e9")


@pytest.mark.parametrize("field", ["id", "text", "lang"])
@pytest.mark.parametrize("escape", ["\\uD800", "\\uDfFf", "\\udc80"])
def test_load_corpus_surrogate_escape_in_any_case_names_its_field(tmp_path, field, escape):
    record = {"id": "b", "ts": "2013-05-21T10:00:00Z", "text": "", field: "x"}
    line = json.dumps(record).replace('"x"', f'"x{escape}"')
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a", "ts": "2013-05-20T10:00:00Z"}\n' + line + "\n", encoding="utf-8"
    )
    message = f"line 2: malformed field '{field}': contains a lone surrogate"
    with pytest.raises(DataError, match=message):
        load_corpus(path)


def test_load_corpus_names_a_bad_timestamp_before_a_surrogate(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a\\ud800", "ts": "not a time", "text": "\\udfff", "lang": "\\ud800"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="line 1: malformed field 'ts'"):
        load_corpus(path)


def test_load_corpus_csv_keeps_a_backslash_u_as_text(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id,ts,text,tags\na\\ud800,2013-05-20T10:00:00Z,\\udfff,x\n", encoding="utf-8"
    )
    corpus, _ = load_corpus(path, fmt="csv")
    assert (corpus.documents[0].id, corpus.documents[0].text) == ("a\\ud800", "\\udfff")


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
    path = FIXTURES / "twitter.jsonl"
    load_corpus(path)
    with path.open(encoding="utf-8") as handle:
        spellings = {raw for line in handle for raw in json.loads(line)["tags"]}
    assert sorted(checked) == sorted(normalize_tag(raw) for raw in spellings)
    # Each load checks afresh: its aliases may differ.
    load_corpus(path)
    assert len(checked) == 2 * len(spellings)


@pytest.mark.parametrize(
    "fmt,header,good,bad",
    [
        ("jsonl", b"", b'{"id": "%d", "ts": 0}\n', b'{"id": "bad", "ts": 0, "text": "\xff"}\n'),
        ("csv", b"id,ts,text,tags\n", b"%d,2013-05-20,x,\n", b"bad,2013-05-20,\xff,\n"),
    ],
    ids=["jsonl", "csv"],
)
def test_load_corpus_invalid_utf8_names_its_line(tmp_path, fmt, header, good, bad):
    path = tmp_path / f"c.{fmt}"
    # Valid records that span several read buffers come before the bad byte.
    path.write_bytes(header + b"".join(good % i for i in range(3000)) + bad)
    line = header.count(b"\n") + 3001
    with pytest.raises(DataError, match=rf"^line {line}: invalid UTF-8 byte 0xff$"):
        load_corpus(path, fmt=fmt)


@pytest.mark.parametrize(
    "fmt,body",
    [
        ("jsonl", '{"id": "a", "ts": "2013-05-20T10:00:00Z", "text": "hej", "tags": ["svpol"]}\n'),
        ("csv", "id,ts,text,tags\na,2013-05-20T10:00:00Z,hej,svpol\n"),
    ],
    ids=["jsonl", "csv"],
)
def test_load_corpus_skips_a_byte_order_mark(tmp_path, fmt, body):
    # Spreadsheet "CSV UTF-8" exports start with one.
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert load_corpus(marked, fmt=fmt)[0] == load_corpus(plain, fmt=fmt)[0]
    # The corpus digest still hashes the file as it is, mark included.
    assert file_digest(marked) == hashlib.sha256(marked.read_bytes()).hexdigest()
    assert file_digest(marked) != file_digest(plain)


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


# write_corpus writes JSONL only; the CSV writer is the tests' own.
WRITERS = {"jsonl": write_corpus, "csv": write_csv_corpus}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_write_corpus_round_trip(tmp_path, fmt):
    docs = [
        make_doc("a", day=0, text="żółć på gatan", tags=("svpol", "husby"), lang="sv"),
        make_doc("b", day=1, text="x", tags=(), source="forum_post"),
    ]
    corpus = Corpus.from_documents(docs)
    path = tmp_path / f"out.{fmt}"
    WRITERS[fmt](corpus, path)
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
    WRITERS[fmt](corpus, path)
    loaded, _ = load_corpus(path, fmt=fmt, window=corpus.window)
    assert loaded == corpus
    # Years 1000 and later keep the bytes they always had.
    if when.year >= 1000:
        assert when.strftime("%Y-%m-%dT%H:%M:%SZ") in path.read_text(encoding="utf-8")


@settings(max_examples=300)
@given(
    st.datetimes(
        timezones=st.none()
        | st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23), max_value=timedelta(hours=23)))
    )
)
def test_iso_utc_matches_its_reference(when):
    # Naive and aware, years 1-9999, any microsecond.
    assert _iso_utc(when) == when.replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def test_document_is_a_slotted_frozen_value():
    doc = make_doc("a", text="Policja, policja!", tags=("riots",), lang="pl")
    twin = make_doc("a", text="Policja, policja!", tags=("riots",), lang="pl")
    assert not hasattr(doc, "__dict__")
    assert list(asdict(doc)) == ["id", "timestamp", "text", "hashtags", "lang", "source"]
    assert doc == twin and hash(doc) == hash(twin)
    for name, value in (("text", "policja"), ("hashtags", ()), ("lang", None), ("source", "forum_post")):
        other = replace(doc, **{name: value})
        assert other != doc and hash(other) != hash(doc), name
    with pytest.raises(AttributeError):
        doc.text = "x"


def test_load_corpus_min_tags_drops_after_the_window(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "ts": "2013-05-20T10:00:00Z", "tags": ["svpol"]},
            {"id": "b", "ts": "2013-05-21T10:00:00Z", "tags": ["svpol", "husby"]},
            {"id": "c", "ts": "2013-05-22T10:00:00Z", "tags": ["svpol", "husby", "riots"]},
            {"id": "d", "ts": "2013-05-23T10:00:00Z", "tags": []},
            {"id": "e", "ts": "2013-08-01T10:00:00Z", "tags": ["svpol", "husby"]},
        ],
    )
    window = parse_window("2013-05-15..2013-07-15")
    corpus, report = load_corpus(path, window=window, min_tags=2)
    assert [d.id for d in corpus] == ["b", "c"]
    assert corpus.window == window
    assert report.dropped == {"out_of_window": 1, "below_min_tags": 2}
    assert (report.records_read, report.records_kept) == (5, 2)
    # Without a window, the one inferred still spans the dropped documents.
    corpus, report = load_corpus(path, min_tags=2)
    assert [d.id for d in corpus] == ["b", "c", "e"]
    span = ("2013-05-20T10:00:00Z", "2013-08-01T10:00:00Z")
    assert corpus.window == tuple(map(parse_timestamp, span))
    assert report.dropped == {"below_min_tags": 2}
    with pytest.raises(DataError, match=r"empty corpus after filtering: .* \(corpus.min_tags 4\)"):
        load_corpus(path, min_tags=4)
