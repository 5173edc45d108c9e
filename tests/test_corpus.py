import csv
import hashlib
import io
import json
import re
import sys
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socmine.corpus
from helpers import BASE, FIXTURES, UTC, make_doc, write_csv_corpus
from socmine.cli import main
from socmine.config import file_digest
from socmine.corpus import (
    _BAD_TAG_CHAR,
    _check_tag,
    _iso_utc,
    Corpus,
    Document,
    SOURCES,
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
    assert [d.id for d in corpus.documents] == ["a", "c", "b"]
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
    assert len(corpus.documents) == 2
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
    assert [d.id for d in corpus.documents] == ["a"]
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
        for doc in corpus.documents
    ]
    assert out.read_bytes().decode("utf-8") == "".join(encode(r) + "\n" for r in records)
    assert load_corpus(out, window=corpus.window)[0] == corpus


_CSV_COLUMNS = ("id", "ts", "text", "tags", "lang", "source", "note")
# Each column's values, good and bad; "note" is a column the loader ignores.
_csv_values = st.fixed_dictionaries({
    "id": st.sampled_from(["a", "b", " c", "d", ""]),
    "ts": st.sampled_from(["2013-05-20T10:00:00Z", "2013-05-21", " 2013-05-22 10:00+02:00", "", "1369000000"]),
    "text": st.text(st.sampled_from('ab ,"|\n\r\té\ufeff'), max_size=6),
    "tags": st.lists(st.sampled_from(["svpol", "#Husby", "", "Ö", "a b"]), max_size=3).map("|".join),
    "lang": st.sampled_from(["", "sv", "pl"]),
    "source": st.sampled_from(["", "tweet", "forum_post", "blog"]),
    "note": st.text(st.sampled_from('x,"\n'), max_size=3),
})
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _csv_header(drawn):
    """Every column in drawn order, minus the dropped ones, plus the repeated."""
    order, dropped, repeated = drawn
    return [c for c in order if c not in dropped] + repeated


def _csv_row(fields, quoting, terminator):
    """One CSV row. csv.writer quotes a field only for a character of its own
    line terminator, so the row is written with "\r\n", then given its end."""
    buffer = io.StringIO()
    csv.writer(buffer, quoting=quoting, lineterminator="\r\n").writerow(fields)
    return buffer.getvalue()[:-2] + terminator


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.permutations(_CSV_COLUMNS),
        st.just(()) | st.sets(st.sampled_from(_CSV_COLUMNS), max_size=2),
        st.just([]) | st.lists(st.sampled_from(_CSV_COLUMNS), max_size=1),
    ).map(_csv_header),
    # Per row: its values, a field count short of or past the header's,
    # and whether a blank line comes before it.
    st.lists(st.tuples(_csv_values, st.sampled_from([0, 0, 0, -1, -3, 1]), st.booleans()),
             min_size=1, max_size=4),
    st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)
def test_every_csv_text_loads_as_its_jsonl_twin_or_names_its_line(
    tmp_path_factory, header, rows, quoting, terminator, bom
):
    missing = [c for c in ("id", "ts", "text", "tags") if c not in header]
    if missing:
        header_fault = f"line 1: CSV header missing columns {missing}"
    elif len(set(header)) != len(header):
        header_fault = f"line 1: CSV header names column {header[-1]!r} twice"
    else:
        header_fault = None
    text = _csv_row(header, quoting, terminator)
    starts, records, too_long = [], [], None  # starts: the line each row starts on
    for values, extra, blank in rows:
        if blank:
            text += terminator
        starts.append(len(_LINE_BREAK.findall(text)) + 1)
        fields = [values[c] for c in header]
        fields = fields[: max(1, len(fields) + extra)] + ["extra"] * extra
        text += _csv_row(fields, quoting, terminator)
        if header_fault or too_long:
            continue
        if len(fields) > len(header):
            too_long = f"line {starts[-1]}: row has {len(fields)} fields, the header {len(header)}"
        else:
            # The row as a JSON record: a missing field null, the tags a list.
            record = dict.fromkeys(header) | dict(zip(header, fields))
            if record["tags"] is not None:
                record["tags"] = [t for t in record["tags"].split("|") if t]
            records.append(record)

    directory = tmp_path_factory.mktemp("csv")
    expect, want = header_fault, None
    if records:
        _write_jsonl(directory / "c.jsonl", records)
        try:
            want = load_corpus(directory / "c.jsonl")[0]
        except DataError as exc:
            # The same fault; each line it names is the CSV line its row starts on.
            expect = re.sub(r"line (\d+)", lambda m: f"line {starts[int(m[1]) - 1]}", str(exc))
    expect = expect or too_long
    path = directory / "c.csv"
    path.write_text(("\ufeff" if bom else "") + text, encoding="utf-8", newline="")
    if expect is None:
        assert load_corpus(path, fmt="csv")[0] == want
    else:
        with pytest.raises(DataError) as raised:
            load_corpus(path, fmt="csv")
        assert str(raised.value) == expect


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


# A JSONL line's value: a record or any JSON value, NaN and Infinity
# included, and raw texts too long or too deep for json.loads.
_RAW_VALUES = st.sampled_from(["1" * 5000, "-" + "9" * 5000 + ".5", "[" * 5000 + "]" * 5000])
_LINE_VALUES = (
    st.dictionaries(_text, _json_values, max_size=3).map(json.dumps)
    | _json_values.map(json.dumps)
    | _RAW_VALUES
    | _RAW_VALUES.map('{{"id": {}}}'.format)
)
# What may stand before a value: JSON whitespace and a byte-order mark; and
# after it: JSON whitespace, whitespace JSON does not allow, trailing text
# and a second value. A "\r" in the file ends a line.
_BEFORE = st.text(st.sampled_from([" ", "\t", "\r", "\ufeff"]), max_size=2)
_AFTER = st.lists(
    st.sampled_from([" ", "\t", "\r", "\x0b", "\xa0", "\u2028", " x", "{}"]), max_size=2
).map("".join)


def _reference_records(path):
    """The JSONL reader as json.loads defines it: each record up to the
    first line that fails, and that line's message."""
    records = []
    with path.open(encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                return records, f"line {line_no}: invalid JSON: {exc}"
            if not isinstance(record, dict):
                return records, f"line {line_no}: record is not a JSON object"
            records.append((line_no, record, "\\u" in line))
    return records, None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_BEFORE, _LINE_VALUES, _AFTER), min_size=1, max_size=4),
    st.booleans(),
)
def test_each_jsonl_line_reads_as_json_loads_reads_it(tmp_path_factory, lines, last_newline):
    path = tmp_path_factory.mktemp("lines") / "c.jsonl"
    # A first line, so that a mark on any drawn line is mid-file.
    text = '{"id": "a"}\n' + "\n".join(map("".join, lines)) + ("\n" if last_newline else "")
    path.write_text(text, encoding="utf-8")
    records, error = [], None
    try:
        records.extend(socmine.corpus._iter_records(path, "jsonl"))
    except DataError as exc:
        error = str(exc)
    # repr, because a NaN is not equal to itself.
    assert repr((records, error)) == repr(_reference_records(path))


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


def test_csv_row_with_more_fields_than_its_header_exits_2(tmp_path, capsys):
    # An unquoted comma in the text shifts the tags into a fifth field.
    path = tmp_path / "c.csv"
    path.write_text(
        "id,ts,text,tags\n"
        "a,2013-05-01T00:00:00Z,hello,world,police|riots\n"
        "b,2013-05-02T00:00:00Z,x,police\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=r"^line 2: row has 5 fields, the header 4$"):
        load_corpus(path, fmt="csv")
    assert main(["tags", str(path), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


@pytest.mark.parametrize(
    "record,message",
    [
        ('a,2013-05-01T00:00:00Z,"hello\nthere",world,police', "row has 5 fields, the header 4"),
        ('a,2013-05-01T00:00:00Z,"hello\nthere",#',
         "malformed field 'tags': hashtag is empty after normalization"),
        ('a,2013-05-01T00:00:00Z,"hello\nthere",x\n\n\na,2013-05-02,"\n",y',
         "duplicate id 'a' (first seen at line 2)"),
    ],
)
def test_a_csv_record_is_named_by_the_line_it_starts_on(tmp_path, record, message):
    # The faulty record is the last one, and starts on line 2, or on line
    # 6 after three lines of the first record and two blank lines.
    path = tmp_path / "c.csv"
    path.write_text(f"id,ts,text,tags\n{record}\n", encoding="utf-8")
    line = 6 if "duplicate" in message else 2
    with pytest.raises(DataError) as raised:
        load_corpus(path, fmt="csv")
    assert str(raised.value) == f"line {line}: {message}"


def test_csv_field_the_csv_module_refuses_exits_2(tmp_path, capsys):
    # The csv module caps a field at 131,072 characters; the failing record
    # starts on line 3.
    path = tmp_path / "big.csv"
    path.write_text(
        "id,ts,text,tags\n"
        "a,2013-05-01T00:00:00Z,x,police\n"
        f"b,2013-05-02T00:00:00Z,{'x' * 200_000},police\n",
        encoding="utf-8",
    )
    assert main(["tags", str(path), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: field larger than field limit (131072)" in captured.err


def test_jsonl_tags_string_exits_2(tmp_path, capsys):
    # A pipe-delimited string is the CSV form of tags; a JSONL record gives a list.
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id":"a","ts":"2013-05-01T00:00:00Z","text":"x","tags":"police|riots"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=r"^line 1: malformed field 'tags'"):
        load_corpus(path)
    assert main(["tags", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1" in captured.err


def test_csv_header_that_names_a_column_twice_exits_2(tmp_path, capsys):
    # The last `tags` column would win, and `police` would be dropped.
    path = tmp_path / "c.csv"
    path.write_text(
        "id,ts,text,tags,tags\na,2013-05-01T00:00:00Z,hello,police,riots\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=r"^line 1: CSV header names column 'tags' twice$"):
        load_corpus(path, fmt="csv")
    assert main(["tags", str(path), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1" in captured.err and "'tags'" in captured.err

def test_load_corpus_aliases_merge_tags(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [{"id": "a", "ts": "2013-05-20T10:00:00Z", "text": "", "tags": ["Stkhlmriot", "svpol"]}],
    )
    corpus, _ = load_corpus(path, aliases={"stkhlmriot": "sthlmriot"})
    assert corpus.documents[0].hashtags == ("sthlmriot", "svpol")


# Tag items as a record can hold them: spellings that normalize to one tag
# ('#', case, an alias), tags that _check_tag refuses, and items that are
# no string, hashable or not.
_TAG_ALIASES = {"policja": "police"}
_TAG_SPELLINGS = ["svpol", "#SvPol", "SVPOL", "##svpol", "policja", "#Policja", "police", "É",
                  'a"b', "a\\b", "#", "##", "", "a b", "x#y", "a\tb", "a\x01b", "a\ufffeb"]
_TAG_ITEMS = st.sampled_from(_TAG_SPELLINGS) | st.sampled_from(
    ["\ud800", 5, 0, 1.5, None, True, False, [], ["a"], [["a"]], {}, {"a": "b"}]
)


def _reference_tags(items, line, known):
    """Frozen copy of the loader's per-occurrence tag loop: the reference any
    faster tag path of load_corpus must match, item for item."""
    tags = []
    for item in items:
        if not isinstance(item, str):
            raise DataError(f"line {line}: malformed field 'tags': tag {item!r} is not a string")
        tag = known.get(item)
        if tag is None:
            tag = normalize_tag(item, _TAG_ALIASES)
            try:
                _check_tag(tag)
            except ValueError as exc:
                raise DataError(f"line {line}: malformed field 'tags': {exc}") from exc
            known[item] = tag
        tags.append(tag)
    return tuple(tags)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["jsonl", "csv"]), st.lists(st.lists(_TAG_ITEMS, max_size=6), min_size=1, max_size=5))
def test_each_tag_item_loads_or_fails_as_the_per_item_loop_did(tmp_path_factory, fmt, tag_lists):
    if fmt == "csv":
        # A CSV record holds its tags as one pipe-delimited string.
        tag_lists = [[t for t in tags if t in _TAG_SPELLINGS] for tags in tag_lists]
    records = [
        {"id": f"d{i}", "ts": _iso_utc(BASE + timedelta(minutes=i)), "text": "x", "tags": tags}
        for i, tags in enumerate(tag_lists)
    ]
    path = tmp_path_factory.mktemp("tags") / f"c.{fmt}"
    if fmt == "jsonl":
        # ensure_ascii writes a lone surrogate as its escape.
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        lines = range(1, len(records) + 1)
    else:
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(["id", "ts", "text", "tags"])
            writer.writerows([r["id"], r["ts"], r["text"], "|".join(r["tags"])] for r in records)
        tag_lists = [[t for t in "|".join(tags).split("|") if t] for tags in tag_lists]
        lines = range(2, len(records) + 2)
    known, want = {}, []
    try:
        for record, tags, line in zip(records, tag_lists, lines):
            tags = _reference_tags(tags, line, known)
            want.append(Document(record["id"], parse_timestamp(record["ts"]), "x", tags))
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            load_corpus(path, fmt=fmt, aliases=_TAG_ALIASES)
        assert str(raised.value) == str(exc)
        return
    assert load_corpus(path, fmt=fmt, aliases=_TAG_ALIASES)[0].documents == tuple(want)


# Strings as the writer may meet them: JSON's escapes, non-ASCII, and the
# texts "null" and "tweet", which must stay apart from null and a source.
_WRITTEN = st.text(st.sampled_from('ab"\\/\x00\x1f\n\t é\u2028'), max_size=4) | st.sampled_from(
    ["null", "tweet", "forum_post"]
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            Document,
            id=_WRITTEN,
            timestamp=st.datetimes(
                min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)
            ).map(lambda dt: dt.replace(microsecond=0, tzinfo=UTC)),
            text=_WRITTEN,
            hashtags=st.lists(_WRITTEN, max_size=4).map(tuple),
            lang=st.none() | _WRITTEN,
            source=st.sampled_from(SOURCES),
        ),
        max_size=6,
    )
)
def test_each_written_line_is_the_json_encoder_text_of_its_record(tmp_path_factory, documents):
    path = tmp_path_factory.mktemp("written") / "c.jsonl"
    write_corpus(Corpus(tuple(documents), (BASE, BASE)), path)
    encode = json.JSONEncoder(ensure_ascii=False).encode
    want = "".join(
        encode({
            "id": d.id,
            "ts": d.timestamp.replace(tzinfo=None).isoformat(timespec="seconds") + "Z",
            "text": d.text,
            "tags": list(d.hashtags),
            "lang": d.lang,
            "source": d.source,
        }) + "\n"
        for d in documents
    )
    assert path.read_bytes().decode("utf-8") == want


# write_corpus writes JSONL only; the CSV writer is the tests' own.
WRITERS = {"jsonl": write_corpus, "csv": write_csv_corpus}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_write_corpus_round_trip(tmp_path, fmt):
    docs = [
        make_doc("a", day=0, text="żółć på gatan", tags=("svpol", "husby"), lang="sv"),
        make_doc("b", day=1, text="x", tags=(), source="forum_post"),
        # csv.writer quotes a field for \n, so only "c" tests a lone \r.
        make_doc("c", day=2, text="a\rb\r", tags=("riots",)),
        make_doc("d", day=3, text="a\r\nb", tags=("riots",)),
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
    corpus = Corpus.from_documents([make_doc("a", text="x")._replace(timestamp=when)])
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
    assert list(doc._asdict()) == ["id", "timestamp", "text", "hashtags", "lang", "source"]
    assert doc == twin and hash(doc) == hash(twin)
    for name, value in (("text", "policja"), ("hashtags", ()), ("lang", None), ("source", "forum_post")):
        other = doc._replace(**{name: value})
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
    assert [d.id for d in corpus.documents] == ["b", "c"]
    assert corpus.window == window
    assert report.dropped == {"out_of_window": 1, "below_min_tags": 2}
    assert (report.records_read, report.records_kept) == (5, 2)
    # Without a window, the one inferred still spans the dropped documents.
    corpus, report = load_corpus(path, min_tags=2)
    assert [d.id for d in corpus.documents] == ["b", "c", "e"]
    span = ("2013-05-20T10:00:00Z", "2013-08-01T10:00:00Z")
    assert corpus.window == tuple(map(parse_timestamp, span))
    assert report.dropped == {"below_min_tags": 2}
    with pytest.raises(DataError, match=r"empty corpus after filtering: .* \(corpus.min_tags 4\)"):
        load_corpus(path, min_tags=4)


_DAYS = st.integers(0, 9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_DAYS, st.lists(st.sampled_from("abcd"), unique=True, max_size=4)),
             max_size=12),
    st.none() | st.tuples(_DAYS, _DAYS).map(sorted),
    st.integers(0, 3),
)
def test_load_report_counts_match_brute_force_in_both_formats(
    tmp_path_factory, specs, window_days, min_tags
):
    records = [
        {"id": f"d{i}", "ts": _iso_utc(BASE + timedelta(days=day)), "text": "", "tags": tags}
        for i, (day, tags) in enumerate(specs)
    ]
    window = None
    if window_days is not None:
        window = tuple(BASE + timedelta(days=day) for day in window_days)
    inside = [tags for day, tags in specs if window is None or window_days[0] <= day <= window_days[1]]
    kept = [tags for tags in inside if len(tags) >= min_tags]
    brute = {"out_of_window": len(specs) - len(inside), "below_min_tags": len(inside) - len(kept)}

    path = tmp_path_factory.mktemp("report") / "corpus"
    _write_jsonl(path, records)
    if not kept:
        with pytest.raises(DataError, match="empty corpus after filtering"):
            load_corpus(path, window=window, min_tags=min_tags)
        return
    _, report = load_corpus(path, window=window, min_tags=min_tags)
    assert report.records_read == len(records)
    assert report.records_read == report.records_kept + report.records_dropped
    assert report.records_kept == len(kept)
    for reason, count in brute.items():
        assert report.dropped.get(reason, 0) == count, reason
    assert set(report.dropped) <= set(brute)

    # The same records as CSV, at the same path.
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "ts", "text", "tags"])
        writer.writerows([r["id"], r["ts"], r["text"], "|".join(r["tags"])] for r in records)
    _, csv_report = load_corpus(path, fmt="csv", window=window, min_tags=min_tags)
    assert csv_report == report._replace(format="csv")
