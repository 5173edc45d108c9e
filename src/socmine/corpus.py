"""Canonical document model and corpus ingestion from JSONL and CSV files.

load_corpus is where records are checked, filtered and counted, each
fault named by its line; Document and Corpus trust what they are given.
A loaded Corpus is immutable and sorted. Times are UTC epoch seconds as
ints: parse_timestamp checks each through datetime and floors it to its
second, and _iso_utc writes one back as YYYY-MM-DDTHH:MM:SSZ.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from itertools import zip_longest
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import DataError
from .resources import cannot_read, utf8_fault

SOURCES = ("tweet", "forum_post")

# JSONL field names double as the CSV column header; a CSV file may omit
# the last two, lang and source.
_CSV_REQUIRED = ("id", "ts", "text", "tags")


def normalize_tag(raw: str, aliases: Mapping[str, str] | None = None) -> str:
    """Lowercase a hashtag and strip its leading '#'s; apply alias mapping."""
    tag = raw.lstrip("#").lower()
    if aliases:
        tag = aliases.get(tag, tag)
    return tag


# '#', whitespace (regex \s is exactly str.isspace), and what XML 1.0 cannot
# carry: C0 controls, lone surrogates, U+FFFE and U+FFFF.
_BAD_TAG_CHAR = re.compile(r"[#\s\x00-\x1f\ud800-\udfff\ufffe\uffff]")

# A JSON escape such as "\ud800" decodes to a lone surrogate, which no
# UTF-8 writer can encode. Both formats are decoded strictly, so a record
# can hold one only when its JSONL line holds a backslash-u.
_SURROGATE = re.compile(r"[\ud800-\udfff]")

# The C scanner that json.loads wraps, with json.loads's default settings.
_scan_json = json.JSONDecoder().scan_once

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_SECOND = timedelta(seconds=1)
_DAY = 86400


def _check_tag(tag: str) -> None:
    if not tag:
        raise ValueError("hashtag is empty after normalization")
    bad = _BAD_TAG_CHAR.search(tag)
    if bad:
        raise ValueError(f"hashtag contains the forbidden character {bad.group()!r}: {tag!r}")
    if tag != tag.lower():
        raise ValueError(f"hashtag is not lowercase: {tag!r}")


class Document(NamedTuple):
    """One social-media record (tweet or forum post)."""

    id: str
    timestamp: int  # UTC epoch seconds
    text: str
    hashtags: tuple[str, ...] = ()
    lang: str | None = None
    source: str = "tweet"


class Corpus(NamedTuple):
    """Documents sorted by (timestamp, id) inside a closed time window of
    UTC epoch seconds."""

    documents: tuple[Document, ...]
    window: tuple[int, int]

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[Document],
        window: tuple[int, int],
    ) -> "Corpus":
        """The documents, sorted, as a corpus of window."""
        docs = sorted(documents, key=itemgetter(1, 0))
        return cls(documents=tuple(docs), window=window)


class LoadReport(NamedTuple):
    """Counts of records read, kept, and dropped (with reasons) during a load."""

    path: str
    format: str
    records_read: int
    records_kept: int
    dropped: Counter

    @property
    def records_dropped(self) -> int:
        return sum(self.dropped.values())

    def as_table(self) -> str:
        lines = [
            f"corpus   {self.path} ({self.format})",
            f"read     {self.records_read}",
            f"kept     {self.records_kept}",
            f"dropped  {self.records_dropped}",
        ]
        for reason in sorted(self.dropped):
            lines.append(f"  - {reason}: {self.dropped[reason]}")
        return "\n".join(lines)


class _DayPrefixes(dict):
    """Each day's "YYYY-MM-DDT", keyed by days since 1970-01-01, made on
    first use; an entry depends on its key alone, so one memo serves every
    caller. date.isoformat writes the year with four digits, where
    strftime("%Y") writes year 5 as "5", which parse_timestamp rejects."""

    def __missing__(self, day: int) -> str:
        if not _HH_MM:
            # Filled for the first time written, not at import, which every
            # command would pay for.
            _HH_MM.extend(f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60))
            _SS_Z.extend(f"{s:02d}Z" for s in range(60))
        prefix = self[day] = date.fromordinal(_EPOCH_ORDINAL + day).isoformat() + "T"
        return prefix


_DAY_PREFIXES = _DayPrefixes()
_HH_MM: list[str] = []  # "HH:MM:" of each minute of a day
_SS_Z: list[str] = []  # "SSZ" of each second of a minute


# Per-document helper: private, so a tracer wrapping public functions
# leaves it alone.
def _iso_utc(ts: int) -> str:
    """UTC epoch seconds as YYYY-MM-DDTHH:MM:SSZ, the year always four digits."""
    day, second = divmod(ts, _DAY)
    prefix = _DAY_PREFIXES[day]  # first, as it builds the two tables
    minute, second = divmod(second, 60)
    return prefix + _HH_MM[minute] + _SS_Z[second]


def _names_a_time(text: str) -> bool:
    """Whether a timestamp text holds a time of day: after a T, t or space."""
    return "T" in text or " " in text or "t" in text


def parse_timestamp(value: str | int | float) -> int:
    """Parse an ISO-8601 timestamp or epoch seconds into UTC epoch seconds,
    floored to the second; naive values are taken as UTC."""
    if isinstance(value, (int, float)):
        ts = datetime.fromtimestamp(float(value), tz=timezone.utc)
    else:
        text = value.strip()
        # fromisoformat takes any character after a date for the date-time
        # separator, so it reads the offset of a date alone, as in
        # "2013-05-20+02:00", as a time of day. ISO 8601 gives a date no
        # zone. A date alone is at most 10 characters.
        if not _names_a_time(text) and len(text) > 10:
            raise ValueError(
                f"a time follows T or a space, and a date alone takes no offset: {value!r}"
            )
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    # astimezone raises for a local time whose UTC time is out of range.
    return (ts.astimezone(timezone.utc) - _EPOCH) // _SECOND


def parse_window(spec: str) -> tuple[int, int]:
    """Parse 'START..END' into UTC epoch seconds; a bare date means the
    whole day on either side, so a bare END is the last second of its UTC
    day."""
    parts = spec.split("..")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"window must look like START..END, got {spec!r}")
    start = parse_timestamp(parts[0])
    end = parse_timestamp(parts[1])
    if not _names_a_time(parts[1].strip()):
        end += _DAY - 1 - end % _DAY
    if start > end:
        raise ValueError(f"window start after end: {spec!r}")
    return (start, end)


def _malformed(line: int, fieldname: str, why: str) -> DataError:
    return DataError(f"line {line}: malformed field {fieldname!r}: {why}")


def _record_to_document(
    record: Mapping[str, object],
    line: int,
    aliases: Mapping[str, str] | None,
    known_tags: dict[str, str],
    escaped: bool,
) -> Document:
    """Check one record and build its Document. known_tags holds each raw
    tag spelling this load has accepted, normalized, so each is checked once.
    `escaped` says whether the record's line holds a backslash-u, without
    which it holds no lone surrogate."""
    doc_id = record.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise _malformed(line, "id", "must be a non-empty string")

    ts_raw = record.get("ts")
    # bool is an int subclass, but `true` is no timestamp.
    if isinstance(ts_raw, bool) or not isinstance(ts_raw, (str, int, float)) or ts_raw == "":
        raise _malformed(line, "ts", "missing timestamp")
    try:
        timestamp = parse_timestamp(ts_raw)
    except (ValueError, OverflowError, OSError) as exc:
        raise _malformed(line, "ts", str(exc)) from exc

    text = record.get("text", "")
    if not isinstance(text, str):
        raise _malformed(line, "text", "must be a string")
    # Only a missing field, null or "" means no language (or a tweet, below).
    lang = record.get("lang")
    if lang is not None and not isinstance(lang, str):
        raise _malformed(line, "lang", "must be a string")
    lang = lang or None
    if escaped:
        for fieldname, value in (("id", doc_id), ("text", text), ("lang", lang)):
            if value and _SURROGATE.search(value):
                raise _malformed(line, fieldname, "contains a lone surrogate")

    tags_raw = record.get("tags", [])
    if not isinstance(tags_raw, list):
        raise _malformed(line, "tags", "must be a list (JSONL) or pipe-delimited string (CSV)")
    tags: list[str] = []
    for item in tags_raw:
        if not isinstance(item, str):
            raise _malformed(line, "tags", f"tag {item!r} is not a string")
        tag = known_tags.get(item)
        if tag is None:
            tag = normalize_tag(item, aliases)
            try:
                _check_tag(tag)
            except ValueError as exc:
                raise _malformed(line, "tags", str(exc)) from exc
            known_tags[item] = tag
        tags.append(tag)

    source = record.get("source")
    if source is None or source == "":
        source = "tweet"
    elif source not in SOURCES:
        raise _malformed(line, "source", f"must be one of {SOURCES}, got {source!r}")

    # tuple.__new__ skips the NamedTuple constructor, which is Python code.
    return tuple.__new__(Document, (doc_id, timestamp, text, tuple(tags), lang, source))


def _loads_line(line: str) -> object:
    """json.loads(line): the same value, or the same exception. A line that
    is one JSON value and then its newline, as a JSONL line is, skips
    json.loads's checks for a byte-order mark and for whitespace around the
    value; any other line, or one the scanner fails on, goes to json.loads."""
    try:
        value, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    if line[end:] in ("\n", ""):
        return value
    return json.loads(line)


def _iter_records(path: Path, fmt: str) -> Iterator[tuple[int, Mapping[str, object], bool]]:
    """(line number, record, whether its line holds a backslash-u) per record
    of a "jsonl" or "csv" file. A JSONL line reads as json.loads reads it
    (see _loads_line). A CSV record may span lines; its number is the line
    it starts on."""
    if fmt == "jsonl":
        with path.open(encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, start=1):
                # A line read from a file is never empty, so this is
                # `not line.strip()` without the stripped copy.
                if line.isspace():
                    continue
                try:
                    record = _loads_line(line)
                # JSONDecodeError, a number too long, or nesting too deep.
                except (ValueError, RecursionError) as exc:
                    raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise DataError(f"line {line_no}: record is not a JSON object")
                yield line_no, record, "\\u" in line
        return
    with path.open(encoding="utf-8-sig", newline="") as handle:
        rows = csv.reader(handle)
        start = 1  # the line the next record starts on
        try:
            header = next(rows, None)
            if header is None:
                return
            missing = [f for f in _CSV_REQUIRED if f not in header]
            if missing:
                raise DataError(f"line 1: CSV header missing columns {missing}")
            # A row holds one value per column name, so a second column of
            # the same name would silently replace the first.
            if len(set(header)) != len(header):
                twice = next(f for i, f in enumerate(header) if f in header[:i])
                raise DataError(f"line 1: CSV header names column {twice!r} twice")
            width = len(header)
            start = rows.line_num + 1
            for row in rows:
                # A blank line reads as an empty row, and holds no record.
                if row:
                    if len(row) > width:
                        raise DataError(
                            f"line {start}: row has {len(row)} fields, the header {width}"
                        )
                    # A short row's missing fields are None.
                    record = dict(zip_longest(header, row))
                    tags = record["tags"]
                    if tags is not None:
                        record["tags"] = [t for t in tags.split("|") if t]
                    yield start, record, False
                start = rows.line_num + 1
        except csv.Error as exc:
            raise DataError(f"line {start}: {exc}") from exc


def load_corpus(
    path: str | Path,
    fmt: str = "jsonl",
    window: tuple[int, int] | None = None,
    aliases: Mapping[str, str] | None = None,
    min_tags: int = 0,
    on_kept: Callable[[str], object] | None = None,
) -> tuple[Corpus, LoadReport]:
    """Load and validate a corpus file; returns the corpus and its load report.

    A record is kept when it is inside the window and has at least
    min_tags hashtags; the others are dropped and counted in the report.
    Without a window, the one inferred spans every record. Duplicate ids
    and malformed records are hard errors. Each kept record's text is
    passed to on_kept, in file order, as soon as the record is checked, so
    a load that fails at a later line has passed some texts already.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"corpus file not found: {path}")
    dropped: Counter = Counter()

    inside: list[int] = []  # the timestamps of the records in the window
    kept: list[Document] = []
    seen_ids: dict[str, int] = {}
    known_tags: dict[str, str] = {}
    try:
        for line_no, record, escaped in _iter_records(path, fmt):
            doc = _record_to_document(record, line_no, aliases, known_tags, escaped)
            if doc.id in seen_ids:
                raise DataError(
                    f"line {line_no}: duplicate id {doc.id!r} "
                    f"(first seen at line {seen_ids[doc.id]})"
                )
            seen_ids[doc.id] = line_no
            if window is None or window[0] <= doc.timestamp <= window[1]:
                inside.append(doc.timestamp)
                if len(doc.hashtags) >= min_tags:
                    kept.append(doc)
                    if on_kept is not None:
                        on_kept(doc.text)
    except UnicodeDecodeError as exc:
        raise DataError(utf8_fault(path)) from exc
    except OSError as exc:
        raise cannot_read("corpus", path, exc) from exc
    # Every record read has an id now, or the load has raised.
    records_read = len(seen_ids)

    if len(inside) != records_read:
        dropped["out_of_window"] += records_read - len(inside)
    if not inside:
        raise DataError(f"empty corpus after filtering: {path}")
    if not kept:
        raise DataError(f"empty corpus after filtering: {path} (corpus.min_tags {min_tags})")
    if len(kept) != len(inside):
        dropped["below_min_tags"] += len(inside) - len(kept)
    corpus = Corpus.from_documents(kept, window or (min(inside), max(inside)))
    return corpus, LoadReport(str(path), fmt, records_read, len(kept), dropped)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as JSONL, so that loading it back yields an equal Corpus.

    Each line is the bytes of json.JSONEncoder(ensure_ascii=False).encode
    of the record {id, ts, text, tags, lang, source}, written one at a time
    so the file is never held in memory.
    """
    quote = encode_basestring
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        for doc_id, timestamp, text, hashtags, lang, source in corpus.documents:
            joined = " ".join(hashtags)
            # No tag holds a space when the joined text has one per gap, and
            # none needs a JSON escape when it is printable and holds no '"'
            # or '\\'. Document trusts its caller, so this is checked each time.
            if (
                joined.count(" ") == len(hashtags) - 1
                and joined.isprintable()
                and '"' not in joined
                and "\\" not in joined
            ):
                tags = '"' + joined.replace(" ", '", "') + '"'
            else:
                tags = ", ".join([quote(tag) for tag in hashtags])
            lang = "null" if lang is None else quote(lang)
            handle.write(
                f'{{"id": {quote(doc_id)}, "ts": "{_iso_utc(timestamp)}", '
                f'"text": {quote(text)}, "tags": [{tags}], "lang": {lang}, '
                f'"source": {quote(source)}}}\n'
            )
