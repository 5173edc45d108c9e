"""Canonical document model and corpus ingestion from JSONL and CSV files.

load_corpus is where records are checked, filtered and counted, each
fault named by its line; Document and Corpus trust what they are given.
A loaded Corpus is immutable and sorted.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import DataError

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

# What the surrogateescape error handler makes of bytes that are not UTF-8.
_UNDECODED = re.compile(r"[\udc80-\udcff]")


def _check_tag(tag: str) -> None:
    if not tag:
        raise ValueError("hashtag is empty after normalization")
    bad = _BAD_TAG_CHAR.search(tag)
    if bad:
        raise ValueError(f"hashtag contains the forbidden character {bad.group()!r}: {tag!r}")
    if tag != tag.lower():
        raise ValueError(f"hashtag is not lowercase: {tag!r}")


@dataclass(frozen=True, slots=True)
class Document:
    """One social-media record (tweet or forum post)."""

    id: str
    timestamp: datetime
    text: str
    hashtags: tuple[str, ...] = ()
    lang: str | None = None
    source: str = "tweet"


@dataclass(frozen=True)
class Corpus:
    """Documents sorted by (timestamp, id) inside a closed time window."""

    documents: tuple[Document, ...]
    window: tuple[datetime, datetime]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[Document],
        window: tuple[datetime, datetime] | None = None,
    ) -> "Corpus":
        """Sort documents and infer the window from them when not given."""
        docs = sorted(documents, key=lambda d: (d.timestamp, d.id))
        if window is None:
            if not docs:
                raise ValueError("cannot infer a window from an empty corpus")
            window = (docs[0].timestamp, docs[-1].timestamp)
        return cls(documents=tuple(docs), window=window)


@dataclass
class LoadReport:
    """Counts of records read, kept, and dropped (with reasons) during a load."""

    path: str
    format: str
    records_read: int = 0
    records_kept: int = 0
    dropped: Counter = field(default_factory=Counter)

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


# Per-document helper: private, so a tracer wrapping public functions
# leaves it alone.
def _iso_utc(dt: datetime) -> str:
    """A UTC time as YYYY-MM-DDTHH:MM:SSZ, the year always four digits.

    strftime("%Y") writes year 5 as "5", which parse_timestamp rejects.
    isoformat's first 19 characters are that text with or without a
    tzinfo or a microsecond.
    """
    return dt.isoformat()[:19] + "Z"


def parse_timestamp(value: str | int | float) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    if isinstance(value, (int, float)):
        ts = datetime.fromtimestamp(float(value), tz=timezone.utc)
    else:
        text = value.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    return ts.replace(microsecond=0) if ts.microsecond else ts


def parse_window(spec: str) -> tuple[datetime, datetime]:
    """Parse 'START..END'; a bare date means the whole day on either side."""
    parts = spec.split("..")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"window must look like START..END, got {spec!r}")
    start = parse_timestamp(parts[0])
    end = parse_timestamp(parts[1])
    if "T" not in parts[1] and " " not in parts[1].strip():
        end = end.replace(hour=23, minute=59, second=59)
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
    if isinstance(tags_raw, str):
        tags_raw = [t for t in tags_raw.split("|") if t]
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

    return Document(doc_id, timestamp, text, tuple(tags), lang, source)


def _undecodable(path: Path) -> DataError:
    """The error naming the first line of path that is not valid UTF-8."""
    with path.open(encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            bad = _UNDECODED.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                return DataError(f"line {line_no}: invalid UTF-8 byte 0x{byte:02x}")
    return DataError(f"{path}: invalid UTF-8")


def _iter_records(path: Path, fmt: str) -> Iterator[tuple[int, Mapping[str, object], bool]]:
    """(line number, record, whether its line holds a backslash-u) per record."""
    if fmt == "jsonl":
        with path.open(encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, start=1):
                # A line read from a file is never empty, so this is
                # `not line.strip()` without the stripped copy.
                if line.isspace():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise DataError(f"line {line_no}: record is not a JSON object")
                yield line_no, record, "\\u" in line
    elif fmt == "csv":
        with path.open(encoding="utf-8-sig", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                return
            missing = [f for f in _CSV_REQUIRED if f not in reader.fieldnames]
            if missing:
                raise DataError(f"line 1: CSV header missing columns {missing}")
            for record in reader:
                yield reader.line_num, record, False
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")


def load_corpus(
    path: str | Path,
    fmt: str = "jsonl",
    window: tuple[datetime, datetime] | None = None,
    aliases: Mapping[str, str] | None = None,
    min_tags: int = 0,
) -> tuple[Corpus, LoadReport]:
    """Load and validate a corpus file; returns the corpus and its load report.

    Records outside the window, then documents with fewer than min_tags
    hashtags, are dropped and counted in the report. Without a window, the
    one inferred spans every record before the min_tags drop. Duplicate
    ids and malformed records are hard errors.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"corpus file not found: {path}")
    report = LoadReport(path=str(path), format=fmt)

    documents: list[Document] = []
    seen_ids: dict[str, int] = {}
    known_tags: dict[str, str] = {}
    try:
        for line_no, record, escaped in _iter_records(path, fmt):
            report.records_read += 1
            doc = _record_to_document(record, line_no, aliases, known_tags, escaped)
            if doc.id in seen_ids:
                raise DataError(
                    f"line {line_no}: duplicate id {doc.id!r} "
                    f"(first seen at line {seen_ids[doc.id]})"
                )
            seen_ids[doc.id] = line_no
            documents.append(doc)
    except UnicodeDecodeError as exc:
        raise _undecodable(path) from exc

    if window is not None:
        inside = [d for d in documents if window[0] <= d.timestamp <= window[1]]
        if len(inside) != len(documents):
            report.dropped["out_of_window"] += len(documents) - len(inside)
        documents = inside
    if not documents:
        raise DataError(f"empty corpus after filtering: {path}")
    corpus = Corpus.from_documents(documents, window)

    if min_tags:
        kept = tuple(d for d in corpus if len(d.hashtags) >= min_tags)
        if not kept:
            raise DataError(f"empty corpus after filtering: {path} (corpus.min_tags {min_tags})")
        if len(kept) != len(corpus):
            report.dropped["below_min_tags"] += len(corpus) - len(kept)
        corpus = Corpus(documents=kept, window=corpus.window)

    report.records_kept = len(corpus)
    return corpus, report


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as JSONL, so that loading it back yields an equal Corpus.

    Each line is the bytes of json.JSONEncoder(ensure_ascii=False).encode
    of the record {id, ts, text, tags, lang, source}, written one at a time
    so the file is never held in memory.
    """
    quote = encode_basestring
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        for doc in corpus:
            tags = ", ".join([quote(tag) for tag in doc.hashtags])
            lang = "null" if doc.lang is None else quote(doc.lang)
            handle.write(
                f'{{"id": {quote(doc.id)}, "ts": "{_iso_utc(doc.timestamp)}", '
                f'"text": {quote(doc.text)}, "tags": [{tags}], "lang": {lang}, '
                f'"source": {quote(doc.source)}}}\n'
            )
