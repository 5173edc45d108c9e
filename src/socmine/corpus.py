"""Canonical document model and corpus ingestion from JSONL and CSV files.

A loaded Corpus is immutable and sorted, so it can be shared across
threads without further coordination.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import DataError
from .text import tokenize

SOURCES = ("tweet", "forum_post")

# JSONL field names double as the CSV column header; a CSV file may omit
# the last two.
FIELDS = ("id", "ts", "text", "tags", "lang", "source")
_CSV_REQUIRED = FIELDS[:4]


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
# UTF-8 writer can encode.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _check_tag(tag: str) -> None:
    if not tag:
        raise ValueError("hashtag is empty after normalization")
    bad = _BAD_TAG_CHAR.search(tag)
    if bad:
        raise ValueError(f"hashtag contains the forbidden character {bad.group()!r}: {tag!r}")
    if tag != tag.lower():
        raise ValueError(f"hashtag is not lowercase: {tag!r}")


@dataclass(frozen=True)
class Document:
    """One social-media record (tweet or forum post)."""

    id: str
    timestamp: datetime
    text: str
    hashtags: tuple[str, ...] = ()
    lang: str | None = None
    source: str = "tweet"

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.timestamp.tzinfo is None:
            raise ValueError("document timestamp must be timezone-aware")
        for tag in self.hashtags:
            _check_tag(tag)
        if self.source not in SOURCES:
            raise ValueError(f"unknown source: {self.source!r}")

    # Not a field, so eq, hash, repr and asdict ignore it. Every text
    # analysis reads this one list; none of them mutates it.
    @cached_property
    def tokens(self) -> list[str]:
        """The tokens of the text, computed on first use."""
        return tokenize(self.text)


@dataclass(frozen=True)
class Corpus:
    """Documents sorted by (timestamp, id) inside a closed time window."""

    documents: tuple[Document, ...]
    window: tuple[datetime, datetime]

    def __post_init__(self) -> None:
        start, end = self.window
        if start > end:
            raise ValueError("corpus window start is after its end")
        seen: set[str] = set()
        previous: tuple[datetime, str] | None = None
        for doc in self.documents:
            if doc.id in seen:
                raise ValueError(f"duplicate document id: {doc.id!r}")
            seen.add(doc.id)
            if not (start <= doc.timestamp <= end):
                raise ValueError(f"document {doc.id!r} outside corpus window")
            key = (doc.timestamp, doc.id)
            if previous is not None and key < previous:
                raise ValueError("documents are not sorted by (timestamp, id)")
            previous = key

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
    """
    return dt.replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


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
    return ts.replace(microsecond=0)


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


def _record_to_document(
    record: Mapping[str, object],
    line: int,
    aliases: Mapping[str, str] | None,
) -> Document:
    def fail(fieldname: str, why: str) -> DataError:
        return DataError(f"line {line}: malformed field {fieldname!r}: {why}")

    def check_str(fieldname: str, value: object) -> None:
        if not isinstance(value, str):
            raise fail(fieldname, "must be a string")
        if _SURROGATE.search(value):
            raise fail(fieldname, "contains a lone surrogate")

    doc_id = record.get("id")
    check_str("id", doc_id)
    if not doc_id:
        raise fail("id", "must be a non-empty string")

    ts_raw = record.get("ts")
    # bool is an int subclass, but `true` is no timestamp.
    if isinstance(ts_raw, bool) or not isinstance(ts_raw, (str, int, float)) or ts_raw == "":
        raise fail("ts", "missing timestamp")
    try:
        timestamp = parse_timestamp(ts_raw)
    except (ValueError, OverflowError, OSError) as exc:
        raise fail("ts", str(exc)) from exc

    text = record.get("text", "")
    check_str("text", text)

    tags_raw = record.get("tags", [])
    if isinstance(tags_raw, str):
        tags_raw = [t for t in tags_raw.split("|") if t]
    if not isinstance(tags_raw, list):
        raise fail("tags", "must be a list (JSONL) or pipe-delimited string (CSV)")
    tags: list[str] = []
    for item in tags_raw:
        if not isinstance(item, str):
            raise fail("tags", f"tag {item!r} is not a string")
        tags.append(normalize_tag(item, aliases))

    lang = record.get("lang") or None
    if lang is not None:
        check_str("lang", lang)

    source = record.get("source") or "tweet"
    if source not in SOURCES:
        raise fail("source", f"must be one of {SOURCES}, got {source!r}")

    # Document checks the tags; id, timestamp and source are valid by now,
    # so any ValueError it raises is about a tag.
    try:
        return Document(
            id=doc_id,
            timestamp=timestamp,
            text=text,
            hashtags=tuple(tags),
            lang=lang,
            source=str(source),
        )
    except ValueError as exc:
        raise fail("tags", str(exc)) from exc


def _iter_records(path: Path, fmt: str) -> Iterator[tuple[int, Mapping[str, object]]]:
    if fmt == "jsonl":
        with path.open(encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise DataError(f"line {line_no}: record is not a JSON object")
                yield line_no, record
    elif fmt == "csv":
        with path.open(encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                return
            missing = [f for f in _CSV_REQUIRED if f not in reader.fieldnames]
            if missing:
                raise DataError(f"line 1: CSV header missing columns {missing}")
            for record in reader:
                yield reader.line_num, record
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")


def load_corpus(
    path: str | Path,
    fmt: str = "jsonl",
    window: tuple[datetime, datetime] | None = None,
    aliases: Mapping[str, str] | None = None,
) -> tuple[Corpus, LoadReport]:
    """Load and validate a corpus file; returns the corpus and its load report.

    Records outside the window are dropped and counted in the report.
    Duplicate ids and malformed records are hard errors.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"corpus file not found: {path}")
    report = LoadReport(path=str(path), format=fmt)

    documents: list[Document] = []
    seen_ids: dict[str, int] = {}
    for line_no, record in _iter_records(path, fmt):
        report.records_read += 1
        doc = _record_to_document(record, line_no, aliases)
        if doc.id in seen_ids:
            raise DataError(
                f"line {line_no}: duplicate id {doc.id!r} "
                f"(first seen at line {seen_ids[doc.id]})"
            )
        seen_ids[doc.id] = line_no
        documents.append(doc)

    if window is not None:
        inside = [d for d in documents if window[0] <= d.timestamp <= window[1]]
        if len(inside) != len(documents):
            report.dropped["out_of_window"] += len(documents) - len(inside)
        documents = inside

    if not documents:
        raise DataError(f"empty corpus after filtering: {path}")
    report.records_kept = len(documents)
    return Corpus.from_documents(documents, window), report


def write_corpus(corpus: Corpus, path: str | Path, fmt: str = "jsonl") -> None:
    """Serialize a corpus so that loading it back yields an equal Corpus."""
    path = Path(path)
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8", newline="\n") as handle:
            for doc in corpus:
                record = {
                    "id": doc.id,
                    "ts": _iso_utc(doc.timestamp),
                    "text": doc.text,
                    "tags": list(doc.hashtags),
                    "lang": doc.lang,
                    "source": doc.source,
                }
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    elif fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(FIELDS)
            for doc in corpus:
                writer.writerow(
                    [
                        doc.id,
                        _iso_utc(doc.timestamp),
                        doc.text,
                        "|".join(doc.hashtags),
                        doc.lang or "",
                        doc.source,
                    ]
                )
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")


def filter_multi_tag(corpus: Corpus, min_tags: int) -> Corpus:
    """Keep documents carrying at least min_tags hashtags."""
    if min_tags < 1:
        raise ValueError(f"min_tags must be >= 1, got {min_tags}")
    kept = tuple(d for d in corpus.documents if len(d.hashtags) >= min_tags)
    return Corpus(documents=kept, window=corpus.window)
