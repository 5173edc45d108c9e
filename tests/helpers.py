"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import os
from pathlib import Path

from socmine.corpus import Corpus, Document, _iso_utc, parse_timestamp

# Timestamps are UTC epoch seconds.
BASE = parse_timestamp("2013-05-20T12:00:00Z")
DAY = 86400
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
# The line ends a text-mode reader splits at, keyed by the suffix each adds
# to a test id; LF adds none.
LINE_ENDS = {"": b"\n", "-cr": b"\r", "-crlf": b"\r\n"}


def make_doc(doc_id: str, day: int = 0, text: str = "", tags=(), **kwargs) -> Document:
    return Document(
        id=doc_id,
        timestamp=BASE + day * DAY,
        text=text,
        hashtags=tuple(tags),
        **kwargs,
    )


def make_corpus(*specs) -> Corpus:
    """Each spec is (id, day, tags) or (id, day, tags, text)."""
    docs = []
    for spec in specs:
        doc_id, day, tags = spec[0], spec[1], spec[2]
        text = spec[3] if len(spec) > 3 else ""
        docs.append(make_doc(doc_id, day=day, text=text, tags=tags))
    return corpus_of(docs)


def corpus_of(docs) -> Corpus:
    """The corpus of docs, windowed from their first to their last timestamp."""
    times = [doc.timestamp for doc in docs]
    return Corpus.from_documents(docs, (min(times), max(times)))


def pin_cpus(monkeypatch, count: int) -> None:
    """Show `socmine run`'s fork decision `count` CPUs, so a test of the
    fork or of the serial path runs the same on any host. A forked run's
    split of them is not applied: they need not be this host's CPUs, and
    the test process keeps its own mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)


def write_csv_corpus(corpus: Corpus, path: Path) -> None:
    """Write a corpus as a CSV file that load_corpus(fmt="csv") reads back equal."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        # Quote every field: the minimal quoting of lineterminator "\n"
        # leaves a lone "\r" bare, and the reader ends a row at it.
        writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["id", "ts", "text", "tags", "lang", "source"])
        for doc in corpus.documents:
            row = [doc.id, _iso_utc(doc.timestamp), doc.text, "|".join(doc.hashtags)]
            writer.writerow([*row, doc.lang or "", doc.source])
