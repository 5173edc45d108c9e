"""Shared builders for the test suite."""

from __future__ import annotations

import csv
from datetime import datetime, timedelta, timezone
from pathlib import Path

from socmine.corpus import Corpus, Document, _iso_utc

UTC = timezone.utc
BASE = datetime(2013, 5, 20, 12, 0, 0, tzinfo=UTC)
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def make_doc(doc_id: str, day: int = 0, text: str = "", tags=(), **kwargs) -> Document:
    return Document(
        id=doc_id,
        timestamp=BASE + timedelta(days=day),
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
    return Corpus.from_documents(docs)


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
