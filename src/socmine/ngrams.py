"""Tag frequencies, hashtag pair co-occurrence, and the one token count.

`ranked` defines rank order for every ranked table, artifact and graph:
descending count, ties ascending by key. A top-N is a prefix of it.

Counting runs in one thread. The counters accept `jobs` and reject values
below 1, but do not use it, and the run context never passes it: a thread
pool only added overhead, because the interpreter lock lets one thread at a
time run the Python that does the counting.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, repeat
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Corpus, Document
from .text import KeywordFamily, StopwordList, remove_stopwords, tokenize

Key = Hashable


class TagPair(NamedTuple):
    """Named view of a pair key (a, b), a < b; equal to the plain tuple, same hash."""

    a: str
    b: str


@dataclass(frozen=True)
class CountTable:
    """Frequency map from a key (tag, token pair, ...) to an occurrence count."""

    entries: Mapping[Key, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, count in self.entries.items():
            if count < 1:
                raise ValueError(f"count for {key!r} must be >= 1, got {count}")

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: Key) -> int:
        return self.entries.get(key, 0)

    def __contains__(self, key: Key) -> bool:
        return key in self.entries


def _count(key_lists: Iterable[Iterable[Key]], jobs: int) -> CountTable:
    """Count the keys of every list; `jobs` is checked but changes nothing."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    counts: Counter = Counter()
    for keys in key_lists:
        counts.update(keys)
    return CountTable(dict(counts))


def count_tags(corpus: Corpus, jobs: int = 1) -> CountTable:
    """Per-document distinct hashtag counts: each tag counts once per document."""
    return _count((set(d.hashtags) for d in corpus.documents), jobs)


def count_tag_pairs(corpus: Corpus, jobs: int = 1) -> CountTable:
    """Unordered pairs of distinct tags co-occurring in one document.

    Each document contributes one count per distinct pair; documents with
    fewer than two distinct tags contribute nothing. Keys are plain (a, b)
    tuples with a < b, which hash and compare equal to the same TagPair.
    """
    pairs = (
        combinations(sorted(set(d.hashtags)), 2)
        for d in corpus.documents
        if len(d.hashtags) > 1
    )
    return _count(pairs, jobs)


def count_tokens(
    documents: Iterable[Document],
    stops: StopwordList | None = None,
    filter_term: KeywordFamily | None = None,
    jobs: int = 1,
) -> tuple[Counter, CountTable]:
    """Tokenize each document once; the surface counts and the 2-gram table.

    Every token surface is counted, stopwords kept, so each analysis of
    them filters for itself. Only when stops is given are the 2-grams
    counted: adjacent ordered token pairs in the stopword-filtered text of
    each document, never crossing a document boundary, and with
    filter_term only the pairs where at least one member matches the
    family. No token list outlives its document.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    surfaces: Counter = Counter()
    grams: Counter = Counter()
    for doc in documents:
        tokens = tokenize(doc.text)
        surfaces.update(tokens)
        if stops is None:
            continue
        kept = remove_stopwords(tokens, stops)
        if filter_term is None:
            grams.update(zip(kept, kept[1:]))
        else:
            grams.update(
                gram for gram in zip(kept, kept[1:])
                if filter_term.matches(gram[0]) or filter_term.matches(gram[1])
            )
    return surfaces, CountTable(dict(grams))


def ranked(table: CountTable) -> list[tuple[Key, int]]:
    """Every entry: descending count, ties ascending lexicographically.

    Keys are grouped by count and each group sorts in the keys' own order,
    which costs far less than building a rank key for every entry: most
    entries of a long-tailed table share the few smallest counts.
    """
    buckets: dict[int, list[Key]] = {}
    for key, count in table.entries.items():
        bucket = buckets.get(count)
        if bucket is None:
            buckets[count] = [key]
        else:
            bucket.append(key)
    rows: list[tuple[Key, int]] = []
    for count in sorted(buckets, reverse=True):
        keys = buckets[count]
        keys.sort()
        rows.extend(zip(keys, repeat(count)))
    return rows


def counts_to_csv(rows: Sequence[tuple[Key, int]], *, pairs: bool) -> str:
    """Ranked rows as CSV, in their order. The rows of a pairs table have
    (a, b) keys and become three columns, also when there are none."""
    if pairs:
        lines = [f"{a},{b},{count}\n" for (a, b), count in rows]
        fields = ((a, b, count) for (a, b), count in rows)
        return _csv_text("key,key2,count", lines, fields)
    return _csv_text("key,count", [f"{key},{count}\n" for key, count in rows], rows)


def _csv_text(header: str, lines: list[str], fields: Iterable[Sequence]) -> str:
    """The header line, then each row: its line, its fields joined by
    commas, when no field holds a quote, comma or line break, so that no
    field needs quoting; else csv.writer's text of the fields."""
    body = "".join(lines)
    if (
        '"' not in body
        and "\r" not in body
        and body.count(",") == header.count(",") * len(lines)
        and body.count("\n") == len(lines)
    ):
        return f"{header}\n{body}"
    buffer = io.StringIO()
    buffer.write(f"{header}\n")
    csv.writer(buffer, lineterminator="\n").writerows(fields)
    return buffer.getvalue()
