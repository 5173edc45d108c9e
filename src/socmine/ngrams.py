"""Tag frequencies, hashtag pair co-occurrence, and token 2-gram counting.

Counting runs in one thread. The counters accept `jobs` but do not use it:
a thread pool only added overhead, because the interpreter lock lets one
thread at a time run the Python that does the counting.
"""

from __future__ import annotations

import csv
import heapq
import io
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Corpus, Document
# tokenize is not called here (Document.tokens calls it) but stays bound:
# the benchmark tracer's self-test reads ngrams.tokenize.
from .text import KeywordFamily, StopwordList, remove_stopwords, tokenize  # noqa: F401

Key = Hashable


class TagPair(NamedTuple):
    """Canonical unordered pair of distinct tags: a < b lexicographically."""

    a: str
    b: str

    @classmethod
    def of(cls, x: str, y: str) -> "TagPair":
        if x == y:
            raise ValueError(f"degenerate tag pair: {x!r}")
        return cls(x, y) if x < y else cls(y, x)


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


def _count(
    items: Iterable,
    keys_of: Callable[[object], Iterable[Key]],
    jobs: int,
) -> CountTable:
    """Count the keys of every item; `jobs` is checked but changes nothing."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    counts: Counter = Counter()
    for item in items:
        counts.update(keys_of(item))
    return CountTable(dict(counts))


def count_tags(corpus: Corpus, jobs: int = 1) -> CountTable:
    """Per-document distinct hashtag counts: each tag counts once per document."""
    return _count(corpus.documents, lambda d: set(d.hashtags), jobs)


def count_tag_pairs(corpus: Corpus, jobs: int = 1) -> CountTable:
    """Unordered pairs of distinct tags co-occurring in one document.

    Each document contributes one count per distinct pair; documents with
    fewer than two distinct tags contribute nothing. Keys are plain (a, b)
    tuples with a < b, which hash and compare equal to the same TagPair.
    """
    return _count(
        corpus.documents, lambda d: combinations(sorted(set(d.hashtags)), 2), jobs
    )


def count_token_2grams(
    documents: Sequence[Document],
    stops: StopwordList,
    filter_term: KeywordFamily | None = None,
    jobs: int = 1,
) -> CountTable:
    """Adjacent ordered token pairs in the stopword-filtered text of each document.

    2-grams never cross document boundaries. With filter_term, only pairs
    where at least one member matches the family are kept.
    """

    def grams_of(doc: Document) -> Iterable[tuple[str, str]]:
        tokens = remove_stopwords(doc.tokens, stops)
        grams = zip(tokens, tokens[1:])
        if filter_term is None:
            return grams
        return [
            gram for gram in grams
            if filter_term.matches(gram[0]) or filter_term.matches(gram[1])
        ]

    return _count(documents, grams_of, jobs)


# Per-item helpers stay private: a benchmark tracer wraps every public
# function, and wrapping one called once per table entry slows its caller.
def _rank_key(item: tuple[Key, int]) -> tuple:
    """Descending count, ties ascending by key, as one flat tuple.

    A flat (-count, a, b) sorts faster than (-count, TagPair): list.sort
    compares exact tuples of str and int on its fast path, and a nested
    tuple subclass takes the generic one. The order is the same.
    """
    key, count = item
    if isinstance(key, tuple):
        return (-count, *key)
    return (-count, key)


def ranked(table: CountTable) -> list[tuple[Key, int]]:
    """Every entry: descending count, ties ascending lexicographically."""
    return sorted(table.entries.items(), key=_rank_key)


def top_k(table: CountTable, k: int) -> list[tuple[Key, int]]:
    """The first k entries of ranked(table), without sorting the whole table."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # nsmallest keeps a k-sized heap, and sorts in full when k >= len(table).
    return heapq.nsmallest(k, table.entries.items(), key=_rank_key)


def write_counts_csv(rows: Sequence[tuple[Key, int]], handle: io.TextIOBase) -> None:
    """Serialize ranked rows to CSV in their order; pair keys become two columns."""
    writer = csv.writer(handle, lineterminator="\n")
    if rows and isinstance(rows[0][0], tuple):
        writer.writerow(["key", "key2", "count"])
        writer.writerows((a, b, count) for (a, b), count in rows)
    else:
        writer.writerow(["key", "count"])
        writer.writerows(rows)


def counts_to_csv(rows: Sequence[tuple[Key, int]]) -> str:
    buffer = io.StringIO()
    write_counts_csv(rows, buffer)
    return buffer.getvalue()
