"""Tag frequencies, hashtag pair co-occurrence, and the one token count.

`ranked` defines rank order for every ranked table, artifact and graph:
descending count, ties ascending by key. A top-N is a prefix of it.

`socmine run` at jobs 2 counts tags in one process and tokens in another
(see report), but splits no count.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .corpus import Corpus, Document
from .text import KeywordFamily, remove_stopwords, tokenize

Key = Hashable


def count_tags(corpus: Corpus) -> Counter:
    """Per-document distinct hashtag counts: each tag counts once per
    document. Returns the Counter it counted in."""
    tag_sets = (set(d.hashtags) for d in corpus.documents)
    return Counter(chain.from_iterable(tag_sets))


class KeyOrderedRows(list):
    """(key, count) rows in strictly ascending key order. `ranked` takes
    their order as given; a plain list of rows is not taken as ordered."""


def count_tag_pairs(corpus: Corpus) -> KeyOrderedRows:
    """Unordered pairs of distinct tags co-occurring in one document, as
    ((a, b), count) rows in ascending key order, a < b in each key.

    Each document contributes one count per distinct pair; documents with
    fewer than two distinct tags contribute nothing. Each document adds its
    later tags to the partner list of every earlier one; each first tag's
    partners are counted as strings, and its rows follow its distinct
    partners in sorted order, so no pair tuple is built for a repeat.
    """
    partners: dict[str, list[str]] = {}
    for d in corpus.documents:
        if len(d.hashtags) > 1:
            tags = sorted(set(d.hashtags))
            for i in range(1, len(tags)):
                partners.setdefault(tags[i - 1], []).extend(tags[i:])
    rows = KeyOrderedRows()
    for a in sorted(partners):
        later = Counter(partners[a])
        keys = sorted(later)
        rows += zip(zip(repeat(a), keys), map(later.__getitem__, keys))
    return rows


def count_tokens(
    documents: Iterable[Document],
    stops: frozenset[str] | None = None,
    filter_term: KeywordFamily | None = None,
) -> tuple[Counter, Counter]:
    """Tokenize each document once; the Counters of the surfaces and the 2-grams.

    Every token surface is counted, stopwords kept, so each analysis of
    them filters for itself. Only when stops is given are the 2-grams
    counted: adjacent ordered token pairs in the stopword-filtered text of
    each document, never crossing a document boundary, and with
    filter_term only the pairs where at least one member matches the
    family. No token list outlives its document.
    """
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
    return surfaces, grams


def ranked(counts: Mapping[Key, int] | KeyOrderedRows) -> list[tuple[Key, int]]:
    """Every entry: descending count, ties ascending lexicographically.

    One stable sort by count ranks rows that are in ascending key order,
    as the keys of one count keep their order. A Mapping's entries are
    sorted by key first; KeyOrderedRows, such as count_tag_pairs returns,
    already are. A Mapping's keys are distinct, so sorting its entries by
    key alone gives the order of sorting them whole, and the sort compares
    keys of one type on its type-specialised path, not entry tuples.
    """
    if isinstance(counts, KeyOrderedRows):
        rows = counts
    else:
        rows = sorted(counts.items(), key=itemgetter(0))
    return sorted(rows, key=itemgetter(1), reverse=True)


def counts_to_csv(rows: Sequence[tuple[Key, int]], *, pairs: bool) -> str:
    """Ranked rows as CSV, in their order. The rows of a pairs table have
    (a, b) keys and become three columns, also when there are none."""
    end = ",{}\n".format
    if pairs:
        fields = ((a, b, count) for (a, b), count in rows)
        return _csv_text("key,key2,count", _rows_text(rows, ",".join, end), len(rows), fields)
    return _csv_text("key,count", _rows_text(rows, str, end), len(rows), rows)


def _rows_text(rows: Iterable[tuple[Key, int]], key_text: Callable, end: Callable) -> str:
    """Each row's line, key_text(key) + end(count). Rank order puts the rows
    of one count together, and end is called once per run of equal counts."""
    parts = []
    for count, run in groupby(rows, itemgetter(1)):
        tail = end(count)
        parts += (tail.join(map(key_text, map(itemgetter(0), run))), tail)
    return "".join(parts)


def _csv_text(header: str, body: str, rows: int, fields: Iterable[Sequence]) -> str:
    """The header line, then the body, the rows' lines with their fields
    joined by commas, when no field holds a quote, comma or line break, so
    that no field needs quoting; else csv.writer's text of the fields."""
    if (
        '"' not in body
        and "\r" not in body
        and body.count(",") == header.count(",") * rows
        and body.count("\n") == rows
    ):
        return f"{header}\n{body}"
    buffer = io.StringIO()
    buffer.write(f"{header}\n")
    csv.writer(buffer, lineterminator="\n").writerows(fields)
    return buffer.getvalue()
