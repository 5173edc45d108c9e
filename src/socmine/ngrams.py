"""Tag frequencies, hashtag pair co-occurrence, the one token count and CSV writer.

`ranked` defines rank order for every ranked table, artifact and graph:
descending count, ties ascending by key. A top-N is a prefix of it.

`socmine run` may count tags in one process and tokens in another (see
report), but splits no count.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain, groupby, islice, pairwise, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .corpus import Corpus
from .text import KeywordFamily, remove_stopwords, tokenize

Key = Hashable

# Texts per Counter update in count_tokens.
_CHUNK = 512


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
    texts: Iterable[str],
    stops: frozenset[str] | None = None,
    filter_term: KeywordFamily | None = None,
) -> tuple[Counter, Counter]:
    """Tokenize each document's text once; the Counters of the surfaces and the 2-grams.

    Every token surface is counted, stopwords kept, so each analysis of
    them filters for itself. Only when stops is given are the 2-grams
    counted: adjacent ordered token pairs in the stopword-filtered text of
    each document, never crossing a document boundary, and with
    filter_term only the pairs where at least one member matches the
    family. Texts are counted in chunks of _CHUNK, one update of each
    Counter per chunk, in the order given, so each Counter's keys are in
    the order a per-document walk inserts them. The token lists of one
    chunk are held at once; none outlives its chunk. The order of the
    texts changes the order of the Counters' keys, and no count.
    """
    surfaces: Counter = Counter()
    grams: Counter = Counter()
    texts = iter(texts)
    while token_lists := list(map(tokenize, islice(texts, _CHUNK))):
        surfaces.update(chain.from_iterable(token_lists))
        if stops is None:
            continue
        kept_lists = map(remove_stopwords, token_lists, repeat(stops))
        pairs = chain.from_iterable(map(pairwise, kept_lists))
        if filter_term is not None:
            pairs = (
                gram for gram in pairs
                if filter_term.matches(gram[0]) or filter_term.matches(gram[1])
            )
        grams.update(pairs)
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


def _csv_text(header: str, body: str, rows: int, fields: Iterable[Sequence], **notes) -> str:
    """The header line, then the body, the rows' lines with their fields
    joined by commas, when no field holds a quote, comma or line break, so
    that no field needs quoting, else _writer_text's; then the notes' lines."""
    if (
        '"' not in body
        and "\r" not in body
        and body.count(",") == header.count(",") * rows
        and body.count("\n") == rows
    ):
        return f"{header}\n{body}{_writer_text((), **notes)}"
    return f"{header}\n{_writer_text(fields, **notes)}"


def _writer_text(rows: Iterable[Sequence], **notes: object) -> str:
    """csv.writer's text of the rows, lines ending in a newline, then one
    `# name,value` line per note, in keyword order."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    buffer.writelines(f"# {name},{value}\n" for name, value in notes.items())
    return buffer.getvalue()
