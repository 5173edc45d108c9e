"""Lexicon-based sentiment scoring.

A text's strength sits on a -4..+4 scale built from two halves: the
positive half is 1 plus the largest boost among matched positive words
(1 when none match), the negative half is -1 minus the largest boost
among matched negative words (-1 when none match). Their sum is the
strength, so a text with no matches scores 0 and a lone negative word
with boost b scores -b.

The power of a counted n-gram is its frequency times its strength. An
n-gram is scored from its own surfaces, which are never re-tokenized.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import itemgetter, mul, not_
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import DataError
from .ngrams import _csv_text, ranked
from .resources import read_rows
from .text import KeywordFamily, StemIndex, tokenize

POLARITIES = ("positive", "negative")
MAX_BOOST = 4


class LexiconEntry(NamedTuple):
    stem: str
    polarity: str
    boost: int
    match_mode: str = "prefix"


SentimentLexicon = tuple[LexiconEntry, ...]


def _index(lexicon: SentimentLexicon) -> StemIndex[tuple[str, int]]:
    """Each entry as a keyword family valued (polarity, boost)."""
    return StemIndex(
        (KeywordFamily(entry.stem, entry.match_mode), (entry.polarity, entry.boost))
        for entry in lexicon
    )


def load_lexicon(path: str | Path) -> SentimentLexicon:
    """Parse a lexicon file.

    Tab-separated lines: `stem<TAB>polarity<TAB>boost[<TAB>mode]`, where
    mode defaults to 'prefix'. Blank lines and '#' comments are skipped.
    Stems follow the keyword-family rules (lowercase; prefix stems need
    three or more characters) and each may appear only once.
    """
    entries: dict[str, LexiconEntry] = {}  # by stem
    for line_no, parts in read_rows(path, "lexicon"):
        if len(parts) not in (3, 4):
            raise DataError(f"line {line_no}: expected 3 or 4 tab-separated fields")
        stem, polarity, boost_field, mode = (*parts, "prefix")[:4]
        try:
            boost = int(boost_field)
        except ValueError as exc:
            raise DataError(f"line {line_no}: boost must be an integer") from exc
        try:
            KeywordFamily(stem=stem, match_mode=mode)
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        if polarity not in POLARITIES:
            raise DataError(f"line {line_no}: polarity must be one of {POLARITIES}: {polarity!r}")
        if not 0 <= boost <= MAX_BOOST:
            raise DataError(f"line {line_no}: boost must be an integer in 0..{MAX_BOOST}: {boost}")
        if stem in entries:
            raise DataError(f"line {line_no}: duplicate stems in lexicon: {stem!r}")
        entries[stem] = LexiconEntry(stem, polarity, boost, mode)
    return tuple(entries.values())


# The halves of a surface no entry matches.
NEUTRAL = (1, -1)


def _halves(surface: str, index: StemIndex[tuple[str, int]]) -> tuple[int, int]:
    """The (positive, negative) halves of one surface: NEUTRAL when no entry matches."""
    boosts = {"positive": 0, "negative": 0}
    for polarity, boost in index.lookup(surface):
        boosts[polarity] = max(boosts[polarity], boost)
    return 1 + boosts["positive"], -1 - boosts["negative"]


def _strength(halves: Iterable[tuple[int, int]]) -> int:
    """Strongest positive half plus strongest negative half over the surfaces."""
    positive, negative = 1, -1
    for pos, neg in halves:
        positive = max(positive, pos)
        negative = min(negative, neg)
    return positive + negative


def score_text(text: str, lexicon: SentimentLexicon) -> int:
    index = _index(lexicon)
    return _strength(_halves(surface, index) for surface in tokenize(text))


class ScoredNGram(NamedTuple):
    ngram: tuple[str, ...]
    freq: int
    strength: int
    power: int


class PowerReport(NamedTuple):
    rows: tuple[ScoredNGram, ...]

    @property
    def sum_power(self) -> int:
        return sum(map(itemgetter(3), self.rows))


def power_report(
    counts: Mapping[tuple[str, ...], int], lexicon: SentimentLexicon, min_freq: int = 1
) -> PowerReport:
    """Score every counted n-gram with frequency >= min_freq.

    Keys are tuples of token surfaces, as ngrams.count_tokens writes them,
    and each key is its row's n-gram. Rows are in `ranked` order: descending
    frequency, ties broken by the n-gram itself ascending, so equally
    frequent n-grams list alphabetically.
    """
    rows = ranked({key: n for key, n in counts.items() if n >= min_freq})
    ngrams = list(map(itemgetter(0), rows))
    freqs = list(map(itemgetter(1), rows))
    # Distinct surfaces are far fewer than n-gram slots: look up once each
    # one that an entry could match, and keep its halves if not NEUTRAL.
    index = _index(lexicon)
    halves: dict[str, tuple[int, int]] = {}
    for surface in index.candidates(set(chain.from_iterable(ngrams))):
        if (scored := _halves(surface, index)) != NEUTRAL:
            halves[surface] = scored
    # An n-gram that holds none of them scores 1 - 1 = 0; the others are
    # scored from their surfaces' halves.
    strengths = [0] * len(ngrams)
    for i in compress(count(), map(not_, map(halves.keys().isdisjoint, ngrams))):
        strengths[i] = _strength(map(halves.get, ngrams[i], repeat(NEUTRAL)))
    columns = zip(ngrams, freqs, strengths, map(mul, freqs, strengths))
    return PowerReport(rows=tuple(map(ScoredNGram._make, columns)))


def power_csv(report: PowerReport) -> str:
    """One row per scored n-gram in rank order, then the power sum as a comment line.

    Each distinct (freq, strength, power) line ending is formatted once, and
    each n-gram's text is joined to its ending.
    """
    rows = report.rows
    texts = list(map(" ".join, map(itemgetter(0), rows)))
    numbers = list(map(itemgetter(1, 2, 3), rows))
    ends = {key: ",{},{},{}\n".format(*key) for key in set(numbers)}
    body = "".join(chain.from_iterable(zip(texts, map(ends.__getitem__, numbers))))
    fields = ((text, *number) for text, number in zip(texts, numbers))
    table = _csv_text("ngram,freq,strength,power", body, len(rows), fields)
    return f"{table}# sum_power,{report.sum_power}\n"
