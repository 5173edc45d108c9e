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

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DataError
from .ngrams import CountTable, _csv_text, ranked
from .resources import read_rows
from .text import KeywordFamily, StemIndex, tokenize

POLARITIES = ("positive", "negative")
MAX_BOOST = 4


class LexiconEntry(NamedTuple):
    stem: str
    polarity: str
    boost: int
    match_mode: str = "prefix"


@dataclass(frozen=True)
class SentimentLexicon:
    entries: tuple[LexiconEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def index(self) -> StemIndex[tuple[str, int]]:
        """Each entry as a keyword family valued (polarity, boost)."""
        return StemIndex(
            (KeywordFamily(entry.stem, entry.match_mode), (entry.polarity, entry.boost))
            for entry in self.entries
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
    return SentimentLexicon(entries=tuple(entries.values()))


def _halves(surface: str, lexicon: SentimentLexicon) -> tuple[int, int]:
    """The (positive, negative) halves of one surface: (1, -1) when no entry matches."""
    boosts = {"positive": 0, "negative": 0}
    for polarity, boost in lexicon.index.lookup(surface):
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
    return _strength(_halves(surface, lexicon) for surface in tokenize(text))


class ScoredNGram(NamedTuple):
    ngram: tuple[str, ...]
    freq: int
    strength: int
    power: int


@dataclass(frozen=True)
class PowerReport:
    rows: tuple[ScoredNGram, ...]

    @property
    def sum_power(self) -> int:
        return sum(row.power for row in self.rows)


def power_report(
    table: CountTable, lexicon: SentimentLexicon, min_freq: int = 1
) -> PowerReport:
    """Score every counted n-gram with frequency >= min_freq.

    Keys are tuples of token surfaces, as ngrams.count_tokens writes them,
    and each key is its row's n-gram. Rows are in `ranked` order: descending
    frequency, ties broken by the n-gram itself ascending, so equally
    frequent n-grams list alphabetically.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    kept = {key: count for key, count in table.entries.items() if count >= min_freq}
    # Distinct surfaces are far fewer than n-gram slots: look each one up
    # once, for this call only.
    halves_of = functools.cache(functools.partial(_halves, lexicon=lexicon))
    rows = []
    for ngram, freq in ranked(CountTable(kept)):
        strength = _strength(map(halves_of, ngram))
        rows.append(ScoredNGram(ngram, freq, strength, freq * strength))
    return PowerReport(rows=tuple(rows))


def power_csv(report: PowerReport) -> str:
    """One row per scored n-gram in rank order, then the power sum as a comment line."""
    lines = [
        f"{' '.join(ngram)},{freq},{strength},{power}\n"
        for ngram, freq, strength, power in report.rows
    ]
    fields = (
        (" ".join(ngram), freq, strength, power) for ngram, freq, strength, power in report.rows
    )
    table = _csv_text("ngram,freq,strength,power", lines, fields)
    return f"{table}# sum_power,{report.sum_power}\n"
