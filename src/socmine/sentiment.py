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

import csv
import functools
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import DataError
from .ngrams import CountTable, _rank_key
from .text import KeywordFamily, tokenize

POLARITIES = ("positive", "negative")
MAX_BOOST = 4


@dataclass(frozen=True)
class LexiconEntry:
    stem: str
    polarity: str
    boost: int
    match_mode: str = "prefix"

    def __post_init__(self) -> None:
        # Reuse the keyword-family rules: lowercase stem, prefix stems
        # need three or more characters.
        KeywordFamily(stem=self.stem, match_mode=self.match_mode)
        if self.polarity not in POLARITIES:
            raise ValueError(f"polarity must be one of {POLARITIES}, got {self.polarity!r}")
        if not isinstance(self.boost, int) or not 0 <= self.boost <= MAX_BOOST:
            raise ValueError(f"boost must be an integer in 0..{MAX_BOOST}, got {self.boost!r}")

    # Same fields, same rule.
    matches = KeywordFamily.matches


@dataclass(frozen=True)
class SentimentLexicon:
    entries: tuple[LexiconEntry, ...]

    def __post_init__(self) -> None:
        stems = [e.stem for e in self.entries]
        if len(stems) != len(set(stems)):
            raise ValueError("duplicate stems in lexicon")

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path: str | Path) -> SentimentLexicon:
    """Parse a lexicon file.

    Tab-separated lines: `stem<TAB>polarity<TAB>boost[<TAB>mode]`, where
    mode defaults to 'prefix'. Blank lines and '#' comments are skipped.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read lexicon file {path}: {exc}") from exc
    entries: list[LexiconEntry] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise DataError(f"line {line_no}: expected 3 or 4 tab-separated fields")
        stem, polarity, boost_field = parts[0], parts[1], parts[2]
        mode = parts[3] if len(parts) == 4 else "prefix"
        try:
            boost = int(boost_field)
        except ValueError as exc:
            raise DataError(f"line {line_no}: boost must be an integer") from exc
        try:
            entries.append(
                LexiconEntry(stem=stem, polarity=polarity, boost=boost, match_mode=mode)
            )
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
    try:
        return SentimentLexicon(entries=tuple(entries))
    except ValueError as exc:
        raise DataError(f"invalid lexicon {path}: {exc}") from exc


def _halves(surface: str, lexicon: SentimentLexicon) -> tuple[int, int]:
    """The (positive, negative) halves of one surface: (1, -1) when no entry matches."""
    pos_boost = neg_boost = 0
    for entry in lexicon.entries:
        if entry.matches(surface):
            if entry.polarity == "positive":
                pos_boost = max(pos_boost, entry.boost)
            else:
                neg_boost = max(neg_boost, entry.boost)
    return 1 + pos_boost, -1 - neg_boost


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


def _as_ngram(key: object) -> tuple[str, ...]:
    if isinstance(key, tuple):
        return tuple(str(part) for part in key)
    return (str(key),)


def power_report(
    table: CountTable, lexicon: SentimentLexicon, min_freq: int = 1
) -> PowerReport:
    """Score every counted n-gram with frequency >= min_freq.

    Rows are ordered by descending frequency, ties broken by the n-gram
    itself ascending, so equally frequent n-grams list alphabetically.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    kept = [
        (_as_ngram(key), count)
        for key, count in table.entries.items()
        if count >= min_freq
    ]
    kept.sort(key=_rank_key)
    # Distinct surfaces are far fewer than n-gram slots: scan the lexicon once
    # per surface, for this call only.
    halves_of = functools.cache(functools.partial(_halves, lexicon=lexicon))
    rows = []
    for ngram, freq in kept:
        strength = _strength(halves_of(surface) for surface in ngram)
        rows.append(ScoredNGram(ngram=ngram, freq=freq, strength=strength, power=freq * strength))
    return PowerReport(rows=tuple(rows))


def write_power_csv(report: PowerReport, handle: io.TextIOBase) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["ngram", "freq", "strength", "power"])
    for row in report.rows:
        writer.writerow([" ".join(row.ngram), row.freq, row.strength, row.power])
    handle.write(f"# sum_power,{report.sum_power}\n")
