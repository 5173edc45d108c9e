"""Tokenization, stopword filtering, and keyword-family matching.

All functions here are pure, apart from the memo `tokenize` keeps of the
words it has lowered. Tokens are plain lowercase strings and word lists are
immutable, so every downstream analysis can share them freely.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Generic, Iterable, TypeVar

from .errors import DataError
from .resources import read_rows

# Word = maximal run of Unicode letters/digits. Underscore is excluded on
# purpose, and hyphens/apostrophes split tokens.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Shortest stem a prefix family may use; shorter stems degenerate into
# matching half the vocabulary of languages with short function words.
MIN_PREFIX_STEM = 3


@dataclass(frozen=True)
class StopwordList:
    words: frozenset[str]

    def __contains__(self, surface: str) -> bool:
        return surface in self.words

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class KeywordFamily:
    """A stem plus match rule standing in for the inflected forms of a word.

    match_mode 'exact' matches the stem only; 'prefix' matches every
    surface starting with the stem. The stem must be one token, or it
    could match no surface.
    """

    stem: str
    match_mode: str = "prefix"

    def __post_init__(self) -> None:
        if not self.stem:
            raise ValueError("keyword family stem must be non-empty")
        if self.stem != self.stem.lower():
            raise ValueError(f"keyword family stem must be lowercase: {self.stem!r}")
        if not is_token(self.stem):
            raise ValueError(f"keyword family stem must be one token: {self.stem!r}")
        if self.match_mode not in ("prefix", "exact"):
            raise ValueError(f"unknown match mode: {self.match_mode!r}")
        if self.match_mode == "prefix" and len(self.stem) < MIN_PREFIX_STEM:
            raise ValueError(
                f"prefix stem {self.stem!r} shorter than {MIN_PREFIX_STEM} characters"
            )

    def matches(self, surface: str) -> bool:
        if self.match_mode == "exact":
            return surface == self.stem
        return surface.startswith(self.stem)


V = TypeVar("V")


class StemIndex(Generic[V]):
    """Finds every family a surface matches with dict probes, not a scan.

    Built once from (family, value) pairs. A lookup probes the exact stems
    once and, when the surface's first MIN_PREFIX_STEM characters begin
    some prefix stem, the prefix stems once per distinct prefix-stem length
    that fits the surface. It returns the values of the matching families in
    the order they were given, the order a scan of KeywordFamily.matches
    over the pairs gives.
    """

    def __init__(self, pairs: Iterable[tuple[KeywordFamily, V]]) -> None:
        self._exact: dict[str, list[tuple[int, V]]] = {}
        self._prefix: dict[str, list[tuple[int, V]]] = {}
        for rank, (family, value) in enumerate(pairs):
            stems = self._exact if family.match_mode == "exact" else self._prefix
            stems.setdefault(family.stem, []).append((rank, value))
        self._lengths = sorted({len(stem) for stem in self._prefix})
        self._heads = frozenset(stem[:MIN_PREFIX_STEM] for stem in self._prefix)

    def lookup(self, surface: str) -> list[V]:
        exact = self._exact.get(surface, ())
        # Every prefix stem has at least MIN_PREFIX_STEM characters, so a
        # surface whose head starts no prefix stem matches none of them.
        if surface[:MIN_PREFIX_STEM] not in self._heads:
            return [value for _, value in exact]
        hits = list(exact)
        for n in self._lengths:
            if n > len(surface):
                break
            hits.extend(self._prefix.get(surface[:n], ()))
        if len(hits) > 1:
            hits.sort()  # ranks are distinct, so values are never compared
        return [value for _, value in hits]


class _LoweredWords(dict):
    """Raw word -> its interned lowercase token, filled on first sight."""

    def __missing__(self, word: str) -> str:
        token = self[word] = sys.intern(word.lower())
        return token


_LOWERED = _LoweredWords()


def tokenize(text: str) -> list[str]:
    """Split on Unicode word boundaries, lowercase, keep diacritics intact.

    Each word is lowercased after the split, never the whole text: a case
    mapping can add a non-word mark ("İ" lowers to "i" + U+0307), which
    would split the word if it were applied first. Tokens are interned, so
    equal tokens kept by many documents are one string.

    Words go through a memo so that each raw word form is lowered and
    interned once. The memo lives for the process and is never cleared: it
    holds one entry per distinct raw word form seen ("Policja" and "policja"
    are two), so it grows with the vocabulary of everything tokenized.
    """
    return list(map(_LOWERED.__getitem__, _WORD_RE.findall(text)))


def remove_stopwords(tokens: list[str], stops: StopwordList) -> list[str]:
    """Drop stopword tokens, keeping the order of the survivors."""
    words = stops.words
    return [token for token in tokens if token not in words]


def is_token(word: str) -> bool:
    """Whether tokenize turns word into one token: word, lowered."""
    return _WORD_RE.fullmatch(word) is not None


def load_stopwords(path: str | Path) -> StopwordList:
    """Read a stopword file: one word per line, '#' starts a comment line.

    Each word must be one token; it is lowered.
    """
    words: set[str] = set()
    for line_no, fields in read_rows(path, "stopword"):
        if len(fields) != 1:
            raise DataError(f"line {line_no}: expected one word per line")
        if not is_token(fields[0]):
            raise DataError(f"line {line_no}: stopword must be one token: {fields[0]!r}")
        words.add(fields[0].lower())
    return StopwordList(words=frozenset(words))
