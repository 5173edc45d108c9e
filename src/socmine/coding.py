"""Content-analysis coder: keyword-taxonomy vocabulary coding with roll-up
sums, and pronoun-group orientation counting.

Category counts are unique-word counts by default (each distinct surface
counts once, in the first category whose family matches it); occurrence
counting is available behind a flag for sensitivity analysis.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Mapping, NamedTuple

from .errors import DataError
from .resources import read_rows
# tokenize is not called here (ngrams.count_tokens calls it) but stays
# bound: the benchmark tracer's self-test reads coding.tokenize.
from .text import KeywordFamily, StemIndex, is_token, tokenize  # noqa: F401


class Category(NamedTuple):
    id: str
    label: str
    parent: str | None = None
    families: tuple[KeywordFamily, ...] = ()


# Ordered category tree; file order decides first-match assignment.
Taxonomy = tuple[Category, ...]


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Parse a taxonomy file.

    Tab-separated lines: `id<TAB>label` declares a category,
    `category_id<TAB>stem<TAB>mode` adds a keyword family to it. Blank
    lines and '#' comment lines are skipped. Subcategory ids like '6.1'
    require category '6' to be declared, anywhere in the file. A family
    may appear only once in the whole taxonomy.
    """
    # id -> (declaring line, label, families), in file order
    declared: dict[str, tuple[int, str, list[KeywordFamily]]] = {}
    seen_families: set[KeywordFamily] = set()
    for line_no, parts in read_rows(path, "taxonomy"):
        if len(parts) == 2:
            cat_id, label = parts
            if cat_id in declared:
                raise DataError(f"line {line_no}: duplicate category id {cat_id!r}")
            declared[cat_id] = (line_no, label, [])
        elif len(parts) == 3:
            cat_id, stem, mode = parts
            if cat_id not in declared:
                raise DataError(f"line {line_no}: unknown category id {cat_id!r}")
            try:
                family = KeywordFamily(stem=stem, match_mode=mode)
            except ValueError as exc:
                raise DataError(f"line {line_no}: {exc}") from exc
            if family in seen_families:
                raise DataError(f"line {line_no}: duplicate family: {stem!r}")
            seen_families.add(family)
            declared[cat_id][2].append(family)
        else:
            raise DataError(f"line {line_no}: expected 2 or 3 tab-separated fields")

    categories = []
    for cat_id, (line_no, label, families) in declared.items():
        parent = cat_id.split(".")[0] if "." in cat_id else None
        if parent is not None and parent not in declared:
            raise DataError(f"line {line_no}: orphan subcategory id: {cat_id!r}")
        categories.append(Category(cat_id, label, parent, tuple(families)))
    return tuple(categories)


class CategoryCount(NamedTuple):
    unique_words: frozenset[str]
    count: int


class CodingResult(NamedTuple):
    """Vocabulary assignment: each surface lands in at most one category.

    multi_matched maps each surface that matched more than one family to
    every matching category id, so coders can refine overlapping families.
    """

    per_category: Mapping[str, CategoryCount]
    uncategorized: frozenset[str]
    vocabulary_size: int
    multi_matched: Mapping[str, tuple[str, ...]]


def code_vocabulary(
    freq: Mapping[str, int],
    taxonomy: Taxonomy,
    stops: frozenset[str],
    min_freq: int = 1,
    count_occurrences: bool = False,
) -> CodingResult:
    """Assign the corpus vocabulary to taxonomy categories.

    freq maps each surface to its corpus frequency (see ngrams.count_tokens).
    Vocabulary = distinct non-stopword surfaces with frequency >= min_freq.
    Each surface goes to the first category (in taxonomy order) whose
    family matches it.
    """
    vocabulary = {s for s, n in freq.items() if n >= min_freq and s not in stops}

    index = StemIndex(
        (family, category.id)
        for category in taxonomy
        for family in category.families
    )
    assigned: dict[str, set[str]] = {c.id: set() for c in taxonomy}
    multi: dict[str, tuple[str, ...]] = {}
    # Only the surfaces a family could match are looked up, in sorted order
    # so that multi_matched lists them sorted; every other one is uncategorized.
    for surface in sorted(index.candidates(vocabulary)):
        hits = index.lookup(surface)
        if hits:
            assigned[hits[0]].add(surface)
            if len(hits) > 1:
                multi[surface] = tuple(dict.fromkeys(hits))

    per_category: dict[str, CategoryCount] = {}
    for category in taxonomy:
        words = frozenset(assigned[category.id])
        count = sum(map(freq.__getitem__, words)) if count_occurrences else len(words)
        per_category[category.id] = CategoryCount(unique_words=words, count=count)
    return CodingResult(
        per_category=per_category,
        uncategorized=frozenset(vocabulary.difference(*assigned.values())),
        vocabulary_size=len(vocabulary),
        multi_matched=multi,
    )


def rollup(result: CodingResult, taxonomy: Taxonomy) -> dict[str, int]:
    """Parent categories roll up their own count plus all subcategory counts."""
    own = {c.id: result.per_category[c.id].count for c in taxonomy}
    rolled = dict(own)
    for category in taxonomy:
        if category.parent is not None:
            rolled[category.parent] += own[category.id]
    return rolled


GroupEntry = tuple[str, tuple[str, ...]]  # (label, surfaces)


# Observer-orientation word groups, keyed "them" then "us".
PronounGroups = dict[str, tuple[GroupEntry, ...]]


def load_pronoun_groups(path: str | Path) -> PronounGroups:
    """Parse a groups file: `group<TAB>label<TAB>surface[|surface...]` per line.

    Each surface must be one token; it is lowered. A surface may appear in
    only one entry of either group.
    """
    groups: dict[str, list[GroupEntry]] = {"them": [], "us": []}
    seen: set[str] = set()
    for line_no, parts in read_rows(path, "pronoun groups"):
        if len(parts) != 3:
            raise DataError(f"line {line_no}: expected 3 tab-separated fields")
        group, label, surfaces_field = parts
        words = [word for word in surfaces_field.split("|") if word]
        if not words:
            raise DataError(f"line {line_no}: no surfaces listed")
        if group not in groups:
            raise DataError(f"line {line_no}: group must be 'them' or 'us', got {group!r}")
        surfaces = tuple(word.lower() for word in words)
        for word, surface in zip(words, surfaces):
            if not is_token(word):
                raise DataError(f"line {line_no}: surface must be one token: {word!r}")
            if surface in seen:
                raise DataError(
                    f"line {line_no}: surface {surface!r} appears in more than one entry"
                )
            seen.add(surface)
        groups[group].append((label, surfaces))
    return {name: tuple(entries) for name, entries in groups.items()}


class PronounRow(NamedTuple):
    label: str
    group: str
    surface: str
    count: int


class PronounReport(NamedTuple):
    rows: tuple[PronounRow, ...]
    them_total: int
    us_total: int
    ratio: float  # math.inf when the us-group total is zero


def pronoun_orientation(freq: Mapping[str, int], groups: PronounGroups) -> PronounReport:
    """Raw occurrence counts of every listed surface, read from the corpus
    surface frequencies (see ngrams.count_tokens).

    Stopword lists are deliberately not applied here: the surfaces of
    interest are exactly the function words a stoplist would remove.
    """
    rows: list[PronounRow] = []
    totals = {"them": 0, "us": 0}
    for group_name, entries in groups.items():
        for label, surfaces in entries:
            for surface in surfaces:
                count = freq.get(surface, 0)
                rows.append(PronounRow(label, group_name, surface, count))
                totals[group_name] += count
    ratio = totals["them"] / totals["us"] if totals["us"] else math.inf
    return PronounReport(
        rows=tuple(rows),
        them_total=totals["them"],
        us_total=totals["us"],
        ratio=ratio,
    )


def format_ratio(ratio: float) -> str:
    return "inf" if math.isinf(ratio) else f"{ratio:.4f}"


def coding_csv(result: CodingResult, rolled: Mapping[str, int], taxonomy: Taxonomy) -> str:
    """One row per category in taxonomy order, then the uncategorized and
    vocabulary counts as comment lines."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["category_id", "label", "unique_words", "count", "rolled_up"])
    for category in taxonomy:
        counted = result.per_category[category.id]
        writer.writerow(
            [category.id, category.label, len(counted.unique_words), counted.count,
             rolled[category.id]]
        )
    buffer.write(f"# uncategorized,{len(result.uncategorized)}\n")
    buffer.write(f"# vocabulary_size,{result.vocabulary_size}\n")
    return buffer.getvalue()


def pronouns_csv(report: PronounReport) -> str:
    """One row per group surface, then the totals and ratio as comment lines."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["label", "group", "surface", "count"])
    writer.writerows(report.rows)
    buffer.write(f"# them_total,{report.them_total}\n")
    buffer.write(f"# us_total,{report.us_total}\n")
    buffer.write(f"# ratio,{format_ratio(report.ratio)}\n")
    return buffer.getvalue()
