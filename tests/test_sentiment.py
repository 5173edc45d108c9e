import csv
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import GOLDEN
from socmine.errors import DataError
from socmine.ngrams import CountTable, ranked
from socmine.sentiment import (
    LexiconEntry,
    PowerReport,
    ScoredNGram,
    SentimentLexicon,
    load_lexicon,
    power_csv,
    power_report,
    score_text,
)
from socmine.text import MIN_PREFIX_STEM, tokenize

LEXICON = SentimentLexicon(
    entries=(
        LexiconEntry(stem="dobr", polarity="positive", boost=1),
        LexiconEntry(stem="wspania", polarity="positive", boost=3),
        LexiconEntry(stem="fatal", polarity="negative", boost=2),
        LexiconEntry(stem="mordować", polarity="negative", boost=3, match_mode="exact"),
    )
)


def test_load_lexicon(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "# polarity lexicon\ndobr\tpositive\t1\nfatal\tnegative\t2\nlaw\tpositive\t0\texact\n",
        encoding="utf-8",
    )
    lexicon = load_lexicon(path)
    assert len(lexicon) == 3
    assert lexicon.entries[2].match_mode == "exact"
    assert lexicon.entries[0].boost == 1


@pytest.mark.parametrize(
    "body,message",
    [
        ("dobr\tpositive\n", "expected 3 or 4"),
        ("dobr\tpositive\tmany\n", "boost must be an integer"),
        ("dobr\tupbeat\t1\n", "line 1"),
        ("dobr\tpositive\t1\ndobr\tnegative\t2\n", "duplicate stems"),
        # Line numbers count comment and blank lines; the mode does not matter.
        ("# lexicon\ndobr\tpositive\t1\n\ndobr\tnegative\t2\texact\n", "line 4: duplicate stems"),
        ("dobr\tmeh\t1\n", "line 1: polarity must be one of"),
        ("dobr\tpositive\t5\n", "line 1: boost must be an integer in 0..4"),
        ("dobr\tpositive\t-1\n", "line 1: boost must be an integer in 0..4"),
        ("dobr\tpositive\t1\nab\tpositive\t1\n", "line 2: prefix stem 'ab' shorter than 3"),
        ("Dobr\tpositive\t1\texact\n", "line 1: keyword family stem must be lowercase"),
        ("dobr\tpositive\t1\tsuffix\n", "line 1: unknown match mode"),
        ("dobr y\tpositive\t1\n", "line 1: keyword family stem must be one token: 'dobr y'"),
    ],
)
def test_load_lexicon_errors(tmp_path, body, message):
    path = tmp_path / "lex.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_lexicon(path)


def test_score_neutral_text_is_zero():
    assert score_text("zwykły tekst bez ładunku", LEXICON) == 0
    assert score_text("", LEXICON) == 0


def test_score_single_polarity():
    # positive half 1+boost, negative half stays -1
    assert score_text("dobra wiadomość", LEXICON) == 1
    assert score_text("wspaniały dzień", LEXICON) == 3
    assert score_text("fatalna noc", LEXICON) == -2


def test_score_mixed_takes_max_boost_per_side():
    assert score_text("dobra ale fatalna", LEXICON) == 1 - 2
    assert score_text("wspaniała i dobra ale fatalna", LEXICON) == 3 - 2


def test_score_exact_mode_does_not_prefix_match():
    assert score_text("mordować", LEXICON) == -3
    assert score_text("mordowského", LEXICON) == 0


def test_score_bounds():
    strongest = SentimentLexicon(
        entries=(
            LexiconEntry(stem="sup", polarity="positive", boost=4, match_mode="exact"),
            LexiconEntry(stem="dno", polarity="negative", boost=4, match_mode="exact"),
        )
    )
    assert score_text("sup", strongest) == 4
    assert score_text("dno", strongest) == -4
    assert score_text("sup dno", strongest) == 0


@given(st.text(max_size=80))
def test_score_always_in_range(text):
    assert -4 <= score_text(text, LEXICON) <= 4


def _scan_halves(surface, lexicon):
    """Frozen copy of the linear scan _halves made before it used StemIndex."""
    pos_boost = neg_boost = 0
    for entry in lexicon.entries:
        if entry.match_mode == "exact":
            matched = surface == entry.stem
        else:
            matched = surface.startswith(entry.stem)
        if matched:
            if entry.polarity == "positive":
                pos_boost = max(pos_boost, entry.boost)
            else:
                neg_boost = max(neg_boost, entry.boost)
    return 1 + pos_boost, -1 - neg_boost


def _scan_score(text, lexicon):
    positive, negative = 1, -1
    for surface in tokenize(text):
        pos, neg = _scan_halves(surface, lexicon)
        positive, negative = max(positive, pos), min(negative, neg)
    return positive + negative


# Lowercase letters, non-ASCII ones included, few enough that stems nest,
# repeat and collide across modes.
STEM_ALPHABET = "abłßż"
ENTRIES = st.builds(
    LexiconEntry,
    stem=st.text(STEM_ALPHABET, min_size=MIN_PREFIX_STEM, max_size=6),
    polarity=st.sampled_from(["positive", "negative"]),
    boost=st.integers(0, 4),
    match_mode=st.sampled_from(["prefix", "exact"]),
)


@given(
    st.lists(ENTRIES, max_size=10),
    st.lists(st.text(STEM_ALPHABET + "ŁŻ", min_size=1, max_size=8), max_size=6),
)
def test_score_text_equals_linear_scan(entries, words):
    lexicon = SentimentLexicon(entries=tuple(entries))
    # Each stem, one character short of it and one longer; then whole texts.
    words += [w for e in entries for w in (e.stem, e.stem[:-1], e.stem + "a")]
    for text in [*words, " ".join(words), " ".join(words[::2])]:
        assert score_text(text, lexicon) == _scan_score(text, lexicon)


def test_power_report_ordering_and_min_freq():
    table = CountTable(
        {
            ("fatalna", "noc"): 3,
            ("dobra", "noc"): 3,
            ("cicha", "noc"): 7,
            ("rzadki", "widok"): 1,
        }
    )
    report = power_report(table, LEXICON, min_freq=2)
    assert [r.ngram for r in report.rows] == [
        ("cicha", "noc"),
        ("dobra", "noc"),
        ("fatalna", "noc"),
    ]
    assert [r.power for r in report.rows] == [0, 3, -6]
    assert report.sum_power == -3
    with pytest.raises(ValueError):
        power_report(table, LEXICON, min_freq=0)


def test_power_report_scores_the_ngram_own_surfaces():
    # "i̇stanbul" carries U+0307, a non-word mark: re-tokenizing the joined
    # 2-gram would split off "stanbul", which the prefix stem "stan" matches.
    lexicon = SentimentLexicon(entries=(LexiconEntry("stan", "positive", 2),))
    table = CountTable({("i\u0307stanbul", "policja"): 1, ("stanowczo", "policja"): 1})
    strengths = {row.ngram: row.strength for row in power_report(table, lexicon).rows}
    assert strengths == {("i\u0307stanbul", "policja"): 0, ("stanowczo", "policja"): 2}


def test_power_csv_golden():
    lexicon = SentimentLexicon(
        entries=(
            LexiconEntry(stem="bad", polarity="negative", boost=2, match_mode="exact"),
            LexiconEntry(stem="good", polarity="positive", boost=1, match_mode="exact"),
        )
    )
    table = CountTable({("bad", "news"): 3, ("good", "news"): 2, ("plain", "news"): 2})
    assert power_csv(power_report(table, lexicon)) == (GOLDEN / "power_small.csv").read_text(encoding="utf-8")


def _scan_power_rows(table, lexicon, min_freq):
    """Frozen copy of power_report's old per-row code: each key's parts made
    strings, then _strength over a generator of halves."""
    rows = []
    kept = {key: count for key, count in table.entries.items() if count >= min_freq}
    for key, freq in ranked(CountTable(kept)):
        ngram = tuple(str(part) for part in key) if isinstance(key, tuple) else (str(key),)
        positive, negative = 1, -1
        for pos, neg in (_scan_halves(surface, lexicon) for surface in ngram):
            positive = max(positive, pos)
            negative = min(negative, neg)
        strength = positive + negative
        rows.append((ngram, freq, strength, freq * strength))
    return rows


# Surfaces that nest the stems of LEXICON, so that rows score on both sides.
SURFACES = st.lists(
    st.sampled_from(["dobr", "fatal", "wspania", "mordować", "y", "ą", ""]), max_size=3
).map("".join)
COUNTS = st.integers(1, 5)
# Keys are plain tuples of surfaces, as ngrams.count_tokens writes them.
POWER_TABLES = st.one_of(
    st.dictionaries(st.tuples(SURFACES), COUNTS, max_size=12),
    st.dictionaries(st.tuples(SURFACES, SURFACES), COUNTS, max_size=12),
    st.dictionaries(st.tuples(SURFACES, SURFACES, SURFACES), COUNTS, max_size=12),
)


@given(POWER_TABLES, st.sampled_from([1, 3]))
def test_power_report_equals_per_row_scan(entries, min_freq):
    table = CountTable(entries)
    rows = power_report(table, LEXICON, min_freq=min_freq).rows
    assert rows == tuple(_scan_power_rows(table, LEXICON, min_freq))
    assert all(type(row.ngram) is tuple for row in rows)
    assert all(type(part) is str for row in rows for part in row.ngram)


# Surfaces with and without what CSV must quote: a comma, a quote, line breaks.
CSV_SURFACES = st.text(st.sampled_from(["a", ",", '"', "\r", "\n", " ", "é"]), max_size=4)


@given(
    st.lists(
        st.builds(
            ScoredNGram,
            st.lists(CSV_SURFACES, min_size=1, max_size=3).map(tuple),
            COUNTS,
            st.integers(-4, 4),
            st.integers(-20, 20),
        ),
        max_size=8,
    )
)
def test_power_csv_equals_csv_writer(rows):
    report = PowerReport(rows=tuple(rows))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["ngram", "freq", "strength", "power"])
    for row in rows:
        writer.writerow([" ".join(row.ngram), row.freq, row.strength, row.power])
    buffer.write(f"# sum_power,{report.sum_power}\n")
    assert power_csv(report) == buffer.getvalue()
