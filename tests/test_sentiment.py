import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import GOLDEN
from socmine.errors import DataError
from socmine.ngrams import CountTable
from socmine.sentiment import (
    LexiconEntry,
    SentimentLexicon,
    load_lexicon,
    power_report,
    score_text,
    write_power_csv,
)

LEXICON = SentimentLexicon(
    entries=(
        LexiconEntry(stem="dobr", polarity="positive", boost=1),
        LexiconEntry(stem="wspania", polarity="positive", boost=3),
        LexiconEntry(stem="fatal", polarity="negative", boost=2),
        LexiconEntry(stem="mordować", polarity="negative", boost=3, match_mode="exact"),
    )
)


def test_entry_validation():
    with pytest.raises(ValueError):
        LexiconEntry(stem="dobr", polarity="meh", boost=1)
    with pytest.raises(ValueError):
        LexiconEntry(stem="dobr", polarity="positive", boost=5)
    with pytest.raises(ValueError):
        LexiconEntry(stem="dobr", polarity="positive", boost=-1)
    with pytest.raises(ValueError):
        LexiconEntry(stem="ab", polarity="positive", boost=1)
    with pytest.raises(ValueError):
        LexiconEntry(stem="Dobr", polarity="positive", boost=1)


def test_lexicon_rejects_duplicate_stems():
    entry = LexiconEntry(stem="dobr", polarity="positive", boost=1)
    with pytest.raises(ValueError):
        SentimentLexicon(entries=(entry, entry))


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
    buffer = io.StringIO()
    write_power_csv(power_report(table, lexicon), buffer)
    assert buffer.getvalue() == (GOLDEN / "power_small.csv").read_text(encoding="utf-8")
