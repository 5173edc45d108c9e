import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socmine.errors import DataError
from socmine.text import (
    MIN_PREFIX_STEM,
    KeywordFamily,
    StemIndex,
    StopwordList,
    load_stopwords,
    remove_stopwords,
    tokenize,
)

# Mixed Swedish and Polish with diacritics, numerals, punctuation, a
# hyphenated compound, a clock time and a hashtag.
MIXED = (
    "Polisen använde tårgas på Järvafältet i natt. Młodzież rzucała "
    "kamieniami, a samochody płonęły do rana; policja użyła gazu "
    "łzawiącego! Upplopp i Husby-området fortsatte för 3:e natten... "
    "vad händer nu? Świadkowie mówią, że spokój wrócił około 04:30. "
    "#kravaller"
)

MIXED_TOKENS = [
    "polisen", "använde", "tårgas", "på", "järvafältet", "i", "natt",
    "młodzież", "rzucała", "kamieniami", "a", "samochody", "płonęły",
    "do", "rana", "policja", "użyła", "gazu", "łzawiącego", "upplopp",
    "i", "husby", "området", "fortsatte", "för", "3", "e", "natten",
    "vad", "händer", "nu", "świadkowie", "mówią", "że", "spokój",
    "wrócił", "około", "04", "30", "kravaller",
]


def test_tokenize_mixed_language_golden():
    assert tokenize(MIXED) == MIXED_TOKENS


def test_tokenize_splits_underscore_and_hyphen():
    assert tokenize("efter_ord snabb-tåg") == ["efter", "ord", "snabb", "tåg"]


def test_tokenize_lowercases_after_splitting():
    # "İ".lower() is "i" + U+0307, a combining mark outside [^\W_]; lowering
    # the whole text first would split the word in two.
    assert tokenize("İstanbul") == ["i\u0307stanbul"]


def test_tokenize_interns_each_token():
    # Equal tokens are one object, so documents that keep their tokens
    # share the strings instead of holding a copy per occurrence.
    first, second = tokenize("Policja policja")
    assert first is second
    # Three raw forms of one word lower to one token object.
    tokens = tokenize("POLICJA policja Policja")
    assert tokens == ["policja"] * 3
    assert tokens[0] is tokens[1] is tokens[2]


def test_tokenize_empty_and_punctuation_only():
    assert tokenize("") == []
    assert tokenize("!!! ... ---") == []


def reference_tokenize(text):
    """The tokenizer as it was when tokens were objects, kept as the oracle."""
    return [m.group().lower() for m in re.finditer(r"[^\W_]+", text)]


@given(st.text(max_size=200))
def test_tokenize_matches_reference_and_is_lowercase(text):
    tokens = tokenize(text)
    assert tokens == reference_tokenize(text)
    assert all(t == t.lower() for t in tokens)
    assert all(tokens)


# Characters the tokenizer's memo and pattern must handle: "_" (not a word
# character here, though \w matches it), "İ" (lowers to two characters,
# one a non-word mark), U+0307 itself, "Σ"/"ς" (lowering depends on the
# position in the word), an apostrophe, digits and Polish letters in both
# cases.
TRICKY_ALPHABET = "_İi\u0307Σσς'09 aAłŁżŻśŚ"


@given(st.text(TRICKY_ALPHABET, max_size=60))
def test_tokenize_matches_reference_on_tricky_alphabet(text):
    assert tokenize(text) == reference_tokenize(text)


def test_remove_stopwords_keeps_order():
    stops = StopwordList(frozenset({"i", "a", "do"}))
    assert remove_stopwords(tokenize("a policja i do domu"), stops) == ["policja", "domu"]


def test_stopword_list_contains_and_len():
    stops = StopwordList(frozenset({"och", "att"}))
    assert "och" in stops
    assert "polis" not in stops
    assert len(stops) == 2


def test_keyword_family_prefix_and_exact():
    prefix = KeywordFamily(stem="polic", match_mode="prefix")
    assert prefix.matches("police")
    assert prefix.matches("policja")
    assert not prefix.matches("politics")
    exact = KeywordFamily(stem="law", match_mode="exact")
    assert exact.matches("law")
    assert not exact.matches("laws")


def test_keyword_family_validation():
    with pytest.raises(ValueError):
        KeywordFamily(stem="")
    with pytest.raises(ValueError):
        KeywordFamily(stem="Upper")
    with pytest.raises(ValueError):
        KeywordFamily(stem="ab", match_mode="prefix")
    with pytest.raises(ValueError):
        KeywordFamily(stem="abc", match_mode="suffix")
    # Short stems are fine in exact mode.
    assert KeywordFamily(stem="my", match_mode="exact").matches("my")


@given(
    st.one_of(st.text(max_size=8), st.text(TRICKY_ALPHABET, max_size=8)).map(str.lower),
    st.sampled_from(["prefix", "exact"]),
)
def test_keyword_family_accepts_a_stem_iff_it_is_one_token(stem, mode):
    # A stem the tokenizer cannot produce as one token would never match.
    accepted = tokenize(stem) == [stem] and stem == stem.lower()
    if mode == "prefix":
        accepted = accepted and len(stem) >= MIN_PREFIX_STEM
    try:
        KeywordFamily(stem, mode)
    except ValueError:
        assert not accepted
    else:
        assert accepted


def test_load_stopwords(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# comment\nOch\natt\n\n  på  \n", encoding="utf-8")
    stops = load_stopwords(path)
    assert stops.words == frozenset({"och", "att", "på"})


def test_load_stopwords_rejects_a_line_with_a_tab(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# comment\noch\natt\tpå\n", encoding="utf-8")
    with pytest.raises(DataError, match="^line 3: expected one word per line$"):
        load_stopwords(path)


@pytest.mark.parametrize("word", ["nie_", "po-prostu", "a b", "o'"])
def test_load_stopwords_rejects_a_word_that_is_not_one_token(tmp_path, word):
    path = tmp_path / "stops.txt"
    path.write_text(f"# comment\noch\n{word}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^line 3: stopword must be one token: {word!r}$"):
        load_stopwords(path)


def test_load_stopwords_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read stopword file"):
        load_stopwords(tmp_path / "absent.txt")


def test_stem_index_orders_hits_like_the_families():
    families = [
        KeywordFamily("polic", "prefix"),
        KeywordFamily("police", "exact"),
        KeywordFamily("pol", "prefix"),
        KeywordFamily("police", "prefix"),
    ]
    index = StemIndex(zip(families, "abcd"))
    assert index.lookup("police") == ["a", "b", "c", "d"]
    assert index.lookup("policeman") == ["a", "c", "d"]
    assert index.lookup("polityka") == ["c"]
    assert index.lookup("po") == []
    assert index.lookup("") == []


# Lowercase letters, non-ASCII ones included, few enough that stems nest,
# repeat and collide across modes.
STEM_ALPHABET = "abłßż"
FAMILIES = st.one_of(
    st.builds(KeywordFamily, st.text(STEM_ALPHABET, min_size=1, max_size=5), st.just("exact")),
    st.builds(
        KeywordFamily,
        st.text(STEM_ALPHABET, min_size=MIN_PREFIX_STEM, max_size=6),
        st.just("prefix"),
    ),
)


@given(st.lists(FAMILIES, max_size=12), st.lists(st.text(STEM_ALPHABET, max_size=8)))
def test_stem_index_equals_linear_scan(families, extra_surfaces):
    pairs = [(family, i) for i, family in enumerate(families)]
    index = StemIndex(pairs)
    # Each stem itself, one character short of it, and one longer.
    surfaces = extra_surfaces + [
        s for f in families for s in (f.stem, f.stem[:-1], f.stem + "a")
    ]
    for surface in surfaces:
        expected = [value for family, value in pairs if family.matches(surface)]
        assert index.lookup(surface) == expected
