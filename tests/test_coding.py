import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import GOLDEN, make_corpus
from socmine.coding import (
    Category,
    code_vocabulary,
    coding_csv,
    format_ratio,
    load_pronoun_groups,
    load_taxonomy,
    pronoun_orientation,
    pronouns_csv,
    rollup,
)
from socmine.errors import DataError
from socmine.ngrams import count_tokens
from socmine.resources import default_data_path
from socmine.text import MIN_PREFIX_STEM, KeywordFamily

NO_STOPS = frozenset()


def _surfaces(corpus):
    """The corpus surface counts, stopwords kept."""
    return count_tokens(corpus.documents)[0]


def _taxonomy(*lines):
    return "\n".join(lines) + "\n"


def test_load_taxonomy_small(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(
        _taxonomy(
            "# comment",
            "1\tWork",
            "1\twork\tprefix",
            "1.1\tEmployment",
            "1.1\temploy\tprefix",
            "2\tLaw",
            "2\tlaw\texact",
        ),
        encoding="utf-8",
    )
    taxonomy = load_taxonomy(path)
    assert [c.id for c in taxonomy] == ["1", "1.1", "2"]
    by_id = {c.id: c for c in taxonomy}
    assert by_id["1.1"].parent == "1"
    assert by_id["1"].parent is None
    assert [c.id for c in taxonomy if c.parent is None] == ["1", "2"]
    assert [c.id for c in taxonomy if c.parent is not None] == ["1.1"]
    assert by_id["2"].families[0].match_mode == "exact"


@pytest.mark.parametrize(
    "body,message",
    [
        ("1.1\tOrphan\n", "orphan"),
        ("1\tA\n1\tB\n", "duplicate category id"),
        ("1\tA\n1\twork\tprefix\n1\twork\tprefix\n", "duplicate family"),
        ("1\tA\tprefix\textra\n", "expected 2 or 3"),
        ("9\tstem\tprefix\n", "unknown category id"),
        ("1\tA\n1\tab\tprefix\n", "line 2"),
        ("1\tA\n1\tpoli cja\tprefix\n", "line 2: keyword family stem must be one token: 'poli cja'"),
        # Each fault names the line that makes it: the second family, the
        # orphan's declaration.
        ("1\tA\n1\twork\tprefix\n2\tB\n2\twork\tprefix\n", "line 4: duplicate family: 'work'"),
        ("1\tA\n\n# nested\n2.1\tOrphan\n", "line 4: orphan subcategory id: '2.1'"),
    ],
)
def test_load_taxonomy_errors(tmp_path, body, message):
    path = tmp_path / "t.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_taxonomy(path)


def test_load_taxonomy_declares_parents_in_any_order(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(_taxonomy("1.1\tEmployment", "1\tWork"), encoding="utf-8")
    assert [(c.id, c.parent) for c in load_taxonomy(path)] == [("1.1", "1"), ("1", None)]


def test_bundled_taxonomy_structure():
    taxonomy = load_taxonomy(default_data_path("taxonomy.tsv"))
    assert len([c for c in taxonomy if c.parent is None]) == 10
    assert sum(c.parent is not None for c in taxonomy) == 14


def _small_taxonomy():
    return (
        Category(id="1", label="Police", families=(KeywordFamily("polic", "prefix"),)),
        Category(
            id="1.1",
            label="Violence",
            parent="1",
            families=(KeywordFamily("gaz", "prefix"), KeywordFamily("bić", "exact")),
        ),
        Category(id="2", label="Riots", families=(KeywordFamily("riot", "prefix"),)),
    )


def test_code_vocabulary_first_match_and_conservation():
    corpus = make_corpus(
        ("a", 0, (), "policja gazu policja riots okna"),
        ("b", 1, (), "policji bić riots"),
    )
    result = code_vocabulary(_surfaces(corpus), _small_taxonomy(), NO_STOPS)
    assert result.per_category["1"].unique_words == frozenset({"policja", "policji"})
    assert result.per_category["1.1"].unique_words == frozenset({"gazu", "bić"})
    assert result.per_category["2"].unique_words == frozenset({"riots"})
    assert result.uncategorized == frozenset({"okna"})
    assert result.vocabulary_size == 6
    assert result.multi_matched == {}


def test_code_vocabulary_multi_match_reports_all_hits():
    taxonomy = (
        Category(id="1", label="A", families=(KeywordFamily("poli", "prefix"),)),
        Category(id="2", label="B", families=(KeywordFamily("polic", "prefix"),)),
    )
    corpus = make_corpus(("a", 0, (), "policja"))
    result = code_vocabulary(_surfaces(corpus), taxonomy, NO_STOPS)
    assert result.per_category["1"].unique_words == frozenset({"policja"})
    assert result.per_category["2"].count == 0
    assert result.multi_matched == {"policja": ("1", "2")}


def test_code_vocabulary_min_freq_and_occurrences():
    corpus = make_corpus(("a", 0, (), "policja policja riots"))
    freq = _surfaces(corpus)
    result = code_vocabulary(freq, _small_taxonomy(), NO_STOPS, min_freq=2)
    assert result.vocabulary_size == 1
    assert result.per_category["1"].count == 1
    by_occurrence = code_vocabulary(
        freq, _small_taxonomy(), NO_STOPS, min_freq=2, count_occurrences=True
    )
    assert by_occurrence.per_category["1"].count == 2


def test_code_vocabulary_applies_stopwords():
    corpus = make_corpus(("a", 0, (), "policja i riots"))
    stops = frozenset({"i"})
    result = code_vocabulary(_surfaces(corpus), _small_taxonomy(), stops)
    assert result.vocabulary_size == 2
    assert "i" not in result.uncategorized


@given(st.lists(st.sampled_from(
    ["policja", "gaz", "riots", "okna", "sklepy", "bić", "policzek"]
), min_size=1, max_size=30))
def test_conservation_property(words):
    corpus = make_corpus(("a", 0, (), " ".join(words)))
    result = code_vocabulary(_surfaces(corpus), _small_taxonomy(), NO_STOPS)
    assigned = sum(len(c.unique_words) for c in result.per_category.values())
    assert assigned + len(result.uncategorized) == result.vocabulary_size


def _scan_coding(freq, taxonomy, stops, min_freq, count_occurrences):
    """A first-match linear scan of KeywordFamily.matches in taxonomy order."""
    vocabulary = sorted(s for s, n in freq.items() if n >= min_freq and s not in stops)
    assigned = {c.id: set() for c in taxonomy}
    uncategorized = set()
    multi = {}
    for surface in vocabulary:
        hits = [c.id for c in taxonomy for family in c.families if family.matches(surface)]
        if not hits:
            uncategorized.add(surface)
            continue
        assigned[hits[0]].add(surface)
        if len(hits) > 1:
            multi[surface] = tuple(dict.fromkeys(hits))
    per_category = {
        cid: (words, sum(freq[w] for w in words) if count_occurrences else len(words))
        for cid, words in assigned.items()
    }
    return per_category, uncategorized, len(vocabulary), multi


# Few letters, one of them not Latin-1, so that stems nest and surfaces
# share heads with stems they do not match.
CODING_ALPHABET = "abż"
CODING_FAMILIES = st.one_of(
    st.builds(KeywordFamily, st.text(CODING_ALPHABET, min_size=1, max_size=2), st.just("exact")),
    st.builds(KeywordFamily, st.text(CODING_ALPHABET, min_size=3, max_size=5), st.just("exact")),
    st.builds(
        KeywordFamily,
        st.text(CODING_ALPHABET, min_size=MIN_PREFIX_STEM, max_size=5),
        st.just("prefix"),
    ),
)


@given(
    st.lists(st.lists(CODING_FAMILIES, max_size=3), max_size=4),
    st.lists(st.text(CODING_ALPHABET, min_size=1, max_size=6), max_size=10),
    st.data(),
)
def test_code_vocabulary_equals_first_match_scan(family_lists, extra, data):
    taxonomy = tuple(
        Category(id=str(i), label=f"C{i}", families=tuple(families))
        for i, families in enumerate(family_lists, 1)
    )
    stems = [family.stem for families in family_lists for family in families]
    # Each stem, shorter than it (down to under MIN_PREFIX_STEM) and longer.
    variants = (
        s for stem in stems for s in (stem, stem[:-1], stem[:2], stem[:1], stem + "a", stem + "ż")
    )
    surfaces = sorted({*extra, *variants} - {""})
    n = len(surfaces)
    counts = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    # Counted surfaces come in corpus order, not sorted.
    freq = dict(zip(data.draw(st.permutations(surfaces)), counts))
    stops = frozenset(data.draw(st.lists(st.sampled_from(surfaces), max_size=3)) if n else ())
    min_freq = data.draw(st.integers(1, 3))
    count_occurrences = data.draw(st.booleans())

    result = code_vocabulary(freq, taxonomy, stops, min_freq, count_occurrences)
    per_category, uncategorized, size, multi = _scan_coding(
        freq, taxonomy, stops, min_freq, count_occurrences
    )
    assert list(result.per_category) == [c.id for c in taxonomy]
    assert {
        cid: (set(counted.unique_words), counted.count)
        for cid, counted in result.per_category.items()
    } == per_category
    assert result.uncategorized == uncategorized
    assert result.vocabulary_size == size
    assert list(result.multi_matched.items()) == list(multi.items())


def test_rollup_sums_children_into_parents():
    corpus = make_corpus(("a", 0, (), "policja gazu bić riots okna"))
    taxonomy = _small_taxonomy()
    result = code_vocabulary(_surfaces(corpus), taxonomy, NO_STOPS)
    rolled = rollup(result, taxonomy)
    assert set(rolled) == {"1", "1.1", "2"}
    assert rolled["1.1"] == 2
    assert rolled["1"] == 1 + 2
    assert rolled["2"] == 1


def test_coding_csv_golden():
    text20 = (
        "working taxes unemployment poor families religion schools apartments "
        "government politicians tolerance racism nation immigrants swedes "
        "police bullets law riots fires"
    )
    corpus = make_corpus(("w1", 12, (), text20))
    taxonomy = load_taxonomy(default_data_path("taxonomy.tsv"))
    result = code_vocabulary(_surfaces(corpus), taxonomy, NO_STOPS)
    rolled = rollup(result, taxonomy)
    assert coding_csv(result, rolled, taxonomy) == (GOLDEN / "coding_20words.csv").read_text(encoding="utf-8")


def test_load_pronoun_groups(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(
        "them\tthem\tim|nich\nthem\tthey\toni\nus\twe\tmy\n",
        encoding="utf-8",
    )
    groups = load_pronoun_groups(path)
    assert groups["them"] == (("them", ("im", "nich")), ("they", ("oni",)))
    assert groups["us"] == (("we", ("my",)),)


@pytest.mark.parametrize(
    "body,message",
    [
        ("them\tthem\n", "expected 3"),
        ("them\tthem\t|\n", "no surfaces"),
        ("others\tx\ty\n", "'them' or 'us'"),
        ("them\ta\tim\nus\tb\tim\n", "more than one entry"),
        ("them\ta\tim\nus\tb\tmy\nus\tc\tnas|im\n", "line 3: surface 'im' appears in more than one entry"),
        ("us\twe\tmy\nthem\tthey\tim-x\n", "line 2: surface must be one token: 'im-x'"),
    ],
)
def test_load_pronoun_groups_errors(tmp_path, body, message):
    path = tmp_path / "g.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_pronoun_groups(path)


def test_pronoun_orientation_counts_ignore_stoplists():
    groups = load_pronoun_groups(default_data_path("pronouns.tsv"))
    corpus = make_corpus(
        ("a", 0, (), "oni rzucali kamieniami a my patrzymy na nich"),
        ("b", 1, (), "im nie wolno oni wiedzą"),
    )
    report = pronoun_orientation(_surfaces(corpus), groups)
    counts = {(r.surface): r.count for r in report.rows}
    assert counts["oni"] == 2
    assert counts["nich"] == 1
    assert counts["im"] == 1
    assert counts["my"] == 1
    assert report.them_total == 4
    assert report.us_total == 1
    assert report.ratio == pytest.approx(4.0)


def test_pronoun_ratio_inf_when_us_absent():
    groups = load_pronoun_groups(default_data_path("pronouns.tsv"))
    corpus = make_corpus(("a", 0, (), "oni oni oni"))
    report = pronoun_orientation(_surfaces(corpus), groups)
    assert report.us_total == 0
    assert math.isinf(report.ratio)
    assert format_ratio(report.ratio) == "inf"
    assert format_ratio(9.44444) == "9.4444"


def test_pronouns_csv_footer():
    groups = load_pronoun_groups(default_data_path("pronouns.tsv"))
    corpus = make_corpus(("a", 0, (), "oni i my"))
    text = pronouns_csv(pronoun_orientation(_surfaces(corpus), groups))
    assert text.startswith("label,group,surface,count\n")
    assert "# them_total,1\n" in text
    assert "# us_total,1\n" in text
    assert text.endswith("# ratio,1.0000\n")
