import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_corpus, make_doc
from socmine.corpus import Corpus
from socmine.ngrams import (
    CountTable,
    TagPair,
    count_tag_pairs,
    count_tags,
    count_token_2grams,
    counts_to_csv,
    merge_tables,
    ranked,
    top_k,
)
from socmine.text import KeywordFamily, StopwordList

EMPTY_STOPS = StopwordList(frozenset(), "none")


def test_tag_pair_canonical_order():
    assert TagPair.of("svpol", "husby") == TagPair("husby", "svpol")
    assert TagPair.of("husby", "svpol") == TagPair("husby", "svpol")
    assert TagPair.of("a", "b") == ("a", "b")
    with pytest.raises(ValueError):
        TagPair.of("svpol", "svpol")


def test_count_table_rejects_nonpositive():
    with pytest.raises(ValueError):
        CountTable({"a": 0})
    with pytest.raises(ValueError):
        CountTable({"a": -3})


def test_count_table_merge():
    left = CountTable({"a": 1, "b": 2})
    right = CountTable({"b": 5, "c": 1})
    merged = left.merge(right)
    assert merged.entries == {"a": 1, "b": 7, "c": 1}
    assert merged.total == 9
    assert merge_tables([left, right, CountTable()]).entries == merged.entries


def test_count_tags_distinct_per_document():
    # duplicate tag inside one doc must count once
    corpus = Corpus.from_documents(
        [
            make_doc("a", tags=("svpol", "husby")),
            make_doc("b", day=1, tags=("svpol",)),
            make_doc("c", day=2, tags=("svpol", "svpol")),
        ]
    )
    table = count_tags(corpus)
    assert table["svpol"] == 3
    assert table["husby"] == 1
    assert table.total == 4


def test_count_tag_pairs_hand_counted():
    corpus = make_corpus(
        ("a", 0, ("riots", "police", "husby")),
        ("b", 1, ("police", "riots")),
        ("c", 2, ("husby",)),
        ("d", 3, ()),
    )
    table = count_tag_pairs(corpus)
    assert table[TagPair("police", "riots")] == 2
    assert table[TagPair("husby", "riots")] == 1
    assert table[TagPair("husby", "police")] == 1
    assert len(table) == 3
    # every key must already be canonical
    assert all(a < b for a, b in table.entries)


def test_count_token_2grams_ordered_and_bounded():
    corpus = make_corpus(
        ("a", 0, (), "policja używa gazu"),
        ("b", 1, (), "gazu policja"),
    )
    table = count_token_2grams(corpus.documents, EMPTY_STOPS)
    assert table[("policja", "używa")] == 1
    assert table[("używa", "gazu")] == 1
    assert table[("gazu", "policja")] == 1
    # no pair across the document boundary, no reversed duplicates merged
    assert ("gazu", "gazu") not in table
    assert len(table) == 3


def test_count_token_2grams_counts_occurrences():
    corpus = make_corpus(("a", 0, (), "raz dwa raz dwa"))
    table = count_token_2grams(corpus.documents, EMPTY_STOPS)
    assert table[("raz", "dwa")] == 2
    assert table[("dwa", "raz")] == 1


def test_count_token_2grams_stopwords_bridge_gaps():
    stops = StopwordList(frozenset({"i"}), "test")
    corpus = make_corpus(("a", 0, (), "kamienie i butelki"))
    table = count_token_2grams(corpus.documents, stops)
    assert table[("kamienie", "butelki")] == 1
    assert len(table) == 1


def test_count_token_2grams_filter_term():
    family = KeywordFamily("policj", "prefix")
    corpus = make_corpus(
        ("a", 0, (), "szwedzka policja używa gazu"),
    )
    table = count_token_2grams(corpus.documents, EMPTY_STOPS, filter_term=family)
    assert table[("szwedzka", "policja")] == 1
    assert table[("policja", "używa")] == 1
    assert ("używa", "gazu") not in table


@given(st.integers(min_value=1, max_value=16))
def test_jobs_never_change_counts(jobs):
    corpus = make_corpus(
        *[
            (f"d{i}", i % 5, ("a", "b", "c")[: 1 + i % 3], f"w{i % 4} w{(i + 1) % 4} w{i % 3}")
            for i in range(23)
        ]
    )
    assert count_tags(corpus, jobs=jobs).entries == count_tags(corpus).entries
    assert count_tag_pairs(corpus, jobs=jobs).entries == count_tag_pairs(corpus).entries
    seq = count_token_2grams(corpus.documents, EMPTY_STOPS)
    par = count_token_2grams(corpus.documents, EMPTY_STOPS, jobs=jobs)
    assert par.entries == seq.entries


def test_jobs_must_be_positive():
    corpus = make_corpus(("a", 0, ("x",)))
    with pytest.raises(ValueError):
        count_tags(corpus, jobs=0)


def test_top_k_tie_break_is_lexicographic():
    table = CountTable({"b": 2, "a": 2, "c": 5, "d": 1})
    assert top_k(table, 3) == [("c", 5), ("a", 2), ("b", 2)]
    assert top_k(table, 99) == [("c", 5), ("a", 2), ("b", 2), ("d", 1)]
    with pytest.raises(ValueError):
        top_k(table, 0)


@given(
    st.dictionaries(st.text("abc", max_size=3), st.integers(1, 4), max_size=30),
    st.integers(1, 35),
)
def test_top_k_equals_full_sort_prefix(entries, k):
    # Counts drawn from 1..4 force many ties, which the key order must break.
    full = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
    assert top_k(CountTable(entries), k) == full[:k]


def _reference_order(entries):
    return sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))


# Tags over a two-letter alphabet are often prefixes of one another (a, ab).
TAGS = st.text("ab", min_size=1, max_size=4)


@given(st.dictionaries(TAGS, st.integers(1, 4), max_size=30))
def test_ranked_tag_keys_match_reference_order(entries):
    assert ranked(CountTable(entries)) == _reference_order(entries)


@given(
    st.dictionaries(
        st.tuples(TAGS, TAGS, st.booleans()).filter(lambda t: t[0] < t[1]),
        st.integers(1, 4),
        max_size=30,
    )
)
def test_ranked_pair_keys_match_reference_order(drawn):
    # The boolean picks a TagPair or a plain tuple key, so tables mix both.
    entries = {(TagPair(a, b) if as_pair else (a, b)): n for (a, b, as_pair), n in drawn.items()}
    assert ranked(CountTable(entries)) == _reference_order(entries)


@given(
    st.dictionaries(st.tuples(TAGS, TAGS), st.integers(1, 4), max_size=30),
    st.integers(1, 35),
)
def test_top_k_equals_ranked_prefix(entries, k):
    table = CountTable(entries)
    assert top_k(table, k) == ranked(table)[:k]


def test_counts_to_csv_scalar_and_pair_keys():
    assert counts_to_csv(ranked(CountTable({"svpol": 2, "husby": 1}))) == (
        "key,count\nsvpol,2\nhusby,1\n"
    )
    pairs = CountTable({TagPair("a", "b"): 3, ("x", "y"): 1})
    assert counts_to_csv(ranked(pairs)) == "key,key2,count\na,b,3\nx,y,1\n"
    assert counts_to_csv(ranked(CountTable())) == "key,count\n"
