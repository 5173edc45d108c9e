import csv
import io
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_corpus, make_doc
from socmine.corpus import Corpus, normalize_tag
from socmine.ngrams import (
    KeyOrderedRows,
    count_tag_pairs,
    count_tags,
    count_tokens,
    counts_to_csv,
    ranked,
)
from socmine.text import KeywordFamily, tokenize

EMPTY_STOPS = frozenset()


def _grams(documents, stops, filter_term=None):
    """The 2-gram table of the one token count."""
    return count_tokens(documents, stops, filter_term=filter_term)[1]


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
    assert sum(table.values()) == 4


def test_count_tag_pairs_hand_counted():
    corpus = make_corpus(
        ("a", 0, ("riots", "police", "husby")),
        ("b", 1, ("police", "riots")),
        ("c", 2, ("husby",)),
        ("d", 3, ()),
    )
    table = dict(count_tag_pairs(corpus))
    assert table[("police", "riots")] == 2
    assert table[("husby", "riots")] == 1
    assert table[("husby", "police")] == 1
    assert len(table) == 3
    # every key must already be canonical
    assert all(a < b for a, b in table)


# Spellings an alias folds together, so a document can name one tag twice,
# and the quote and backslash a tag may hold.
PAIR_ALIASES = {"policja": "police", "svpol": "sv"}
DOC_TAGS = st.lists(
    st.sampled_from(["a", "ab", "b", "police", "policja", "sv", "svpol", "é", 'a"', "a\\"]),
    max_size=6,
)


@given(st.lists(DOC_TAGS, min_size=1, max_size=20))
def test_count_tag_pairs_entries_are_in_key_order(tag_lists):
    # Documents with repeated, aliased and single tags, and with none.
    tag_lists = [[normalize_tag(tag, PAIR_ALIASES) for tag in tags] for tags in tag_lists]
    corpus = make_corpus(*[(f"d{i}", i, tuple(tags)) for i, tags in enumerate(tag_lists)])
    rows = count_tag_pairs(corpus)
    # Strict key order is what lets ranked rank the rows with one stable sort.
    keys = [key for key, _ in rows]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert dict(rows) == Counter(
        pair for tags in tag_lists for pair in combinations(sorted(set(tags)), 2)
    )


def test_count_token_2grams_ordered_and_bounded():
    corpus = make_corpus(
        ("a", 0, (), "policja używa gazu"),
        ("b", 1, (), "gazu policja"),
    )
    table = _grams(corpus.documents, EMPTY_STOPS)
    assert table[("policja", "używa")] == 1
    assert table[("używa", "gazu")] == 1
    assert table[("gazu", "policja")] == 1
    # no pair across the document boundary, no reversed duplicates merged
    assert ("gazu", "gazu") not in table
    assert len(table) == 3


def test_count_token_2grams_counts_occurrences():
    corpus = make_corpus(("a", 0, (), "raz dwa raz dwa"))
    table = _grams(corpus.documents, EMPTY_STOPS)
    assert table[("raz", "dwa")] == 2
    assert table[("dwa", "raz")] == 1


def test_count_token_2grams_stopwords_bridge_gaps():
    stops = frozenset({"i"})
    corpus = make_corpus(("a", 0, (), "kamienie i butelki"))
    table = _grams(corpus.documents, stops)
    assert table[("kamienie", "butelki")] == 1
    assert len(table) == 1


def test_count_token_2grams_filter_term():
    family = KeywordFamily("policj", "prefix")
    corpus = make_corpus(
        ("a", 0, (), "szwedzka policja używa gazu"),
    )
    table = _grams(corpus.documents, EMPTY_STOPS, filter_term=family)
    assert table[("szwedzka", "policja")] == 1
    assert table[("policja", "używa")] == 1
    assert ("używa", "gazu") not in table


WORDS = st.sampled_from(["Policja", "policja", "i", "gazu", "używa", "ulicy", "my", "policjanci"])
TEXTS = st.lists(WORDS, max_size=8).map(" ".join) | st.text(max_size=12)


def _oracle_2grams(documents, stops, filter_term):
    """Each document's 2-grams on its own, from tokenize and a stopword test."""
    grams = Counter()
    for doc in documents:
        kept = [token for token in tokenize(doc.text) if token not in stops]
        for gram in zip(kept, kept[1:]):
            if filter_term is None or filter_term.matches(gram[0]) or filter_term.matches(gram[1]):
                grams[gram] += 1
    return grams


@given(
    st.lists(TEXTS, max_size=6),
    st.none() | st.frozensets(WORDS.map(str.lower)),
    st.none() | st.sampled_from([KeywordFamily("policj"), KeywordFamily("gazu", "exact")]),
)
def test_count_tokens_matches_a_per_document_oracle(texts, stops, filter_term):
    documents = [make_doc(f"d{i}", text=text) for i, text in enumerate(texts)]
    surfaces, grams = count_tokens(documents, stops, filter_term=filter_term)
    expected = Counter()
    for doc in documents:
        expected.update(Counter(tokenize(doc.text)))
    assert surfaces == expected
    if stops is None:
        assert len(grams) == 0
    else:
        assert dict(grams) == _oracle_2grams(documents, stops, filter_term)


def test_ranked_tie_break_is_lexicographic():
    table = {"b": 2, "a": 2, "c": 5, "d": 1}
    assert ranked(table) == [("c", 5), ("a", 2), ("b", 2), ("d", 1)]
    assert ranked({}) == []


def test_ranked_takes_no_plain_list_as_in_key_order():
    # Rows in a plain list may be in any order, so ranked does not take
    # them, rather than break ties by their order.
    with pytest.raises(AttributeError):
        ranked([("b", 1), ("a", 1)])


def _reference_order(entries):
    return sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))


# Tags over a small alphabet are often prefixes of one another (a, ab). The
# non-Latin-1 letter mixes string kinds, which CPython's sort compares on
# different paths.
TAGS = st.text("abą", min_size=1, max_size=4)


@given(st.dictionaries(TAGS, st.integers(1, 4), max_size=30))
def test_ranked_tag_keys_match_reference_order(entries):
    # A table in any order, and its rows in key order as count_tag_pairs
    # returns them, rank alike.
    rows = KeyOrderedRows(sorted(entries.items()))
    assert ranked(rows) == ranked(entries) == _reference_order(entries)


@given(
    st.dictionaries(
        st.tuples(TAGS, TAGS).filter(lambda t: t[0] < t[1]),
        st.integers(1, 4),
        max_size=30,
    )
)
def test_ranked_pair_keys_match_reference_order(entries):
    rows = KeyOrderedRows(sorted(entries.items()))
    assert ranked(rows) == ranked(entries) == _reference_order(entries)


@given(st.dictionaries(st.tuples(TAGS, TAGS), st.integers(1, 4), max_size=30))
def test_ranked_2gram_keys_match_reference_order(entries):
    # count_tokens keys each 2-gram by its tokens in text order, so the two
    # parts of a key may come in either order, or be equal.
    assert ranked(entries) == ranked(Counter(entries)) == _reference_order(entries)


def test_counts_to_csv_scalar_and_pair_keys():
    assert counts_to_csv(ranked({"svpol": 2, "husby": 1}), pairs=False) == (
        "key,count\nsvpol,2\nhusby,1\n"
    )
    pairs = {("a", "b"): 3, ("x", "y"): 1}
    assert counts_to_csv(ranked(pairs), pairs=True) == "key,key2,count\na,b,3\nx,y,1\n"
    assert counts_to_csv(ranked({}), pairs=False) == "key,count\n"
    assert counts_to_csv(ranked({}), pairs=True) == "key,key2,count\n"


def _writer_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# Keys with and without what CSV must quote: a comma, a quote, line breaks.
CSV_KEYS = st.text(st.sampled_from(['a', 'b', ',', '"', "\r", "\n", " ", "é"]), max_size=4)


@given(
    st.tuples(st.just(False), st.dictionaries(CSV_KEYS, st.integers(1, 4), max_size=12))
    | st.tuples(
        st.just(True),
        st.dictionaries(st.tuples(CSV_KEYS, CSV_KEYS), st.integers(1, 4), max_size=12),
    )
)
def test_counts_to_csv_equals_csv_writer(drawn):
    pairs, entries = drawn
    # Ranked rows, and rows in any order: a run of one count is a shortcut only.
    for rows in (ranked(entries), list(entries.items())):
        if pairs:
            want = _writer_csv(["key", "key2", "count"], [(a, b, n) for (a, b), n in rows])
        else:
            want = _writer_csv(["key", "count"], rows)
        assert counts_to_csv(rows, pairs=pairs) == want
