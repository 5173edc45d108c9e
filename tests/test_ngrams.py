import csv
import io
from collections import Counter

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
    count_tokens,
    counts_to_csv,
    ranked,
)
from socmine.text import KeywordFamily, StopwordList, tokenize

EMPTY_STOPS = StopwordList(frozenset())


def _grams(documents, stops, filter_term=None, jobs=1):
    """The 2-gram table of the one token count."""
    return count_tokens(documents, stops, filter_term=filter_term, jobs=jobs)[1]


def test_tag_pair_canonical_order():
    assert TagPair("a", "b") == ("a", "b")


def test_count_table_rejects_nonpositive():
    with pytest.raises(ValueError):
        CountTable({"a": 0})
    with pytest.raises(ValueError):
        CountTable({"a": -3})
    # The first offending key in the table's order is named.
    with pytest.raises(ValueError, match=r"^count for 'b' must be >= 1, got 0$"):
        CountTable({"a": 2, "b": 0, "c": -1})


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
    stops = StopwordList(frozenset({"i"}))
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
    seq = _grams(corpus.documents, EMPTY_STOPS)
    par = _grams(corpus.documents, EMPTY_STOPS, jobs=jobs)
    assert par.entries == seq.entries


WORDS = st.sampled_from(["Policja", "policja", "i", "gazu", "używa", "ulicy", "my", "policjanci"])
TEXTS = st.lists(WORDS, max_size=8).map(" ".join) | st.text(max_size=12)


def _oracle_2grams(documents, stops, filter_term):
    """Each document's 2-grams on its own, from tokenize and a stopword test."""
    grams = Counter()
    for doc in documents:
        kept = [token for token in tokenize(doc.text) if token not in stops.words]
        for gram in zip(kept, kept[1:]):
            if filter_term is None or filter_term.matches(gram[0]) or filter_term.matches(gram[1]):
                grams[gram] += 1
    return grams


@given(
    st.lists(TEXTS, max_size=6),
    st.none() | st.frozensets(WORDS.map(str.lower)).map(StopwordList),
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
        assert dict(grams.entries) == _oracle_2grams(documents, stops, filter_term)


def test_jobs_must_be_positive():
    corpus = make_corpus(("a", 0, ("x",)))
    with pytest.raises(ValueError):
        count_tags(corpus, jobs=0)
    with pytest.raises(ValueError):
        count_tokens(corpus.documents, jobs=0)


def test_ranked_tie_break_is_lexicographic():
    table = CountTable({"b": 2, "a": 2, "c": 5, "d": 1})
    assert ranked(table) == [("c", 5), ("a", 2), ("b", 2), ("d", 1)]
    assert ranked(CountTable()) == []


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


def test_counts_to_csv_scalar_and_pair_keys():
    assert counts_to_csv(ranked(CountTable({"svpol": 2, "husby": 1})), pairs=False) == (
        "key,count\nsvpol,2\nhusby,1\n"
    )
    pairs = CountTable({TagPair("a", "b"): 3, ("x", "y"): 1})
    assert counts_to_csv(ranked(pairs), pairs=True) == "key,key2,count\na,b,3\nx,y,1\n"
    assert counts_to_csv(ranked(CountTable()), pairs=False) == "key,count\n"
    assert counts_to_csv(ranked(CountTable()), pairs=True) == "key,key2,count\n"


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
    rows = ranked(CountTable(entries))
    if pairs:
        want = _writer_csv(["key", "key2", "count"], [(a, b, n) for (a, b), n in rows])
    else:
        want = _writer_csv(["key", "count"], rows)
    assert counts_to_csv(rows, pairs=pairs) == want
