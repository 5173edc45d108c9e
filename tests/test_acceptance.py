"""End-to-end acceptance checks over the shipped fixture corpora.

Every test prints one PASS line on success (run pytest with -rP to see
them collected). The fixtures carry planted totals, so most checks are
exact; where an aggregate cannot be reconstructed from the rows that
produce it, the test pins the reconstructable value instead.
"""

import random
import re
import string
from datetime import date, timedelta
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import pytest

from helpers import FIXTURES, GOLDEN, corpus_of, make_doc, pin_cpus
from socmine.coding import (
    code_vocabulary,
    load_pronoun_groups,
    load_taxonomy,
    pronoun_orientation,
    rollup,
)
from socmine.config import make_config
from socmine.corpus import load_corpus, parse_window, write_corpus
from socmine.graph import build_graph
from socmine.ngrams import (
    count_tag_pairs,
    count_tags,
    count_tokens,
    ranked,
)
from socmine.report import run_pipeline
from socmine.resources import STOPWORDS, TAXONOMY, default_data_path
from socmine.sentiment import (
    LexiconEntry,
    load_lexicon,
    power_report,
    score_text,
)
from socmine.text import KeywordFamily, load_stopwords
from socmine.timeline import CumulativeSeries, classify_shape, cumulative_series_bulk

WINDOW = parse_window("2013-05-15..2013-07-15")

EXPECTED_TOP20 = [
    ("svpol", 3897),
    ("sthlmriots", 1319),
    ("migpol", 436),
    ("sthlmriot", 236),
    ("stockholm", 200),
    ("aftonbladet", 142),
    ("nymo", 124),
    ("rinkeby", 109),
    ("polisen", 108),
    ("sweden", 100),
    ("upplopp", 92),
    ("kista", 89),
    ("svtdebatt", 82),
    ("vpol", 80),
    ("debatt", 76),
    ("08pol", 75),
    ("expressentv", 72),
    ("megafonen", 71),
    ("kravaller", 70),
    ("tensta", 69),
]

EXPECTED_PAIRS = {
    ("sthlmriots", "svpol"): 533,
    ("migpol", "svpol"): 353,
    ("sthlmriot", "svpol"): 107,
    ("migpol", "nymo"): 50,
    ("svpol", "vpol"): 47,
    ("migpol", "sthlmriots"): 37,
}


@pytest.fixture(scope="module")
def twitter():
    corpus, _ = load_corpus(FIXTURES / "twitter.jsonl", window=WINDOW)
    return corpus


@pytest.fixture(scope="module")
def forum():
    corpus, _ = load_corpus(FIXTURES / "forum.jsonl")
    return corpus


@pytest.fixture(scope="module")
def stops():
    return load_stopwords(default_data_path(STOPWORDS))


def test_criterion_1_tag_ranking_replay():
    started = perf_counter()
    corpus, _ = load_corpus(FIXTURES / "twitter.jsonl", window=WINDOW)
    table = count_tags(corpus)
    top20 = ranked(table)[:20]
    elapsed = perf_counter() - started
    assert top20 == EXPECTED_TOP20
    assert table["svpol"] == 3897
    assert table["sthlmriots"] == 1319
    assert table["migpol"] == 436
    assert elapsed < 5.0
    print(
        "PASS: criterion 1 - top-20 tag ranking matches the planted totals "
        f"exactly (svpol 3897, sthlmriots 1319, migpol 436) in {elapsed:.2f}s"
    )


def test_criterion_2_pair_weights_and_thresholds(twitter):
    pairs = count_tag_pairs(twitter)
    weights = dict(pairs)
    for pair, weight in EXPECTED_PAIRS.items():
        assert weights[pair] == weight, pair

    loose = build_graph(ranked(pairs), threshold=2)
    for pair in EXPECTED_PAIRS:
        assert pair in loose.edges

    tight = build_graph(ranked(pairs), threshold=38)
    assert ("migpol", "sthlmriots") not in tight.edges
    assert len(tight.edges) == 5
    for pair, weight in EXPECTED_PAIRS.items():
        if weight >= 38:
            assert tight.edges[pair] == weight
    print(
        "PASS: criterion 2 - all six planted pair weights exact; "
        "threshold 2 keeps them, threshold 38 drops only the 37-weight edge"
    )


def _oracle_tags(docs):
    counts = {}
    for doc in docs:
        for tag in set(doc.hashtags):
            counts[tag] = counts.get(tag, 0) + 1
    return counts


def _oracle_pairs(docs):
    counts = {}
    for doc in docs:
        distinct = sorted(set(doc.hashtags))
        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                key = (distinct[i], distinct[j])
                counts[key] = counts.get(key, 0) + 1
    return counts


def _oracle_2grams(docs, stop_set):
    counts = {}
    for doc in docs:
        tokens = [
            w for w in re.findall(r"[^\W_]+", doc.text.lower()) if w not in stop_set
        ]
        for left, right in zip(tokens, tokens[1:]):
            counts[(left, right)] = counts.get((left, right), 0) + 1
    return counts


def _artifact_rows(run_dir, name):
    """The fields of each row of a CSV artifact, below its header and
    without its comment lines; no field here holds a comma."""
    lines = (Path(run_dir) / name).read_text(encoding="utf-8").splitlines()[1:]
    return [line.split(",") for line in lines if not line.startswith("#")]


def test_criterion_3_parallel_counting_matches_brute_force(tmp_path, monkeypatch):
    # Two CPUs, so jobs 2 and 8 fork on any host.
    pin_cpus(monkeypatch, 2)
    rng = random.Random(20130522)
    tag_pool = [f"tag{i}" for i in range(10)]
    word_pool = ["och", "polis", "husby", "bilar", "natt", "sten", "unga",
                 "men", "varfor", "igen", "stan", "brand"]
    stop_set = {"och", "men"}
    stopwords = tmp_path / "stops.txt"
    stopwords.write_text("och\nmen\n", encoding="utf-8")

    for round_no in range(100):
        docs = []
        for i in range(rng.randint(1, 50)):
            tags = tuple(rng.sample(tag_pool, rng.randint(0, 6)))
            text = " ".join(rng.choices(word_pool, k=rng.randint(0, 12)))
            docs.append(
                make_doc(f"d{round_no}_{i}", day=rng.randint(0, 9), text=text, tags=tags)
            )
        corpus = corpus_of(docs)
        corpus_path = tmp_path / f"corpus{round_no}.jsonl"
        write_corpus(corpus, corpus_path)
        expect_tags = _oracle_tags(corpus.documents)
        expect_pairs = _oracle_pairs(corpus.documents)
        expect_grams = _oracle_2grams(corpus.documents, stop_set)
        # At jobs 2 and 8 the tag stages render in a forked child.
        for jobs in (1, 2, 8):
            config = make_config(
                {
                    "corpus": {"path": str(corpus_path)},
                    "text": {"stopwords": str(stopwords)},
                    "run": {
                        "stages": ["tags", "pairs", "sentiment"],
                        "jobs": jobs,
                        "out_dir": str(tmp_path / f"runs{round_no}_{jobs}"),
                    },
                    "sentiment": {"min_freq": 1},
                },
                base_dir=tmp_path,
            )
            run_dir = run_pipeline(config).run_dir
            tags = {key: int(count) for key, count in _artifact_rows(run_dir, "tags.csv")}
            pairs = {
                (a, b): int(count) for a, b, count in _artifact_rows(run_dir, "pairs.csv")
            }
            grams = {
                tuple(ngram.split(" ")): int(freq)
                for ngram, freq, _, _ in _artifact_rows(run_dir, "power.csv")
            }
            assert tags == expect_tags
            assert pairs == expect_pairs
            assert grams == expect_grams
    print(
        "PASS: criterion 3 - tag, pair and 2-gram counts match a brute-force "
        "oracle on 100 random corpora for jobs in {1, 2, 8}"
    )


def test_criterion_4_timeline_endpoints_and_shapes(twitter):
    table = count_tags(twitter)
    series = cumulative_series_bulk(twitter, table.keys())
    for tag, item in series.items():
        assert item.total == table[tag], tag

    # synthetic references for each shape
    days = tuple(date(2013, 5, 20) + timedelta(days=i) for i in range(60))
    uniform = CumulativeSeries(tag="uniform", days=days, totals=tuple(2 * (i + 1) for i in range(60)))
    assert classify_shape(uniform).shape == "linear"
    assert classify_shape(uniform).linearity_r2 >= 0.95

    one_day = [0] * 60
    one_day[30] = 82
    stepwise = classify_shape(CumulativeSeries("oneday", days, tuple(accumulate(one_day))))
    assert stepwise.shape == "stepwise"

    four_day = [0] * 60
    four_day[10:14] = [21, 21, 20, 20]
    burst = classify_shape(CumulativeSeries("fourday", days, tuple(accumulate(four_day))))
    assert burst.shape == "burst"
    assert burst.burst_mass_fraction >= 0.6

    # the fixture tags engineered to show each shape
    assert classify_shape(series["svpol"]).shape == "linear"
    assert classify_shape(series["nymo"]).shape == "stepwise"
    assert classify_shape(series["svtdebatt"]).shape == "burst"
    print(
        "PASS: criterion 4 - every cumulative endpoint equals its tag count; "
        "uniform/single-day/four-day-burst series classify as "
        "linear/stepwise/burst (fixture: svpol linear, nymo stepwise, "
        "svtdebatt burst)"
    )


def test_criterion_5_pronoun_orientation_replay(forum):
    groups = load_pronoun_groups(default_data_path("pronouns.tsv"))
    report = pronoun_orientation(count_tokens([d.text for d in forum.documents])[0], groups)
    counts = {row.surface: row.count for row in report.rows}
    assert counts == {"im": 79, "oni": 53, "nich": 38, "nam": 4, "nas": 13, "my": 1}
    assert report.them_total == 170
    assert report.us_total == 18
    assert report.ratio > 1
    assert report.ratio == pytest.approx(170 / 18)
    print(
        "PASS: criterion 5 - forum pronoun counts replay exactly "
        "(im 79, oni 53, nich 38, nam 4, nas 13, my 1); them/us ratio 9.44 > 1"
    )


def test_criterion_6_coding_conservation_and_rollup(forum, stops):
    taxonomy = load_taxonomy(default_data_path(TAXONOMY))
    assert len([c for c in taxonomy if c.parent is None]) == 10
    assert sum(c.parent is not None for c in taxonomy) == 14

    result = code_vocabulary(count_tokens([d.text for d in forum.documents])[0], taxonomy, stops)
    assigned = sum(len(c.unique_words) for c in result.per_category.values())
    assert assigned + len(result.uncategorized) == result.vocabulary_size

    text20 = (
        "working taxes unemployment poor families religion schools apartments "
        "government politicians tolerance racism nation immigrants swedes "
        "police bullets law riots fires"
    )
    twenty = corpus_of([make_doc("w1", text=text20)])
    coded = code_vocabulary(
        count_tokens([d.text for d in twenty.documents])[0], taxonomy, frozenset()
    )
    rolled = rollup(coded, taxonomy)
    hand_summed = {
        "1": 4, "2": 1, "3": 1, "4": 1, "5": 1,
        "6": 4, "7": 3, "8": 3, "9": 2, "10": 0,
    }
    assert {c.id: rolled[c.id] for c in taxonomy if c.parent is None} == hand_summed
    assert coded.vocabulary_size == 20
    assert coded.uncategorized == frozenset()
    print(
        "PASS: criterion 6 - vocabulary conserved across categories; taxonomy "
        "has 10 categories + 14 subcategories; 20-word rollup matches hand sums"
    )


def test_criterion_7_power_rows_replay(forum, stops):
    lexicon = load_lexicon(default_data_path("lexicon.tsv"))
    _, grams = count_tokens(
        [d.text for d in forum.documents], stops, filter_term=KeywordFamily("policj", "prefix")
    )
    report = power_report(grams, lexicon, min_freq=2)
    assert report.powers == [0, 0, -2, 0, 0, -6]
    assert report.freqs == [10, 3, 2, 2, 2, 2]
    # The six rows sum to -8; a grand total of -5 cannot be built from
    # them, so -8 is pinned and -5 is explicitly excluded.
    assert report.sum_power == -8
    assert report.sum_power != -5

    rng = random.Random(7)
    alphabet = string.ascii_lowercase
    for _ in range(1000):
        entries = []
        stems = set()
        for _ in range(rng.randint(1, 5)):
            stem = "".join(rng.choices(alphabet, k=rng.randint(3, 6)))
            if stem in stems:
                continue
            stems.add(stem)
            entries.append(
                LexiconEntry(
                    stem=stem,
                    polarity=rng.choice(("positive", "negative")),
                    boost=rng.randint(0, 4),
                    match_mode=rng.choice(("prefix", "exact")),
                )
            )
        lex = tuple(entries)
        words = [
            "".join(rng.choices(alphabet, k=rng.randint(1, 8)))
            for _ in range(rng.randint(0, 10))
        ]
        assert -4 <= score_text(" ".join(words), lex) <= 4
    print(
        "PASS: criterion 7 - the six power rows score 0,0,-2,0,0,-6 "
        "(sum pinned at -8, the unreconstructable -5 excluded); 1000 random "
        "texts never leave the -4..+4 range"
    )


def test_criterion_8_reruns_are_byte_identical(tmp_path, monkeypatch):
    # Two CPUs, so jobs 8 forks on any host.
    pin_cpus(monkeypatch, 2)

    def run(jobs, out_dir):
        config = make_config(
            {
                "corpus": {
                    "path": str(FIXTURES / "twitter.jsonl"),
                    "window": "2013-05-15..2013-07-15",
                },
                "run": {"jobs": jobs, "out_dir": str(out_dir)},
            },
            base_dir=tmp_path,
        )
        return run_pipeline(config)

    first = run(1, tmp_path / "a")
    second = run(8, tmp_path / "b")
    assert first.run_id == second.run_id

    names_a = sorted(p.name for p in Path(first.run_dir).iterdir())
    names_b = sorted(p.name for p in Path(second.run_dir).iterdir())
    assert names_a == names_b
    differing = [
        name
        for name in names_a
        if (Path(first.run_dir) / name).read_bytes()
        != (Path(second.run_dir) / name).read_bytes()
    ]
    assert differing == []
    print(
        f"PASS: criterion 8 - full pipeline reruns with jobs 1 and 8 produced "
        f"{len(names_a)} byte-identical files (manifest included)"
    )
