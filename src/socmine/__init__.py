"""socmine: hashtag networks, n-gram counts, timelines, vocabulary coding
and lexicon sentiment for small social-media corpora."""

__version__ = "0.1.0"

from .coding import (
    CodingResult,
    PronounGroups,
    PronounReport,
    Taxonomy,
    code_vocabulary,
    load_pronoun_groups,
    load_taxonomy,
    pronoun_orientation,
    rollup,
    surface_counts,
)
from .config import Config, load_config, make_config
from .corpus import Corpus, Document, LoadReport, load_corpus, parse_window
from .errors import DataError, UsageError
from .graph import CooccurrenceGraph, build_graph, components, dyad_report, export_graph
from .ngrams import (
    CountTable,
    TagPair,
    count_tag_pairs,
    count_tags,
    count_token_2grams,
    ranked,
    top_k,
)
from .report import RunManifest, run_pipeline
from .sentiment import SentimentLexicon, load_lexicon, power_report, score_text
from .text import KeywordFamily, StopwordList, load_stopwords, tokenize
from .timeline import (
    CumulativeSeries,
    ShapeVerdict,
    classify_shape,
    cumulative_series_bulk,
    export_timeline,
)

__all__ = [
    "__version__",
    "CodingResult",
    "Config",
    "CooccurrenceGraph",
    "Corpus",
    "CountTable",
    "CumulativeSeries",
    "DataError",
    "Document",
    "KeywordFamily",
    "LoadReport",
    "PronounGroups",
    "PronounReport",
    "RunManifest",
    "SentimentLexicon",
    "ShapeVerdict",
    "StopwordList",
    "TagPair",
    "Taxonomy",
    "UsageError",
    "build_graph",
    "classify_shape",
    "code_vocabulary",
    "components",
    "count_tag_pairs",
    "count_tags",
    "count_token_2grams",
    "cumulative_series_bulk",
    "dyad_report",
    "export_graph",
    "export_timeline",
    "load_config",
    "load_corpus",
    "load_lexicon",
    "load_pronoun_groups",
    "load_stopwords",
    "load_taxonomy",
    "make_config",
    "parse_window",
    "power_report",
    "pronoun_orientation",
    "ranked",
    "rollup",
    "run_pipeline",
    "score_text",
    "surface_counts",
    "tokenize",
    "top_k",
]
