"""The benchmark's workloads: corpus shape, socmine config and commands.

Each workload is a closed loop with one client: the next job starts when the
previous one has exited. A job is one `socmine` process (one round of seven
processes on cli_single) and uses at most two threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from corpusgen import CorpusSpec, DocKind

# Narrower than the generated span (2013-05-01..2013-06-30), so ingest drops.
FULL_RUN_WINDOW = "2013-05-08..2013-06-22"

# Weight of a document carrying k distinct tags, k = 0, 1, 2, ...
TAG_HEAVY = (0, 3, 5, 8, 11, 13, 13, 12, 10, 8, 7, 6, 4)  # mean 6.4, up to 12
TWEET_TAGS = (8, 12, 22, 24, 18, 10, 6)  # mean 2.9
AT_MOST_ONE = (1, 1)
UNTAGGED = (1,)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    config: dict[str, Any] = field(default_factory=dict)  # empty for cli_single

    @property
    def is_cli(self) -> bool:
        return not self.config

    def pipeline_config(self, corpus_name: str = "corpus.jsonl") -> dict[str, Any]:
        """The YAML config of a `socmine run` job, as a mapping."""
        config = json.loads(json.dumps(self.config))
        config.setdefault("corpus", {})["path"] = corpus_name
        return config

    def write_config(self, path: Path) -> None:
        # JSON is valid YAML, so no YAML writer is needed.
        path.write_text(json.dumps(self.pipeline_config(), indent=1) + "\n", encoding="utf-8")


def cli_commands(corpus: str, top2: list[str]) -> list[list[str]]:
    """The seven one-shot subcommands of one cli_single round."""
    return [
        ["tags", corpus, "--top", "20"],
        ["pairs", corpus, "--top", "20"],
        ["graph", corpus],
        ["timeline", corpus, "--tags", ",".join(top2), "--classify"],
        ["code", corpus],
        ["pronouns", corpus],
        ["sentiment", corpus],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tag_graph",
            why="9k tag-heavy docs (Zipf tags, mean 6.4 per doc), stages ingest..timeline: "
            "parse/validate, pair counting, ranking, CSV and GraphML export; text layers idle",
            corpus=CorpusSpec(
                kinds=(DocKind("g", "tweet", 9000, (3, 8), TAG_HEAVY),), tag_pool=4000
            ),
            config={
                "run": {"stages": ["ingest", "tags", "pairs", "graph", "timeline"], "jobs": 1},
                "graph": {"format": "graphml"},
                "timeline": {"top": 10, "formats": ["csv", "svg"]},
            },
        ),
        Workload(
            name="text_mining",
            why="2.5k posts of 30-80 words with 0-1 tags, stages ingest,coding,pronouns,sentiment: "
            "tokenize, coding, pronouns, 2-grams and lexicon scoring; tag layers idle",
            corpus=CorpusSpec(
                kinds=(DocKind("m", "forum_post", 2500, (30, 80), AT_MOST_ONE),), tag_pool=500
            ),
            config={"run": {"stages": ["ingest", "coding", "pronouns", "sentiment"], "jobs": 1}},
        ),
        Workload(
            name="full_run",
            why="5k tweets + 1k forum posts, all eight stages at jobs 2 with a narrower window and "
            "min_tags 2: the documented run, shared intermediates and both drop paths",
            corpus=CorpusSpec(
                kinds=(
                    DocKind("t", "tweet", 5000, (8, 22), TWEET_TAGS),
                    DocKind("f", "forum_post", 1000, (40, 90), UNTAGGED, extras=False),
                ),
                tag_pool=1500,
            ),
            config={
                "corpus": {"window": FULL_RUN_WINDOW, "min_tags": 2},
                "run": {"jobs": 2},
            },
        ),
        Workload(
            name="cli_single",
            why="1.5k tweets + 300 forum posts; each round runs seven one-shot subcommands in fresh "
            "processes, so every command pays import and corpus load and shares nothing",
            corpus=CorpusSpec(
                kinds=(
                    DocKind("t", "tweet", 1500, (8, 22), TWEET_TAGS),
                    DocKind("f", "forum_post", 300, (40, 90), UNTAGGED, extras=False),
                ),
                tag_pool=800,
            ),
        ),
    )
}
