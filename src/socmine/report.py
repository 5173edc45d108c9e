"""Pipeline runner: executes the enabled stages over one corpus and writes
every artifact plus a manifest into a run directory named by the config
digest.

Each analysis is computed once by a `Context`, which the stages here and
the analysis subcommands share. The corpus, text and count layers every
property rests on are imported with this module; coding, graph, timeline
and sentiment are imported by the properties and stage renderers that use
them, so a subcommand or a run loads only the analyses it runs.

Reruns of the same config over the same inputs produce byte-identical
artifacts and manifest, whatever run.jobs says: the manifest embeds the
digest view of the config (no jobs, no out_dir) and carries no wall-clock
timings. Timings live only on the in-memory StageResult objects and in the
console summary. A run is built in a temporary directory and renamed into
place after its manifest, so a failed run leaves an earlier one as it was.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping

from . import resources
from .config import STAGES, Config, digest_view, file_digest
from .corpus import (
    Corpus,
    LoadReport,
    _iso_utc,
    load_corpus,
    normalize_tag,
    parse_window,
    write_corpus,
)
from .errors import DataError, UsageError
from .ngrams import (
    CountTable,
    count_tag_pairs,
    count_tags,
    count_tokens,
    counts_to_csv,
    ranked,
)
from .text import KeywordFamily, StopwordList, load_stopwords

if TYPE_CHECKING:
    from .coding import CodingResult, PronounReport, Taxonomy
    from .graph import CooccurrenceGraph
    from .sentiment import PowerReport
    from .timeline import CumulativeSeries

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class StageResult:
    name: str
    artifacts: tuple[str, ...]
    summary: Mapping[str, Any]
    seconds: float


@dataclass(frozen=True)
class RunManifest:
    run_id: str
    corpus_digest: str
    config: Mapping[str, Any]
    stages: tuple[StageResult, ...]
    run_dir: Path

    def to_json(self) -> str:
        payload = {
            "run_id": self.run_id,
            "corpus_digest": self.corpus_digest,
            "config": self.config,
            "stages": [
                {"name": s.name, "artifacts": list(s.artifacts), "summary": dict(s.summary)}
                for s in self.stages
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def console_summary(self) -> str:
        lines = [f"run {self.run_id[:12]} -> {self.run_dir}"]
        for stage in self.stages:
            lines.append(f"  {stage.name:<10} {stage.seconds:7.3f}s  {_headline(stage)}")
        lines.append(f"manifest: {self.run_dir / MANIFEST_NAME}")
        return "\n".join(lines)


def _headline(stage: StageResult) -> str:
    s = stage.summary
    if stage.name == "ingest":
        return f"{s['records_kept']} of {s['records_read']} records kept"
    if stage.name == "tags":
        return f"{s['distinct']} distinct tags"
    if stage.name == "pairs":
        return f"{s['distinct']} distinct pairs"
    if stage.name == "graph":
        return f"{s['nodes']} nodes, {s['edges']} edges"
    if stage.name == "timeline":
        shapes = sorted(s["shapes"].items())
        return ", ".join(f"{tag}:{v['shape']}" for tag, v in shapes) or "no tags to plot"
    if stage.name == "coding":
        return f"{s['vocabulary_size']} words, {s['uncategorized']} uncategorized"
    if stage.name == "pronouns":
        return f"them {s['them_total']} / us {s['us_total']} (ratio {s['ratio']})"
    if stage.name == "sentiment":
        return f"{s['rows']} n-grams, sum power {s['sum_power']}"
    return ""


def _write_text(run_dir: Path, name: str, content: str) -> str:
    (run_dir / name).write_text(content, encoding="utf-8")
    return name


def _summary_rows(rows: list[tuple[Any, int]]) -> list[list[Any]]:
    """Ranked rows as JSON lists, pair keys spread into two columns."""
    return [[*key, count] if isinstance(key, tuple) else [key, count] for key, count in rows]


class Context:
    """The shared intermediates and analysis results of one run, each
    computed at most once, from merged config sections (see merge_config).

    Each analysis reads the corpus before its data files, so a bad corpus
    is the error reported first.
    """

    def __init__(self, sections: Mapping[str, Mapping[str, Any]]) -> None:
        self.sections = sections
        self._tables: dict[str, CountTable] = {}
        self._rankings: dict[str, list[tuple[Any, int]]] = {}

    @cached_property
    def loaded(self) -> tuple[Corpus, LoadReport]:
        cfg = self.sections["corpus"]
        window = parse_window(cfg["window"]) if cfg["window"] else None
        return load_corpus(
            cfg["path"],
            fmt=cfg["format"],
            window=window,
            aliases=cfg["aliases"] or None,
            min_tags=cfg["min_tags"],
        )

    @property
    def corpus(self) -> Corpus:
        return self.loaded[0]

    @cached_property
    def stops(self) -> StopwordList:
        path = self.sections["text"]["stopwords"]
        return load_stopwords(path or resources.default_data_path(resources.STOPWORDS))

    def table(self, name: str) -> CountTable:
        """The `tags` or `pairs` count table, counted once."""
        if name not in self._tables:
            count = count_tags if name == "tags" else count_tag_pairs
            self._tables[name] = count(self.corpus)
        return self._tables[name]

    def ranking(self, name: str) -> list[tuple[Any, int]]:
        """The whole table in rank order, sorted once; the CSVs, summaries
        and top-N slices share it."""
        if name not in self._rankings:
            self._rankings[name] = ranked(self.table(name))
        return self._rankings[name]

    def top_rows(self, name: str) -> list[tuple[Any, int]]:
        """The first `<name>.top` ranked rows, or every row when top is 0."""
        return self.ranking(name)[: self.sections[name]["top"] or None]

    @cached_property
    def graph(self) -> CooccurrenceGraph:
        from .graph import build_graph

        cfg = self.sections["graph"]
        whitelist = None
        if cfg["whitelist_top"]:
            whitelist = {tag for tag, _ in self.ranking("tags")[: cfg["whitelist_top"]]}
        return build_graph(
            self.table("pairs"),
            threshold=cfg["threshold"],
            node_whitelist=whitelist,
            retain_isolates=cfg["retain_isolates"],
        )

    @cached_property
    def series(self) -> list[CumulativeSeries]:
        """One series per requested tag, or per top tag, sorted by tag; none
        when nothing is requested and the corpus has no tags."""
        from .timeline import cumulative_series_bulk

        cfg = self.sections["timeline"]
        aliases = self.sections["corpus"]["aliases"]
        # Requested tags are spelled as in the corpus file; ranked ones are
        # normalized already.
        tags = [normalize_tag(tag, aliases) for tag in cfg["tags"]]
        if not tags:
            tags = [tag for tag, _ in self.ranking("tags")[: cfg["top"]]]
        series_by_tag = cumulative_series_bulk(self.corpus, tags)
        return [series_by_tag[tag] for tag in sorted(series_by_tag)]

    @cached_property
    def token_counts(self) -> tuple[Counter, CountTable]:
        """The surface counts, and the 2-gram table when sentiment runs:
        one tokenize of each document, which coding, pronouns and
        sentiment all read. Without sentiment in run.stages no 2-gram is
        counted and no stopword file is read."""
        documents = self.corpus.documents
        if "sentiment" not in self.sections["run"]["stages"]:
            return count_tokens(documents)
        cfg = self.sections["sentiment"]
        filter_term = None
        if cfg["filter_stem"]:
            filter_term = KeywordFamily(stem=cfg["filter_stem"], match_mode=cfg["filter_mode"])
        return count_tokens(documents, self.stops, filter_term=filter_term)

    @cached_property
    def coding(self) -> tuple[Taxonomy, CodingResult, dict[str, int]]:
        from .coding import code_vocabulary, load_taxonomy, rollup

        cfg = self.sections["coding"]
        freq, _ = self.token_counts
        taxonomy = load_taxonomy(cfg["taxonomy"] or resources.default_data_path(resources.TAXONOMY))
        result = code_vocabulary(
            freq,
            taxonomy,
            self.stops,
            min_freq=cfg["min_freq"],
            count_occurrences=cfg["occurrences"],
        )
        return taxonomy, result, rollup(result, taxonomy)

    @cached_property
    def pronouns(self) -> PronounReport:
        from .coding import load_pronoun_groups, pronoun_orientation

        freq, _ = self.token_counts
        path = self.sections["pronouns"]["groups"]
        groups = load_pronoun_groups(path or resources.default_data_path(resources.PRONOUNS))
        return pronoun_orientation(freq, groups)

    @cached_property
    def power(self) -> PowerReport:
        """The power report of the counted 2-grams. A context whose
        run.stages lacks sentiment counts none, so it has no power report."""
        from .sentiment import load_lexicon, power_report

        if "sentiment" not in self.sections["run"]["stages"]:
            raise ValueError("no 2-grams are counted: run.stages does not select sentiment")
        cfg = self.sections["sentiment"]
        _, grams = self.token_counts
        lexicon = load_lexicon(cfg["lexicon"] or resources.default_data_path(resources.LEXICON))
        return power_report(grams, lexicon, min_freq=cfg["min_freq"])


# Stage renderers: each writes its artifacts into run_dir and returns their
# names and the stage summary.
Rendered = tuple[list[str], dict[str, Any]]


def _stage_ingest(ctx: Context, run_dir: Path) -> Rendered:
    corpus, load_report = ctx.loaded
    write_corpus(corpus, run_dir / "corpus.jsonl")
    start, end = corpus.window
    summary = {
        "records_read": load_report.records_read,
        "records_kept": load_report.records_kept,
        "dropped": dict(sorted(load_report.dropped.items())),
        "documents": len(corpus),
        "window": [_iso_utc(start), _iso_utc(end)],
    }
    return ["corpus.jsonl"], summary


def _stage_counts(name: str, ctx: Context, run_dir: Path) -> Rendered:
    """The tags or pairs stage: the whole ranked table, and its top rows in
    the summary."""
    table = ctx.table(name)
    text = counts_to_csv(ctx.ranking(name), pairs=name == "pairs")
    artifact = _write_text(run_dir, f"{name}.csv", text)
    summary = {
        "distinct": len(table),
        "total": table.total,
        "top": _summary_rows(ctx.top_rows(name)),
    }
    return [artifact], summary


def _stage_graph(ctx: Context, run_dir: Path) -> Rendered:
    from .graph import components, dyads_csv, export_graph

    cfg, graph = ctx.sections["graph"], ctx.graph
    fmt = cfg["format"]
    artifacts = [
        _write_text(run_dir, f"graph.{fmt}", export_graph(graph, fmt, cfg["cap"])),
        _write_text(run_dir, "dyads.csv", dyads_csv(graph)),
    ]
    summary = {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "threshold": cfg["threshold"],
        "components": len(components(graph)),
    }
    return artifacts, summary


def _stage_timeline(ctx: Context, run_dir: Path) -> Rendered:
    from .timeline import classify_shape, export_timeline

    # A corpus without tags leaves nothing to plot, and no file is written.
    series = ctx.series
    formats = ctx.sections["timeline"]["formats"] if series else []
    artifacts = [
        _write_text(run_dir, f"timeline.{fmt}", export_timeline(series, fmt=fmt))
        for fmt in formats
    ]
    shapes = {}
    for item in series:
        verdict = classify_shape(item)
        shapes[item.tag] = {
            "shape": verdict.shape,
            "r2": round(verdict.linearity_r2, 6),
            "max_step": round(verdict.max_step_fraction, 6),
            "burst_mass": round(verdict.burst_mass_fraction, 6),
            "burst_window": [d.isoformat() for d in verdict.burst_window],
            "reason": verdict.reason,
        }
    summary = {"tags": [s.tag for s in series], "shapes": shapes}
    return artifacts, summary


def _stage_coding(ctx: Context, run_dir: Path) -> Rendered:
    from .coding import coding_csv

    taxonomy, result, rolled = ctx.coding
    artifact = _write_text(run_dir, "coding.csv", coding_csv(result, rolled, taxonomy))
    summary = {
        "vocabulary_size": result.vocabulary_size,
        "uncategorized": len(result.uncategorized),
        "multi_matched": len(result.multi_matched),
        "top_level": {c.id: rolled[c.id] for c in taxonomy.top_level()},
    }
    return [artifact], summary


def _stage_pronouns(ctx: Context, run_dir: Path) -> Rendered:
    from .coding import format_ratio, pronouns_csv

    report = ctx.pronouns
    artifact = _write_text(run_dir, "pronouns.csv", pronouns_csv(report))
    summary = {
        "them_total": report.them_total,
        "us_total": report.us_total,
        "ratio": format_ratio(report.ratio),
    }
    return [artifact], summary


def _stage_sentiment(ctx: Context, run_dir: Path) -> Rendered:
    from .sentiment import power_csv

    report = ctx.power
    artifact = _write_text(run_dir, "power.csv", power_csv(report))
    summary = {
        "rows": len(report.rows),
        "distinct_2grams": len(ctx.token_counts[1]),
        "sum_power": report.sum_power,
    }
    return [artifact], summary


_STAGES: dict[str, Callable[[Context, Path], Rendered]] = {
    "ingest": _stage_ingest,
    "tags": partial(_stage_counts, "tags"),
    "pairs": partial(_stage_counts, "pairs"),
    "graph": _stage_graph,
    "timeline": _stage_timeline,
    "coding": _stage_coding,
    "pronouns": _stage_pronouns,
    "sentiment": _stage_sentiment,
}


def run_pipeline(config: Config) -> RunManifest:
    import shutil
    import tempfile

    corpus_cfg = config["corpus"]
    run_cfg = config["run"]
    if not corpus_cfg["path"]:
        raise UsageError("corpus.path is required")
    enabled = [s for s in STAGES if s in run_cfg["stages"]]

    run_id = config.digest
    out_dir = Path(run_cfg["out_dir"])
    run_dir = out_dir / run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    # Stages write into staging/<run_id>, renamed to run_dir once the
    # manifest is written; whatever is left in staging is deleted.
    staging = Path(tempfile.mkdtemp(prefix=".building-", dir=out_dir))
    try:
        build_dir = staging / run_id
        build_dir.mkdir()
        corpus_digest = file_digest(corpus_cfg["path"])
        ctx = Context(config.values)
        results: list[StageResult] = []
        for name in enabled:
            start = perf_counter()
            try:
                artifacts, summary = _STAGES[name](ctx, build_dir)
            except DataError as exc:
                raise DataError(f"stage {name}: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"stage {name}: {exc}") from exc
            results.append(
                StageResult(
                    name=name,
                    artifacts=tuple(artifacts),
                    summary=summary,
                    seconds=perf_counter() - start,
                )
            )
        manifest = RunManifest(
            run_id=run_id,
            corpus_digest=corpus_digest,
            config=digest_view(config.raw),
            stages=tuple(results),
            run_dir=run_dir,
        )
        (build_dir / MANIFEST_NAME).write_text(manifest.to_json(), encoding="utf-8")
        if run_dir.exists():
            run_dir.rename(staging / "previous")
        build_dir.rename(run_dir)
        return manifest
    finally:
        shutil.rmtree(staging, ignore_errors=True)
