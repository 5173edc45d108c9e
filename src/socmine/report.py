"""Pipeline runner: executes the enabled stages over one corpus and writes
every artifact plus a manifest into a run directory named by the config
digest.

Each analysis is one `Context` property, which the stages here and the
analysis subcommands share. The corpus, text and count layers every
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

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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
    count_token_2grams,
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
        return ", ".join(f"{tag}:{v['shape']}" for tag, v in sorted(s["shapes"].items()))
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


def _ranked_rows(rows: list[tuple[Any, int]], k: int) -> list[list[Any]]:
    """The first k ranked rows, pair keys spread into two columns."""
    return [
        [*key, count] if isinstance(key, tuple) else [key, count]
        for key, count in rows[:k]
    ]


class Context:
    """The shared intermediates and analysis results of one run, each
    computed at most once, from merged config sections (see merge_config).

    Each analysis reads the corpus before its data files, so a bad corpus
    is the error reported first.
    """

    def __init__(self, sections: Mapping[str, Mapping[str, Any]]) -> None:
        self.sections = sections

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
        if path:
            return load_stopwords(path, language=Path(path).stem)
        return load_stopwords(resources.default_data_path(resources.STOPWORDS), language="pl")

    @cached_property
    def tag_table(self) -> CountTable:
        return count_tags(self.corpus)

    @cached_property
    def pair_table(self) -> CountTable:
        return count_tag_pairs(self.corpus)

    # Each table is sorted once; the CSVs, summaries and top-N slices share it.
    @cached_property
    def ranked_tags(self) -> list[tuple[str, int]]:
        return ranked(self.tag_table)

    @cached_property
    def ranked_pairs(self) -> list[tuple[tuple[str, str], int]]:
        return ranked(self.pair_table)

    @cached_property
    def graph(self) -> CooccurrenceGraph:
        from .graph import build_graph

        cfg = self.sections["graph"]
        whitelist = None
        if cfg["whitelist_top"]:
            whitelist = {tag for tag, _ in self.ranked_tags[: cfg["whitelist_top"]]}
        return build_graph(
            self.pair_table,
            threshold=cfg["threshold"],
            node_whitelist=whitelist,
            retain_isolates=cfg["retain_isolates"],
        )

    @cached_property
    def series(self) -> list[CumulativeSeries]:
        """One series per requested tag, or per top tag, sorted by tag."""
        from .timeline import cumulative_series_bulk

        cfg = self.sections["timeline"]
        aliases = self.sections["corpus"]["aliases"]
        # Requested tags are spelled as in the corpus file; ranked ones are
        # normalized already.
        tags = [normalize_tag(tag, aliases) for tag in cfg["tags"]]
        if not tags:
            tags = [tag for tag, _ in self.ranked_tags[: cfg["top"]]]
        if not tags:
            raise DataError("timeline stage has no tags to plot")
        series_by_tag = cumulative_series_bulk(self.corpus, tags)
        return [series_by_tag[tag] for tag in sorted(series_by_tag)]

    @cached_property
    def surface_counts(self) -> Counter:
        from .coding import surface_counts

        return surface_counts(self.corpus)

    @cached_property
    def coding(self) -> tuple[Taxonomy, CodingResult, dict[str, int]]:
        from .coding import code_vocabulary, load_taxonomy, rollup

        cfg = self.sections["coding"]
        freq = self.surface_counts
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

        freq = self.surface_counts
        path = self.sections["pronouns"]["groups"]
        groups = load_pronoun_groups(path or resources.default_data_path(resources.PRONOUNS))
        return pronoun_orientation(freq, groups)

    @cached_property
    def power(self) -> tuple[CountTable, PowerReport]:
        """The counted 2-grams and their power report."""
        from .sentiment import load_lexicon, power_report

        cfg = self.sections["sentiment"]
        documents = self.corpus.documents
        lexicon = load_lexicon(cfg["lexicon"] or resources.default_data_path(resources.LEXICON))
        filter_term = None
        if cfg["filter_stem"]:
            filter_term = KeywordFamily(stem=cfg["filter_stem"], match_mode=cfg["filter_mode"])
        grams = count_token_2grams(documents, self.stops, filter_term=filter_term)
        return grams, power_report(grams, lexicon, min_freq=cfg["min_freq"])


# Stage renderers: each writes its artifacts into run_dir and returns their
# names and the stage summary.
Rendered = tuple[list[str], dict[str, Any]]


def _stage_ingest(ctx: Context, run_dir: Path) -> Rendered:
    corpus, load_report = ctx.loaded
    write_corpus(corpus, run_dir / "corpus.jsonl", fmt="jsonl")
    start, end = corpus.window
    summary = {
        "records_read": load_report.records_read,
        "records_kept": load_report.records_kept,
        "dropped": dict(sorted(load_report.dropped.items())),
        "documents": len(corpus),
        "window": [_iso_utc(start), _iso_utc(end)],
    }
    return ["corpus.jsonl"], summary


def _stage_tags(ctx: Context, run_dir: Path) -> Rendered:
    table, rows = ctx.tag_table, ctx.ranked_tags
    artifact = _write_text(run_dir, "tags.csv", counts_to_csv(rows))
    summary = {
        "distinct": len(table),
        "total": table.total,
        "top": _ranked_rows(rows, ctx.sections["tags"]["top"]),
    }
    return [artifact], summary


def _stage_pairs(ctx: Context, run_dir: Path) -> Rendered:
    table, rows = ctx.pair_table, ctx.ranked_pairs
    artifact = _write_text(run_dir, "pairs.csv", counts_to_csv(rows))
    summary = {
        "distinct": len(table),
        "total": table.total,
        "top": _ranked_rows(rows, ctx.sections["pairs"]["top"]),
    }
    return [artifact], summary


def _stage_graph(ctx: Context, run_dir: Path) -> Rendered:
    from .graph import components, dyad_report, export_graph

    cfg, graph = ctx.sections["graph"], ctx.graph
    fmt = cfg["format"]
    artifacts = [
        _write_text(run_dir, f"graph.{fmt}", export_graph(graph, fmt, cap=cfg["cap"] or None))
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["tag_a", "tag_b", "weight", "ratio"])
    writer.writerows(
        (a, b, weight, f"{ratio:.4f}")
        for a, b, weight, ratio in dyad_report(graph, max(1, len(graph.edges)))
    )
    artifacts.append(_write_text(run_dir, "dyads.csv", buffer.getvalue()))
    summary = {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "threshold": cfg["threshold"],
        "components": len(components(graph)),
    }
    return artifacts, summary


def _stage_timeline(ctx: Context, run_dir: Path) -> Rendered:
    from .timeline import classify_shape, export_timeline

    series = ctx.series
    artifacts = [
        _write_text(run_dir, f"timeline.{fmt}", export_timeline(series, fmt=fmt))
        for fmt in ctx.sections["timeline"]["formats"]
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
    from .coding import write_coding_csv

    taxonomy, result, rolled = ctx.coding
    buffer = io.StringIO()
    write_coding_csv(result, rolled, taxonomy, buffer)
    artifact = _write_text(run_dir, "coding.csv", buffer.getvalue())
    summary = {
        "vocabulary_size": result.vocabulary_size,
        "uncategorized": len(result.uncategorized),
        "multi_matched": len(result.multi_matched),
        "top_level": {c.id: rolled[c.id] for c in taxonomy.top_level()},
    }
    return [artifact], summary


def _stage_pronouns(ctx: Context, run_dir: Path) -> Rendered:
    from .coding import format_ratio, write_pronouns_csv

    report = ctx.pronouns
    buffer = io.StringIO()
    write_pronouns_csv(report, buffer)
    artifact = _write_text(run_dir, "pronouns.csv", buffer.getvalue())
    summary = {
        "them_total": report.them_total,
        "us_total": report.us_total,
        "ratio": format_ratio(report.ratio),
    }
    return [artifact], summary


def _stage_sentiment(ctx: Context, run_dir: Path) -> Rendered:
    from .sentiment import write_power_csv

    grams, report = ctx.power
    buffer = io.StringIO()
    write_power_csv(report, buffer)
    artifact = _write_text(run_dir, "power.csv", buffer.getvalue())
    summary = {
        "rows": len(report.rows),
        "distinct_2grams": len(grams),
        "sum_power": report.sum_power,
    }
    return [artifact], summary


_STAGES: dict[str, Callable[[Context, Path], Rendered]] = {
    "ingest": _stage_ingest,
    "tags": _stage_tags,
    "pairs": _stage_pairs,
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
    if not enabled:
        raise UsageError("run.stages selects no stages")

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
