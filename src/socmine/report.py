"""Pipeline runner: executes the enabled stages over one corpus and writes
every artifact plus a manifest into a run directory named by the config
digest.

Reruns of the same config over the same inputs produce byte-identical
artifacts and manifest, whatever run.jobs says: the manifest embeds the
digest view of the config (no jobs, no out_dir) and carries no wall-clock
timings. Timings live only on the in-memory StageResult objects and in the
console summary.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Mapping

from . import resources
from .coding import (
    code_vocabulary,
    format_ratio,
    load_pronoun_groups,
    load_taxonomy,
    pronoun_orientation,
    rollup,
    surface_counts,
    write_coding_csv,
    write_pronouns_csv,
)
from .config import STAGES, Config, digest_view, file_digest
from .corpus import (
    Corpus,
    LoadReport,
    filter_multi_tag,
    load_corpus,
    parse_window,
    write_corpus,
)
from .errors import DataError, UsageError
from .graph import build_graph, components, dyad_report, export_graph
from .ngrams import (
    CountTable,
    count_tag_pairs,
    count_tags,
    count_token_2grams,
    counts_to_csv,
    ranked,
)
from .sentiment import load_lexicon, power_report, write_power_csv
from .text import KeywordFamily, StopwordList, load_stopwords
from .timeline import classify_shape, cumulative_series_bulk, export_timeline

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


def _iso(dt) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_text(run_dir: Path, name: str, content: str) -> str:
    (run_dir / name).write_text(content, encoding="utf-8")
    return name


def _ranked_rows(rows: list[tuple[Any, int]], k: int) -> list[list[Any]]:
    """The first k ranked rows, pair keys spread into two columns."""
    if k < 1:
        return []
    return [
        [*key, count] if isinstance(key, tuple) else [key, count]
        for key, count in rows[:k]
    ]


def run_pipeline(config: Config) -> RunManifest:
    corpus_cfg = config["corpus"]
    run_cfg = config["run"]
    if not corpus_cfg["path"]:
        raise UsageError("corpus.path is required")
    enabled = [s for s in STAGES if s in run_cfg["stages"]]
    if not enabled:
        raise UsageError("run.stages selects no stages")
    jobs = run_cfg["jobs"]

    run_id = config.digest
    out_dir = Path(run_cfg["out_dir"])
    run_dir = out_dir / run_id
    created_now = not run_dir.exists()
    run_dir.mkdir(parents=True, exist_ok=True)

    # Lazy shared intermediates, computed at most once per run.
    cache: dict[str, Any] = {}

    def get_corpus() -> tuple[Corpus, LoadReport]:
        if "corpus" not in cache:
            window = parse_window(corpus_cfg["window"]) if corpus_cfg["window"] else None
            corpus, load_report = load_corpus(
                corpus_cfg["path"],
                fmt=corpus_cfg["format"],
                window=window,
                aliases=corpus_cfg["aliases"] or None,
            )
            if corpus_cfg["min_tags"]:
                corpus = filter_multi_tag(corpus, corpus_cfg["min_tags"])
            cache["corpus"] = (corpus, load_report)
        return cache["corpus"]

    def get_stops() -> StopwordList:
        if "stops" not in cache:
            path = config["text"]["stopwords"]
            if path:
                cache["stops"] = load_stopwords(path, language=Path(path).stem)
            else:
                cache["stops"] = load_stopwords(
                    resources.default_data_path(resources.STOPWORDS), language="pl"
                )
        return cache["stops"]

    def get_tag_table() -> CountTable:
        if "tag_table" not in cache:
            cache["tag_table"] = count_tags(get_corpus()[0], jobs=jobs)
        return cache["tag_table"]

    def get_pair_table() -> CountTable:
        if "pair_table" not in cache:
            cache["pair_table"] = count_tag_pairs(get_corpus()[0], jobs=jobs)
        return cache["pair_table"]

    # Each table is sorted once; the CSVs, summaries and top-N slices share it.
    def get_ranked_tags() -> list[tuple[str, int]]:
        if "ranked_tags" not in cache:
            cache["ranked_tags"] = ranked(get_tag_table())
        return cache["ranked_tags"]

    def get_ranked_pairs() -> list[tuple[tuple[str, str], int]]:
        if "ranked_pairs" not in cache:
            cache["ranked_pairs"] = ranked(get_pair_table())
        return cache["ranked_pairs"]

    def get_surface_counts() -> Counter:
        if "surface_counts" not in cache:
            cache["surface_counts"] = surface_counts(get_corpus()[0])
        return cache["surface_counts"]

    def stage_ingest() -> tuple[list[str], dict[str, Any]]:
        corpus, load_report = get_corpus()
        write_corpus(corpus, run_dir / "corpus.jsonl", fmt="jsonl")
        start, end = corpus.window
        summary = {
            "records_read": load_report.records_read,
            "records_kept": load_report.records_kept,
            "dropped": dict(sorted(load_report.dropped.items())),
            "documents": len(corpus),
            "window": [_iso(start), _iso(end)],
        }
        return ["corpus.jsonl"], summary

    def stage_tags() -> tuple[list[str], dict[str, Any]]:
        table, rows = get_tag_table(), get_ranked_tags()
        artifact = _write_text(run_dir, "tags.csv", counts_to_csv(rows))
        summary = {
            "distinct": len(table),
            "total": table.total,
            "top": _ranked_rows(rows, config["tags"]["top"]),
        }
        return [artifact], summary

    def stage_pairs() -> tuple[list[str], dict[str, Any]]:
        table, rows = get_pair_table(), get_ranked_pairs()
        artifact = _write_text(run_dir, "pairs.csv", counts_to_csv(rows))
        summary = {
            "distinct": len(table),
            "total": table.total,
            "top": _ranked_rows(rows, config["pairs"]["top"]),
        }
        return [artifact], summary

    def stage_graph() -> tuple[list[str], dict[str, Any]]:
        graph_cfg = config["graph"]
        whitelist = None
        if graph_cfg["whitelist_top"]:
            top = _ranked_rows(get_ranked_tags(), graph_cfg["whitelist_top"])
            whitelist = {row[0] for row in top}
        graph = build_graph(
            get_pair_table(),
            threshold=graph_cfg["threshold"],
            node_whitelist=whitelist,
            retain_isolates=graph_cfg["retain_isolates"],
        )
        fmt = graph_cfg["format"]
        cap = graph_cfg["cap"] or None
        artifacts = [
            _write_text(run_dir, f"graph.{fmt}", export_graph(graph, fmt, cap=cap))
        ]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["tag_a", "tag_b", "weight", "ratio"])
        writer.writerows(
            (row.pair.a, row.pair.b, row.weight, f"{row.ratio:.4f}")
            for row in dyad_report(graph, max(1, len(graph.edges)))
        )
        artifacts.append(_write_text(run_dir, "dyads.csv", buffer.getvalue()))
        summary = {
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "threshold": graph_cfg["threshold"],
            "components": len(components(graph)),
        }
        return artifacts, summary

    def stage_timeline() -> tuple[list[str], dict[str, Any]]:
        timeline_cfg = config["timeline"]
        tags = list(timeline_cfg["tags"])
        if not tags:
            tags = [row[0] for row in _ranked_rows(get_ranked_tags(), timeline_cfg["top"])]
        if not tags:
            raise DataError("timeline stage has no tags to plot")
        corpus, _ = get_corpus()
        series_by_tag = cumulative_series_bulk(corpus, tags)
        series = [series_by_tag[tag] for tag in sorted(series_by_tag)]
        artifacts = []
        for fmt in timeline_cfg["formats"]:
            artifacts.append(
                _write_text(run_dir, f"timeline.{fmt}", export_timeline(series, fmt=fmt))
            )
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

    def stage_coding() -> tuple[list[str], dict[str, Any]]:
        coding_cfg = config["coding"]
        taxonomy_path = coding_cfg["taxonomy"] or resources.default_data_path(
            resources.TAXONOMY
        )
        taxonomy = load_taxonomy(taxonomy_path)
        result = code_vocabulary(
            get_surface_counts(),
            taxonomy,
            get_stops(),
            min_freq=coding_cfg["min_freq"],
            count_occurrences=coding_cfg["occurrences"],
        )
        rolled = rollup(result, taxonomy)
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

    def stage_pronouns() -> tuple[list[str], dict[str, Any]]:
        groups_path = config["pronouns"]["groups"] or resources.default_data_path(
            resources.PRONOUNS
        )
        groups = load_pronoun_groups(groups_path)
        report = pronoun_orientation(get_surface_counts(), groups)
        buffer = io.StringIO()
        write_pronouns_csv(report, buffer)
        artifact = _write_text(run_dir, "pronouns.csv", buffer.getvalue())
        summary = {
            "them_total": report.them_total,
            "us_total": report.us_total,
            "ratio": format_ratio(report.ratio),
        }
        return [artifact], summary

    def stage_sentiment() -> tuple[list[str], dict[str, Any]]:
        sent_cfg = config["sentiment"]
        lexicon_path = sent_cfg["lexicon"] or resources.default_data_path(
            resources.LEXICON
        )
        lexicon = load_lexicon(lexicon_path)
        filter_term = None
        if sent_cfg["filter_stem"]:
            filter_term = KeywordFamily(
                stem=sent_cfg["filter_stem"], match_mode=sent_cfg["filter_mode"]
            )
        corpus, _ = get_corpus()
        grams = count_token_2grams(
            corpus.documents, get_stops(), filter_term=filter_term, jobs=jobs
        )
        report = power_report(grams, lexicon, min_freq=sent_cfg["min_freq"])
        buffer = io.StringIO()
        write_power_csv(report, buffer)
        artifact = _write_text(run_dir, "power.csv", buffer.getvalue())
        summary = {
            "rows": len(report.rows),
            "distinct_2grams": len(grams),
            "sum_power": report.sum_power,
        }
        return [artifact], summary

    runners: dict[str, Callable[[], tuple[list[str], dict[str, Any]]]] = {
        "ingest": stage_ingest,
        "tags": stage_tags,
        "pairs": stage_pairs,
        "graph": stage_graph,
        "timeline": stage_timeline,
        "coding": stage_coding,
        "pronouns": stage_pronouns,
        "sentiment": stage_sentiment,
    }

    results: list[StageResult] = []
    try:
        corpus_digest = file_digest(corpus_cfg["path"])
        for name in enabled:
            start = perf_counter()
            try:
                artifacts, summary = runners[name]()
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
        (run_dir / MANIFEST_NAME).write_text(manifest.to_json(), encoding="utf-8")
        return manifest
    except BaseException:
        if created_now:
            shutil.rmtree(run_dir, ignore_errors=True)
        raise
