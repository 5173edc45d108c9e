"""Command-line front end.

One subcommand per analysis step, plus `run` for the full configured
pipeline. A subcommand prints one result of a report.Context built from
its flags, so it computes exactly what the matching `run` stage does.
This module imports no analysis module: each cmd_* imports its own
writer and _context imports report, so a subcommand loads only the
modules it runs, and only `run` loads PyYAML.
Exit codes: 0 success, 1 bad usage, 2 bad data or values, 3 unexpected
internal failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .errors import DataError, UsageError

if TYPE_CHECKING:
    from .report import Context


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; we reserve 2 for data errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("corpus", help="corpus file to analyze")
    parser.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl", help="corpus file format"
    )
    parser.add_argument(
        "--window", default="", metavar="START..END", help="keep documents inside this span"
    )
    parser.add_argument(
        "--min-tags", type=int, default=0, help="keep documents with at least N hashtags"
    )


def _context(args: argparse.Namespace, **sections: dict) -> Context:
    """The flags as config sections over the defaults, checked like a config."""
    from .config import merge_config
    from .report import Context

    corpus = {
        "path": args.corpus,
        "format": args.format,
        "window": args.window,
        "min_tags": args.min_tags,
    }
    return Context(merge_config({"corpus": corpus, **sections}))


def cmd_ingest(args: argparse.Namespace) -> int:
    from .corpus import _iso_utc, write_corpus

    corpus, report = _context(args).loaded
    print(report.as_table())
    start, end = corpus.window
    print(f"documents: {len(corpus)}")
    print(f"window: {_iso_utc(start)} .. {_iso_utc(end)}")
    if args.out:
        write_corpus(corpus, args.out, fmt="jsonl")
        print(f"wrote {args.out}")
    return 0


def cmd_tags(args: argparse.Namespace) -> int:
    from .ngrams import top_k, write_counts_csv

    ctx = _context(args, run={"jobs": args.jobs}, tags={"top": args.top})
    # --top 0 prints every row.
    rows = top_k(ctx.tag_table, args.top) if args.top else ctx.ranked_tags
    write_counts_csv(rows, sys.stdout)
    return 0


def cmd_pairs(args: argparse.Namespace) -> int:
    from .ngrams import top_k, write_counts_csv

    ctx = _context(args, run={"jobs": args.jobs}, pairs={"top": args.top})
    # --top 0 prints every row.
    rows = top_k(ctx.pair_table, args.top) if args.top else ctx.ranked_pairs
    write_counts_csv(rows, sys.stdout)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from .graph import export_graph

    graph = {
        "threshold": args.threshold,
        "whitelist_top": args.whitelist_top,
        "cap": args.cap,
        "retain_isolates": args.retain_isolates,
    }
    ctx = _context(args, run={"jobs": args.jobs}, graph=graph)
    sys.stdout.write(export_graph(ctx.graph, fmt=args.graph_format, cap=args.cap or None))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from .timeline import classify_shape, export_timeline

    tags = [t for t in args.tags.split(",") if t]
    if not tags:
        raise UsageError("--tags needs at least one tag")
    series = _context(args, timeline={"tags": tags}).series
    if args.classify:
        for item in series:
            verdict = classify_shape(item)
            line = (
                f"{item.tag}\t{verdict.shape}\ttotal={item.total}"
                f"\tr2={verdict.linearity_r2:.4f}"
                f"\tmax_step={verdict.max_step_fraction:.4f}"
                f"\tburst_mass={verdict.burst_mass_fraction:.4f}"
            )
            if verdict.reason:
                line += f"\t({verdict.reason})"
            print(line)
        return 0
    sys.stdout.write(export_timeline(series, fmt=args.timeline_format))
    return 0


def cmd_code(args: argparse.Namespace) -> int:
    from .coding import write_coding_csv

    coding = {
        "taxonomy": args.taxonomy,
        "min_freq": args.min_freq,
        "occurrences": args.occurrences,
    }
    ctx = _context(args, text={"stopwords": args.stopwords}, coding=coding)
    taxonomy, result, rolled = ctx.coding
    write_coding_csv(result, rolled, taxonomy, sys.stdout)
    return 0


def cmd_pronouns(args: argparse.Namespace) -> int:
    from .coding import write_pronouns_csv

    write_pronouns_csv(_context(args, pronouns={"groups": args.groups}).pronouns, sys.stdout)
    return 0


def cmd_sentiment(args: argparse.Namespace) -> int:
    from .sentiment import write_power_csv

    sentiment = {
        "lexicon": args.lexicon,
        "filter_stem": args.filter_stem,
        "filter_mode": args.filter_mode,
        "min_freq": args.min_freq,
    }
    ctx = _context(
        args,
        run={"jobs": args.jobs},
        text={"stopwords": args.stopwords},
        sentiment=sentiment,
    )
    _, report = ctx.power
    write_power_csv(report, sys.stdout)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .config import load_config, make_config
    from .report import run_pipeline

    config = load_config(args.config)
    if args.jobs or args.out_dir:
        raw = {section: dict(values) for section, values in config.raw.items()}
        if args.jobs:
            raw["run"]["jobs"] = args.jobs
        if args.out_dir:
            raw["run"]["out_dir"] = str(Path(args.out_dir).resolve())
        config = make_config(raw, base_dir=config.base_dir)
    manifest = run_pipeline(config)
    print(manifest.console_summary())
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="socmine", description="Social-media text mining toolkit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="load, validate and summarize a corpus")
    _corpus_options(p)
    p.add_argument("--out", default="", help="write the normalized corpus here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tags", help="rank hashtags by document count")
    _corpus_options(p)
    p.add_argument("--top", type=int, default=20, help="rows to print, 0 for all")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_tags)

    p = sub.add_parser("pairs", help="rank co-occurring hashtag pairs")
    _corpus_options(p)
    p.add_argument("--top", type=int, default=20, help="rows to print, 0 for all")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("graph", help="export the tag co-occurrence graph")
    _corpus_options(p)
    p.add_argument("--threshold", type=int, default=2, help="minimum edge weight kept")
    p.add_argument("--graph-format", choices=("dot", "graphml"), default="dot")
    p.add_argument("--cap", type=int, default=10, help="drawn edge width cap, 0 for none")
    p.add_argument("--whitelist-top", type=int, default=0, help="restrict nodes to the top N tags")
    p.add_argument("--retain-isolates", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("timeline", help="cumulative per-tag activity over time")
    _corpus_options(p)
    p.add_argument("--tags", required=True, help="comma-separated tags to plot")
    p.add_argument("--timeline-format", choices=("csv", "svg"), default="csv")
    p.add_argument("--classify", action="store_true", help="print curve shapes instead")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("code", help="assign corpus vocabulary to taxonomy categories")
    _corpus_options(p)
    p.add_argument("--taxonomy", default="", help="taxonomy file, bundled one by default")
    p.add_argument("--stopwords", default="", help="stopword file, bundled one by default")
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--occurrences", action="store_true", help="count occurrences, not words")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("pronouns", help="count orientation pronoun groups")
    _corpus_options(p)
    p.add_argument("--groups", default="", help="groups file, bundled one by default")
    p.set_defaults(func=cmd_pronouns)

    p = sub.add_parser("sentiment", help="score frequent token 2-grams with a lexicon")
    _corpus_options(p)
    p.add_argument("--lexicon", default="", help="lexicon file, bundled one by default")
    p.add_argument("--filter-stem", default="", help="keep 2-grams touching this stem")
    p.add_argument("--filter-mode", choices=("prefix", "exact"), default="prefix")
    p.add_argument("--min-freq", type=int, default=2)
    p.add_argument("--stopwords", default="", help="stopword file, bundled one by default")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sentiment)

    p = sub.add_parser("run", help="run the configured pipeline end to end")
    p.add_argument("--config", required=True, help="pipeline config file (YAML)")
    p.add_argument("--jobs", type=int, default=0, help="override run.jobs")
    p.add_argument("--out-dir", default="", help="override run.out_dir")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
