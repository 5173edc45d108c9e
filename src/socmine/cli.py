"""Command-line front end.

One subcommand per analysis step, plus `run` for the full configured
pipeline. Flags are config keys: a flag's dest is the key it sets
(`--threshold` sets `graph.threshold`), one not given sets nothing, and
_overrides lays the given ones over config.DEFAULTS, or over the config
file for `run`, for merge_config to check. So every default and value
rule lives in config, and a bad value exits 2 naming its key. An analysis
subcommand prints what its `run` stage writes, from the same
report.Context property and serializer; its run.stages is that one stage,
so `code` and `pronouns` count no 2-grams. Only `ingest --out`, `timeline
--timeline-format`/`--classify` and `run --config` are not config keys.
This module imports no analysis module: each cmd_* imports its own
serializer and _context imports report, so a subcommand loads only the
modules it runs, and only `run` loads PyYAML.
Exit codes: 0 success, 1 bad usage, 2 a DataError, which names the line,
config key, flag or file at fault, 3 any other exception, an internal
failure.

main runs each command with the cyclic garbage collector off, and turns it
back on when it returns if it was on. Documents, token lists, tuples,
strings and Counters hold no reference cycles, so a collection finds
nothing, yet it rescans every one of the hundreds of thousands of them a
corpus makes: 6-8% of a `socmine run`. The cyclic garbage a command leaves
does not grow with the corpus (a test checks this). Library callers of
report.run_pipeline and Context keep the interpreter's default.

When main runs the process's own command (argv is None: the console
script, `python -m socmine.cli`), it flushes stdio and calls os._exit
while args holds the command's Context, so nothing is torn down: freeing
it takes 11 ms after a `tag_graph` run and 0.3 s after 200,000 documents.
Every artifact is closed by then, and no atexit hook runs. A caller that
passes argv (tests, the benchmark's in-process trace) gets main's return
and the collector state it had.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__
from .errors import DataError, UsageError

if TYPE_CHECKING:
    from .report import Context


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; we reserve 2 for data errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _overrides(args: argparse.Namespace, base: Mapping[str, Mapping] | None = None) -> dict:
    """The flags whose dest is a `section.key`, laid over a copy of base."""
    overrides = {section: dict(values) for section, values in (base or {}).items()}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot:
            overrides.setdefault(section, {})[key] = value
    return overrides


def _context(args: argparse.Namespace, sections: Mapping | None = None) -> Context:
    """A Context of sections, by default the given flags over the defaults,
    checked like a config. args holds it until main returns or exits."""
    from .config import merge_config
    from .report import Context

    args.context = Context(sections or merge_config(_overrides(args)))
    return args.context


def cmd_ingest(args: argparse.Namespace) -> int:
    from .corpus import _iso_utc, write_corpus

    corpus, report = _context(args).loaded
    # Written before the summary, so an --out that fails prints nothing.
    if args.out:
        try:
            write_corpus(corpus, args.out)
        except OSError as exc:
            raise DataError(f"--out: {exc}") from exc
    print(report.as_table())
    start, end = corpus.window
    print(f"documents: {len(corpus.documents)}")
    print(f"window: {_iso_utc(start)} .. {_iso_utc(end)}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_counts(args: argparse.Namespace) -> int:
    """`tags` or `pairs`: the top rows of the ranked table."""
    from .ngrams import counts_to_csv

    rows = _context(args).top_rows(args.command)
    sys.stdout.write(counts_to_csv(rows, pairs=args.command == "pairs"))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from .graph import export_graph

    ctx = _context(args)
    cfg = ctx.sections["graph"]
    sys.stdout.write(export_graph(ctx.graph, cfg["format"], cfg["cap"]))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from .timeline import classify_shape, export_timeline

    if not vars(args)["timeline.tags"]:
        raise UsageError("--tags needs at least one tag")
    series = _context(args).series
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
    from .coding import coding_csv

    taxonomy, result, rolled = _context(args).coding
    sys.stdout.write(coding_csv(result, rolled, taxonomy))
    return 0


def cmd_pronouns(args: argparse.Namespace) -> int:
    from .coding import pronouns_csv

    sys.stdout.write(pronouns_csv(_context(args).pronouns))
    return 0


def cmd_sentiment(args: argparse.Namespace) -> int:
    from .sentiment import power_csv

    sys.stdout.write(power_csv(_context(args).power))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .config import load_config, make_config
    from .report import run_pipeline

    config = load_config(args.config)
    config = make_config(_overrides(args, config.raw), base_dir=config.base_dir)
    manifest = run_pipeline(config, _context(args, config.values))
    print(manifest.console_summary())
    return 0


def _tag_list(value: str) -> list[str]:
    return [tag for tag in value.split(",") if tag]


def build_parser() -> Parser:
    parser = Parser(prog="socmine", description="Social-media text mining toolkit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def analysis(name: str, help: str, stage: str = "") -> argparse.ArgumentParser:
        """An analysis subcommand: a flag that is not given sets no config key,
        and run.stages is its own stage, named `name` unless given."""
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(**{"run.stages": [stage or name]})
        p.add_argument("corpus.path", metavar="corpus", help="corpus file to analyze")
        p.add_argument("--format", dest="corpus.format", help="corpus file format")
        p.add_argument("--window", dest="corpus.window", metavar="START..END",
                       help="keep documents inside this span")
        p.add_argument("--min-tags", dest="corpus.min_tags", type=int,
                       help="keep documents with at least N hashtags")
        return p

    p = analysis("ingest", "load, validate and summarize a corpus")
    p.add_argument("--out", default="", help="write the normalized corpus here")
    p.set_defaults(func=cmd_ingest)

    for name, help in (
        ("tags", "rank hashtags by document count"),
        ("pairs", "rank co-occurring hashtag pairs"),
    ):
        p = analysis(name, help)
        p.add_argument("--top", dest=f"{name}.top", type=int, help="rows to print, 0 for all")
        p.set_defaults(func=cmd_counts)

    p = analysis("graph", "export the tag co-occurrence graph")
    p.add_argument("--threshold", dest="graph.threshold", type=int, help="minimum edge weight kept")
    p.add_argument("--graph-format", dest="graph.format")
    p.add_argument("--cap", dest="graph.cap", type=int, help="drawn edge width cap, 0 for none")
    p.add_argument("--whitelist-top", dest="graph.whitelist_top", type=int,
                   help="restrict nodes to the top N tags")
    p.add_argument("--retain-isolates", dest="graph.retain_isolates", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = analysis("timeline", "cumulative per-tag activity over time")
    p.add_argument("--tags", dest="timeline.tags", type=_tag_list, required=True,
                   help="comma-separated tags to plot")
    p.add_argument("--timeline-format", choices=("csv", "svg"), default="csv")
    p.add_argument("--classify", action="store_true", default=False,
                   help="print curve shapes instead")
    p.set_defaults(func=cmd_timeline)

    p = analysis("code", "assign corpus vocabulary to taxonomy categories", "coding")
    p.add_argument("--taxonomy", dest="coding.taxonomy",
                   help="taxonomy file, bundled one by default")
    p.add_argument("--stopwords", dest="text.stopwords",
                   help="stopword file, bundled one by default")
    p.add_argument("--min-freq", dest="coding.min_freq", type=int)
    p.add_argument("--occurrences", dest="coding.occurrences", action="store_true",
                   help="count occurrences, not words")
    p.set_defaults(func=cmd_code)

    p = analysis("pronouns", "count orientation pronoun groups")
    p.add_argument("--groups", dest="pronouns.groups", help="groups file, bundled one by default")
    p.set_defaults(func=cmd_pronouns)

    p = analysis("sentiment", "score frequent token 2-grams with a lexicon")
    p.add_argument("--lexicon", dest="sentiment.lexicon",
                   help="lexicon file, bundled one by default")
    p.add_argument("--filter-stem", dest="sentiment.filter_stem",
                   help="keep 2-grams touching this stem")
    p.add_argument("--filter-mode", dest="sentiment.filter_mode")
    p.add_argument("--min-freq", dest="sentiment.min_freq", type=int)
    p.add_argument("--stopwords", dest="text.stopwords",
                   help="stopword file, bundled one by default")
    p.set_defaults(func=cmd_sentiment)

    p = sub.add_parser("run", help="run the configured pipeline end to end",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", required=True, help="pipeline config file (YAML)")
    p.add_argument("--out-dir", dest="run.out_dir", type=lambda path: str(Path(path).resolve()),
                   help="run directory parent, relative to the working directory")
    p.add_argument("--jobs", dest="run.jobs", type=int)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    args = argparse.Namespace()
    try:
        code = _main(argv, args)
        if argv is None:  # the process's own command (see the module docstring)
            os._exit(_flushed(code))
        return code
    finally:
        if enabled:
            gc.enable()


def _main(argv: Sequence[str] | None, args: argparse.Namespace) -> int:
    parser = build_parser()
    try:
        parser.parse_args(argv, args)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def _flushed(code: int) -> int:
    """code after flushing stdio: 0 if a reader is gone, as in a command, 3 if it fails."""
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
