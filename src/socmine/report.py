"""Pipeline runner: executes the enabled stages over one corpus and writes
every artifact plus a manifest into a run directory named by the config
digest.

Each analysis is computed once by a `Context`, which the stages here and
the analysis subcommands share. The corpus, text and count layers every
property rests on are imported with this module; coding, graph, timeline
and sentiment are imported by the properties and stage renderers that use
them, so a subcommand or a run loads only the analyses it runs.

A run with both a tag stage (ingest's corpus write, tags, pairs, graph,
timeline) and a text stage (coding, pronouns, sentiment) forks before the
corpus is loaded when run.jobs allows two processes and this process may
run on a second CPU, and the child writes to the parent down one pipe, in
one order. The child loads the corpus and sends the text of each kept
document as soon as its record is checked; then an end mark, or a cut mark
if its load raised; then, once it has rendered the tag stages into the
same build directory, their StageResults, or the exception its load or
stages raised, as a pickle up to EOF. The parent never loads the corpus:
the text stages read nothing of it but the kept texts, and its first text
stage runs the token walk over them as they arrive, while the child is
still parsing. The two keep to disjoint halves of the run's CPUs till the
child is reaped. After its text stages, done or failed, the parent reads
past any texts they did not walk, reads the child's outcome to EOF and
reaps the child. The tag side's error wins when both fail, as it would in
serial order, and a stream that ends before its end mark is never counted.
Any other run, and one whose fork fails, renders its stages one after
another in this process: on one CPU the split costs more than it saves.

Reruns of the same config over the same inputs produce byte-identical
artifacts and manifest, whatever run.jobs says: the manifest embeds the
digest view of the config (no jobs, no out_dir) and carries no wall-clock
timings. Timings live only on the in-memory StageResult objects and in the
console summary. A run is built in a temporary directory and renamed into
place after its manifest, so a failed run leaves an earlier one as it was.
"""

from __future__ import annotations

import json
import marshal
import os
from collections import Counter, deque
from contextlib import suppress
from functools import cached_property, partial
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple

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
from .errors import DataError
from .ngrams import (
    count_tag_pairs,
    count_tags,
    count_tokens,
    counts_to_csv,
    ranked,
)
from .text import KeywordFamily, load_stopwords

if TYPE_CHECKING:
    from .coding import CodingResult, PronounReport, Taxonomy
    from .graph import CooccurrenceGraph
    from .sentiment import PowerReport
    from .timeline import CumulativeSeries

MANIFEST_NAME = "manifest.json"


class StageResult(NamedTuple):
    name: str
    artifacts: tuple[str, ...]
    summary: Mapping[str, Any]
    headline: str
    seconds: float


class RunManifest(NamedTuple):
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
            lines.append(f"  {stage.name:<10} {stage.seconds:7.3f}s  {stage.headline}")
        lines.append(f"manifest: {self.run_dir / MANIFEST_NAME}")
        return "\n".join(lines)


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

    In a forked run (see _render_beside) the loading process passes each
    kept text to `on_kept`, and the other process, which loads no corpus,
    sets `texts` to the texts it receives.
    """

    def __init__(self, sections: Mapping[str, Mapping[str, Any]]) -> None:
        self.sections = sections
        self._rankings: dict[str, list[tuple[Any, int]]] = {}
        self.on_kept: Callable[[str], object] | None = None
        self.texts: Iterable[str] | None = None

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
            on_kept=self.on_kept,
        )

    @property
    def corpus(self) -> Corpus:
        return self.loaded[0]

    def _load_data(self, key: str, bundled: str, load: Callable[[str | Path], Any]) -> Any:
        """Load the data file of config key `key`, such as "text.stopwords",
        or the bundled file of that name when the key is unset; a fault in
        it names the key."""
        section, name = key.split(".")
        try:
            return load(self.sections[section][name] or resources.default_data_path(bundled))
        except DataError as exc:
            raise DataError(f"{key}: {exc}") from exc

    @cached_property
    def stops(self) -> frozenset[str]:
        return self._load_data("text.stopwords", resources.STOPWORDS, load_stopwords)

    def ranking(self, name: str) -> list[tuple[Any, int]]:
        """The whole `tags` or `pairs` table in rank order, counted and
        sorted once; the CSVs, summaries and top-N slices share it, and the
        count table does not outlive it."""
        if name not in self._rankings:
            count = count_tags if name == "tags" else count_tag_pairs
            self._rankings[name] = ranked(count(self.corpus))
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
            self.ranking("pairs"),
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
    def token_counts(self) -> tuple[Counter, Counter]:
        """The surface counts, and the 2-gram table when sentiment runs:
        one tokenize of each kept document, which coding, pronouns and
        sentiment all read. Without sentiment in run.stages no 2-gram is
        counted and no stopword file is read. The texts are the loaded
        corpus's, or `texts` when set; a bad stopword file fails before
        the walk reads a text."""
        texts = self.texts
        if texts is None:
            texts = map(attrgetter("text"), self.corpus.documents)
        if "sentiment" not in self.sections["run"]["stages"]:
            return count_tokens(texts)
        cfg = self.sections["sentiment"]
        filter_term = None
        if cfg["filter_stem"]:
            filter_term = KeywordFamily(stem=cfg["filter_stem"], match_mode=cfg["filter_mode"])
        return count_tokens(texts, self.stops, filter_term=filter_term)

    @cached_property
    def coding(self) -> tuple[Taxonomy, CodingResult, dict[str, int]]:
        from .coding import code_vocabulary, load_taxonomy, rollup

        cfg = self.sections["coding"]
        freq, _ = self.token_counts
        taxonomy = self._load_data("coding.taxonomy", resources.TAXONOMY, load_taxonomy)
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
        groups = self._load_data("pronouns.groups", resources.PRONOUNS, load_pronoun_groups)
        return pronoun_orientation(freq, groups)

    @cached_property
    def power(self) -> PowerReport:
        """The power report of the counted 2-grams, which are counted only
        when run.stages selects sentiment."""
        from .sentiment import load_lexicon, power_report

        cfg = self.sections["sentiment"]
        _, grams = self.token_counts
        lexicon = self._load_data("sentiment.lexicon", resources.LEXICON, load_lexicon)
        return power_report(grams, lexicon, min_freq=cfg["min_freq"])


# Stage renderers: each writes its artifacts into run_dir and returns their
# names, the stage summary and the stage's console line.
Rendered = tuple[list[str], dict[str, Any], str]


def _stage_ingest(ctx: Context, run_dir: Path) -> Rendered:
    corpus, load_report = ctx.loaded
    write_corpus(corpus, run_dir / "corpus.jsonl")
    start, end = corpus.window
    summary = {
        "records_read": load_report.records_read,
        "records_kept": load_report.records_kept,
        "dropped": dict(sorted(load_report.dropped.items())),
        "documents": len(corpus.documents),
        "window": [_iso_utc(start), _iso_utc(end)],
    }
    line = f"{load_report.records_kept} of {load_report.records_read} records kept"
    return ["corpus.jsonl"], summary, line


def _stage_counts(name: str, ctx: Context, run_dir: Path) -> Rendered:
    """The tags or pairs stage: the whole ranked table, and its top rows in
    the summary."""
    rows = ctx.ranking(name)
    text = counts_to_csv(rows, pairs=name == "pairs")
    artifact = _write_text(run_dir, f"{name}.csv", text)
    summary = {
        "distinct": len(rows),
        "total": sum(map(itemgetter(1), rows)),
        "top": _summary_rows(ctx.top_rows(name)),
    }
    return [artifact], summary, f"{len(rows)} distinct {name}"


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
    return artifacts, summary, f"{len(graph.nodes)} nodes, {len(graph.edges)} edges"


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
    # The series are in tag order, and so are the shapes.
    line = ", ".join(f"{tag}:{v['shape']}" for tag, v in shapes.items())
    return artifacts, summary, line or "no tags to plot"


def _stage_coding(ctx: Context, run_dir: Path) -> Rendered:
    from .coding import coding_csv

    taxonomy, result, rolled = ctx.coding
    artifact = _write_text(run_dir, "coding.csv", coding_csv(result, rolled, taxonomy))
    uncategorized = len(result.uncategorized)
    summary = {
        "vocabulary_size": result.vocabulary_size,
        "uncategorized": uncategorized,
        "multi_matched": len(result.multi_matched),
        "top_level": {c.id: rolled[c.id] for c in taxonomy if c.parent is None},
    }
    return [artifact], summary, f"{result.vocabulary_size} words, {uncategorized} uncategorized"


def _stage_pronouns(ctx: Context, run_dir: Path) -> Rendered:
    from .coding import format_ratio, pronouns_csv

    report = ctx.pronouns
    artifact = _write_text(run_dir, "pronouns.csv", pronouns_csv(report))
    them, us, ratio = report.them_total, report.us_total, format_ratio(report.ratio)
    summary = {"them_total": them, "us_total": us, "ratio": ratio}
    return [artifact], summary, f"them {them} / us {us} (ratio {ratio})"


def _stage_sentiment(ctx: Context, run_dir: Path) -> Rendered:
    from .sentiment import power_csv

    report = ctx.power
    artifact = _write_text(run_dir, "power.csv", power_csv(report))
    summary = {
        "rows": len(report.ngrams),
        "distinct_2grams": len(ctx.token_counts[1]),
        "sum_power": report.sum_power,
    }
    return [artifact], summary, f"{len(report.ngrams)} n-grams, sum power {report.sum_power}"


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


# The stages that tokenize document text. The rest read tags, or write the
# corpus, and share nothing with these but the kept documents' texts. These
# come last in STAGES, so a serial run renders every other stage first.
_TEXT_STAGES = ("coding", "pronouns", "sentiment")


def _in_stage(name: str, step: Callable[[], Any]) -> Any:
    """step(), a DataError it raises prefixed with the stage name."""
    try:
        return step()
    except DataError as exc:
        raise DataError(f"stage {name}: {exc}") from exc


def _render(
    names: list[str], ctx: Context, build_dir: Path, start: float | None = None
) -> list[StageResult]:
    """Render the named stages in order into build_dir. The first stage's
    seconds count from `start` when it is given."""
    results = []
    start = perf_counter() if start is None else start
    for name in names:
        artifacts, summary, headline = _in_stage(name, partial(_STAGES[name], ctx, build_dir))
        end = perf_counter()
        results.append(StageResult(name, tuple(artifacts), summary, headline, end - start))
        start = end
    return results


def _reap(pid: int, kill: bool) -> int:
    """The exit code of child pid, or minus the signal that ended it; pid
    is killed first if `kill`. A signal handler that raises during the
    wait (Ctrl-C) does not leave the child behind: it is killed and waited
    for again, then the exception goes on."""
    import signal

    interrupt: BaseException | None = None
    while True:
        if kill:
            os.kill(pid, signal.SIGKILL)
        try:
            _, status = os.waitpid(pid, 0)
        except ChildProcessError:  # already reaped: nothing to wait for
            raise
        except BaseException as exc:
            interrupt, kill = interrupt or exc, True
            continue
        if interrupt is not None:
            raise interrupt
        return os.waitstatus_to_exitcode(status)


# The kept texts cross from the loading process of a fork in chunks, each
# an 8-byte length and a marshalled list of texts; a length of 0 ends them
# after a load that returned, and _CUT after one that raised. The pickled
# outcome follows, up to EOF. marshal, which the interpreter has always
# loaded, as pickle costs every command its import.
_TEXTS_PER_CHUNK = 256
_LENGTH = 8
_END = bytes(_LENGTH)
_CUT = b"\xff" * _LENGTH


def _write_all(fd: int, data: bytes) -> None:
    """Write data to fd whole, however little of it each os.write takes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _TextSender:
    """Sends the texts it is called with down the pipe fd, a chunk at a
    time, each chunk in one frame."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.texts: list[str] = []

    def __call__(self, text: str) -> None:
        self.texts.append(text)
        if len(self.texts) == _TEXTS_PER_CHUNK:
            self._send(marshal.dumps(self.texts))
            self.texts = []

    def end(self) -> None:
        """Send the texts not yet sent, then the end mark."""
        if self.texts:
            self._send(marshal.dumps(self.texts))
        self._send(b"")

    def _send(self, chunk: bytes) -> None:
        _write_all(self.fd, len(chunk).to_bytes(_LENGTH, "little") + chunk)


def _frames(pipe: BinaryIO) -> Iterator[bytes]:
    """The chunks a _TextSender sent down pipe, up to its end mark. A
    stream that ends otherwise, at a cut mark or at EOF, raises, so its
    texts are never counted whole."""
    while (head := pipe.read(_LENGTH)) != _END:
        size = int.from_bytes(head, "little")
        if len(head) < _LENGTH or head == _CUT or len(chunk := pipe.read(size)) < size:
            raise RuntimeError("the corpus texts ended before their end mark")
        yield chunk


def _keep_to(cpus: list[int]) -> None:
    """Run this process on cpus alone, where the platform and host allow."""
    with suppress(AttributeError, OSError):
        os.sched_setaffinity(0, cpus)


def _render_beside(
    ctx: Context, build_dir: Path, tag_side: list[str], text_side: list[str], cpus: list[int]
) -> list[StageResult]:
    """Render tag_side in a forked child, which loads the corpus and streams
    its kept texts to this process, while this process renders text_side
    over them, each on its own half of cpus, or renders both here when the
    fork fails. Returns the results in stage order, or raises the error a
    serial run would have raised first: the tag side's, as it runs first."""
    import pickle

    # The child's load is timed, and its faults named, as the first stage.
    start = perf_counter()
    pipe_fds: tuple[int, ...] = ()
    payload = None
    try:
        pipe_fds = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare, as under a limit
        for fd in pipe_fds:
            os.close(fd)
        return _render(tag_side + text_side, ctx, build_dir, start)
    read_fd, write_fd = pipe_fds
    if pid == 0:
        # The child leaves through os._exit alone, so it runs none of the
        # caller's cleanup or atexit hooks and flushes none of its stdio.
        exit_code = 1
        try:
            os.close(read_fd)
            _keep_to(cpus[len(cpus) // 2 :])
            try:
                sender = ctx.on_kept = _TextSender(write_fd)
                try:
                    _in_stage(tag_side[0], lambda: ctx.loaded)
                except BaseException:
                    _write_all(write_fd, _CUT)
                    raise
                sender.end()
                outcome: Any = _render(tag_side, ctx, build_dir, start)
            except BaseException as exc:
                outcome = exc
            _write_all(write_fd, pickle.dumps(outcome))
            exit_code = 0
        finally:
            os._exit(exit_code)
    try:
        os.close(write_fd)
        _keep_to(cpus[: len(cpus) // 2])
        with os.fdopen(read_fd, "rb") as pipe:
            frames = _frames(pipe)
            ctx.texts = chain.from_iterable(map(marshal.loads, frames))
            try:
                own: Any = _render(text_side, ctx, build_dir)
            except Exception as exc:
                own = exc
            # Read past any texts the text stages did not walk, then the
            # outcome to EOF before waiting, so the child never blocks on a
            # full pipe. A stream cut short leaves its error to the outcome.
            with suppress(RuntimeError):
                deque(frames, 0)
            payload = pipe.read()
    finally:
        _keep_to(cpus)
        code = _reap(pid, kill=payload is None)
    if not payload:
        cause = f"exit code {code}" if code >= 0 else f"killed by signal {-code}"
        raise RuntimeError(f"the tag stages' process sent no result ({cause})")
    theirs = pickle.loads(payload)
    for outcome in (theirs, own):
        if isinstance(outcome, BaseException):
            raise outcome
    return theirs + own


def run_pipeline(config: Config, ctx: Context | None = None) -> RunManifest:
    """Render config's stages in ctx, a Context of config.values that has
    computed nothing yet, or a new one."""
    import shutil
    import tempfile

    corpus_cfg = config["corpus"]
    run_cfg = config["run"]
    if not corpus_cfg["path"]:
        raise DataError("corpus.path is required")
    enabled = [s for s in STAGES if s in run_cfg["stages"]]

    run_id = config.digest
    out_dir = Path(run_cfg["out_dir"])
    run_dir = out_dir / run_id
    # Stages write into staging/<run_id>, renamed to run_dir once the
    # manifest is written; whatever is left in staging is deleted.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".building-", dir=out_dir))
    except OSError as exc:
        raise DataError(f"run.out_dir: {exc}") from exc
    try:
        build_dir = staging / run_id
        build_dir.mkdir()
        try:
            corpus_digest = file_digest(corpus_cfg["path"])
        except DataError as exc:
            raise DataError(f"corpus.path: {exc}") from exc
        ctx = Context(config.values) if ctx is None else ctx
        tag_side = [name for name in enabled if name not in _TEXT_STAGES]
        text_side = [name for name in enabled if name in _TEXT_STAGES]
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = sorted(affinity(0)) if affinity else list(range(os.cpu_count() or 1))
        if min(run_cfg["jobs"], len(cpus)) > 1 and tag_side and text_side and hasattr(os, "fork"):
            results = _render_beside(ctx, build_dir, tag_side, text_side, cpus)
        else:
            results = _render(enabled, ctx, build_dir)
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
