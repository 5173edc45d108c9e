#!/usr/bin/env python3
"""socmine benchmark: seeded corpora, closed-loop jobs, checked outputs.

Run from the repository root:

    python3 perfbench/run.py                     # every workload, default seed
    python3 perfbench/run.py --workload full_run --seed 7 --seconds 20 --trace 0

For each workload the benchmark generates a corpus from the seed, recounts
the expected results with its own checker, runs one untimed reference job
(checked independently; at jobs=1 on full_run), times the import-and-parse
set-up several times, then runs jobs back to back for --seconds. Each timed
job's outputs must be byte-identical to the reference's. A fixed calibration
process runs between timed processes, and times are scaled by it to a
reference host speed (see CALIBRATION); the raw medians are printed too.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload in
this process instead, alternating traced and untraced jobs, and reports the
per-layer metrics; the first traced job's spans are written to
.bench_work/trace-<workload>-<seed>.json.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when any output check failed, 2 when socmine's sources
are not found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "socmine" / "data"
WORK = ROOT / ".bench_work"

import checker  # noqa: E402
import corpusgen  # noqa: E402
from workloads import WORKLOADS, Workload, cli_commands  # noqa: E402

DEFAULT_SEED = 20130522
# Held out: use only to confirm a claim made on other seeds.
HELDOUT_SEED = 7919
DEFAULT_SECONDS = 20
MIN_JOBS = 3
SETUP_PROBES = 5
JOB_TIMEOUT_S = 120

SOCMINE = [sys.executable, "-c", "import sys; from socmine.cli import main; sys.exit(main())"]
# Set-up probe: import the CLI and parse the job's arguments and config, then exit.
PROBE = [
    sys.executable,
    "-c",
    "import json, sys\n"
    "import socmine, socmine.cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    args = socmine.cli.build_parser().parse_args(argv)\n"
    "    if argv[0] == 'run':\n"
    "        socmine.load_config(args.config)\n",
]

# On a shared host the same socmine job took anywhere from 1.0 to 2.3 s as the
# neighbours' load changed over minutes. A fixed calibration process run next
# to each timed process slows down with it, so times are reported as measured
# x CAL_REF_S / the mean of the calibrations just before and after: seconds
# at the host speed where the calibration takes CAL_REF_S.
CALIBRATION = [sys.executable, str(HERE / "calibrate.py")]
CAL_REF_S = 0.4

END_TO_END = [
    ("wall_s", "s"),
    ("docs_per_s", "docs/s"),
    ("cmd_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])


@dataclass
class Setup:
    workload: Workload
    seed: int
    dir: Path
    corpus: Path
    config: Path
    exp: checker.Expected
    planted: dict[str, int]
    commands: list[list[str]]

    @property
    def docs_per_job(self) -> int:
        return self.exp.records_read * max(1, len(self.commands))


def prepare(workload: Workload, seed: int) -> Setup:
    """Generate the corpus and config, and recount what the outputs must hold."""
    run_dir = WORK / f"{workload.name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    corpus = run_dir / "corpus.jsonl"
    planted = corpusgen.write_corpus(workload.corpus, seed, corpus)
    config = run_dir / "pipeline.yaml"
    corpus_cfg = {} if workload.is_cli else workload.pipeline_config()["corpus"]
    if not workload.is_cli:
        workload.write_config(config)
    exp = checker.expect(
        corpus, DATA / "stopwords_pl.txt", corpusgen.PRONOUNS,
        window=corpus_cfg.get("window", ""), min_tags=corpus_cfg.get("min_tags", 0),
    )
    commands = []
    if workload.is_cli:
        commands = cli_commands(str(corpus), [tag for tag, _ in exp.ranked_tags(2)])
    return Setup(workload, seed, run_dir, corpus, config, exp, planted, commands)


# -- out-of-process jobs --------------------------------------------------------


def spawn(argv: list[str], stdout: Path) -> tuple[float, float, int, str]:
    """Run one process; return wall seconds, peak RSS in MiB, exit code, stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    err = stdout.with_suffix(".err")
    with stdout.open("wb") as out, err.open("wb") as errs:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=errs, env=env, cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err.read_text(errors="replace")


def run_job(setup: Setup, out: Path, jobs: int | None = None) -> tuple[list[float], float, list[str]]:
    """One job: `socmine run`, or one round of the seven subcommands.

    Returns per-invocation wall seconds, the job's peak RSS and problems.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if setup.commands:
        argvs = [SOCMINE + command for command in setup.commands]
    else:
        argv = SOCMINE + ["run", "--config", str(setup.config), "--out-dir", str(out / "runs")]
        argvs = [argv + (["--jobs", str(jobs)] if jobs else [])]
    walls, peak, problems = [], 0.0, []
    for i, argv in enumerate(argvs):
        seconds, rss, code, stderr = spawn(argv, out / f"{i}.stdout")
        walls.append(seconds)
        peak = max(peak, rss)
        if code != 0:
            problems.append(f"{' '.join(argv[3:5])}: exit {code}: {stderr.strip()[-300:]}")
    return walls, peak, problems


def check_job(setup: Setup, out: Path) -> list[str]:
    """Check one job's outputs independently of socmine."""
    if setup.commands:
        problems = []
        for i, command in enumerate(setup.commands):
            text = (out / f"{i}.stdout").read_text(encoding="utf-8")
            problems += checker.guarded(checker.check_cli_output, command, text, setup.exp, setup.planted)
        return problems
    run_dirs = [p for p in (out / "runs").iterdir() if p.is_dir()]
    if len(run_dirs) != 1:
        return [f"expected one run directory, found {len(run_dirs)}"]
    config = json.loads(setup.config.read_text(encoding="utf-8"))
    config = _merged(config)
    return checker.guarded(checker.check_run_dir, run_dirs[0], config, setup.exp, setup.planted)


def _merged(config: dict[str, Any]) -> dict[str, Any]:
    """Lay the workload config over the defaults the checks read."""
    defaults = {
        "corpus": {"window": "", "min_tags": 0},
        "run": {"stages": ["ingest", "tags", "pairs", "graph", "timeline", "coding", "pronouns", "sentiment"]},
        "graph": {"threshold": 2, "format": "dot"},
        "timeline": {"top": 5, "formats": ["csv", "svg"]},
        "coding": {"min_freq": 1},
        "sentiment": {"min_freq": 2},
    }
    for section, values in config.items():
        defaults.setdefault(section, {}).update(values)
    return defaults


def outputs(setup: Setup, out: Path) -> Path:
    """What a job's outputs are: the run directory tree, or the commands' stdout."""
    return out if setup.commands else out / "runs"


def measure(setup: Setup, seconds: float) -> tuple[dict[str, tuple[float, int]], Outcome, list[str]]:
    """Untraced closed loop; returns metric -> (value, samples), the outcome and notes."""
    outcome = Outcome()
    reference = setup.dir / "reference"
    jobs = 1 if setup.workload.config.get("run", {}).get("jobs", 1) > 1 else None
    _, _, problems = run_job(setup, reference, jobs=jobs)
    if not problems:
        problems = check_job(setup, reference)
    problems += checker.check_planted(setup.exp, setup.planted)
    outcome.record(problems)
    # Jobs that match a reference that failed its check are wrong too.
    reference_problems = ["reference job failed its output check"] if problems else []

    calibrations: list[float] = []

    def speed_factor() -> float:
        """Run the calibration; return CAL_REF_S over the mean of it and the previous one."""
        cal_s, _, code, stderr = spawn(CALIBRATION, setup.dir / "calibration.stdout")
        if code:
            outcome.record([f"calibration: exit {code}: {stderr.strip()[-300:]}"])
        calibrations.append(cal_s)
        return CAL_REF_S / statistics.fmean(calibrations[-2:])

    # The probes are short, so one calibration pair brackets all of them.
    speed_factor()
    probe_argv = setup.commands or [["run", "--config", str(setup.config)]]
    raw_setup = []
    for _ in range(SETUP_PROBES):
        probe_s, _, code, stderr = spawn(PROBE + [json.dumps(probe_argv)], setup.dir / "probe.stdout")
        raw_setup.append(probe_s)
        outcome.record([f"set-up probe: exit {code}: {stderr.strip()[-300:]}"] if code else [])
    factor = speed_factor()
    setup_times = [probe_s * factor for probe_s in raw_setup]

    job_walls, invocation_walls, peaks, raw_walls = [], [], [], []
    out = setup.dir / "out"
    deadline = time.perf_counter() + seconds
    last_s = 0.0
    # Start a job only if it should end by the deadline, once MIN_JOBS are in.
    while len(job_walls) < MIN_JOBS or time.perf_counter() + last_s < deadline:
        start = time.perf_counter()
        walls, peak, problems = run_job(setup, out)
        wall = time.perf_counter() - start if setup.commands else walls[0]
        factor = speed_factor()
        last_s = time.perf_counter() - start
        raw_walls.append(wall)
        job_walls.append(wall * factor)
        invocation_walls.extend(w * factor for w in walls)
        peaks.append(peak)
        if not problems:
            problems = reference_problems or checker.compare_trees(
                outputs(setup, reference), outputs(setup, out)
            )
        outcome.record(problems)

    wall = statistics.median(job_walls)
    metrics = {
        "wall_s": (wall, len(job_walls)),
        "docs_per_s": (setup.docs_per_job / wall, len(job_walls)),
        "cmd_p50_s": (statistics.median(invocation_walls), len(invocation_walls)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mib": (statistics.median(peaks), len(peaks)),
    }
    notes = [
        f"as measured: wall_s {statistics.median(raw_walls):.6f} s, setup_s {statistics.median(raw_setup):.6f} s; "
        f"calibration {statistics.median(calibrations):.6f} s (reference {CAL_REF_S} s, n={len(calibrations)})"
    ]
    return metrics, outcome, notes


# -- traced, in-process jobs ----------------------------------------------------


STAGES = ("ingest", "tags", "pairs", "graph", "timeline", "coding", "pronouns", "sentiment")
COMMANDS = ("tags", "pairs", "graph", "timeline", "code", "pronouns", "sentiment")


class LayerView:
    """Per-name sums over one traced job, for the per-layer metric table."""

    def __init__(self, tracer, docs: int) -> None:
        span_self, call_self = tracer.self_seconds()
        self.s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.n: dict[str, int] = {}
        for span in tracer.spans:
            self.s[span.name] = self.s.get(span.name, 0.0) + span.seconds
            self.self_s[span.name] = self.self_s.get(span.name, 0.0) + span_self[span.id]
            self.n[span.name] = self.n.get(span.name, 0) + 1
        self.items: dict[str, int] = {}
        for (parent, name), (calls, seconds, items) in tracer.aggregates().items():
            self.s[name] = self.s.get(name, 0.0) + seconds
            self.self_s[name] = self.self_s.get(name, 0.0) + call_self[(parent, name)]
            self.n[name] = self.n.get(name, 0) + calls
            self.items[name] = self.items.get(name, 0) + items
        self.counters = tracer.counters
        self.rss_delta_mib = tracer.rss_delta_mib
        self.docs = docs
        manifest = tracer.captured.get("manifest")
        self.stages = {s.name: s.seconds for s in manifest.stages} if manifest else {}
        coverage = tracer.coverage()
        total = sum(c["seconds"] for c in coverage)
        self.coverage = sum(c["covered"] for c in coverage) / total if total else 0.0


def _s(name: str) -> Callable[[LayerView], float]:
    return lambda v: v.s.get(name, 0.0)


def _self(name: str) -> Callable[[LayerView], float]:
    return lambda v: v.self_s.get(name, 0.0)


def _n(name: str) -> Callable[[LayerView], float]:
    return lambda v: v.n.get(name, 0)


def _c(name: str) -> Callable[[LayerView], float]:
    return lambda v: v.counters.get(name, 0)


def _stage(name: str) -> Callable[[LayerView], float]:
    return lambda v: v.stages.get(name, 0.0)


# (metric, unit, better, value from one traced job, or None when measured once
# per run). Layers a workload does not call read 0 there.
PER_LAYER: list[tuple[str, str, str, Callable[[LayerView], float] | None]] = [
    ("corpus.load_corpus.s", "s", "lower", _s("corpus.load_corpus")),
    ("corpus.load_corpus.records_read", "count", "lower", _c("corpus.load_corpus.records_read")),
    ("corpus.load_corpus.dropped.out_of_window", "count", "lower",
     _c("corpus.load_corpus.dropped.out_of_window")),
    ("corpus.load_corpus.rss_delta_mib", "MiB", "lower", None),
    ("corpus.filter_multi_tag.s", "s", "lower", _s("corpus.filter_multi_tag")),
    ("corpus.filter_multi_tag.docs_dropped", "count", "lower", _c("corpus.filter_multi_tag.docs_dropped")),
    ("corpus.write_corpus.s", "s", "lower", _s("corpus.write_corpus")),
    ("ngrams.count_tags.s", "s", "lower", _s("ngrams.count_tags")),
    ("ngrams.count_tag_pairs.s", "s", "lower", _s("ngrams.count_tag_pairs")),
    ("ngrams.count_tag_pairs.keys_out", "count", "lower", _c("ngrams.count_tag_pairs.keys_out")),
    ("ngrams.top_k.calls", "count", "lower", _n("ngrams.top_k")),
    ("ngrams.top_k.s", "s", "lower", _s("ngrams.top_k")),
    ("ngrams.top_k.entries_sorted", "count", "lower", _c("ngrams.top_k.entries_sorted")),
    ("ngrams.counts_to_csv.s", "s", "lower", _s("ngrams.counts_to_csv")),
    ("ngrams.counts_to_csv.bytes_out", "bytes", "lower", _c("ngrams.counts_to_csv.bytes_out")),
    ("ngrams.count_token_2grams.self_s", "s", "lower", _self("ngrams.count_token_2grams")),
    ("ngrams.count_token_2grams.keys_out", "count", "lower", _c("ngrams.count_token_2grams.keys_out")),
    ("graph.build_graph.s", "s", "lower", _s("graph.build_graph")),
    ("graph.components.s", "s", "lower", _s("graph.components")),
    ("graph.dyad_report.s", "s", "lower", _s("graph.dyad_report")),
    ("graph.export_graph.s", "s", "lower", _s("graph.export_graph")),
    ("graph.export_graph.bytes_out", "bytes", "lower", _c("graph.export_graph.bytes_out")),
    ("timeline.cumulative_series_bulk.s", "s", "lower", _s("timeline.cumulative_series_bulk")),
    ("timeline.classify_shape.s", "s", "lower", _s("timeline.classify_shape")),
    ("timeline.export_timeline.s", "s", "lower", _s("timeline.export_timeline")),
    ("text.tokenize.calls", "count", "lower", _n("text.tokenize")),
    ("text.tokenize.s", "s", "lower", _s("text.tokenize")),
    ("text.tokenize.tokens_out", "count", "lower", lambda v: v.items.get("text.tokenize", 0)),
    ("text.tokenize.calls_per_doc", "calls/doc", "lower", lambda v: v.n.get("text.tokenize", 0) / v.docs),
    ("text.remove_stopwords.s", "s", "lower", _s("text.remove_stopwords")),
    ("coding.code_vocabulary.self_s", "s", "lower", _self("coding.code_vocabulary")),
    ("coding.code_vocabulary.vocabulary", "count", "higher", _c("coding.code_vocabulary.vocabulary")),
    ("coding.pronoun_orientation.self_s", "s", "lower", _self("coding.pronoun_orientation")),
    ("sentiment.power_report.self_s", "s", "lower", _self("sentiment.power_report")),
    ("sentiment.score_text.calls", "count", "lower", _n("sentiment.score_text")),
    ("sentiment.score_text.self_s", "s", "lower", _self("sentiment.score_text")),
    *[(f"report.stage.{stage}.s", "s", "lower", _stage(stage)) for stage in STAGES],
    ("report.run_pipeline.self_s", "s", "lower",
     lambda v: max(0.0, v.s.get("report.run_pipeline", 0.0) - sum(v.stages.values()))),
    ("config.load_config.s", "s", "lower", _s("config.load_config")),
    ("config.file_digest.s", "s", "lower", _s("config.file_digest")),
    *[(f"cli.main.{command}.s", "s", "lower", _s(f"cli.main.{command}")) for command in COMMANDS],
    ("cli.import_s", "s", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
    ("trace.coverage", "fraction", "higher", lambda v: v.coverage),
]


def run_inprocess(setup: Setup, cli_main, out: Path) -> list[str]:
    """One job through socmine.cli.main in this process; returns problems."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    problems = []
    argvs = setup.commands or [["run", "--config", str(setup.config), "--out-dir", str(out / "runs")]]
    for i, argv in enumerate(argvs):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(argv)
        (out / f"{i}.stdout").write_text(buffer.getvalue(), encoding="utf-8")
        if code != 0:
            problems.append(f"{argv[0]}: exit {code}")
    return problems


def trace(setup: Setup, seconds: float) -> tuple[dict[str, tuple[float, int]], Outcome, list[str]]:
    """Alternate traced and untraced in-process jobs; return per-layer metrics."""
    import spans

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import socmine.cli

    import_s = time.perf_counter() - start
    if not Path(socmine.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"socmine was imported from {socmine.cli.__file__}, not {SRC}")

    outcome = Outcome()
    pending = checker.check_planted(setup.exp, setup.planted)
    views: list[LayerView] = []
    traced_walls, plain_walls = [], []
    reference = setup.dir / "reference"
    out = setup.dir / "out"
    first_tracer = None
    deadline = time.perf_counter() + seconds
    i = 0
    while not (traced_walls and plain_walls) or time.perf_counter() < deadline:
        traced = i % 2 == 0
        tracer = spans.Tracer(f"{setup.workload.name}-{setup.seed}-{i}") if traced else None
        if tracer:
            tracer.install()
        job_start = time.perf_counter()
        try:
            problems = run_inprocess(setup, socmine.cli.main, out)
        finally:
            wall = time.perf_counter() - job_start
            if tracer:
                tracer.uninstall()
        (traced_walls if traced else plain_walls).append(wall)
        if not problems:
            if reference.exists():
                problems = checker.compare_trees(outputs(setup, reference), outputs(setup, out))
            else:
                problems = check_job(setup, out) + pending
                if not problems:
                    out.rename(reference)
        outcome.record(problems)
        if tracer:
            views.append(LayerView(tracer, setup.exp.docs))
            first_tracer = first_tracer or tracer
        i += 1

    measured_once = {
        "cli.import_s": (import_s, 1),
        "trace.overhead_ratio": (
            statistics.median(traced_walls) / statistics.median(plain_walls),
            min(len(traced_walls), len(plain_walls)),
        ),
        # Later jobs reuse memory the first one freed.
        "corpus.load_corpus.rss_delta_mib": (views[0].rss_delta_mib, 1),
    }
    metrics = {
        name: measured_once.get(name) or (statistics.median(value(v) for v in views), len(views))
        for name, _, _, value in PER_LAYER
    }

    notes = []
    for unit in first_tracer.coverage():
        line = f"coverage {unit['unit']:<16} {unit['coverage']:6.1%} of {unit['seconds']:.3f} s"
        if "unwrapped" in unit:
            line += "  unwrapped: " + ", ".join(unit["unwrapped"])
        notes.append(line)
    for name, why in sorted(first_tracer.absent.items()):
        notes.append(f"absent {name}: {why}")
    dump = WORK / f"trace-{setup.workload.name}-{setup.seed}.json"
    first_tracer.dump(dump, {"workload": setup.workload.name, "seed": setup.seed})
    notes.append(f"trace dump: {dump.relative_to(ROOT)}")
    return metrics, outcome, notes


# -- reporting --------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    workload = WORKLOADS[name]
    setup_start = time.perf_counter()
    setup = prepare(workload, seed)
    print(f"[{name}] seed {seed}: {setup.exp.records_read} docs generated, {setup.exp.docs} analysed, "
          f"prepared in {time.perf_counter() - setup_start:.2f} s", flush=True)
    if traced:
        metrics, outcome, notes = trace(setup, seconds)
        units = {metric: unit for metric, unit, _, _ in PER_LAYER}
    else:
        metrics, outcome, notes = measure(setup, seconds)
        units = dict(END_TO_END)
    for metric, (value, samples) in metrics.items():
        print(f"[{name}] {metric:<42} {value:14.6f} {units[metric]:<9} n={samples}")
    error_rate = outcome.failed / outcome.attempted
    print(f"[{name}] {'error_rate':<42} {error_rate:14.6f} {'fraction':<9} n={outcome.attempted}")
    for note in notes:
        print(f"[{name}] {note}")
    for problem in outcome.problems:
        print(f"[{name}] CHECK FAILED: {problem}")
    shutil.rmtree(setup.dir, ignore_errors=True)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socmine" / "cli.py").is_file():
        print(f"error: socmine sources not found under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
