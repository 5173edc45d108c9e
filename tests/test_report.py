import atexit
import contextlib
import csv
import errno
import io
import json
import marshal
import os
import signal
import time
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import socmine.report
from helpers import FIXTURES, pin_cpus
from socmine.config import STAGES, make_config
from socmine.errors import DataError
from socmine.cli import main
from socmine.report import MANIFEST_NAME, Context, run_pipeline

SMALL = """\
{"id": "a", "ts": "2013-05-20T10:00:00Z", "text": "policja używa gazu", "tags": ["riots", "police"]}
{"id": "b", "ts": "2013-05-21T10:00:00Z", "text": "oni i my", "tags": ["riots", "police"]}
{"id": "c", "ts": "2013-05-22T10:00:00Z", "text": "szwedzka policja szwedzka policja", "tags": ["riots", "husby"]}
{"id": "d", "ts": "2013-05-23T10:00:00Z", "text": "spokojny dzień", "tags": ["husby"]}
"""


@pytest.fixture()
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(SMALL, encoding="utf-8")
    return tmp_path


@pytest.fixture(autouse=True, scope="module")
def _two_cpus():
    # A jobs-2 run here tests the fork, which a run on one CPU does not
    # take; the decision's own tests pin their CPUs themselves.
    with pytest.MonkeyPatch.context() as monkeypatch:
        pin_cpus(monkeypatch, 2)
        yield


def _config(workspace, **sections):
    overrides = {
        "corpus": {"path": "corpus.jsonl"},
        "run": {"out_dir": "runs"},
        "timeline": {"tags": ["riots", "police"]},
        "sentiment": {"min_freq": 1},
    }
    for section, mapping in sections.items():
        overrides.setdefault(section, {}).update(mapping)
    return make_config(overrides, base_dir=workspace)


def _files(manifest):
    """The run directory's files and their bytes."""
    return {p.name: p.read_bytes() for p in Path(manifest.run_dir).iterdir()}


def test_pipeline_writes_all_artifacts_and_manifest(workspace):
    manifest = run_pipeline(_config(workspace))
    run_dir = Path(manifest.run_dir)
    assert run_dir.name == manifest.run_id
    assert run_dir.parent == workspace / "runs"
    expected = {
        "corpus.jsonl", "tags.csv", "pairs.csv", "graph.dot", "dyads.csv",
        "timeline.csv", "timeline.svg", "coding.csv", "pronouns.csv",
        "power.csv", MANIFEST_NAME,
    }
    assert {p.name for p in run_dir.iterdir()} == expected
    stage_names = [s.name for s in manifest.stages]
    assert stage_names == [
        "ingest", "tags", "pairs", "graph", "timeline", "coding",
        "pronouns", "sentiment",
    ]


def test_manifest_embeds_no_jobs_or_timings(workspace):
    manifest = run_pipeline(_config(workspace, run={"jobs": 3}))
    payload = json.loads((Path(manifest.run_dir) / MANIFEST_NAME).read_text())
    assert "jobs" not in payload["config"]["run"]
    assert "out_dir" not in payload["config"]["run"]
    assert payload["corpus_digest"]
    for stage in payload["stages"]:
        assert set(stage) == {"name", "artifacts", "summary"}
    # timings exist in memory for the console view only
    assert all(s.seconds >= 0 for s in manifest.stages)
    assert "manifest:" in manifest.console_summary()


# The console line of each stage of the default run on the two fixtures;
# forum.jsonl has no hashtags, so its timeline has nothing to plot.
CONSOLE = {
    "twitter": [
        "6320 of 6320 records kept",
        "5217 distinct tags",
        "5204 distinct pairs",
        "6 nodes, 7 edges",
        "migpol:linear, sthlmriot:linear, sthlmriots:linear, stockholm:linear, svpol:linear",
        "1 words, 1 uncategorized",
        "them 0 / us 0 (ratio inf)",
        "0 n-grams, sum power 0",
    ],
    "forum": [
        "525 of 525 records kept",
        "0 distinct tags",
        "0 distinct pairs",
        "0 nodes, 0 edges",
        "no tags to plot",
        "34 words, 31 uncategorized",
        "them 170 / us 18 (ratio 9.4444)",
        "32 n-grams, sum power -8",
    ],
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fixture", sorted(CONSOLE))
def test_console_summary_gives_each_stage_its_line(tmp_path, fixture, jobs):
    config = make_config(
        {"corpus": {"path": str(FIXTURES / f"{fixture}.jsonl")},
         "run": {"out_dir": "runs", "jobs": jobs}},
        base_dir=tmp_path,
    )
    manifest = run_pipeline(config)
    # Each stage's own seconds stand in for the timings, which vary.
    assert manifest.console_summary().splitlines() == [
        f"run {manifest.run_id[:12]} -> {manifest.run_dir}",
        *(f"  {stage.name:<10} {stage.seconds:7.3f}s  {line}"
          for stage, line in zip(manifest.stages, CONSOLE[fixture], strict=True)),
        f"manifest: {manifest.run_dir / MANIFEST_NAME}",
    ]
    assert [stage.name for stage in manifest.stages] == list(STAGES)


def test_rerun_is_byte_identical_across_jobs(workspace):
    first = run_pipeline(_config(workspace, run={"jobs": 1, "out_dir": "runs_a"}))
    second = run_pipeline(_config(workspace, run={"jobs": 7, "out_dir": "runs_b"}))
    assert first.run_id == second.run_id
    files_a = sorted(p.name for p in Path(first.run_dir).iterdir())
    files_b = sorted(p.name for p in Path(second.run_dir).iterdir())
    assert files_a == files_b
    for name in files_a:
        a = (Path(first.run_dir) / name).read_bytes()
        b = (Path(second.run_dir) / name).read_bytes()
        assert a == b, f"artifact {name} differs between runs"


def test_stage_subset_and_summaries(workspace):
    config = _config(workspace, run={"stages": ["tags", "pairs"]})
    manifest = run_pipeline(config)
    assert [s.name for s in manifest.stages] == ["tags", "pairs"]
    tags = manifest.stages[0].summary
    assert tags["distinct"] == 3
    assert tags["total"] == 7
    assert tags["top"][0] == ["riots", 3]
    names = {p.name for p in Path(manifest.run_dir).iterdir()}
    assert names == {"tags.csv", "pairs.csv", MANIFEST_NAME}


def test_top_0_summarizes_every_row(workspace):
    config = _config(
        workspace, run={"stages": ["tags", "pairs"]}, tags={"top": 0}, pairs={"top": 0}
    )
    for stage in run_pipeline(config).stages:
        summary = stage.summary
        assert len(summary["top"]) == summary["distinct"] > 0, stage.name
    assert summary["top"][0] == ["police", "riots", 2]


def test_timeline_with_no_tags_writes_no_file(tmp_path):
    # The default run, on a corpus without hashtags.
    config = make_config(
        {"corpus": {"path": str(FIXTURES / "forum.jsonl")}, "run": {"out_dir": "runs"}},
        base_dir=tmp_path,
    )
    manifest = run_pipeline(config)
    assert [s.name for s in manifest.stages] == list(STAGES)
    timeline = manifest.stages[STAGES.index("timeline")]
    assert timeline.artifacts == ()
    assert timeline.summary == {"tags": [], "shapes": {}}
    assert not list(Path(manifest.run_dir).glob("timeline.*"))


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_text_stages_tokenize_each_document_once(workspace, monkeypatch):
    import socmine.coding
    import socmine.ngrams
    import socmine.sentiment

    calls = {"tokenize": 0, "score_text": 0}
    # ngrams.count_tokens calls its module's binding; the others must stay
    # unused. At jobs 2 the walk runs in this process, over the texts the
    # process that loads the corpus streams to it.
    for module in (socmine.coding, socmine.ngrams, socmine.sentiment):
        monkeypatch.setattr(module, "tokenize", _counting(calls, "tokenize", module.tokenize))
    monkeypatch.setattr(
        socmine.sentiment, "score_text", _counting(calls, "score_text", socmine.sentiment.score_text)
    )
    for jobs, stages in product(
        (1, 2), (["ingest", "coding", "pronouns", "sentiment"], ["ingest", "sentiment"])
    ):
        calls.update(tokenize=0, score_text=0)
        config = _config(workspace, run={"stages": stages, "jobs": jobs})
        ctx = Context(config.values)
        manifest = run_pipeline(config, ctx)
        documents = manifest.stages[0].summary["documents"]
        assert documents == 4
        # Surface counts and 2-grams come from the same one walk.
        assert calls == {"tokenize": 1 * documents, "score_text": 0}, (jobs, stages)
        assert manifest.stages[-1].summary["distinct_2grams"] > 0
        # The text side never holds the corpus.
        assert ("loaded" in ctx.__dict__) == (jobs == 1)


def test_coding_and_pronouns_count_no_2grams(workspace, monkeypatch, capsys):
    import socmine.ngrams

    calls = {"remove_stopwords": 0}
    monkeypatch.setattr(
        socmine.ngrams,
        "remove_stopwords",
        _counting(calls, "remove_stopwords", socmine.ngrams.remove_stopwords),
    )
    for stage in ("coding", "pronouns"):
        manifest = run_pipeline(_config(workspace, run={"stages": [stage], "out_dir": stage}))
        assert [s.name for s in manifest.stages] == [stage]
    corpus = str(workspace / "corpus.jsonl")
    for command in ("code", "pronouns"):
        assert main([command, corpus]) == 0
    assert calls == {"remove_stopwords": 0}

    # So a pronouns-only run reads no stopword file, not even a bad one.
    (workspace / "stops.txt").write_text("nie_\n", encoding="utf-8")
    (workspace / "run.yaml").write_text(
        "corpus:\n  path: corpus.jsonl\ntext:\n  stopwords: stops.txt\n"
        "run:\n  stages: [pronouns]\n  out_dir: runs\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["run", "--config", str(workspace / "run.yaml")]) == 0
    assert capsys.readouterr().err == ""
    # With sentiment, the first text stage reads it, and the fault names the file's key.
    text = (workspace / "run.yaml").read_text(encoding="utf-8")
    (workspace / "run.yaml").write_text(
        text.replace("[pronouns]", "[pronouns, sentiment]"), encoding="utf-8"
    )
    assert main(["run", "--config", str(workspace / "run.yaml")]) == 2
    assert capsys.readouterr().err == (
        "error: stage pronouns: text.stopwords: line 1: stopword must be one token: 'nie_'\n"
    )


def test_context_without_sentiment_counts_no_2grams(workspace):
    config = _config(workspace, run={"stages": ["ingest", "coding", "pronouns"]})
    ctx = Context(config.values)
    surfaces, grams = ctx.token_counts
    assert surfaces["policja"] == 3 and len(grams) == 0


def test_manifest_counts_min_tags_drops(workspace):
    manifest = run_pipeline(_config(workspace, corpus={"min_tags": 2}, run={"stages": ["ingest"]}))
    summary = manifest.stages[0].summary
    assert summary["dropped"] == {"below_min_tags": 1}
    assert summary["records_read"] == 4
    assert summary["records_kept"] == summary["documents"] == 3


def test_min_tags_that_drops_every_document_fails_the_run(workspace):
    with pytest.raises(DataError, match="stage ingest: empty corpus after filtering"):
        run_pipeline(_config(workspace, corpus={"min_tags": 3}))
    assert list((workspace / "runs").iterdir()) == []


@pytest.mark.parametrize("tag", ["#", "ri ots"])
def test_timeline_tags_that_are_no_hashtag_fail_before_the_run(workspace, tag):
    with pytest.raises(DataError, match="timeline.tags"):
        run_pipeline(_config(workspace, timeline={"tags": ["riots", tag]}))
    assert not (workspace / "runs").exists()


def test_manifest_window_zero_pads_early_years(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(
        '{"id": "a", "ts": "0005-01-01T00:00:00Z", "text": "x"}\n'
        '{"id": "b", "ts": "0005-01-02T03:04:05Z", "text": "y"}\n',
        encoding="utf-8",
    )
    manifest = run_pipeline(_config(tmp_path, run={"stages": ["ingest"]}))
    assert manifest.stages[0].summary["window"] == [
        "0005-01-01T00:00:00Z", "0005-01-02T03:04:05Z"
    ]


def test_pipeline_ranks_each_table_once(workspace, monkeypatch):
    import socmine.graph
    import socmine.report

    ranked_sizes = []

    def counting(table):
        ranked_sizes.append(len(table))
        return socmine.ngrams.ranked(table)

    monkeypatch.setattr(socmine.report, "ranked", counting)
    stages = ["ingest", "tags", "pairs", "graph", "timeline"]
    config = _config(
        workspace,
        run={"stages": stages},
        graph={"whitelist_top": 2},
        timeline={"tags": [], "top": 2},
    )
    manifest = run_pipeline(config)
    # One sort of the 3 tags feeds tags.csv, its summary, the whitelist and
    # the timeline; one sort of the 2 pairs feeds pairs.csv, its summary and
    # the graph, which ranks nothing itself.
    assert ranked_sizes == [3, 2]
    assert "ranked" not in vars(socmine.graph)
    assert manifest.stages[4].summary["tags"] == ["husby", "riots"]


def test_dyads_csv_quotes_tags_with_commas(workspace):
    (workspace / "corpus.jsonl").write_text(
        '{"id": "a", "ts": "2013-05-20T10:00:00Z", "tags": ["a,b", "c"]}\n'
        '{"id": "b", "ts": "2013-05-21T10:00:00Z", "tags": ["c", "a,b"]}\n',
        encoding="utf-8",
    )
    config = _config(workspace, run={"stages": ["graph"]}, graph={"threshold": 1})
    run_dir = Path(run_pipeline(config).run_dir)
    with (run_dir / "dyads.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["tag_a", "tag_b", "weight", "ratio"], ["a,b", "c", "2", "1.0000"]]


def test_pipeline_requires_corpus_and_stages(workspace):
    with pytest.raises(DataError, match="^corpus.path is required$"):
        run_pipeline(make_config({}, base_dir=workspace))
    with pytest.raises(DataError, match="no stages"):
        _config(workspace, run={"stages": []})


def test_stage_errors_are_prefixed_and_run_dir_cleaned(workspace):
    config = _config(
        workspace,
        corpus={"path": "corpus.jsonl", "window": "2001-01-01..2001-01-02"},
    )
    out_root = workspace / "runs"
    with pytest.raises(DataError, match="stage ingest:"):
        run_pipeline(config)
    assert not out_root.exists() or not any(out_root.iterdir())


def test_failed_rerun_keeps_existing_run_dir(workspace):
    config = _config(workspace)
    manifest = run_pipeline(config)
    run_dir = Path(manifest.run_dir)
    assert run_dir.exists()
    # same digest, but now the corpus is gone: the old artifacts survive
    (workspace / "corpus.jsonl").unlink()
    with pytest.raises(DataError):
        run_pipeline(config)
    assert (run_dir / MANIFEST_NAME).exists()


def test_failed_rerun_leaves_every_file_untouched(workspace):
    taxonomy = workspace / "taxonomy.tsv"
    taxonomy.write_text("1\tPolice\n1\tpolicj\tprefix\n", encoding="utf-8")
    config = _config(
        workspace,
        run={"stages": ["ingest", "tags", "coding"]},
        coding={"taxonomy": "taxonomy.tsv"},
    )
    run_dir = Path(run_pipeline(config).run_dir)
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    # Same config, so same run directory; the taxonomy no longer loads, so
    # the coding stage fails after ingest and tags have written new artifacts.
    (workspace / "corpus.jsonl").write_text(
        '{"id": "z", "ts": "2013-05-20T10:00:00Z", "text": "nic", "tags": ["z"]}\n',
        encoding="utf-8",
    )
    taxonomy.write_text("1\tPolice\n2\tpolicj\tprefix\n", encoding="utf-8")
    with pytest.raises(DataError, match="stage coding: coding.taxonomy: line 2: unknown category id"):
        run_pipeline(config)
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == first
    assert [p.name for p in (workspace / "runs").iterdir()] == [run_dir.name]


def test_successful_rerun_replaces_the_run_dir(workspace):
    config = _config(workspace, run={"stages": ["tags"]})
    run_dir = Path(run_pipeline(config).run_dir)
    (run_dir / "stray.txt").write_text("left over", encoding="utf-8")
    (workspace / "corpus.jsonl").write_text(
        SMALL.replace('"husby"]', '"husby", "kista"]'), encoding="utf-8"
    )
    assert Path(run_pipeline(config).run_dir) == run_dir
    assert sorted(p.name for p in run_dir.iterdir()) == [MANIFEST_NAME, "tags.csv"]
    assert "kista,2" in (run_dir / "tags.csv").read_text(encoding="utf-8")
    assert [p.name for p in (workspace / "runs").iterdir()] == [run_dir.name]


def test_config_timeline_tags_are_normalized(workspace):
    config = _config(
        workspace,
        corpus={"aliases": {"upplopp": "riots"}},
        run={"stages": ["timeline"]},
        timeline={"tags": ["#Upplopp", "POLICE"]},
    )
    manifest = run_pipeline(config)
    assert manifest.stages[0].summary["tags"] == ["police", "riots"]
    rows = (Path(manifest.run_dir) / "timeline.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "date,police,riots"
    assert rows[-1].endswith(",2,3")


def test_pipeline_on_bundled_fixture_corpus(tmp_path):
    config = make_config(
        {
            "corpus": {
                "path": str(FIXTURES / "twitter.jsonl"),
                "window": "2013-05-15..2013-07-15",
                "min_tags": 2,
            },
            "run": {"stages": ["tags", "graph"], "out_dir": str(tmp_path / "runs")},
            "graph": {"threshold": 38},
        },
        base_dir=tmp_path,
    )
    manifest = run_pipeline(config)
    graph_summary = manifest.stages[1].summary
    assert graph_summary["edges"] == 5
    dyads = (Path(manifest.run_dir) / "dyads.csv").read_text(encoding="utf-8")
    assert dyads.splitlines()[1] == "sthlmriots,svpol,533,1.0000"


def test_a_run_over_its_own_corpus_jsonl_writes_the_same_artifacts(tmp_path):
    first = run_pipeline(make_config(
        {"corpus": {"path": str(FIXTURES / "twitter.jsonl")}, "run": {"out_dir": "runs"}},
        base_dir=tmp_path,
    ))
    again = run_pipeline(make_config(
        {"corpus": {"path": str(first.run_dir / "corpus.jsonl")}, "run": {"out_dir": "again"}},
        base_dir=tmp_path,
    ))
    # Only the manifest, which holds the corpus path and digest, differs.
    written, rewritten = _files(first), _files(again)
    del written[MANIFEST_NAME], rewritten[MANIFEST_NAME]
    assert rewritten == written


def _raising(kind, message):
    def render(ctx, run_dir):
        raise kind(message)
    return render


BAD_TAXONOMY = "1\tPolice\n2\tpolicj\tprefix\n"

# Each case: tag-side renderers replaced by ones that raise, a taxonomy
# file (or the bundled one), run.stages (or all), extra corpus lines, the
# exit code and the start of stderr.
FAILURES = {
    "tag side data error": (
        {"graph": (DataError, "boom")}, None, None, "", 2, "error: stage graph: boom\n"
    ),
    "tag side internal error": (
        {"graph": (RuntimeError, "boom")}, None, None, "", 3,
        "internal error: RuntimeError('boom')\n",
    ),
    "text side bad taxonomy": (
        {}, BAD_TAXONOMY, None, "", 2,
        "error: stage coding: coding.taxonomy: line 2: unknown category id",
    ),
    "text side stem not one token": (
        {}, "1\tPolice\n1\tpoli cja\tprefix\n", None, "", 2,
        "error: stage coding: coding.taxonomy: line 2: keyword family stem must be one token: 'poli cja'\n",
    ),
    # In serial order the tag side fails first, so its error wins.
    "both sides": (
        {"timeline": (DataError, "boom")}, BAD_TAXONOMY, None, "", 2,
        "error: stage timeline: boom\n",
    ),
    "malformed corpus line": (
        {}, None, ["pairs", "sentiment"], "not json\n", 2,
        "error: stage pairs: line 5: invalid JSON",
    ),
}


@pytest.mark.parametrize("case", FAILURES)
def test_a_failed_run_fails_alike_at_jobs_1_and_2(workspace, monkeypatch, capsys, case):
    renderers, taxonomy, stages, extra, code, err = FAILURES[case]
    for name, (kind, message) in renderers.items():
        monkeypatch.setitem(socmine.report._STAGES, name, _raising(kind, message))
    config = ["corpus:", "  path: corpus.jsonl"]
    if taxonomy is not None:
        (workspace / "taxonomy.tsv").write_text(taxonomy, encoding="utf-8")
        config += ["coding:", "  taxonomy: taxonomy.tsv"]
    if stages is not None:
        config += ["run:", f"  stages: [{', '.join(stages)}]"]
    (workspace / "run.yaml").write_text("\n".join(config) + "\n", encoding="utf-8")
    with (workspace / "corpus.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(extra)
    outcomes = []
    for jobs in (1, 2):
        out_dir = workspace / f"jobs{jobs}"
        argv = ["run", "--config", str(workspace / "run.yaml"), "--jobs", str(jobs)]
        status = main([*argv, "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        outcomes.append((status, captured.err))
        assert captured.out == ""
        # No run directory, no staging directory, and no process left.
        assert list(out_dir.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outcomes[0] == outcomes[1]
    status, stderr = outcomes[0]
    assert status == code and stderr.startswith(err), stderr


def _large_corpus(path, last_line=""):
    """1,000 records holding 160 KB of text, more than a pipe buffer, then last_line."""
    text = "Policja używa gazu na ulicy, oni i my. " * 4
    with path.open("w", encoding="utf-8") as handle:
        for i in range(1000):
            record = {"id": f"d{i}", "ts": f"2013-05-{20 + i % 5}T10:00:00Z", "text": text,
                      "tags": ["riots", f"t{i % 7}"]}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        handle.write(last_line)


DUPLICATE = '{"id": "d0", "ts": "2013-05-20T10:00:00Z", "text": "x", "tags": ["riots"]}\n'

# Each case: a config line, the corpus's last line, and the start of stderr.
LARGE_FAILURES = {
    "missing stopword file": (
        "text:\n  stopwords: missing.txt\n", "",
        "error: stage coding: text.stopwords: cannot read stopword file ",
    ),
    "invalid JSON on the last line": (
        "", "not json\n", "error: stage ingest: line 1001: invalid JSON",
    ),
    "duplicate id on the last line": (
        "", DUPLICATE, "error: stage ingest: line 1001: duplicate id 'd0'",
    ),
}


@pytest.mark.parametrize("case", LARGE_FAILURES)
def test_a_run_whose_texts_outgrow_a_pipe_fails_alike_at_jobs_1_and_2(
    workspace, monkeypatch, capsys, case
):
    # At jobs 2 the loading process streams its kept texts to the text
    # side. A text side that fails before its walk must not leave it
    # blocked on a full pipe, nor turn its load into an error; a stream cut
    # short by a bad line must never be counted.
    config_line, last_line, err = LARGE_FAILURES[case]
    _large_corpus(workspace / "corpus.jsonl", last_line)
    (workspace / "run.yaml").write_text(
        "corpus:\n  path: corpus.jsonl\n" + config_line, encoding="utf-8"
    )
    written = []
    write_text = socmine.report._write_text

    def logged(run_dir, name, content):
        written.append(name)
        return write_text(run_dir, name, content)

    monkeypatch.setattr(socmine.report, "_write_text", logged)

    def hung(signum, frame):
        raise TimeoutError("the run did not finish: a process blocked on a pipe")

    previous = signal.signal(signal.SIGALRM, hung)
    outcomes = []
    try:
        for jobs in (1, 2):
            out_dir = workspace / f"jobs{jobs}"
            argv = ["run", "--config", str(workspace / "run.yaml"), "--jobs", str(jobs)]
            written.clear()
            signal.alarm(60)
            try:
                status = main([*argv, "--out-dir", str(out_dir)])
            finally:
                signal.alarm(0)
            captured = capsys.readouterr()
            outcomes.append((status, captured.err))
            # The text stages run in this process at jobs 1 and 2.
            assert "coding.csv" not in written
            # No run directory, no staging directory, and no process left.
            assert list(out_dir.iterdir()) == []
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes[0] == outcomes[1]
    status, stderr = outcomes[0]
    assert status == 2 and stderr.startswith(err), stderr


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(st.sampled_from(STAGES), min_size=1), st.sampled_from([1, 2, 3]))
def test_a_run_is_the_same_whatever_jobs_and_stages(tmp_path_factory, stages, jobs):
    workspace = tmp_path_factory.mktemp("jobs")
    (workspace / "corpus.jsonl").write_text(SMALL, encoding="utf-8")
    manifests = [
        run_pipeline(_config(
            workspace, run={"stages": sorted(stages), "jobs": n, "out_dir": f"jobs{n}"}
        ))
        for n in (1, jobs)
    ]
    serial, forked = map(_files, manifests)
    assert forked == serial
    serial, forked = (
        [(s.name, s.artifacts, s.summary) for s in m.stages] for m in manifests
    )
    assert forked == serial
    assert [name for name, _, _ in serial] == [s for s in STAGES if s in stages]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Drawn text words, among them words of the bundled stopword, taxonomy,
# pronoun and lexicon files, and drawn tags.
VOCABULARY = ("policja", "gazu", "oni", "my", "nas", "im", "dobry", "wspaniały", "fatalny",
              "work", "school", "rodzina", "i", "na", "nie", "szwedzka", "ulicy", "Husby")
TAGS = ("riots", "police", "husby", "svpol", "Riots")


@st.composite
def _records(draw):
    """Valid records with distinct ids; a corpus whose texts are repeated
    400 times may hold more text than a pipe buffer."""
    repeat = draw(st.sampled_from([1, 1, 400]))
    return [
        {
            "id": f"d{i}",
            "ts": f"2013-05-2{draw(st.integers(0, 3))}T1{draw(st.integers(0, 2))}:00:00Z",
            "text": " ".join(draw(st.lists(st.sampled_from(VOCABULARY), max_size=10)) * repeat),
            "tags": draw(st.lists(st.sampled_from(TAGS), max_size=3)),
        }
        for i in range(draw(st.integers(1, 30)))
    ]


def _jsonl(records):
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


BAD_LINES = {
    "invalid JSON": '{"id": "bad", "ts": ',
    "duplicate id": '{"id": "d0", "ts": "2013-05-20T10:00:00Z"}',
    "bad ts": '{"id": "bad", "ts": "2013-13-45T10:00:00Z"}',
    "non-string tag": '{"id": "bad", "ts": "2013-05-20T10:00:00Z", "tags": [5]}',
}
DATA_KEYS = ("text.stopwords", "coding.taxonomy", "pronouns.groups", "sentiment.lexicon")


def _cli_run(config_path, jobs, out_dir):
    """The exit code, stderr and out_dir contents (None for a directory) of
    one `socmine run`."""
    argv = ["run", "--config", str(config_path), "--jobs", str(jobs), "--out-dir", str(out_dir)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    files = {
        str(path.relative_to(out_dir)): path.read_bytes() if path.is_file() else None
        for path in out_dir.rglob("*")
    }
    return status, err.getvalue(), files


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _records(),
    st.none() | st.tuples(st.sampled_from(sorted(BAD_LINES)), st.integers(0, 30)),
    st.sets(st.sampled_from(DATA_KEYS)),
    st.integers(0, 3),
    st.just(set(STAGES)) | st.sets(st.sampled_from(STAGES), min_size=1),
)
def test_a_drawn_run_ends_alike_at_jobs_1_and_2(
    tmp_path_factory, records, bad, missing, min_tags, stages
):
    # A bad line at a drawn place, missing data files, a min_tags that may
    # drop every document: the forked run exits, reports and leaves files
    # as the serial run does.
    workspace = tmp_path_factory.mktemp("drawn")
    lines = [_jsonl([record]) for record in records]
    if bad is not None:
        kind, at = bad
        lines.insert(at, BAD_LINES[kind] + "\n")
    (workspace / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")
    config = {
        "corpus": {"path": "corpus.jsonl", "min_tags": min_tags},
        "run": {"stages": sorted(stages)},
        "sentiment": {"min_freq": 1},
    }
    for key in missing:
        section, name = key.split(".")
        config.setdefault(section, {})[name] = "missing.txt"
    (workspace / "run.yaml").write_text(json.dumps(config), encoding="utf-8")
    serial, forked = (
        _cli_run(workspace / "run.yaml", jobs, workspace / f"jobs{jobs}") for jobs in (1, 2)
    )
    assert forked == serial
    assert serial[0] in (0, 2), serial[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_records().flatmap(lambda records: st.tuples(st.just(records), st.permutations(records))))
def test_the_order_of_corpus_lines_changes_no_artifact(tmp_path_factory, drawn):
    # The forked walk reads the texts in file order, the serial walk in
    # the loaded corpus's sorted order: neither order may show.
    workspace = tmp_path_factory.mktemp("order")
    runs = []
    for name, records in zip(("given", "permuted"), drawn):
        (workspace / name).mkdir()
        (workspace / name / "corpus.jsonl").write_text(_jsonl(records), encoding="utf-8")
        for jobs in (1, 2):
            run = {"jobs": jobs, "out_dir": f"jobs{jobs}"}
            # Timeline plots the top tags, as the drawn ones may be missing.
            manifest = run_pipeline(_config(workspace / name, run=run, timeline={"tags": []}))
            files = _files(manifest)
            # Only the corpus file's digest may differ.
            payload = json.loads(files.pop(MANIFEST_NAME))
            del payload["corpus_digest"]
            runs.append((files, payload))
    assert all(run == runs[0] for run in runs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stream(texts, mark, outcome=b"outcome"):
    """A pipe holding texts as a _TextSender sends them, then mark (None for
    the sender's end mark), then outcome, read back from its start."""
    read_fd, write_fd = os.pipe()
    sender = socmine.report._TextSender(write_fd)
    for text in texts:
        sender(text)
    if mark is None:
        sender.end()
    else:
        os.write(write_fd, mark)
    os.write(write_fd, outcome)
    os.close(write_fd)
    return os.fdopen(read_fd, "rb")


def test_the_text_stream_ends_at_its_end_mark_and_nowhere_else():
    texts = [f"text {i}" for i in range(300)]
    with _stream(texts, None) as pipe:
        frames = socmine.report._frames(pipe)
        assert list(chain.from_iterable(map(marshal.loads, frames))) == texts
        assert pipe.read() == b"outcome"
    # A cut mark, an EOF or a short chunk ends the texts early: the walk
    # raises, and a cut mark leaves the outcome behind it to read.
    head = (100).to_bytes(8, "little")
    for mark, outcome, rest in [
        (socmine.report._CUT, b"outcome", b"outcome"), (b"", b"", b""), (head, b"short", b""),
    ]:
        with _stream(texts[:256], mark, outcome) as pipe:
            with pytest.raises(RuntimeError, match="the corpus texts ended before their end mark"):
                list(socmine.report._frames(pipe))
            assert pipe.read() == rest


def test_a_loading_process_that_dies_mid_stream_fails_the_run(workspace, monkeypatch, capsys):
    _large_corpus(workspace / "corpus.jsonl")
    send = socmine.report._TextSender._send

    def dies(self, chunk):
        send(self, chunk)
        os._exit(1)

    # The child sends its first chunk of texts, then exits without a word.
    monkeypatch.setattr(socmine.report._TextSender, "_send", dies)
    # The message names the child's exit code, not its raw wait status.
    with pytest.raises(RuntimeError, match=r"the tag stages' process sent no result \(exit code 1\)$"):
        run_pipeline(_config(workspace, run={"jobs": 2}))
    # No run directory, no staging directory, and no process left.
    assert list((workspace / "runs").iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    (workspace / "run.yaml").write_text("corpus:\n  path: corpus.jsonl\n", encoding="utf-8")
    argv = ["run", "--config", str(workspace / "run.yaml"), "--jobs", "2"]
    assert main([*argv, "--out-dir", str(workspace / "cli")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: RuntimeError(")
    assert "the tag stages' process sent no result" in captured.err
    assert list((workspace / "cli").iterdir()) == []

    def killed(self, chunk):
        send(self, chunk)
        os.kill(os.getpid(), signal.SIGKILL)

    # A child that a signal ends is named by the signal.
    monkeypatch.setattr(socmine.report._TextSender, "_send", killed)
    with pytest.raises(RuntimeError, match=rf"sent no result \(killed by signal {signal.SIGKILL:d}\)$"):
        run_pipeline(_config(workspace, run={"jobs": 2}))


def test_a_failed_fork_renders_serially_and_leaks_no_descriptor(workspace, monkeypatch):
    serial = run_pipeline(_config(workspace, run={"jobs": 1, "out_dir": "serial"}))

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    descriptors = len(os.listdir("/dev/fd"))
    for attempt in range(3):
        manifest = run_pipeline(_config(workspace, run={"jobs": 2, "out_dir": f"try{attempt}"}))
        assert _files(manifest) == _files(serial)
    assert len(os.listdir("/dev/fd")) == descriptors


def _forked(config):
    """Whether run_pipeline forked for config: a process that forks never
    loads the corpus."""
    ctx = Context(config.values)
    run_pipeline(config, ctx)
    return "loaded" not in ctx.__dict__


@pytest.mark.parametrize(
    ("jobs", "cpus", "forks"),
    [(None, 2, True), (None, 1, False), (1, 2, False), (1, 8, False), (2, 1, False), (8, 2, True)],
)
def test_a_run_forks_when_jobs_allows_it_and_a_second_cpu_is_free(
    workspace, monkeypatch, jobs, cpus, forks
):
    pin_cpus(monkeypatch, cpus)
    run = {} if jobs is None else {"jobs": jobs}
    assert _forked(_config(workspace, run=run)) == forks


def test_without_os_fork_a_run_renders_serially(workspace, monkeypatch):
    serial = run_pipeline(_config(workspace, run={"jobs": 1, "out_dir": "serial"}))
    pin_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    config = _config(workspace)
    ctx = Context(config.values)
    manifest = run_pipeline(config, ctx)
    assert "loaded" in ctx.__dict__
    assert _files(manifest) == _files(serial)


@pytest.mark.parametrize(("count", "forks"), [(2, True), (1, False), (None, False)])
def test_without_an_affinity_mask_the_cpu_count_decides(workspace, monkeypatch, count, forks):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert _forked(_config(workspace)) == forks


def test_jobs_2_renders_the_tag_side_in_a_child(workspace, monkeypatch):
    log = workspace / "pids.txt"

    def logged(name, render):
        def wrapper(ctx, run_dir):
            with log.open("a", encoding="utf-8") as handle:
                handle.write(f"{name} {os.getpid()}\n")
            return render(ctx, run_dir)
        return wrapper

    for name, render in list(socmine.report._STAGES.items()):
        monkeypatch.setitem(socmine.report._STAGES, name, logged(name, render))
    # A summary larger than a pipe buffer still comes back whole.
    blob = "x" * (1 << 20)

    def big(ctx, run_dir):
        return [], {"blob": blob}, "big"

    monkeypatch.setitem(socmine.report._STAGES, "timeline", logged("timeline", big))

    def hung(signum, frame):
        raise TimeoutError("the run did not finish: the child blocked on a full pipe")

    # A child blocked on a full pipe would hang the run; an alarm ends it.
    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for jobs in (1, 2):
            log.write_text("", encoding="utf-8")
            signal.alarm(60)
            try:
                manifest = run_pipeline(_config(workspace, run={"jobs": jobs}))
            finally:
                signal.alarm(0)
            assert manifest.stages[4].summary == {"blob": blob}
            pids = dict(line.split() for line in log.read_text(encoding="utf-8").splitlines())
            assert sorted(pids) == sorted(STAGES)
            side = {name: pids[name] == str(os.getpid()) for name in STAGES}
            if jobs == 1:
                assert all(side.values())
            else:
                text_stages = ("coding", "pronouns", "sentiment")
                assert side == {name: name in text_stages for name in STAGES}
                assert len(set(pids.values())) == 2
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_the_child_runs_no_atexit_hook_and_flushes_no_buffer(workspace):
    log = workspace / "exit.txt"

    def hook():
        log.write_text("ran", encoding="utf-8")

    buffered = (workspace / "buffered.txt").open("w", encoding="utf-8")
    buffered.write("once\n")
    atexit.register(hook)
    try:
        run_pipeline(_config(workspace, run={"jobs": 2}))
    finally:
        atexit.unregister(hook)
        buffered.close()
    assert not log.exists()
    assert (workspace / "buffered.txt").read_text(encoding="utf-8") == "once\n"


def test_an_interrupted_run_leaves_no_process(workspace, monkeypatch):
    def slow(ctx, run_dir):
        time.sleep(60)

    def interrupted(ctx, run_dir):
        raise KeyboardInterrupt

    monkeypatch.setitem(socmine.report._STAGES, "graph", slow)
    monkeypatch.setitem(socmine.report._STAGES, "coding", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(_config(workspace, run={"jobs": 2}))
    assert time.monotonic() - start < 30
    assert list((workspace / "runs").iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupted_wait_still_reaps_the_child(workspace, monkeypatch):
    # Ctrl-C during the final wait, after the pipe is read to EOF.
    real_waitpid = os.waitpid
    calls = []

    def interrupted(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(_config(workspace, run={"jobs": 2}))
    assert len(calls) == 2 and calls[0] == calls[1]
    assert list((workspace / "runs").iterdir()) == []
    with pytest.raises(ChildProcessError):
        real_waitpid(-1, os.WNOHANG)
