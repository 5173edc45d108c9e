import csv
import json
from pathlib import Path

import pytest

from helpers import FIXTURES
from socmine.config import STAGES, make_config
from socmine.errors import DataError, UsageError
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
    # unused.
    for module in (socmine.coding, socmine.ngrams, socmine.sentiment):
        monkeypatch.setattr(module, "tokenize", _counting(calls, "tokenize", module.tokenize))
    monkeypatch.setattr(
        socmine.sentiment, "score_text", _counting(calls, "score_text", socmine.sentiment.score_text)
    )
    for stages in (["ingest", "coding", "pronouns", "sentiment"], ["ingest", "sentiment"]):
        calls.update(tokenize=0, score_text=0)
        manifest = run_pipeline(_config(workspace, run={"stages": stages}))
        documents = manifest.stages[0].summary["documents"]
        assert documents == 4
        # Surface counts and 2-grams come from the same one walk.
        assert calls == {"tokenize": 1 * documents, "score_text": 0}, stages
        assert manifest.stages[-1].summary["distinct_2grams"] > 0


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


def test_power_without_sentiment_in_run_stages_raises(workspace):
    config = _config(workspace, run={"stages": ["ingest", "coding", "pronouns"]})
    ctx = Context(config.values)
    with pytest.raises(ValueError, match="run.stages does not select sentiment"):
        ctx.power
    # The counts the other stages read are still there, without 2-grams.
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
    # the timeline; one sort of the 2 pairs feeds pairs.csv and its summary.
    assert ranked_sizes == [3, 2]
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
    with pytest.raises(UsageError, match="corpus.path"):
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
    with pytest.raises(DataError, match="stage coding: line 2: unknown category id"):
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
