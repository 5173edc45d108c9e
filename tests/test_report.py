import csv
import json
from pathlib import Path

import pytest

from helpers import FIXTURES
from socmine.config import make_config
from socmine.errors import DataError, UsageError
from socmine.report import MANIFEST_NAME, run_pipeline

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


def test_text_stages_tokenize_each_document_once(workspace, monkeypatch):
    import socmine.coding
    import socmine.corpus
    import socmine.ngrams
    import socmine.sentiment

    calls = {"tokenize": 0, "score_text": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Document.tokens calls the corpus module's binding; the others must
    # stay unused.
    for module in (socmine.corpus, socmine.coding, socmine.ngrams, socmine.sentiment):
        monkeypatch.setattr(module, "tokenize", counting("tokenize", module.tokenize))
    monkeypatch.setattr(
        socmine.sentiment, "score_text", counting("score_text", socmine.sentiment.score_text)
    )
    stages = ["ingest", "coding", "pronouns", "sentiment"]
    manifest = run_pipeline(_config(workspace, run={"stages": stages}))
    documents = manifest.stages[0].summary["documents"]
    assert documents == 4
    # Surface counts and 2-grams read the same cached tokens.
    assert calls == {"tokenize": 1 * documents, "score_text": 0}


def test_manifest_counts_min_tags_drops(workspace):
    manifest = run_pipeline(_config(workspace, corpus={"min_tags": 2}, run={"stages": ["ingest"]}))
    summary = manifest.stages[0].summary
    assert summary["dropped"] == {"below_min_tags": 1}
    assert summary["records_read"] == 4
    assert summary["records_kept"] == summary["documents"] == 3


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
    with pytest.raises(UsageError, match="no stages"):
        run_pipeline(_config(workspace, run={"stages": []}))


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
    config = _config(
        workspace, run={"stages": ["ingest", "tags", "timeline"]}, timeline={"tags": []}
    )
    run_dir = Path(run_pipeline(config).run_dir)
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    # Same config, so same run directory; no tags, so the timeline stage fails
    # after ingest and tags have written their artifacts.
    (workspace / "corpus.jsonl").write_text(
        '{"id": "z", "ts": "2013-05-20T10:00:00Z", "text": "nic"}\n', encoding="utf-8"
    )
    with pytest.raises(DataError, match="stage timeline: .*no tags"):
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
