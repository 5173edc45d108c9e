import argparse
import atexit
import gc
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import FIXTURES, write_csv_corpus
from socmine.cli import build_parser, main
from socmine.config import RULES, STAGES, load_config, make_config
from socmine.corpus import load_corpus
from socmine.report import run_pipeline

CORPUS = """\
{"id": "a", "ts": "2013-05-20T10:00:00Z", "text": "policja na ulicy", "tags": ["riots", "police"]}
{"id": "b", "ts": "2013-05-21T10:00:00Z", "text": "oni im my", "tags": ["riots", "police"]}
{"id": "c", "ts": "2013-05-22T10:00:00Z", "text": "dobra wiadomość dobra wiadomość", "tags": ["husby", "riots"]}
"""


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(CORPUS, encoding="utf-8")
    return path


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_and_missing_argument(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["tags"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_missing_corpus_is_a_data_error(tmp_path, capsys):
    assert main(["tags", str(tmp_path / "absent.jsonl")]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_window_value_is_a_data_error(corpus_file, capsys):
    assert main(["tags", str(corpus_file), "--window", "notawindow"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_date_with_an_offset_is_malformed(tmp_path, corpus_file, capsys):
    # fromisoformat reads "+02:00" after a date as the time 02:00.
    path = tmp_path / "offset.jsonl"
    path.write_text('{"id": "a", "ts": "2013-05-20+02:00"}\n', encoding="utf-8")
    assert main(["tags", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: malformed field 'ts': ")
    assert main(["tags", str(corpus_file), "--window", "2013-05-01..2013-05-20+02:00"]) == 2
    assert capsys.readouterr().err.startswith("error: corpus.window: ")
    config = tmp_path / "run.yaml"
    config.write_text(
        f"corpus:\n  path: {json.dumps(str(corpus_file))}\n  window: 2013-05-20Z..2013-06-01\n"
        f"run:\n  out_dir: {json.dumps(str(tmp_path / 'runs'))}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: corpus.window: ")
    assert not (tmp_path / "runs").exists()


def test_tags_ranked_csv(corpus_file, capsys):
    assert main(["tags", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert out == "key,count\nriots,3\npolice,2\nhusby,1\n"


def test_tags_top_limits_rows(corpus_file, capsys):
    assert main(["tags", str(corpus_file), "--top", "1"]) == 0
    assert capsys.readouterr().out == "key,count\nriots,3\n"
    assert main(["tags", str(corpus_file), "--top", "0"]) == 0
    assert capsys.readouterr().out == "key,count\nriots,3\npolice,2\nhusby,1\n"
    assert main(["pairs", str(corpus_file), "--top", "0"]) == 0
    assert capsys.readouterr().out == "key,key2,count\npolice,riots,2\nhusby,riots,1\n"


def test_pairs_two_column_csv(corpus_file, capsys):
    assert main(["pairs", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "key,key2,count"
    assert "police,riots,2" in out
    assert "husby,riots,1" in out


@pytest.mark.parametrize("tag", ["a\\u0001b", "\\ud800"])
def test_tags_rejects_unwritable_tag_before_any_output(tmp_path, capsys, tag):
    path = tmp_path / "c.jsonl"
    path.write_text(
        CORPUS + '{"id": "d", "ts": "2013-05-23T10:00:00Z", "tags": ["%s"]}\n' % tag,
        encoding="utf-8",
    )
    assert main(["tags", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 4: malformed field 'tags'" in captured.err


def test_ingest_summary(corpus_file, capsys):
    assert main(["ingest", str(corpus_file), "--min-tags", "2"]) == 0
    out = capsys.readouterr().out
    assert "read     3" in out
    assert "documents: 3" in out
    assert "window: 2013-05-20T10:00:00Z .. 2013-05-22T10:00:00Z" in out


def test_ingest_counts_min_tags_drops(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    path.write_text(
        CORPUS + '{"id": "d", "ts": "2013-05-23T10:00:00Z", "tags": ["riots"]}\n',
        encoding="utf-8",
    )
    assert main(["ingest", str(path), "--min-tags", "2"]) == 0
    out = capsys.readouterr().out
    assert "read     4\nkept     3\ndropped  1\n  - below_min_tags: 1\n" in out
    assert "documents: 3" in out


@pytest.mark.parametrize("command", ["ingest", "tags"])
def test_min_tags_that_drops_every_document_exits_2(tmp_path, capsys, command):
    path = tmp_path / "one.jsonl"
    path.write_text(CORPUS.splitlines(keepends=True)[0], encoding="utf-8")
    assert main([command, str(path), "--min-tags", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty corpus after filtering" in captured.err


def test_ingest_out_round_trips_early_years(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a", "ts": "0005-01-01T00:00:00Z", "text": "x"}\n'
        '{"id": "b", "ts": "0999-12-31T23:59:59Z", "text": "y"}\n',
        encoding="utf-8",
    )
    out_path = tmp_path / "out.jsonl"
    assert main(["ingest", str(path), "--out", str(out_path)]) == 0
    first = capsys.readouterr().out
    assert "window: 0005-01-01T00:00:00Z .. 0999-12-31T23:59:59Z" in first
    assert main(["ingest", str(out_path)]) == 0
    assert "window: 0005-01-01T00:00:00Z .. 0999-12-31T23:59:59Z" in capsys.readouterr().out


def test_graph_dot_output(corpus_file, capsys):
    assert main(["graph", str(corpus_file), "--threshold", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph cooccurrence {")
    assert '"police" -- "riots" [weight=2, penwidth=2];' in out
    assert "husby" not in out


def test_timeline_csv_and_classify(corpus_file, capsys):
    assert main(["timeline", str(corpus_file), "--tags", "riots,husby"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "date,husby,riots"
    assert main(["timeline", str(corpus_file), "--tags", "riots", "--classify"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("riots\tother\ttotal=3")
    assert "(total 3 below minimum 10)" in line


@pytest.mark.parametrize("spelling", ["RIOTS", "#riots", "##Riots"])
def test_timeline_tags_are_normalized(corpus_file, capsys, spelling):
    assert main(["timeline", str(corpus_file), "--tags", spelling]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "date,riots"
    assert rows[-1].endswith(",3")


@pytest.mark.parametrize(
    "flags,key",
    [
        (["graph", "--whitelist-top", "-1"], "graph.whitelist_top must be >= 0"),
        (["graph", "--threshold", "0"], "graph.threshold must be >= 1"),
        (["code", "--min-freq", "0"], "coding.min_freq must be >= 1"),
        (["sentiment", "--min-freq", "0"], "sentiment.min_freq must be >= 1"),
        (["sentiment", "--lexicon", "missing.tsv"], "sentiment.lexicon: cannot read"),
        (["ingest", "--min-tags", "-1"], "corpus.min_tags must be >= 0"),
        (["graph", "--cap", "-1"], "graph.cap must be >= 0"),
        (["timeline", "--tags", "#"], "timeline.tags entry '#'"),
        (["timeline", "--tags", "riots,\t"], "timeline.tags entry '\\t'"),
        (["sentiment", "--filter-stem", "ab"], "sentiment.filter_stem"),
        (["sentiment", "--filter-stem", "AB", "--filter-mode", "exact"], "sentiment.filter_stem"),
        (["tags", "--top", "-1"], "tags.top must be >= 0"),
        (["pairs", "--top", "-1"], "pairs.top must be >= 0"),
        (["tags", "--window", "notawindow"], "corpus.window"),
        (["tags", "--window", "2013-05-22..2013-05-20"], "corpus.window"),
        (["ingest", "--format", "xml"], "corpus.format must be 'jsonl' or 'csv'"),
        (["graph", "--graph-format", "gexf"], "graph.format must be 'dot' or 'graphml'"),
        (
            ["sentiment", "--filter-mode", "suffix"],
            "sentiment.filter_mode must be 'prefix' or 'exact'",
        ),
        (
            ["sentiment", "--filter-stem", "poli cja"],
            "sentiment.filter_stem: keyword family stem must be one token: 'poli cja'",
        ),
    ],
)
def test_flag_errors_name_the_config_key(corpus_file, capsys, flags, key):
    assert main([flags[0], str(corpus_file), *flags[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("command", ["tags", "pairs", "graph", "sentiment"])
def test_analysis_subcommands_reject_jobs(corpus_file, capsys, command):
    # run.jobs is read only by `run`; an analysis subcommand has no --jobs.
    assert main([command, str(corpus_file), "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --jobs 2" in captured.err


def test_ingest_bad_values_exit_2_with_line_number(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text(
        CORPUS + '{"id": "d", "ts": 1e20}\n', encoding="utf-8"
    )
    assert main(["ingest", str(path)]) == 2
    assert "line 4: malformed field 'ts'" in capsys.readouterr().err
    path.write_text(CORPUS + '{"id": "d", "ts": 0, "text": "\\ud800"}\n', encoding="utf-8")
    assert main(["ingest", str(path), "--out", str(tmp_path / "out.jsonl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 4: malformed field 'text'" in captured.err


def test_timeline_requires_tags(corpus_file, capsys):
    assert main(["timeline", str(corpus_file), "--tags", ","]) == 1
    assert "at least one tag" in capsys.readouterr().err


def test_code_and_pronouns_subcommands(corpus_file, capsys):
    assert main(["code", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("category_id,label,unique_words,count,rolled_up\n")
    assert "# vocabulary_size," in out
    assert main(["pronouns", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "# them_total,2" in out
    assert "# us_total,1" in out
    assert "# ratio,2.0000" in out


def test_sentiment_subcommand(corpus_file, capsys):
    assert main(["sentiment", str(corpus_file), "--min-freq", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ngram,freq,strength,power"
    assert "dobra wiadomość,2,1,2" in out
    assert out.endswith("# sum_power,2\n")


# A data file word the tokenizer cannot produce as one token would never
# match, so it is refused rather than silently ignored.
@pytest.mark.parametrize(
    "command,flag,data,message",
    [
        ("pronouns", "--groups", "us\twe\tmy\nthem\tthey\tim-x\n", "line 2: surface must be one token: 'im-x'"),
        ("code", "--stopwords", "nie_\n", "line 1: stopword must be one token: 'nie_'"),
        ("sentiment", "--lexicon", "dobr y\tpositive\t1\n", "line 1: keyword family stem must be one token"),
        ("code", "--taxonomy", "1\tA\n1\tpoli cja\tprefix\n", "line 2: keyword family stem must be one token"),
    ],
)
def test_a_data_word_that_is_not_one_token_exits_2(corpus_file, tmp_path, capsys, command, flag, data, message):
    path = tmp_path / "words.tsv"
    path.write_text(data, encoding="utf-8")
    assert main([command, str(corpus_file), flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # The fault names the config key of the file it is in.
    key = {
        "--groups": "pronouns.groups",
        "--stopwords": "text.stopwords",
        "--lexicon": "sentiment.lexicon",
        "--taxonomy": "coding.taxonomy",
    }[flag]
    assert f"error: {key}: {message}" in captured.err


def test_run_subcommand(corpus_file, tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "corpus:\n"
        "  path: c.jsonl\n"
        "run:\n"
        "  stages: [ingest, tags, pairs]\n"
        "  out_dir: runs\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "manifest:" in out
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    manifest = json.loads((runs[0] / "manifest.json").read_text(encoding="utf-8"))
    assert [s["name"] for s in manifest["stages"]] == ["ingest", "tags", "pairs"]


def test_run_out_dir_override(corpus_file, tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "corpus:\n  path: c.jsonl\nrun:\n  stages: [tags]\n",
        encoding="utf-8",
    )
    elsewhere = tmp_path / "elsewhere"
    assert main(["run", "--config", str(config), "--out-dir", str(elsewhere), "--jobs", "4"]) == 0
    capsys.readouterr()
    assert elsewhere.exists()
    assert len(list(elsewhere.iterdir())) == 1


@pytest.fixture()
def run_config(corpus_file, tmp_path, monkeypatch):
    """A config in its own directory, run from another working directory."""
    path = tmp_path / "conf" / "run.yaml"
    path.parent.mkdir()
    path.write_text(
        f"corpus:\n  path: {json.dumps(str(corpus_file))}\nrun:\n  stages: [tags]\n",
        encoding="utf-8",
    )
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    return path


def test_run_jobs_0_exits_2_before_staging(run_config, capsys):
    assert main(["run", "--config", str(run_config), "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "run.jobs must be >= 1" in captured.err
    assert sorted(run_config.parent.iterdir()) == [run_config]
    assert list(Path.cwd().iterdir()) == []


# Unchecked, [csv, csv] would write timeline.csv twice and list it twice
# in the manifest, and [tags, tags] render what [tags] renders under
# another run id.
@pytest.mark.parametrize(
    "section,message",
    [
        ("run:\n  stages: [ingest, tags, tags]\n", "run.stages names 'tags' twice"),
        ("timeline:\n  formats: [csv, svg, csv]\n", "timeline.formats names 'csv' twice"),
    ],
)
def test_a_list_entry_named_twice_exits_2_before_staging(
    corpus_file, tmp_path, capsys, section, message
):
    config = tmp_path / "run.yaml"
    config.write_text(
        f"corpus:\n  path: {json.dumps(str(corpus_file))}\n{section}", encoding="utf-8"
    )
    out_dir = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_dir.exists()


# A config's `run.out_dir: ""` also means the working directory.
@pytest.mark.parametrize("out_dir,under", [("out", "out"), ("", ".")])
def test_run_out_dir_resolves_against_working_directory(run_config, capsys, out_dir, under):
    assert main(["run", "--config", str(run_config), "--out-dir", out_dir]) == 0
    capsys.readouterr()
    digest = load_config(run_config).digest
    assert (Path.cwd() / under / digest / "manifest.json").is_file()
    assert sorted(run_config.parent.iterdir()) == [run_config]


def test_every_config_key_flag_is_checked_by_its_rule(corpus_file, run_config, capsys):
    # A flag that sets a key with a value rule leaves the check to
    # merge_config: a choices= in argparse would exit 1 and name no key.
    actions = build_parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    given = {
        "run": ["run", "--config", str(run_config)],
        "timeline": ["timeline", str(corpus_file), "--tags", "riots"],
    }
    checked = set()
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            rule = RULES.get(action.dest)
            if rule is None:
                continue
            bad = str(rule - 1) if isinstance(rule, int) else "bogus"
            argv = [*given.get(command, [command, str(corpus_file)]), action.option_strings[0], bad]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert action.dest in captured.err, argv
            checked.add(action.dest)
    # Only timeline.top and timeline.formats are set by no flag.
    assert checked == RULES.keys() - {"timeline.top", "timeline.formats"}


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("socmine ")


# xml.sax.saxutils alone pulls in urllib.request, http.client, email and ssl;
# dataclasses pulls in inspect, ast, dis and tokenize.
HEAVY = {"xml.sax", "urllib.request", "http.client", "xml.etree", "dataclasses", "inspect"}


def _env_with_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_cli_import_loads_no_xml_or_network_modules():
    env = _env_with_src()
    # cli.py imports the analysis modules lazily, so the probe imports every
    # module of the package itself. It lists them with pathlib, because
    # pkgutil.iter_modules imports inspect to name them.
    probe = (
        "import importlib, pathlib, sys, socmine\n"
        "for path in sorted(pathlib.Path(socmine.__path__[0]).glob('[!_]*.py')):\n"
        "    importlib.import_module('socmine.' + path.stem)\n"
        f"print(sorted(m for m in {sorted(HEAVY)!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


# Runs `socmine ARGV...` (or only builds the parser when ARGV is empty) and
# writes the names in sys.modules at exit to the file named first.
MODULES_PROBE = """\
import sys
from socmine.cli import build_parser, main
out, argv = sys.argv[1], sys.argv[2:]
if argv:
    code = main(argv)
else:
    build_parser()
    code = 0
with open(out, "w", encoding="utf-8") as handle:
    handle.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""
# Only `socmine run` reads a config file, stages a run directory and
# writes digests into its manifest.
RUN_ONLY = {"yaml", "tempfile", "hashlib"}
UNUSED_BY_TEXT = {"socmine.graph", "socmine.timeline", "socmine.sentiment"}
UNUSED_BY_TAGS = {"socmine.coding", "socmine.graph", "socmine.sentiment"}


def _modules_at_exit(tmp_path, argv):
    """The modules a fresh interpreter holds after `socmine ARGV...` exits 0."""
    # -S keeps site hooks (.pth files) from importing modules, tempfile for
    # one, before socmine runs; PyYAML's own directory stands in for
    # site-packages.
    site_dir = Path(importlib.util.find_spec("yaml").origin).parent.parent
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(site_dir)])}
    out = tmp_path / "modules.txt"
    result = subprocess.run(
        [sys.executable, "-S", "-c", MODULES_PROBE, str(out), *argv],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return set(out.read_text(encoding="utf-8").split("\n"))


@pytest.mark.parametrize(
    "argv,absent",
    [
        ([], {"socmine.report", "socmine.config"}),
        (["pronouns", str(FIXTURES / "forum.jsonl")], UNUSED_BY_TEXT),
        (["code", str(FIXTURES / "forum.jsonl")], UNUSED_BY_TEXT),
        (["tags", str(FIXTURES / "twitter.jsonl")], UNUSED_BY_TAGS),
        (["pairs", str(FIXTURES / "twitter.jsonl")], UNUSED_BY_TAGS),
        (["ingest", str(FIXTURES / "twitter.jsonl")], set()),
        (["graph", str(FIXTURES / "twitter.jsonl")], set()),
        (["graph", str(FIXTURES / "twitter.jsonl"), "--graph-format", "graphml"], set()),
        (["timeline", str(FIXTURES / "twitter.jsonl"), "--tags", "svpol"], set()),
        (["sentiment", str(FIXTURES / "forum.jsonl")], set()),
    ],
    ids=[
        "parser",
        "pronouns",
        "code",
        "tags",
        "pairs",
        "ingest",
        "graph",
        "graphml",
        "timeline",
        "sentiment",
    ],
)
def test_subcommand_imports_only_the_modules_it_runs(tmp_path, argv, absent):
    # No subcommand loads HEAVY, none but run loads RUN_ONLY, and the parser
    # alone loads no report.
    loaded = _modules_at_exit(tmp_path, argv)
    assert sorted(loaded & (absent | RUN_ONLY | HEAVY)) == []


def test_run_imports_only_the_stages_it_runs(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        f"corpus:\n  path: {json.dumps(str(FIXTURES / 'twitter.jsonl'))}\n"
        "run:\n  stages: [ingest, tags]\n",
        encoding="utf-8",
    )
    loaded = _modules_at_exit(tmp_path, ["run", "--config", str(config)])
    assert RUN_ONLY <= loaded
    assert sorted(loaded & ({"socmine.coding", "socmine.sentiment"} | HEAVY)) == []


# The subcommand that prints each stage's artifact; timeline is given the
# tags the run plotted.
SUBCOMMAND_OF_STAGE = {
    "tags": (["tags", "--top", "0"], "tags.csv"),
    "pairs": (["pairs", "--top", "0"], "pairs.csv"),
    "graph": (["graph"], "graph.dot"),
    "timeline": (["timeline", "--tags"], "timeline.csv"),
    "coding": (["code"], "coding.csv"),
    "pronouns": (["pronouns"], "pronouns.csv"),
    "sentiment": (["sentiment"], "power.csv"),
}


# forum.jsonl holds no hashtags, so its timeline stage plots nothing and
# there are no tags to pass to `timeline --tags`.
@pytest.mark.parametrize(
    "fixture,skip", [("twitter.jsonl", ()), ("forum.jsonl", ("timeline",))]
)
def test_each_subcommand_prints_its_run_artifact(tmp_path, capsys, fixture, skip):
    corpus = str(FIXTURES / fixture)
    config = make_config({"corpus": {"path": corpus}, "run": {"out_dir": "."}}, base_dir=tmp_path)
    manifest = run_pipeline(config)
    capsys.readouterr()
    for stage in manifest.stages[1:]:
        if stage.name in skip:
            continue
        (command, *flags), artifact = SUBCOMMAND_OF_STAGE[stage.name]
        if stage.name == "timeline":
            flags.append(",".join(stage.summary["tags"]))
        assert main([command, corpus, *flags]) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        written = (manifest.run_dir / artifact).read_bytes()
        assert printed == written, command
        if command in ("tags", "pairs"):
            # A top-N is the header and the first N rows of the whole table.
            assert main([command, corpus, "--top", "20"]) == 0
            first_rows = b"".join(written.splitlines(keepends=True)[:21])
            assert capsys.readouterr().out.encode("utf-8") == first_rows, command


def test_a_table_without_pairs_keeps_the_pairs_columns(tmp_path, capsys):
    # forum.jsonl holds no hashtags, so its pairs table has no rows; its
    # header must still be that of a pairs table.
    corpus = str(FIXTURES / "forum.jsonl")
    config = make_config({"corpus": {"path": corpus}, "run": {"out_dir": "."}}, base_dir=tmp_path)
    manifest = run_pipeline(config)
    assert (manifest.run_dir / "pairs.csv").read_text(encoding="utf-8") == "key,key2,count\n"
    capsys.readouterr()
    assert main(["pairs", corpus]) == 0
    assert capsys.readouterr().out == "key,key2,count\n"


RICH_CORPUS = [
    ("a", "2013-05-20T10:00:00Z", "policja na ulicy policja strzela", ["riots", "police", "husby"]),
    ("b", "2013-05-21T10:00:00Z", "oni im nie pomogą my też nie", ["riots", "police"]),
    ("c", "2013-05-21T18:00:00Z", "dobra policja dobra wiadomość", ["riots", "husby", "kista"]),
    ("d", "2013-05-22T10:00:00Z", "policja używa gazu na ulicy", ["riots", "police", "husby"]),
    ("e", "2013-05-23T10:00:00Z", "dobra wiadomość dla nas", ["kista"]),
    ("f", "2013-05-24T10:00:00Z", "policja gazu policjanci strzela", ["svpol", "riots"]),
]
# Data files that differ from the bundled ones, so a flag that is dropped
# changes the output.
FLAG_DATA = {
    "stops.txt": "ulicy\ngazu\n",
    "taxonomy.tsv": "1\tStreet\n1\tulic\tprefix\n2\tPolice\n2\tpolicj\tprefix\n2\tgaz\tprefix\n",
    "groups.tsv": "them\tthey\toni|im\nus\twe\tmy|nas\n",
    "lexicon.tsv": "dobr\tpositive\t2\nstrzela\tnegative\t3\texact\n",
}


def _flag_case(stage, d):
    """The subcommand of a stage with non-default flags, the same values as
    config keys, and the run artifact its stdout must equal."""
    corpus, csv_corpus, stops = str(d / "c.jsonl"), str(d / "c.csv"), str(d / "stops.txt")
    window = "2013-05-21..2013-05-23"
    return {
        "tags": (
            ["tags", csv_corpus, "--top", "0", "--format", "csv", "--window", window,
             "--min-tags", "2"],
            {"corpus": {"path": csv_corpus, "format": "csv", "window": window, "min_tags": 2},
             "tags": {"top": 0}},
            "tags.csv",
        ),
        "pairs": (
            ["pairs", corpus, "--top", "0", "--min-tags", "3"],
            {"corpus": {"min_tags": 3}, "pairs": {"top": 0}},
            "pairs.csv",
        ),
        # kista is a whitelisted tag whose edges all fall below the threshold.
        "graph": (
            ["graph", corpus, "--threshold", "3", "--whitelist-top", "4", "--retain-isolates",
             "--cap", "2", "--graph-format", "graphml"],
            {"graph": {"threshold": 3, "whitelist_top": 4, "retain_isolates": True, "cap": 2,
                       "format": "graphml"}},
            "graph.graphml",
        ),
        "timeline": (
            ["timeline", corpus, "--tags", "riots,kista", "--timeline-format", "svg",
             "--window", window],
            {"corpus": {"window": window},
             "timeline": {"tags": ["riots", "kista"], "formats": ["svg"]}},
            "timeline.svg",
        ),
        "coding": (
            ["code", corpus, "--taxonomy", str(d / "taxonomy.tsv"), "--stopwords", stops,
             "--min-freq", "2", "--occurrences"],
            {"coding": {"taxonomy": str(d / "taxonomy.tsv"), "min_freq": 2, "occurrences": True},
             "text": {"stopwords": stops}},
            "coding.csv",
        ),
        "pronouns": (
            ["pronouns", corpus, "--groups", str(d / "groups.tsv")],
            {"pronouns": {"groups": str(d / "groups.tsv")}},
            "pronouns.csv",
        ),
        "sentiment": (
            ["sentiment", corpus, "--lexicon", str(d / "lexicon.tsv"), "--filter-stem", "policja",
             "--filter-mode", "exact", "--min-freq", "1", "--stopwords", stops],
            {"sentiment": {"lexicon": str(d / "lexicon.tsv"), "filter_stem": "policja",
                           "filter_mode": "exact", "min_freq": 1},
             "text": {"stopwords": stops}},
            "power.csv",
        ),
    }[stage]


@pytest.mark.parametrize("stage", STAGES[1:])
def test_each_flag_reaches_its_config_key(tmp_path, capsys, stage):
    (tmp_path / "c.jsonl").write_text(
        "".join(
            json.dumps({"id": i, "ts": ts, "text": text, "tags": tags}, ensure_ascii=False) + "\n"
            for i, ts, text, tags in RICH_CORPUS
        ),
        encoding="utf-8",
    )
    write_csv_corpus(load_corpus(tmp_path / "c.jsonl")[0], tmp_path / "c.csv")
    for name, text in FLAG_DATA.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv, overrides, artifact = _flag_case(stage, tmp_path)
    overrides.setdefault("corpus", {}).setdefault("path", argv[1])
    overrides.setdefault("run", {}).update(stages=[stage], out_dir=".")
    manifest = run_pipeline(make_config(overrides, base_dir=tmp_path))
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert printed == (manifest.run_dir / artifact).read_bytes()


# main runs each command with the cyclic garbage collector off, and ends
# the process with os._exit when it runs the process's own command (see the
# cli module docstring). The tests below check that an in-process caller
# gets the collector's state back and no exit hook, that the process entry
# prints what main(argv) prints and exits without running a hook or freeing
# its Context, that stages run with collection off, and that the cyclic
# garbage a run leaves does not grow with the corpus.


@pytest.fixture()
def collector_on():
    gc.enable()
    yield
    gc.enable()


def test_main_gives_back_the_collector_state(corpus_file, collector_on):
    for argv, code in (
        (["tags", str(corpus_file)], 0),
        (["tags"], 1),
        (["tags", str(corpus_file), "--top", "-1"], 2),
    ):
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            hooks, frozen = atexit._ncallbacks(), gc.get_freeze_count()
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, (argv, enabled)
            assert (atexit._ncallbacks(), gc.get_freeze_count()) == (hooks, frozen), argv
    gc.enable()
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.isenabled()


# Runs `socmine ARGV...` through the process entry. A normal exit would
# run the hook registered here, and the finalizer of each Context main
# makes, whether or not the Context is freed by then; either prints a line.
EXIT_PROBE = """\
import atexit, sys, weakref
from socmine import report
from socmine.cli import main
init = report.Context.__init__
def spy(self, sections):
    init(self, sections)
    weakref.finalize(self, print, "context finalized", file=sys.stderr)
report.Context.__init__ = spy
atexit.register(print, "atexit hook ran", file=sys.stderr)
sys.exit(main())
"""


def _entry_env() -> dict:
    """_env_with_src, with stdout block-buffered as it is by default, so a
    buffer that is not flushed before exit loses output."""
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _seconds_masked(text: str) -> str:
    """A run's console summary without its stage timings."""
    return re.sub(r" +\d+\.\d{3}s ", " ", text)


def test_the_process_entry_exits_with_its_output_and_nothing_freed(corpus_file, tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("corpus:\n  path: c.jsonl\nrun:\n  out_dir: runs\n", encoding="utf-8")
    twitter = str(FIXTURES / "twitter.jsonl")
    for argv, code in (
        (["tags", str(corpus_file)], 0),
        (["tags"], 1),
        (["tags", str(tmp_path / "gone.jsonl")], 2),
        # 86 KB: more than one stdio buffer.
        (["pairs", twitter, "--top", "0"], 0),
        (["run", "--config", str(config), "--jobs", "1"], 0),
        (["run", "--config", str(config), "--jobs", "2"], 0),
    ):
        result = subprocess.run(
            [sys.executable, "-c", EXIT_PROBE, *argv], env=_entry_env(), capture_output=True, text=True
        )
        if argv[0] == "run":
            manifest = result.stdout.rsplit("manifest: ", 1)[-1].strip()
            assert Path(manifest).is_file(), result.stderr
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert result.returncode == code, (argv, result.stderr)
        assert _seconds_masked(result.stdout) == _seconds_masked(out), argv
        assert result.stderr == err, argv


def test_the_process_entry_prints_version_and_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    for flag in ("--version", "--help"):
        result = subprocess.run(
            [sys.executable, "-m", "socmine.cli", flag], env=_entry_env(), capture_output=True, text=True
        )
        with pytest.raises(SystemExit):
            main([flag])
        assert (result.returncode, result.stdout, result.stderr) == (0, capsys.readouterr().out, "")
        assert result.stdout.startswith("socmine " if flag == "--version" else "usage: socmine")


def test_the_process_entry_exits_0_when_the_reader_has_gone(corpus_file):
    # A reader that leaves after one line of 86 KB meets the command
    # mid-write; one that is gone from the start meets the final flush.
    twitter = str(FIXTURES / "twitter.jsonl")
    for argv, lines in ((["pairs", twitter, "--top", "0"], 1), (["tags", str(corpus_file), "--top", "5"], 0)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "socmine.cli", *argv],
            env=_entry_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b""), argv


def test_the_process_entry_runs_with_stdout_closed(corpus_file):
    # With no file descriptor 1, sys.stdout is None: print writes nothing,
    # and there is no stdout to flush.
    entry = [sys.executable, "-m", "socmine.cli", "ingest", str(corpus_file)]
    result = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *entry], env=_entry_env(), capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_the_process_entry_exits_3_when_stdout_is_full(corpus_file):
    # tags fills no buffer, so the write first fails at the final flush;
    # pairs fails inside the command.
    twitter = str(FIXTURES / "twitter.jsonl")
    for argv in (["tags", str(corpus_file), "--top", "5"], ["pairs", twitter, "--top", "0"]):
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "socmine.cli", *argv], env=_entry_env(), stdout=full, stderr=subprocess.PIPE
            )
        assert result.returncode == 3, argv
        assert result.stderr.decode() == "internal error: OSError(28, 'No space left on device')\n", argv


def test_stages_run_with_the_collector_off(corpus_file, collector_on, tmp_path, monkeypatch):
    import socmine.report as report

    seen = []
    ingest = report._STAGES["ingest"]

    def spy(ctx, build_dir):
        seen.append(gc.isenabled())
        return ingest(ctx, build_dir)

    monkeypatch.setitem(report._STAGES, "ingest", spy)
    config = tmp_path / "run.yaml"
    config.write_text("corpus:\n  path: c.jsonl\nrun:\n  stages: [ingest]\n", encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    assert seen == [False]
    assert gc.isenabled()


# Words the bundled taxonomy, lexicon, pronoun groups and stopwords match,
# so that every stage has rows to make.
GUARD_WORDS = "oni im my nas dobra wspaniały fatalny i w na work school asylum hate".split()


def _guard_corpus(path: Path, copies: int) -> None:
    """copies x 150 documents; past the first copy, one in four lies outside the window."""
    rng = random.Random(copies)
    with path.open("w", encoding="utf-8") as handle:
        for i in range(150 * copies):
            day = 20 + i % 5 if i < 150 or i % 4 else 1
            words = rng.choices(GUARD_WORDS, k=12) + [f"w{rng.randrange(40 * copies)}" for _ in range(6)]
            tags = sorted({f"t{rng.randrange(30 * copies)}" for _ in range(rng.randrange(1, 5))})
            record = {"id": str(i), "ts": f"2013-05-{day:02d}T10:00:00Z", "text": " ".join(words), "tags": tags}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def test_cyclic_garbage_of_a_run_does_not_grow_with_the_corpus(tmp_path, collector_on):
    config = tmp_path / "run.yaml"
    leftovers, dropped = [], []
    # The first run imports and sets up what every run shares; it is not counted.
    for n, copies in enumerate((1, 1, 4)):
        corpus = tmp_path / f"c{copies}.jsonl"
        _guard_corpus(corpus, copies)
        config.write_text(
            f"corpus:\n  path: {corpus.name}\n  window: 2013-05-15..2013-05-31\nrun:\n  out_dir: runs{n}\n",
            encoding="utf-8",
        )
        gc.collect()
        gc.disable()
        assert main(["run", "--config", str(config)]) == 0
        leftovers.append(gc.collect())
        gc.enable()
        (manifest,) = (tmp_path / f"runs{n}").glob("*/manifest.json")
        ingest = json.loads(manifest.read_text(encoding="utf-8"))["stages"][0]
        dropped.append(ingest["summary"]["dropped"])
    assert dropped == [{}, {}, {"out_of_window": 112}]
    assert leftovers[1] == leftovers[2], leftovers
