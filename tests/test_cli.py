import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import FIXTURES
from socmine.cli import main
from socmine.config import STAGES, make_config
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
    assert main(["pairs", str(corpus_file), "--jobs", "2"]) == 0
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
        (["tags", "--jobs", "0"], "run.jobs must be >= 1"),
        (["ingest", "--min-tags", "-1"], "corpus.min_tags must be >= 0"),
        (["graph", "--cap", "-1"], "graph.cap must be >= 0"),
        (["timeline", "--tags", "#"], "timeline.tags entry '#'"),
        (["timeline", "--tags", "riots,\t"], "timeline.tags entry '\\t'"),
        (["sentiment", "--filter-stem", "ab"], "sentiment.filter_stem"),
        (["sentiment", "--filter-stem", "AB", "--filter-mode", "exact"], "sentiment.filter_stem"),
        (["tags", "--top", "-1"], "tags.top must be >= 0"),
        (["pairs", "--top", "-1"], "pairs.top must be >= 0"),
    ],
)
def test_flag_errors_name_the_config_key(corpus_file, capsys, flags, key):
    assert main([flags[0], str(corpus_file), *flags[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


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


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("socmine ")


# xml.sax.saxutils alone pulls in urllib.request, http.client, email and ssl.
HEAVY = {"xml.sax", "urllib.request", "http.client", "xml.etree"}


def test_cli_import_loads_no_xml_or_network_modules():
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    # cli.py imports the analysis modules lazily, so the probe imports every
    # module of the package itself.
    probe = (
        "import importlib, pkgutil, sys, socmine\n"
        "for info in pkgutil.iter_modules(socmine.__path__, 'socmine.'):\n"
        "    importlib.import_module(info.name)\n"
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
# Only `socmine run` reads a config file and stages a run directory.
RUN_ONLY = {"yaml", "tempfile"}
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


# forum.jsonl holds no hashtags, so its timeline stage has nothing to plot.
@pytest.mark.parametrize(
    "fixture,skip", [("twitter.jsonl", ()), ("forum.jsonl", ("timeline",))]
)
def test_each_subcommand_prints_its_run_artifact(tmp_path, capsys, fixture, skip):
    corpus = str(FIXTURES / fixture)
    stages = [s for s in STAGES if s not in skip]
    config = make_config(
        {"corpus": {"path": corpus}, "run": {"stages": stages, "out_dir": "."}},
        base_dir=tmp_path,
    )
    manifest = run_pipeline(config)
    capsys.readouterr()
    for stage in manifest.stages[1:]:
        (command, *flags), artifact = SUBCOMMAND_OF_STAGE[stage.name]
        if stage.name == "timeline":
            flags.append(",".join(stage.summary["tags"]))
        assert main([command, corpus, *flags]) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert printed == (manifest.run_dir / artifact).read_bytes(), command
