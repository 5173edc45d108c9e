"""Self-tests of the benchmark's generator, checker, tracer and manifest.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q

No test reads the clock: timings are the benchmark's job, not the tests'.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import corpusgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, cli_commands  # noqa: E402

STOPWORDS = ROOT / "src" / "socmine" / "data" / "stopwords_pl.txt"


def small(workload, docs: int):
    """The workload's corpus shape at `docs` documents per kind."""
    kinds = tuple(dataclasses.replace(kind, count=docs) for kind in workload.corpus.kinds)
    return dataclasses.replace(workload.corpus, kinds=kinds)


def test_same_seed_same_corpus_and_other_seed_differs():
    spec = small(WORKLOADS["full_run"], 200)

    def sha256(seed: int) -> str:
        return hashlib.sha256(corpusgen.corpus_bytes(corpusgen.generate(spec, seed)[0])).hexdigest()

    assert sha256(5) == sha256(5)
    assert sha256(5) != sha256(6)


def test_generator_hits_the_stated_token_rates():
    records, planted = corpusgen.generate(small(WORKLOADS["text_mining"], 400), 3)
    vocab = corpusgen.Vocabulary()
    classes = {word: cls for cls, (words, _) in vocab.pools.items() for word in words}
    seen = Counter()
    for record in records:
        for token in checker.tokens(record["text"]):
            seen[classes.get(token, "other")] += 1
    total = sum(seen[cls] for cls in corpusgen.TOKEN_CLASSES)
    for cls, rate in zip(corpusgen.TOKEN_CLASSES, corpusgen.TOKEN_RATES):
        assert abs(seen[cls] / total - rate) < 0.01, (cls, seen[cls] / total)
    assert sum(planted.values()) == seen["pronoun"]
    texts = " ".join(r["text"] for r in records)
    assert re.search(r"[ąęóśłżźćń]", texts) and re.search(r"\b[A-ZĄĘÓŚŁŻŹĆŃ]{2,}\b", texts)


def test_generated_tags_and_timestamps():
    records, _ = corpusgen.generate(small(WORKLOADS["tag_graph"], 500), 4)
    tags = [t for r in records for t in r["tags"]]
    assert all(re.fullmatch(r"#?[a-z0-9]+", t) for t in tags)
    assert any(t.startswith("#") for t in tags)
    assert max(len(r["tags"]) for r in records) == 12
    lo, hi = checker.window_bounds(WORKLOADS["full_run"].config["corpus"]["window"])
    stamps = [checker.epoch(r["ts"]) for r in records]
    assert min(stamps) < lo and max(stamps) > hi


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if not w.is_cli])
def test_workload_configs_pass_make_config(name):
    from socmine.config import make_config

    wanted = WORKLOADS[name].pipeline_config()
    config = make_config(wanted)
    assert config["run"]["jobs"] == wanted["run"].get("jobs", 1)


def test_cli_commands_parse():
    from socmine.cli import build_parser

    for argv in cli_commands("corpus.jsonl", ["a", "b"]):
        assert build_parser().parse_args(argv).command == argv[0]


def test_benchmark_json_matches_the_harness():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in manifest["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in manifest["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]
    baseline = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))
    assert (baseline["default_seed"], baseline["heldout_seed"]) == (run.DEFAULT_SEED, run.HELDOUT_SEED)
    assert list(baseline["workloads"]) == list(WORKLOADS)


def test_generator_checker_and_calibration_do_not_import_socmine():
    for name in ("corpusgen.py", "checker.py", "calibrate.py"):
        source = (BENCH / name).read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from) socmine", source, re.M), name
    result = subprocess.run(run.CALIBRATION, capture_output=True, text=True, env={"PATH": ""})
    assert result.returncode == 0, result.stderr


def _socmine_run(tmp_path: Path, name: str, docs: int, seed: int):
    """Generate a small corpus for a workload and run socmine on it in-process."""
    from socmine.cli import main

    workload = WORKLOADS[name]
    spec = small(workload, docs)
    corpus = tmp_path / "corpus.jsonl"
    planted = corpusgen.write_corpus(spec, seed, corpus)
    config_path = tmp_path / "pipeline.yaml"
    workload.write_config(config_path)
    config = run._merged(json.loads(config_path.read_text(encoding="utf-8")))
    exp = checker.expect(corpus, STOPWORDS, corpusgen.PRONOUNS,
                         window=config["corpus"]["window"], min_tags=config["corpus"]["min_tags"])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    return run_dir, config, exp, planted


CORRUPTIONS = {
    "tags.csv": (r"\n([a-z0-9]+),(\d+)\n", lambda m: f"\n{m[1]},{int(m[2]) + 1}\n"),
    "pairs.csv": (r",(\d+)\n", lambda m: f",{int(m[1]) + 1}\n"),
    "timeline.csv": (r",(\d+)\n$", lambda m: f",{int(m[1]) - 1}\n"),
    "graph.dot": (r"weight=(\d+)", lambda m: f"weight={int(m[1]) + 1}"),
    "coding.csv": (r"# vocabulary_size,(\d+)", lambda m: f"# vocabulary_size,{int(m[1]) + 1}"),
    "pronouns.csv": (r",them,im,(\d+)", lambda m: f",them,im,{int(m[1]) + 1}"),
    "power.csv": (r",(-?\d+),(-?\d+),(-?\d+)\n", lambda m: f",{int(m[1]) + 1},{m[2]},{m[3]}\n"),
    "manifest.json": (r'"records_read": (\d+)', lambda m: f'"records_read": {int(m[1]) + 1}'),
}


def test_checker_passes_a_real_run_and_flags_each_corrupted_artifact(tmp_path):
    run_dir, config, exp, planted = _socmine_run(tmp_path, "full_run", 300, 8)
    assert checker.check_planted(exp, planted) == []
    assert checker.check_run_dir(run_dir, config, exp, planted) == []
    assert exp.out_of_window > 0 and exp.docs < exp.records_read - exp.out_of_window

    pristine = tmp_path / "pristine"
    shutil.copytree(run_dir, pristine)
    for name, (pattern, replace) in CORRUPTIONS.items():
        path = run_dir / name
        original = path.read_text(encoding="utf-8")
        corrupted = re.sub(pattern, replace, original, count=1)
        assert corrupted != original, name
        path.write_text(corrupted, encoding="utf-8")
        assert checker.guarded(checker.check_run_dir, run_dir, config, exp, planted), name
        assert checker.compare_trees(pristine, run_dir) == [f"{name}: bytes differ from the reference run"]
        path.write_text(original, encoding="utf-8")
    (run_dir / "timeline.svg").write_text("<svg", encoding="utf-8")
    assert checker.guarded(checker.check_run_dir, run_dir, config, exp, planted)


def test_checker_flags_wrong_cli_output():
    exp = checker.Expected(tags=Counter({"a": 3, "b": 2}))
    good = "key,count\na,3\nb,2\n"
    assert checker.check_cli_output(["tags", "c", "--top", "20"], good, exp, {}) == []
    assert checker.check_cli_output(["tags", "c", "--top", "20"], "key,count\nb,2\na,3\n", exp, {})


def test_tracer_rebinds_every_alias_and_restores_them():
    import socmine.cli  # noqa: F401
    import socmine.coding
    import socmine.ngrams
    import socmine.sentiment
    import socmine.text

    original = socmine.text.tokenize
    tracer = spans.Tracer("test")
    wrapped = tracer.install()
    try:
        assert "text.tokenize" in wrapped and "cli.main" in wrapped
        for module in (socmine.text, socmine.coding, socmine.ngrams, socmine.sentiment):
            assert module.tokenize is not original
        assert socmine.sentiment.score_text("dobry fatalny", socmine.sentiment.load_lexicon(
            ROOT / "src" / "socmine" / "data" / "lexicon.tsv")) == -1
    finally:
        tracer.uninstall()
    for module in (socmine.text, socmine.coding, socmine.ngrams, socmine.sentiment):
        assert module.tokenize is original
    (calls,) = [v for (parent, name), v in tracer.aggregates().items() if name == "text.tokenize"]
    assert calls[0] == 1 and calls[2] == 2


def test_self_time_subtracts_children():
    tracer = spans.Tracer("t")
    tracer.spans = [
        spans.Span(1, "outer", None, 0.0, 10.0, "t"),
        spans.Span(2, "inner", 1, 1.0, 4.0, "t"),
        spans.Span(3, "inner", 1, 3.0, 5.0, "t"),
    ]
    tracer._thread_calls = [{(1, "leaf"): [4, 2.0, 0]}]
    span_self, _ = tracer.self_seconds()
    assert span_self == {1: 10.0 - 4.0 - 2.0, 2: 3.0, 3: 2.0}
