"""Independent output checker for the socmine benchmark.

It does not import socmine. It recounts, from the generated corpus file, what
each artifact must contain and reports every mismatch as a problem string:

- tag totals (each tag counts once per kept document);
- the pair total, sum of C(k, 2) over the distinct tags of each kept document,
  and every pair count;
- graph edges: the pairs at or above the threshold;
- each timeline endpoint, which must equal its tag count;
- coding vocabulary conservation: categorized + uncategorized = vocabulary,
  and the vocabulary size itself;
- the planted pronoun counts;
- the power.csv frequency sum against the stopword-filtered 2-gram count.
"""

from __future__ import annotations

import csv
import io
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

WORD_RE = re.compile(r"[^\W_]+")


def tokens(text: str) -> list[str]:
    return [m.group().lower() for m in WORD_RE.finditer(text)]


def epoch(value: str | int | float) -> int:
    if isinstance(value, (int, float)):
        return int(value)
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def window_bounds(window: str) -> tuple[int, int]:
    """'YYYY-MM-DD..YYYY-MM-DD' as inclusive epoch seconds, whole days."""
    start, end = window.split("..")
    lo = epoch(start + "T00:00:00Z")
    hi = epoch(end + "T23:59:59Z")
    return lo, hi


def read_stopwords(path: Path) -> frozenset[str]:
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


@dataclass
class Expected:
    records_read: int = 0
    out_of_window: int = 0
    docs: int = 0
    tags: Counter = field(default_factory=Counter)
    pairs: Counter = field(default_factory=Counter)
    words: Counter = field(default_factory=Counter)
    bigrams: Counter = field(default_factory=Counter)
    pronouns_all: Counter = field(default_factory=Counter)
    stopwords: frozenset = frozenset()

    @property
    def pair_total(self) -> int:
        return sum(self.pairs.values())

    def ranked_tags(self, k: int) -> list[tuple[str, int]]:
        return sorted(self.tags.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def ranked_pairs(self, k: int) -> list[tuple[tuple[str, str], int]]:
        return sorted(self.pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def vocabulary(self, min_freq: int) -> int:
        return sum(1 for w, n in self.words.items() if n >= min_freq and w not in self.stopwords)

    def bigram_mass(self, min_freq: int) -> tuple[int, int]:
        kept = [n for n in self.bigrams.values() if n >= min_freq]
        return len(kept), sum(kept)


def expect(corpus: Path, stopwords: Path, pronouns: tuple[str, ...],
           window: str = "", min_tags: int = 0) -> Expected:
    """Recount everything the checks need from the corpus file."""
    exp = Expected(stopwords=read_stopwords(stopwords))
    lo, hi = window_bounds(window) if window else (None, None)
    wanted = set(pronouns)
    with corpus.open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            exp.records_read += 1
            words = tokens(record.get("text", ""))
            exp.pronouns_all.update(w for w in words if w in wanted)
            if lo is not None and not lo <= epoch(record["ts"]) <= hi:
                exp.out_of_window += 1
                continue
            tags = [t.lstrip("#").lower() for t in record.get("tags", [])]
            if len(tags) < min_tags:
                continue
            exp.docs += 1
            distinct = sorted(set(tags))
            exp.tags.update(distinct)
            exp.pairs.update(combinations(distinct, 2))
            exp.words.update(words)
            content = [w for w in words if w not in exp.stopwords]
            exp.bigrams.update(zip(content, content[1:]))
    return exp


def check_planted(exp: Expected, planted: dict[str, int]) -> list[str]:
    recount = {surface: exp.pronouns_all.get(surface, 0) for surface in planted}
    if recount != planted:
        return [f"generator: planted pronouns {planted} but the corpus holds {recount}"]
    return []


# -- artifact parsers and checks --------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _comments(rows: list[list[str]]) -> dict[str, str]:
    return {r[0][2:]: r[1] for r in rows if r and r[0].startswith("# ") and len(r) == 2}


def check_count_csv(name: str, text: str, expected: list[tuple], pairs: bool) -> list[str]:
    rows = _rows(text)
    header = ["key", "key2", "count"] if pairs else ["key", "count"]
    if not rows or rows[0] != header:
        return [f"{name}: header {rows[:1]} is not {header}"]
    got = [((r[0], r[1]), int(r[2])) if pairs else (r[0], int(r[1])) for r in rows[1:]]
    if got != expected:
        return [f"{name}: {len(got)} ranked rows differ from the {len(expected)} expected"]
    return []


def check_graph(name: str, text: str, fmt: str, exp: Expected, threshold: int) -> list[str]:
    edges: dict[tuple[str, str], int] = {}
    if fmt == "graphml":
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        root = ET.fromstring(text)
        for edge in root.iter("{http://graphml.graphdrawing.org/xmlns}edge"):
            weight = edge.find("g:data[@key='weight']", ns)
            edges[(edge.get("source"), edge.get("target"))] = int(weight.text)
    else:
        for match in re.finditer(r'^  "([^"]*)" -- "([^"]*)" \[weight=(\d+)', text, re.M):
            edges[(match[1], match[2])] = int(match[3])
    want = {pair: n for pair, n in exp.pairs.items() if n >= threshold}
    if edges != want:
        return [f"{name}: {len(edges)} edges, expected {len(want)} pairs with weight >= {threshold}"]
    return []


def check_timeline_csv(name: str, text: str, exp: Expected, top: int) -> list[str]:
    rows = _rows(text)
    tags = sorted(tag for tag, _ in exp.ranked_tags(top))
    if not rows or rows[0] != ["date"] + tags:
        return [f"{name}: header {rows[:1]} does not list the top {top} tags {tags}"]
    problems = []
    for col, tag in enumerate(tags, start=1):
        series = [int(r[col]) for r in rows[1:]]
        if series != sorted(series):
            problems.append(f"{name}: series {tag} decreases")
        if series[-1] != exp.tags[tag]:
            problems.append(f"{name}: endpoint of {tag} is {series[-1]}, tag count {exp.tags[tag]}")
    return problems


def check_svg(name: str, text: str, series: int) -> list[str]:
    root = ET.fromstring(text)
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != series:
        return [f"{name}: {len(lines)} polylines, expected {series}"]
    return []


def check_coding(name: str, text: str, exp: Expected, min_freq: int) -> list[str]:
    rows = _rows(text)
    meta = _comments(rows)
    body = [r for r in rows[1:] if r and not r[0].startswith("#")]
    assigned = sum(int(r[2]) for r in body)
    vocabulary = int(meta.get("vocabulary_size", -1))
    uncategorized = int(meta.get("uncategorized", -1))
    problems = []
    if assigned + uncategorized != vocabulary:
        problems.append(f"{name}: {assigned} categorized + {uncategorized} uncategorized != {vocabulary}")
    if vocabulary != exp.vocabulary(min_freq):
        problems.append(f"{name}: vocabulary {vocabulary}, recount {exp.vocabulary(min_freq)}")
    if assigned == 0:
        problems.append(f"{name}: no word was categorized")
    return problems


def check_pronouns(name: str, text: str, exp: Expected, planted: dict[str, int]) -> list[str]:
    rows = _rows(text)
    meta = _comments(rows)
    body = [r for r in rows[1:] if r and not r[0].startswith("#")]
    problems = []
    totals = Counter()
    for label, group, surface, count in body:
        totals[group] += int(count)
        want = exp.words.get(surface, 0)
        if int(count) != want:
            problems.append(f"{name}: {surface} counted {count}, expected {want}")
    for group in ("them", "us"):
        if int(meta.get(f"{group}_total", -1)) != totals[group]:
            problems.append(f"{name}: {group}_total {meta.get(f'{group}_total')} != row sum {totals[group]}")
    if {r[2] for r in body} != set(planted):
        problems.append(f"{name}: surfaces {sorted(r[2] for r in body)} are not the planted {sorted(planted)}")
    return problems


def check_power(name: str, text: str, exp: Expected, min_freq: int) -> list[str]:
    rows = _rows(text)
    meta = _comments(rows)
    body = [r for r in rows[1:] if r and not r[0].startswith("#")]
    count, mass = exp.bigram_mass(min_freq)
    freq_sum = sum(int(r[1]) for r in body)
    problems = []
    if len(body) != count or freq_sum != mass:
        problems.append(f"{name}: {len(body)} rows with frequency sum {freq_sum}, "
                        f"expected {count} 2-grams with sum {mass}")
    if any(not -4 <= int(r[2]) <= 4 or int(r[3]) != int(r[1]) * int(r[2]) for r in body):
        problems.append(f"{name}: a row's strength is outside -4..4 or power != freq * strength")
    if int(meta.get("sum_power", 0)) != sum(int(r[3]) for r in body):
        problems.append(f"{name}: sum_power does not equal the row sum")
    return problems


def check_run_dir(run_dir: Path, config: dict, exp: Expected, planted: dict[str, int]) -> list[str]:
    """Check every artifact of one `socmine run` directory."""
    stages = config["run"]["stages"]
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    summary = {s["name"]: s["summary"] for s in manifest["stages"]}
    problems = []
    if list(summary) != stages:
        problems.append(f"manifest: stages {list(summary)} are not {stages}")

    def read(name: str) -> str:
        return (run_dir / name).read_text(encoding="utf-8")

    if "ingest" in stages:
        ingest = summary.get("ingest", {})
        if ingest.get("records_read") != exp.records_read or ingest.get("documents") != exp.docs:
            problems.append(f"manifest ingest: {ingest.get('records_read')} read / {ingest.get('documents')} "
                            f"documents, expected {exp.records_read} / {exp.docs}")
        if ingest.get("dropped", {}).get("out_of_window", 0) != exp.out_of_window:
            problems.append(f"manifest ingest: out_of_window {ingest.get('dropped')}, expected {exp.out_of_window}")
        if read("corpus.jsonl").count("\n") != exp.docs:
            problems.append("corpus.jsonl: line count differs from the kept documents")
    if "tags" in stages:
        problems += check_count_csv("tags.csv", read("tags.csv"), exp.ranked_tags(len(exp.tags)), pairs=False)
    if "pairs" in stages:
        problems += check_count_csv("pairs.csv", read("pairs.csv"), exp.ranked_pairs(len(exp.pairs)), pairs=True)
        if summary.get("pairs", {}).get("total") != exp.pair_total:
            problems.append(f"manifest pairs: total {summary.get('pairs', {}).get('total')}, "
                            f"expected sum C(k,2) = {exp.pair_total}")
    if "graph" in stages:
        fmt = config["graph"]["format"]
        problems += check_graph(f"graph.{fmt}", read(f"graph.{fmt}"), fmt, exp, config["graph"]["threshold"])
    if "timeline" in stages:
        top = config["timeline"]["top"]
        if "csv" in config["timeline"]["formats"]:
            problems += check_timeline_csv("timeline.csv", read("timeline.csv"), exp, top)
        if "svg" in config["timeline"]["formats"]:
            problems += check_svg("timeline.svg", read("timeline.svg"), min(top, len(exp.tags)))
    if "coding" in stages:
        problems += check_coding("coding.csv", read("coding.csv"), exp, config["coding"]["min_freq"])
    if "pronouns" in stages:
        problems += check_pronouns("pronouns.csv", read("pronouns.csv"), exp, planted)
    if "sentiment" in stages:
        problems += check_power("power.csv", read("power.csv"), exp, config["sentiment"]["min_freq"])
    return problems


def check_cli_output(command: list[str], text: str, exp: Expected, planted: dict[str, int]) -> list[str]:
    """Check the stdout of one one-shot subcommand (default options)."""
    name = command[0]
    if name in ("tags", "pairs"):
        k = int(command[command.index("--top") + 1])
        ranked = exp.ranked_tags(k) if name == "tags" else exp.ranked_pairs(k)
        return check_count_csv(name, text, ranked, pairs=name == "pairs")
    if name == "graph":
        return check_graph(name, text, "dot", exp, threshold=2)
    if name == "timeline":
        problems = []
        wanted = command[command.index("--tags") + 1].split(",")
        lines = [line.split("\t") for line in text.splitlines()]
        if sorted(line[0] for line in lines) != sorted(wanted):
            problems.append(f"timeline: lines for {[line[0] for line in lines]}, expected {wanted}")
        for line in lines:
            if f"total={exp.tags[line[0]]}" not in line:
                problems.append(f"timeline: {line[0]} {line[2:3]} != total={exp.tags[line[0]]}")
        return problems
    if name == "code":
        return check_coding(name, text, exp, min_freq=1)
    if name == "pronouns":
        return check_pronouns(name, text, exp, planted)
    if name == "sentiment":
        return check_power(name, text, exp, min_freq=2)
    return [f"{name}: no check for this command"]


def compare_trees(reference: Path, candidate: Path) -> list[str]:
    """Byte-compare two output trees; every differing or missing file is a problem."""
    ref = {p.relative_to(reference): p for p in reference.rglob("*") if p.is_file()}
    got = {p.relative_to(candidate): p for p in candidate.rglob("*") if p.is_file()}
    problems = [f"{name}: missing" for name in sorted(ref.keys() - got.keys())]
    problems += [f"{name}: unexpected" for name in sorted(got.keys() - ref.keys())]
    problems += [
        f"{name}: bytes differ from the reference run"
        for name in sorted(ref.keys() & got.keys())
        if ref[name].read_bytes() != got[name].read_bytes()
    ]
    return problems


def guarded(check, *args) -> list[str]:
    """Run a check; a malformed or missing artifact is a problem, not a crash."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return [f"{check.__name__}: unreadable output: {exc!r}"]
