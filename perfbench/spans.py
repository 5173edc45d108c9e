"""In-memory tracer that wraps socmine's public functions from outside.

socmine modules bind each other's functions with `from .x import f`, so a
wrapper only takes effect if every module-level name bound to the original
function is rebound. `Tracer.install` does that for every loaded socmine
module and `uninstall` puts the originals back.

Two kinds of wrapper:

- span: one record per call with name, start, end, parent span and run id;
- call aggregate: for functions called once per document or key (tokenize,
  score_text, ...), only a call count, total seconds and items returned,
  per (parent, function). Nested aggregated calls get the enclosing
  aggregate as parent, so self time can be computed for both kinds.

Spans and aggregates stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import resource
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

LAYERS = ("corpus", "ngrams", "graph", "timeline", "text", "coding", "sentiment", "report", "config", "cli")

# Called once per document, tag, record or key: aggregated, not one span each.
AGGREGATED = {
    "text.tokenize",
    "text.remove_stopwords",
    "sentiment.score_text",
    "corpus.normalize_tag",
    "corpus.parse_timestamp",
}


def _rss_mib() -> float:
    """Current resident set size; the peak (ru_maxrss) where /proc is missing."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * resource.getpagesize() / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _observe_load(tracer: "Tracer", args, kwargs, result) -> None:
    report = result[1]
    tracer.counters["corpus.load_corpus.records_read"] += report.records_read
    tracer.counters["corpus.load_corpus.dropped.out_of_window"] += report.dropped.get("out_of_window", 0)


# What each wrapped function adds to the counters, from its arguments and result.
OBSERVERS: dict[str, Callable[["Tracer", tuple, dict, Any], None]] = {
    "corpus.load_corpus": _observe_load,
    "corpus.filter_multi_tag": lambda t, a, k, r: t.counters.update(
        {"corpus.filter_multi_tag.docs_dropped": len(a[0]) - len(r)}
    ),
    "ngrams.count_tag_pairs": lambda t, a, k, r: t.counters.update({"ngrams.count_tag_pairs.keys_out": len(r)}),
    "ngrams.top_k": lambda t, a, k, r: t.counters.update({"ngrams.top_k.entries_sorted": len(a[0])}),
    "ngrams.counts_to_csv": lambda t, a, k, r: t.counters.update(
        {"ngrams.counts_to_csv.bytes_out": len(r.encode("utf-8"))}
    ),
    "ngrams.count_token_2grams": lambda t, a, k, r: t.counters.update(
        {"ngrams.count_token_2grams.keys_out": len(r)}
    ),
    "graph.export_graph": lambda t, a, k, r: t.counters.update({"graph.export_graph.bytes_out": len(r.encode("utf-8"))}),
    "coding.code_vocabulary": lambda t, a, k, r: t.counters.update(
        {"coding.code_vocabulary.vocabulary": r.vocabulary_size}
    ),
    "report.run_pipeline": lambda t, a, k, r: t.captured.__setitem__("manifest", r),
}


class Span(NamedTuple):
    id: int
    name: str
    parent: Any  # span id, aggregate key, or None
    start: float
    end: float
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Spans and call aggregates for one traced run of a workload."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.captured: dict[str, Any] = {}
        self.rss_delta_mib = 0.0
        self.absent: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_calls: list[dict] = []
        self._lock = threading.Lock()
        self._root: list = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.originals: dict[str, Callable] = {}

    # -- recording -------------------------------------------------------

    def _state(self) -> tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.calls = {}
            with self._lock:
                self._thread_calls.append(local.calls)
        return local.stack, local.calls

    def _parent(self, stack: list) -> Any:
        # Pool threads start with an empty stack; the call that made the pool
        # is the innermost open frame of the installing thread.
        if stack:
            return stack[-1]
        return self._root[-1] if self._root else None

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        measure_rss = name == "corpus.load_corpus"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, _ = self._state()
            parent = self._parent(stack)
            label = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.main.{argv[0] if argv else 'none'}"
            span_id = next(self._ids)
            stack.append(span_id)
            rss_before = _rss_mib() if measure_rss else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, label, parent, start, end, self.run_id))
            if measure_rss:
                self.rss_delta_mib += _rss_mib() - rss_before
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError) as exc:
                    self.absent[name] = f"observer failed: {exc!r}"
            return result

        return wrapper

    def calls_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, calls = self._state()
            key = (self._parent(stack), name)
            stack.append(key)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = calls.get(key)
                if entry is None:
                    entry = calls[key] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
            if isinstance(result, (list, tuple)):
                entry[2] += len(result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap the public functions of every layer; return the wrapped names."""
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"socmine.{layer}")
            except ImportError as exc:
                self.absent[layer] = f"module missing: {exc}"
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = value
                make = self.calls_wrapper if name in AGGREGATED else self.span_wrapper
                wrappers[value] = make(name, value)
        loaded = [m for n, m in list(sys.modules.items()) if n == "socmine" or n.startswith("socmine.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._installed.append((module, attr, value))
        self._root = self._state()[0]
        return sorted(self.originals)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- analysis --------------------------------------------------------

    def aggregates(self) -> dict[tuple, list]:
        merged: dict[tuple, list] = {}
        with self._lock:
            tables = list(self._thread_calls)
        for table in tables:
            for key, (calls, seconds, items) in table.items():
                entry = merged.setdefault(key, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += items
        return merged

    def self_seconds(self) -> tuple[dict[int, float], dict[tuple, float]]:
        """Self time of each span and aggregate: duration minus child coverage.

        Child spans count by the union of their intervals; aggregated children
        by their summed seconds. With pool threads that sum counts time spent
        waiting for the interpreter lock, so self time is then a lower bound.
        """
        aggregates = self.aggregates()
        child_spans: dict[Any, list[tuple[float, float]]] = {}
        for span in self.spans:
            child_spans.setdefault(span.parent, []).append((span.start, span.end))
        child_calls: dict[Any, float] = Counter()
        for (parent, _), (_, seconds, _) in aggregates.items():
            child_calls[parent] += seconds
        span_self = {
            span.id: max(
                0.0,
                span.seconds
                - _union_length(child_spans.get(span.id, []), span.start, span.end)
                - child_calls.get(span.id, 0.0),
            )
            for span in self.spans
        }
        call_self = {
            key: max(0.0, seconds - child_calls.get(key, 0.0))
            for key, (_, seconds, _) in aggregates.items()
        }
        return span_self, call_self

    def coverage(self) -> list[dict[str, Any]]:
        """Share of each stage (or CLI command) covered by wrapped child spans.

        Pipeline stage intervals are rebuilt from the manifest's stage seconds,
        laid end to end from the close of the corpus digest; a CLI command's
        interval is its cmd_* span.
        """
        units: list[tuple[str, float, float, Any, str]] = []
        manifest = self.captured.get("manifest")
        pipeline = [s for s in self.spans if s.name == "report.run_pipeline"]
        if manifest is not None and pipeline:
            root = pipeline[-1]
            digests = [s for s in self.spans if s.parent == root.id and s.name == "config.file_digest"]
            cursor = digests[0].end if digests else root.start
            for stage in manifest.stages:
                units.append((stage.name, cursor, cursor + stage.seconds, root.id, f"stage_{stage.name}"))
                cursor += stage.seconds
        for span in self.spans:
            if span.name.startswith("cli.cmd_") and span.name != "cli.cmd_run":
                units.append((span.name[len("cli."):], span.start, span.end, span.id, span.name[len("cli."):]))
        result = []
        for label, lo, hi, parent, code_name in units:
            children = [(s.start, s.end) for s in self.spans if s.parent == parent]
            seconds = hi - lo
            covered = _union_length(children, lo, hi)
            entry = {"unit": label, "seconds": seconds, "covered": covered,
                     "coverage": covered / seconds if seconds > 0 else 1.0}
            if entry["coverage"] < 0.9:
                entry["unwrapped"] = self._unwrapped(code_name)
            result.append(entry)
        return result

    def _unwrapped(self, code_name: str) -> list[str]:
        """Private helpers and inline code that a stage or command runs unwrapped."""
        if code_name.startswith("stage_"):
            module_name, owner = "report", self.originals.get("report.run_pipeline")
            consts = owner.__code__.co_consts if owner else ()
            code = next((c for c in consts if inspect.iscode(c) and c.co_name == code_name), None)
        else:
            module_name, owner = "cli", self.originals.get(f"cli.{code_name}")
            code = owner.__code__ if owner else None
        if code is None:
            return [f"code outside wrapped spans ({code_name} not found)"]
        module = sys.modules.get(f"socmine.{module_name}")
        helpers = [
            f"{module_name}.{n}" for n in code.co_names
            if n.startswith("_") and callable(getattr(module, n, None))
        ]
        return helpers + [f"inline code of {module_name}.{code_name}"]

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        span_self, call_self = self.self_seconds()
        payload = {
            **extra,
            "run_id": self.run_id,
            "spans": [
                {"id": s.id, "name": s.name, "parent": _key_text(s.parent), "start": s.start,
                 "end": s.end, "self_s": span_self[s.id], "run_id": s.run_id}
                for s in self.spans
            ],
            "calls": [
                {"name": name, "parent": _key_text(parent), "calls": calls, "seconds": seconds,
                 "self_s": call_self[(parent, name)], "items_out": items}
                for (parent, name), (calls, seconds, items) in self.aggregates().items()
            ],
            "counters": dict(self.counters),
            "coverage": self.coverage(),
            "absent": self.absent,
        }
        path.write_text(json.dumps(payload, indent=1, default=str) + "\n", encoding="utf-8")


def _key_text(key: Any) -> Any:
    if isinstance(key, tuple):
        return f"{_key_text(key[0])}/{key[1]}"
    return key
