"""Pipeline configuration.

Configs are YAML mappings merged over DEFAULTS and checked against RULES.
Path-valued settings are resolved relative to the config file's directory;
empty path settings mean "use the bundled data file" where one exists.

The config digest is computed from the merged values before path
resolution, minus run.jobs and run.out_dir, so the same analysis recipe
hashes identically across machines and parallelism settings.

PyYAML is imported by load_config alone, and hashlib by the two digest
functions alone, so the subcommands, which check their flags with
merge_config and write no manifest, load neither.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any, Mapping

from .corpus import _SURROGATE, _check_tag, normalize_tag, parse_window
from .errors import DataError
from .resources import cannot_read, utf8_fault
from .text import KeywordFamily

STAGES = (
    "ingest",
    "tags",
    "pairs",
    "graph",
    "timeline",
    "coding",
    "pronouns",
    "sentiment",
)

DEFAULTS: dict[str, dict[str, Any]] = {
    "corpus": {
        "path": "",
        "format": "jsonl",
        "window": "",
        "min_tags": 0,
        "aliases": {},
    },
    "run": {
        "stages": list(STAGES),
        "out_dir": "runs",
        "jobs": 2,
    },
    "text": {
        "stopwords": "",
    },
    "tags": {
        "top": 20,
    },
    "pairs": {
        "top": 20,
    },
    "graph": {
        "threshold": 2,
        "whitelist_top": 0,
        "format": "dot",
        "cap": 10,
        "retain_isolates": False,
    },
    "timeline": {
        "tags": [],
        "top": 5,
        "formats": ["csv", "svg"],
    },
    "coding": {
        "taxonomy": "",
        "min_freq": 1,
        "occurrences": False,
    },
    "pronouns": {
        "groups": "",
    },
    "sentiment": {
        "lexicon": "",
        "filter_stem": "",
        "filter_mode": "prefix",
        "min_freq": 2,
    },
}

# The value rule of a key: its minimum, or the values it (or each entry of
# a list) may take. merge_config checks config files and flags against it.
RULES: dict[str, int | tuple[str, ...]] = {
    "corpus.format": ("jsonl", "csv"),
    "corpus.min_tags": 0,
    "run.jobs": 1,
    "tags.top": 0,
    "pairs.top": 0,
    "graph.threshold": 1,
    "graph.whitelist_top": 0,
    "graph.format": ("dot", "graphml"),
    "graph.cap": 0,
    "timeline.top": 1,
    "timeline.formats": ("csv", "svg"),
    "coding.min_freq": 1,
    "sentiment.filter_mode": ("prefix", "exact"),
    "sentiment.min_freq": 1,
}

# A key's type is its default's; bool first, as it is an int subclass.
_KINDS = ((bool, "a boolean"), (int, "an integer"), (str, "a string"),
          (list, "a list"), (dict, "a mapping"))

# Settings that name files or directories, resolved against the config dir.
_PATH_KEYS = ("corpus.path", "run.out_dir", "text.stopwords", "coding.taxonomy",
              "pronouns.groups", "sentiment.lexicon")

# Excluded from the digest: neither changes what gets computed.
_DIGEST_EXEMPT = ("run.jobs", "run.out_dir")


class Config:
    __slots__ = ("values", "raw", "base_dir")

    def __init__(self, values: Mapping[str, Any], raw: Mapping[str, Any], base_dir: Path) -> None:
        self.values = values
        self.raw = raw
        self.base_dir = base_dir

    def __getitem__(self, section: str) -> Mapping[str, Any]:
        return self.values[section]

    @property
    def digest(self) -> str:
        return config_digest(self.raw)


def _merge_section(section: str, defaults: dict, overrides: Mapping) -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise DataError(f"unknown config key {section}.{key}")
        kind, name = next(k for k in _KINDS if isinstance(defaults[key], k[0]))
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise DataError(f"config key {section}.{key} must be {name}")
        merged[key] = copy.deepcopy(value)
    return merged


def merge_config(overrides: Mapping[str, Any]) -> dict[str, Any]:
    """Return DEFAULTS with overrides laid on top, rejecting unknown keys and
    invalid values; command-line flags go through here too."""
    merged: dict[str, Any] = {}
    for section, defaults in DEFAULTS.items():
        supplied = overrides.get(section, {})
        if not isinstance(supplied, Mapping):
            raise DataError(f"config section {section!r} must be a mapping")
        merged[section] = _merge_section(section, defaults, supplied)
    for section in overrides:
        if section not in DEFAULTS:
            raise DataError(f"unknown config section {section!r}")
    _validate(merged)
    return merged


def _validate(values: dict[str, Any]) -> None:
    for name, rule in RULES.items():
        section, key = name.split(".")
        value = values[section][key]
        if isinstance(rule, int):
            if value < rule:
                raise DataError(f"{name} must be >= {rule}")
        elif not all(entry in rule for entry in (value if isinstance(value, list) else [value])):
            which = " entries" if isinstance(value, list) else ""
            raise DataError(f"{name}{which} must be {' or '.join(map(repr, rule))}")
    stages = values["run"]["stages"]
    if not stages:
        raise DataError("run.stages selects no stages")
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise DataError(f"unknown stages in run.stages: {unknown}")
    formats = values["timeline"]["formats"]
    for name, entries in (("run.stages", stages), ("timeline.formats", formats)):
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                raise DataError(f"{name} names {entry!r} twice")
    aliases = values["corpus"]["aliases"].items()
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in aliases):
        raise DataError("corpus.aliases must map strings to strings")
    # Aliases map normalized tags to tags: a key is looked up after
    # normalization, and a value is used as it is.
    for key, value in aliases:
        if normalize_tag(key) != key:
            raise DataError(f"corpus.aliases key {key!r} must be written {normalize_tag(key)!r}")
        try:
            _check_tag(value)
        except ValueError as exc:
            raise DataError(f"corpus.aliases value for {key!r}: {exc}") from exc
    for tag in values["timeline"]["tags"]:
        if not isinstance(tag, str):
            raise DataError("timeline.tags entries must be strings")
        try:
            _check_tag(normalize_tag(tag, values["corpus"]["aliases"]))
        except ValueError as exc:
            raise DataError(f"timeline.tags entry {tag!r}: {exc}") from exc
    if values["corpus"]["window"]:
        try:
            parse_window(values["corpus"]["window"])
        except (ValueError, OverflowError) as exc:
            raise DataError(f"corpus.window: {exc}") from exc
    if values["sentiment"]["filter_stem"]:
        try:
            KeywordFamily(values["sentiment"]["filter_stem"], values["sentiment"]["filter_mode"])
        except ValueError as exc:
            raise DataError(f"sentiment.filter_stem: {exc}") from exc


def _resolve_paths(values: dict[str, Any], base_dir: Path) -> dict[str, Any]:
    resolved = copy.deepcopy(values)
    for name in _PATH_KEYS:
        section, key = name.split(".")
        value = resolved[section][key]
        if value:
            try:
                resolved[section][key] = str((base_dir / value).resolve())
            except ValueError as exc:  # a NUL, or what the file system cannot encode
                raise DataError(f"{name}: {exc}") from exc
    return resolved


def make_config(overrides: Mapping[str, Any], base_dir: str | Path = ".") -> Config:
    base = Path(base_dir).resolve()
    raw = merge_config(overrides)
    # The digest and the manifest write these values as UTF-8, which cannot
    # hold a lone surrogate, such as the YAML escape "\udc80".
    for section, values in digest_view(raw).items():
        for key, value in values.items():
            if _SURROGATE.search(json.dumps(value, ensure_ascii=False)):
                raise DataError(f"{section}.{key} holds a lone surrogate")
    return Config(values=_resolve_paths(raw, base), raw=raw, base_dir=base)


def load_config(path: str | Path) -> Config:
    import yaml

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise cannot_read("config", path, exc) from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"config file {path}: {utf8_fault(path)}") from exc
    try:
        loaded = yaml.safe_load(text)
    # Also a constructor's ValueError (the date 2013-13-45) and deep nesting.
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise DataError(f"invalid YAML in {path}: {exc}") from exc
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, Mapping):
        raise DataError(f"config root in {path} must be a mapping")
    return make_config(loaded, base_dir=path.parent)


def digest_view(raw_values: Mapping[str, Any]) -> dict[str, Any]:
    """The config as hashed: merged raw values minus run.jobs and run.out_dir."""
    redacted = copy.deepcopy(dict(raw_values))
    for name in _DIGEST_EXEMPT:
        section, key = name.split(".")
        redacted.get(section, {}).pop(key, None)
    return redacted


def config_digest(raw_values: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of the digest view."""
    import hashlib

    canonical = json.dumps(
        digest_view(raw_values), sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    """SHA-256 of a corpus file's bytes, its fingerprint in the manifest; an
    unreadable file gets load_corpus's wording."""
    import hashlib

    digest = hashlib.sha256()
    try:
        with Path(path).open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as exc:
        raise cannot_read("corpus", path, exc) from exc
    return digest.hexdigest()
