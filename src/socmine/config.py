"""Pipeline configuration.

Configs are YAML mappings merged over DEFAULTS. Path-valued settings are
resolved relative to the config file's directory; empty path settings
mean "use the bundled data file" where one exists.

The config digest is computed from the merged values before path
resolution, minus run.jobs and run.out_dir, so the same analysis recipe
hashes identically across machines and parallelism settings.

PyYAML is imported by load_config alone, so the subcommands, which check
their flags with merge_config, never load it.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .corpus import _check_tag, normalize_tag
from .errors import DataError
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
        "jobs": 1,
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

# Settings that name files or directories, resolved against the config dir.
_PATH_KEYS = (
    ("corpus", "path"),
    ("run", "out_dir"),
    ("text", "stopwords"),
    ("coding", "taxonomy"),
    ("pronouns", "groups"),
    ("sentiment", "lexicon"),
)

# Excluded from the digest: neither changes what gets computed.
_DIGEST_EXEMPT = (("run", "jobs"), ("run", "out_dir"))


@dataclass(frozen=True)
class Config:
    values: Mapping[str, Any]
    raw: Mapping[str, Any]
    base_dir: Path

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
        default = defaults[key]
        if isinstance(default, bool) and not isinstance(value, bool):
            raise DataError(f"config key {section}.{key} must be a boolean")
        if isinstance(default, int) and not isinstance(default, bool):
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataError(f"config key {section}.{key} must be an integer")
        if isinstance(default, str) and not isinstance(value, str):
            raise DataError(f"config key {section}.{key} must be a string")
        if isinstance(default, list) and not isinstance(value, list):
            raise DataError(f"config key {section}.{key} must be a list")
        if isinstance(default, dict) and not isinstance(value, dict):
            raise DataError(f"config key {section}.{key} must be a mapping")
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
    run = values["run"]
    if run["jobs"] < 1:
        raise DataError("run.jobs must be >= 1")
    unknown = [s for s in run["stages"] if s not in STAGES]
    if unknown:
        raise DataError(f"unknown stages in run.stages: {unknown}")
    if values["corpus"]["format"] not in ("jsonl", "csv"):
        raise DataError("corpus.format must be 'jsonl' or 'csv'")
    aliases = values["corpus"]["aliases"].items()
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in aliases):
        raise DataError("corpus.aliases must map strings to strings")
    if not all(isinstance(tag, str) for tag in values["timeline"]["tags"]):
        raise DataError("timeline.tags entries must be strings")
    for tag in values["timeline"]["tags"]:
        try:
            _check_tag(normalize_tag(tag, values["corpus"]["aliases"]))
        except ValueError as exc:
            raise DataError(f"timeline.tags entry {tag!r}: {exc}") from exc
    for section, key in (
        ("corpus", "min_tags"),
        ("tags", "top"),
        ("pairs", "top"),
        ("graph", "whitelist_top"),
        ("graph", "cap"),
        ("timeline", "top"),
    ):
        if values[section][key] < 0:
            raise DataError(f"{section}.{key} must be >= 0")
    if values["graph"]["threshold"] < 1:
        raise DataError("graph.threshold must be >= 1")
    if values["graph"]["format"] not in ("dot", "graphml"):
        raise DataError("graph.format must be 'dot' or 'graphml'")
    for fmt in values["timeline"]["formats"]:
        if fmt not in ("csv", "svg"):
            raise DataError("timeline.formats entries must be 'csv' or 'svg'")
    if values["coding"]["min_freq"] < 1:
        raise DataError("coding.min_freq must be >= 1")
    if values["sentiment"]["min_freq"] < 1:
        raise DataError("sentiment.min_freq must be >= 1")
    if values["sentiment"]["filter_mode"] not in ("prefix", "exact"):
        raise DataError("sentiment.filter_mode must be 'prefix' or 'exact'")
    if values["sentiment"]["filter_stem"]:
        try:
            KeywordFamily(values["sentiment"]["filter_stem"], values["sentiment"]["filter_mode"])
        except ValueError as exc:
            raise DataError(f"sentiment.filter_stem: {exc}") from exc


def _resolve_paths(values: dict[str, Any], base_dir: Path) -> dict[str, Any]:
    resolved = copy.deepcopy(values)
    for section, key in _PATH_KEYS:
        value = resolved[section][key]
        if value:
            resolved[section][key] = str((base_dir / value).resolve())
    return resolved


def make_config(overrides: Mapping[str, Any], base_dir: str | Path = ".") -> Config:
    base = Path(base_dir).resolve()
    raw = merge_config(overrides)
    return Config(values=_resolve_paths(raw, base), raw=raw, base_dir=base)


def load_config(path: str | Path) -> Config:
    import yaml

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    try:
        loaded = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise DataError(f"invalid YAML in {path}: {exc}") from exc
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, Mapping):
        raise DataError(f"config root in {path} must be a mapping")
    return make_config(loaded, base_dir=path.parent)


def digest_view(raw_values: Mapping[str, Any]) -> dict[str, Any]:
    """The config as hashed: merged raw values minus run.jobs and run.out_dir."""
    redacted = copy.deepcopy(dict(raw_values))
    for section, key in _DIGEST_EXEMPT:
        redacted.get(section, {}).pop(key, None)
    return redacted


def config_digest(raw_values: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of the digest view."""
    canonical = json.dumps(
        digest_view(raw_values), sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    """SHA-256 of a file's bytes; used to fingerprint corpus inputs."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()
