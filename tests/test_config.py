import hashlib

import pytest

import socmine
from socmine.config import (
    DEFAULTS,
    STAGES,
    config_digest,
    digest_view,
    file_digest,
    load_config,
    make_config,
    merge_config,
)
from socmine.errors import DataError


def test_defaults_apply_when_nothing_overridden():
    config = make_config({})
    assert config["run"]["stages"] == list(STAGES)
    assert config["tags"]["top"] == 20
    assert config["graph"]["threshold"] == 2
    assert config["sentiment"]["min_freq"] == 2
    assert config["corpus"]["format"] == "jsonl"


def test_overrides_replace_only_named_keys():
    config = make_config({"graph": {"threshold": 5}, "tags": {"top": 3}})
    assert config["graph"]["threshold"] == 5
    assert config["graph"]["cap"] == 10
    assert config["tags"]["top"] == 3


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"grpah": {}}, "unknown config section"),
        ({"graph": {"thresh": 1}}, "unknown config key graph.thresh"),
        ({"graph": {"threshold": "two"}}, "must be an integer"),
        ({"graph": {"retain_isolates": 1}}, "must be a boolean"),
        ({"corpus": {"path": 7}}, "must be a string"),
        ({"timeline": {"tags": "svpol"}}, "must be a list"),
        ({"corpus": {"aliases": []}}, "must be a mapping"),
        ({"run": "fast"}, "must be a mapping"),
    ],
)
def test_merge_rejects_unknowns_and_bad_types(overrides, message):
    with pytest.raises(DataError, match=message):
        merge_config(overrides)


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"run": {"jobs": 0}}, "run.jobs"),
        ({"run": {"stages": ["ingest", "mystery"]}}, "unknown stages"),
        ({"corpus": {"format": "xml"}}, "corpus.format"),
        ({"graph": {"threshold": 0}}, "graph.threshold"),
        ({"graph": {"format": "gexf"}}, "graph.format"),
        ({"timeline": {"formats": ["pdf"]}}, "timeline.formats"),
        ({"sentiment": {"filter_mode": "suffix"}}, "filter_mode"),
        ({"sentiment": {"min_freq": 0}}, "sentiment.min_freq"),
        ({"tags": {"top": -1}}, "tags.top must be >= 0"),
        ({"pairs": {"top": -1}}, "pairs.top must be >= 0"),
        ({"timeline": {"top": -1}}, "timeline.top must be >= 0"),
        ({"graph": {"whitelist_top": -1}}, "graph.whitelist_top must be >= 0"),
        ({"graph": {"cap": -1}}, "graph.cap must be >= 0"),
        ({"corpus": {"aliases": {"svpol": 5}}}, "corpus.aliases must map strings to strings"),
        ({"corpus": {"aliases": {5: "svpol"}}}, "corpus.aliases must map strings to strings"),
        ({"timeline": {"tags": [5]}}, "timeline.tags entries must be strings"),
        ({"sentiment": {"filter_stem": "ab"}}, "sentiment.filter_stem: prefix stem 'ab'"),
        (
            {"sentiment": {"filter_stem": "AB", "filter_mode": "exact"}},
            "sentiment.filter_stem: keyword family stem must be lowercase",
        ),
    ],
)
def test_validation_errors(overrides, message):
    with pytest.raises(DataError, match=message):
        make_config(overrides)
    # The same rules check command-line flags, which skip make_config.
    with pytest.raises(DataError, match=message):
        merge_config(overrides)


def test_digest_ignores_jobs_and_out_dir():
    base = make_config({"corpus": {"path": "c.jsonl"}})
    same = make_config(
        {"corpus": {"path": "c.jsonl"}, "run": {"jobs": 8, "out_dir": "elsewhere"}}
    )
    different = make_config({"corpus": {"path": "c.jsonl"}, "graph": {"threshold": 3}})
    assert base.digest == same.digest
    assert base.digest != different.digest
    assert len(base.digest) == 64


def test_digest_view_drops_only_exempt_keys():
    raw = merge_config({"run": {"jobs": 4, "out_dir": "x"}})
    view = digest_view(raw)
    assert "jobs" not in view["run"]
    assert "out_dir" not in view["run"]
    assert view["run"]["stages"] == list(STAGES)
    # the original mapping is left alone
    assert raw["run"]["jobs"] == 4


def test_digest_is_stable_under_key_order():
    a = merge_config({"tags": {"top": 7}, "pairs": {"top": 9}})
    b = merge_config({"pairs": {"top": 9}, "tags": {"top": 7}})
    assert config_digest(a) == config_digest(b)


def test_paths_resolve_against_config_dir(tmp_path):
    nested = tmp_path / "conf"
    nested.mkdir()
    (nested / "run.yaml").write_text(
        "corpus:\n  path: ../data/c.jsonl\nrun:\n  out_dir: out\n",
        encoding="utf-8",
    )
    config = load_config(nested / "run.yaml")
    assert config["corpus"]["path"] == str((tmp_path / "data" / "c.jsonl").resolve())
    assert config["run"]["out_dir"] == str((nested / "out").resolve())
    # empty path settings stay empty (bundled data is used instead)
    assert config["coding"]["taxonomy"] == ""
    assert config.base_dir == nested.resolve()


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(DataError, match="cannot read"):
        load_config(missing)
    bad = tmp_path / "bad.yaml"
    bad.write_text("corpus: [unclosed\n", encoding="utf-8")
    with pytest.raises(DataError, match="invalid YAML"):
        load_config(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("just a string\n", encoding="utf-8")
    with pytest.raises(DataError, match="must be a mapping"):
        load_config(scalar)
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_config(empty)["tags"]["top"] == DEFAULTS["tags"]["top"]


def test_file_digest_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"x" * 100_000 + b"tail"
    path.write_bytes(payload)
    assert file_digest(path) == hashlib.sha256(payload).hexdigest()
    with pytest.raises(DataError, match="cannot read"):
        file_digest(tmp_path / "gone.bin")


def test_package_reaches_load_config_on_first_use():
    from socmine import load_config as imported

    assert socmine.load_config is load_config
    assert imported is load_config
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        socmine.nothing  # noqa: B018
