import hashlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import socmine
from helpers import LINE_ENDS
from socmine.config import (
    DEFAULTS,
    RULES,
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
        ({"timeline": {"top": -1}}, "timeline.top must be >= 1"),
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
        ({"run": {"stages": []}}, "run.stages selects no stages"),
        ({"corpus": {"window": "2013-05-20"}}, "corpus.window: window must look like START..END"),
        ({"corpus": {"window": "2013-05-22..2013-05-20"}}, "corpus.window: window start after end"),
        ({"corpus": {"window": "2013-05-20..never"}}, "corpus.window: Invalid isoformat"),
        (
            {"corpus": {"window": "0001-01-01T00:00:00+01:00..2013-01-01"}},
            "corpus.window: date value out of range",
        ),
        # A timeline of the top 0 tags would plot nothing.
        ({"timeline": {"top": 0}}, "timeline.top must be >= 1"),
        # Alias values are used as they are, so each must be a tag; keys are
        # looked up by normalized tag, so one spelled otherwise never applies.
        (
            {"corpus": {"aliases": {"svpol": "SV POL"}}},
            "corpus.aliases value for 'svpol': hashtag contains the forbidden character ' '",
        ),
        ({"corpus": {"aliases": {"#SvPol": "x"}}}, "corpus.aliases key '#SvPol' must be written 'svpol'"),
        # A stem that is not one token could never match a token.
        (
            {"sentiment": {"filter_stem": "poli cja"}},
            "sentiment.filter_stem: keyword family stem must be one token: 'poli cja'",
        ),
        # A repeated entry would render or write its stage or file twice.
        ({"run": {"stages": ["ingest", "tags", "tags"]}}, "run.stages names 'tags' twice"),
        ({"timeline": {"formats": ["csv", "csv"]}}, "timeline.formats names 'csv' twice"),
    ],
)
def test_validation_errors(overrides, message):
    with pytest.raises(DataError, match=message):
        make_config(overrides)
    # The same rules check command-line flags, which skip make_config.
    with pytest.raises(DataError, match=message):
        merge_config(overrides)


MINIMUMS = sorted((name, rule) for name, rule in RULES.items() if isinstance(rule, int))


@given(st.sampled_from(MINIMUMS), st.integers(-3, 3))
def test_each_minimum_rejects_exactly_the_values_below_it(rule, offset):
    name, minimum = rule
    section, key = name.split(".")
    value = minimum + offset
    if value < minimum:
        with pytest.raises(DataError, match=re.escape(f"{name} must be >= {minimum}")):
            merge_config({section: {key: value}})
    else:
        assert merge_config({section: {key: value}})[section][key] == value


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
    # Data files name the line of a byte that is not UTF-8; a config file
    # names its path too. A lone CR ends a line, as it does for YAML.
    undecodable = tmp_path / "undecodable.yaml"
    for eol in LINE_ENDS.values():
        undecodable.write_bytes(b"corpus:" + eol + b'  path: "x\xff.jsonl"' + eol)
        with pytest.raises(DataError) as raised:
            load_config(undecodable)
        assert str(raised.value) == f"config file {undecodable}: line 2: invalid UTF-8 byte 0xff"
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
