"""Exit 2 names where the fault is, and nothing a user writes exits 3.

`cli.main` maps only a DataError to exit 2, so each reader turns what its
parser raises into a DataError naming a line, a config key, a flag or the
file. These tests drive `main` as the console script does, and hold any
other exception to exit 3, an internal fault.
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURES
from socmine.cli import main
from socmine.config import DEFAULTS

TWITTER = FIXTURES / "twitter.jsonl"


def _main(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def _file_case(data: bytes, argv, message):
    """A command over a file of data bytes; argv names that file "FILE"."""
    def build(tmp_path):
        path = tmp_path / "data"
        path.write_bytes(data)
        return [path if arg == "FILE" else arg for arg in argv], message
    return build


def _jsonl_case(text, command="ingest", message="error: line 1: invalid JSON: "):
    return _file_case(text.encode("utf-8"), [command, "FILE"], message)


RECORD = '{"id": "a", "ts": "2013-05-01T00:00:00Z"'


def _config_case(body, message):
    def build(tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(f"corpus:\n  path: {json.dumps(str(TWITTER))}\n{body}", encoding="utf-8")
        return ["run", "--config", path], message.format(path=path)
    return build


def _config_text(text):
    def build(tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        return ["run", "--config", path], "error: corpus.path is required"
    return build


def _ingest_out(out):
    def build(tmp_path):
        return ["ingest", TWITTER, "--out", tmp_path / out], "error: --out: "
    return build


@pytest.mark.parametrize(
    "case",
    [
        _jsonl_case('{"id": "a", "ts": ' + "1" * 5000 + ', "text": "x"}\n'),
        _jsonl_case(_nested(200_000) + "\n"),
        # The C scanner's fast path hands these lines back to json.loads.
        _jsonl_case(f"{RECORD}}}\n{RECORD}}} x\n", message="error: line 2: invalid JSON: "),
        _jsonl_case(f"{RECORD}}}\n\ufeff{RECORD}}}\n", message="error: line 2: invalid JSON: "),
        _jsonl_case(f'{RECORD}, "tags": [["a"]]}}\n', "tags", "error: line 1: malformed field 'tags': "),
        _jsonl_case(f'{RECORD}, "tags": [5]}}\n', "tags", "error: line 1: malformed field 'tags': "),
        # A lone CR ends a line, so the bad byte is on line 3.
        _file_case(b"alpha\rbeta\r\xffgamma\r",
                   ["code", FIXTURES / "forum.jsonl", "--stopwords", "FILE"],
                   "error: text.stopwords: line 3: invalid UTF-8 byte 0xff"),
        _config_case("  window: 2013-13-45\n",
                     "error: invalid YAML in {path}: month must be in 1..12"),
        _config_case('text:\n  stopwords: "a\\0b"\n', "error: text.stopwords: embedded null byte"),
        _config_case('  aliases: {"\\udc80": x}\n', "error: corpus.aliases holds a lone surrogate"),
        _config_case("run:\n  out_dir: " + _nested(100_000) + "\n",
                     "error: invalid YAML in {path}: maximum recursion depth exceeded"),
        _config_case("run:\n  out_dir: afile/runs\n", "error: run.out_dir: "),
        _ingest_out("missing/c.jsonl"),
        _ingest_out("afile/c.jsonl"),
        _config_text('corpus:\n  path: ""\n'),
        _config_text("run:\n  out_dir: runs\n"),
    ],
    ids=["ts-5000-digits", "jsonl-nested-200000", "jsonl-trailing-text", "jsonl-mid-file-mark",
         "tag-that-is-a-list", "tag-that-is-a-number", "stopwords-lone-cr-bad-byte",
         "yaml-impossible-date", "nul-in-path",
         "surrogate-in-digest", "yaml-nested-100000", "out-dir-under-a-file",
         "out-in-a-missing-dir", "out-under-a-file", "empty-corpus-path", "no-corpus-path"],
)
def test_bad_input_exits_2_naming_where(tmp_path, case):
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    argv, message = case(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _main(argv)
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1, err
    # A failed command leaves nothing behind, a run directory least of all.
    assert sorted(tmp_path.rglob("*")) == before


def _unreadable_corpus_case(tmp_path, command):
    """A copy of the twitter fixture, the argv of command over it, and the
    start of the one line of stderr when it cannot be read."""
    corpus = tmp_path / "locked.jsonl"
    corpus.write_bytes(TWITTER.read_bytes())
    argv, key = [command[0], corpus, *command[1:]], ""
    if command == ["run"]:
        # One message; a run reads the path from its config, so it names the key.
        config = tmp_path / "run.yaml"
        config.write_text(f"corpus:\n  path: {json.dumps(str(corpus))}\n", encoding="utf-8")
        argv, key = ["run", "--config", config], "corpus.path: "
    return corpus, argv, f"error: {key}cannot read corpus file {corpus}: [Errno 13] Permission denied"


@pytest.mark.parametrize("command", [["tags"], ["ingest", "--format", "csv"], ["run"]],
                         ids=["tags", "ingest-csv", "run"])
def test_an_unreadable_corpus_exits_2(tmp_path, monkeypatch, command):
    # A mode-000 file does not stop root, so the corpus refuses to open here.
    corpus, argv, err = _unreadable_corpus_case(tmp_path, command)
    opened = Path.open

    def locked(path, *args, **kwargs):
        if path == corpus:
            raise PermissionError(13, "Permission denied")
        return opened(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", locked)
    assert _main(argv) == (2, "", err + "\n")


@pytest.mark.skipif(os.geteuid() == 0, reason="a mode-000 file does not stop root")
@pytest.mark.parametrize("command", [["tags"], ["run"]], ids=["tags", "run"])
def test_a_mode_000_corpus_exits_2(tmp_path, command):
    corpus, argv, err = _unreadable_corpus_case(tmp_path, command)
    corpus.chmod(0)
    # The operating system's error also names the file.
    assert _main(argv) == (2, "", f"{err}: {str(corpus)!r}\n")


def test_a_stray_value_error_is_an_internal_fault(tmp_path, monkeypatch):
    def fault(counts):
        raise ValueError("not a data fault")

    monkeypatch.setattr("socmine.report.ranked", fault)
    assert _main(["tags", TWITTER]) == (3, "", "internal error: ValueError('not a data fault')\n")
    config = tmp_path / "run.yaml"
    config.write_text(f"corpus:\n  path: {json.dumps(str(TWITTER))}\n", encoding="utf-8")
    code, _, err = _main(["run", "--config", config])
    assert (code, err) == (3, "internal error: ValueError('not a data fault')\n")
    assert list((tmp_path / "runs").iterdir()) == []


# A JSON grammar, then mutations of its text that no json.dumps writes.
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
_FIELDS = {
    "id": st.sampled_from(["a", "b", ""]) | _JSON,
    "ts": st.sampled_from(["2013-05-20T10:00:00Z", "2013-05-21", 1369000000, 1e20, "x"]) | _JSON,
    "text": st.sampled_from(["policja na ulicy", "oni im my", "dobra noc"]) | _JSON,
    "tags": st.lists(st.sampled_from(["riots", "#Police", "a b", ""]), max_size=3) | _JSON,
    "lang": st.sampled_from(["pl", "", None]) | _JSON,
    "source": st.sampled_from(["tweet", "forum_post", "blog"]) | _JSON,
}
# Raw JSON value texts that json.dumps never writes, or that are too big
# for json.loads.
_RAW_VALUES = st.sampled_from([
    _nested(3), _nested(5000), _nested(200_000), "1" * 5000, "-" + "9" * 5000, "1e400",
    "NaN", "Infinity", "-Infinity", '"\\ud800"', '"x\\udc80y"', '"\\uDFFFz"', '"a\\u0000b"',
])
_PLACEHOLDER = "\x01raw\x01"


@st.composite
def _jsonl_lines(draw):
    record = draw(st.fixed_dictionaries({}, optional=_FIELDS) | _JSON)
    raw = None
    if isinstance(record, dict) and record and draw(st.booleans()):
        raw = draw(_RAW_VALUES)
        record[draw(st.sampled_from(sorted(record)))] = _PLACEHOLDER
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if raw is not None:
        line = line.replace(json.dumps(_PLACEHOLDER), raw)
    # A byte-order mark, NUL or CR anywhere on the line.
    for char in draw(st.lists(st.sampled_from(["\ufeff", "\x00", "\r"]), max_size=2)):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + char + line[at:]
    return line


_COMMANDS = [
    ["ingest"], ["tags"], ["pairs"], ["graph", "--threshold", "1"], ["code"], ["pronouns"],
    ["sentiment", "--min-freq", "1"], ["timeline", "--tags", "riots"],
    ["timeline", "--tags", "riots", "--classify"],
]


@settings(max_examples=150, deadline=None)
@given(st.lists(_jsonl_lines(), min_size=1, max_size=3), st.sampled_from(_COMMANDS))
def test_every_jsonl_exits_0_or_2_naming_its_line(tmp_path_factory, lines, command):
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = _main([command[0], path, *command[1:]])
    assert code in (0, 2), err
    if code == 2:
        assert re.match(rf"error: (line \d+: |.*{re.escape(str(path))})", err), err


# Every config key as `section.key`; a fault names one of these, or a
# section as `section 'name'`.
_KEYS = [f"{section}.{key}" for section, keys in DEFAULTS.items() for key in keys]
_PATH_KEYS = ["corpus.path", "run.out_dir", "text.stopwords", "coding.taxonomy",
              "pronouns.groups", "sentiment.lexicon"]
# Values as YAML text: impossible unquoted dates, a NUL, lone surrogates,
# deep nesting and values of every type, the wrong one for most keys.
_YAML_VALUES = st.sampled_from([
    "2013-13-45", "2013-02-30", "0000-01-01", "2013-05-20", '"a\\0b"', '"\\udc80"', '"\\ud800"',
    '{"\\udc80": x}', _nested(3),
    _nested(100_000), "{a: " + _nested(300) + "}", "!!int x", "!!float x", "[a, b]", "{a: b}",
    "null", "true", "-1", "0", "x", '""', "[]", "{}",
])


@st.composite
def _configs(draw, corpus):
    sections = {"corpus": {"path": json.dumps(str(corpus))}, "run": {"out_dir": "runs"}}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from([*_KEYS, "corpus.extra"]))
        value = draw(_YAML_VALUES)
        if name in _PATH_KEYS and draw(st.booleans()):
            value = '"a\\0b"'
        if name == "run.jobs" and re.fullmatch(r"-?\d+", value):
            value = "1"  # no forked process per draw
        section, key = name.split(".")
        sections.setdefault(section, {})[key] = value
    text = "".join(
        f"{section}:\n" + "".join(f"  {key}: {value}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )
    mutation = draw(st.sampled_from(["none", "section", "root"]))
    if mutation == "section":
        text += f"extra: {draw(_YAML_VALUES)}\n"
    elif mutation == "root":
        # A document that is no mapping; an empty one would lack corpus.path.
        text = draw(_YAML_VALUES.filter(lambda value: value not in ("null", "{}"))) + "\n"
    return text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_config_exits_0_or_2_naming_a_key_or_a_file(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("config")
    corpus = directory / "c.jsonl"
    corpus.write_text("".join(TWITTER.read_text(encoding="utf-8").splitlines(True)[:40]),
                      encoding="utf-8")
    path = directory / "run.yaml"
    path.write_text(data.draw(_configs(corpus)), encoding="utf-8")
    code, _, err = _main(["run", "--config", path])
    assert code in (0, 2), err
    if code == 2:
        # A file here, such as the config or a path key's file, a line, or a key.
        named = [str(directory), "section '", "corpus.extra", *_KEYS]
        assert re.search(r"line \d+", err) or any(name in err for name in named), err


# CSV corpus texts: headers that miss or repeat a column, and fields good
# and bad, joined by bare commas, so that a quote or comma in a field can
# break its row, as a hand-edited file does.
_CSV_HEADERS = st.sampled_from([
    "id,ts,text,tags", "id,ts,text,tags,lang,source", "tags,text,id,ts", "id,ts,text",
    "id,ts,text,tags,tags", "", "id,ts,text,tags,", '"id",ts,"text",tags',
])
_CSV_FIELDS = st.sampled_from([
    "a", "b", "", "riots|#Police", "|||", "#", "a b", "x#y", "Ö", "policja na ulicy",
    "2013-05-20T10:00:00Z", "2013-05-21", "1369000000", "x", "2013-13-45", "1" * 5000,
    "9999-12-31T23:59:59-05:00", "pl", "tweet", "forum_post", "blog",
    '"quoted, comma"', '"open', 'mid"quote', '"a\nb"', '"a""b"', "x" * 140_000,
])


@st.composite
def _csv_texts(draw):
    rows = [draw(_CSV_HEADERS)]
    for _ in range(draw(st.integers(0, 3))):
        rows.append(",".join(draw(st.lists(_CSV_FIELDS, min_size=1, max_size=7))))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(rows) + "\n"
    for char in draw(st.lists(st.sampled_from(["\ufeff", "\x00", "\r", '"']), max_size=2)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + char + text[at:]
    return text


@settings(max_examples=150, deadline=None)
@given(_csv_texts(), st.sampled_from(_COMMANDS))
def test_every_csv_exits_0_or_2_naming_its_line(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    path.write_text(text, encoding="utf-8", newline="")
    code, _, err = _main([command[0], path, *command[1:], "--format", "csv"])
    assert code in (0, 2), err
    if code == 2:
        assert re.match(rf"error: (line \d+: |.*{re.escape(str(path))})", err), err


# Each data file's flag, its config key, the commands that read it, and
# lines for it: good ones, and ones that break each of its rules.
_DATA_FILES = {
    "--stopwords": ("text.stopwords", ["code", "sentiment"], [
        "a", "nie", "Nie", "İ", "nie_", "dwa słowa", "a\tb", "poli-cja", "# a comment",
    ]),
    "--taxonomy": ("coding.taxonomy", ["code"], [
        "1\tWork", "2\tPolice", "1.1\tSub", "3.1\tOrphan", ".1\tDot", "1..2\tDots",
        "1\tpolicj\tprefix", "2\tdobr\texact", "1\tpo\tprefix", "9\tfatal\tprefix",
        "1\tPolicj\tprefix", "1\tpoli cja\tprefix", "1\tpolicj\tfuzzy", "1\tx\ty\tz", "1",
    ]),
    "--groups": ("pronouns.groups", ["pronouns"], [
        "them\tthey\toni|im", "us\twe\tmy|nas", "them\tthey\tONI", "us\twe\tmy", "them\tx\t",
        "them\tx\t|", "they\tx\ty", "us\twe\tmy-x", "us\twe", "us\tcomma, label\tnasz",
    ]),
    "--lexicon": ("sentiment.lexicon", ["sentiment"], [
        "dobr\tpositive\t1", "fatal\tnegative\t2\tprefix", "zł\tnegative\t1\texact",
        "zł\tnegative\t1", "dobr\tpositive\t9", "dobr\tneutral\t1", "dobr\tpositive\tx",
        "dobr\tpositive\t" + "1" * 5000, "dobr\tpositive\t-1", "dobr\tpositive\t1_0",
        "wspania\tpositive\t٣", "Dobr\tpositive\t1", "dobr\tpositive\t1\tfuzzy", "a\tb",
    ]),
}
_TEXTS = ["dobra wiadomość", "fatalna policja na ulicy", "oni im my nas", "szwedzka policja",
          "wspaniała noc", "zło i dobro", "Nie ma nas"]


@st.composite
def _data_files(draw):
    flag = draw(st.sampled_from(sorted(_DATA_FILES)))
    _, commands, pool = _DATA_FILES[flag]
    lines = draw(st.lists(st.sampled_from(pool) | st.sampled_from(["", "  ", "# note"]),
                          max_size=6))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    for char in draw(st.lists(st.sampled_from(["\ufeff", "\x00", "\r", "\t"]), max_size=2)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + char + text[at:]
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return draw(st.sampled_from(commands)), flag, data


@settings(max_examples=150, deadline=None)
@given(_data_files())
def test_every_data_file_exits_0_or_2_naming_its_line(tmp_path_factory, drawn):
    command, flag, data = drawn
    directory = tmp_path_factory.mktemp("data")
    corpus = directory / "c.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "ts": f"2013-05-2{i % 10}T10:00:00Z", "text": text}) + "\n"
        for i, text in enumerate(_TEXTS)
    ), encoding="utf-8")
    path = directory / "data.tsv"
    path.write_bytes(data)
    argv = [command, corpus, flag, path]
    code, _, err = _main(argv + (["--min-freq", "1"] if command == "sentiment" else []))
    assert code in (0, 2), err
    if code == 2:
        # The file's config key, then its line, or the file itself.
        key = _DATA_FILES[flag][0]
        assert re.match(rf"error: {key}: (line \d+: |.*{re.escape(str(path))})", err), err
