"""The README's command-line section agrees with the parser it documents,
and its list of value classes with the classes the package defines."""

import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import socmine
from helpers import FIXTURES
from socmine.cli import build_parser, main

README = Path(__file__).parent.parent / "README.md"


def _command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _parser_flags() -> set[tuple[str, str, str]]:
    """(subcommand, flag, dest) of every argument but --help; a positional
    is named by its metavar."""
    return {
        (name, action.option_strings[0] if action.option_strings else action.metavar, action.dest)
        for name, sub in _subparsers().items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    }


def _table_flags() -> set[tuple[str, str, str]]:
    """(subcommand, flag, config key) of each row of the flag table: a row
    lists one key for all its subcommands, or one key per subcommand."""
    row = r"^\| `([^`]+)`[^|]* \| ([^|]+) \| ([^|]+) \|$"
    rows = re.findall(row, _command_line_section(), re.M)
    assert rows
    analysis = [name for name in _subparsers() if name != "run"]
    found = set()
    for flag, where, keys in rows:
        subcommands = analysis if where == "all but `run`" else re.findall(r"`([^`]+)`", where)
        keys = re.findall(r"`([^`]+)`", keys.split("(")[0])
        if len(keys) == 1:
            keys *= len(subcommands)
        assert len(keys) == len(subcommands), flag
        found |= {(sub, flag, key) for sub, key in zip(subcommands, keys)}
    return found


def test_the_flag_table_lists_every_flag_that_sets_a_config_key():
    assert _table_flags() == {flag for flag in _parser_flags() if "." in flag[2]}


def test_the_flags_that_set_no_config_key_are_the_ones_named():
    sentence = re.search(r"^(`ingest --out`.*?) set no config key\.$",
                         _command_line_section(), re.M | re.S)[1]
    named = {tuple(pair.split(" ")) for pair in re.findall(r"`([a-z]+ --[a-z-]+)`", sentence)}
    unset = {(sub, flag) for sub, flag, dest in _parser_flags() if "." not in dest}
    assert named == unset


def _examples() -> list[str]:
    block = _command_line_section().split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if not line.startswith("socmine run ")]


def test_the_examples_cover_every_analysis_subcommand():
    assert {shlex.split(line)[1] for line in _examples()} == set(_subparsers()) - {"run"}


@pytest.mark.parametrize("line", _examples())
def test_each_command_example_exits_0_on_the_twitter_fixture(line, capsys):
    argv = [str(FIXTURES / "twitter.jsonl") if arg == "corpus.jsonl" else arg
            for arg in shlex.split(line)[1:]]
    assert main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out


def test_the_value_class_list_names_every_namedtuple_class():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Value classes are NamedTuples: (.*?)\.\s", text, re.S)
    # A class NamedTuple builds holds its own _fields; KeywordFamily, which
    # subclasses one and has its own sentence, inherits them.
    defined = {
        name
        for info in pkgutil.iter_modules(socmine.__path__)
        for name, value in vars(importlib.import_module(f"socmine.{info.name}")).items()
        if isinstance(value, type) and value.__module__ == f"socmine.{info.name}"
        and "_fields" in vars(value)
    }
    assert set(re.findall(r"`([^`]+)`", listed[1])) == defined
