"""The data files bundled with the package (default stopword list,
taxonomy, pronoun groups, demonstration lexicon) and the one reader every
data-file loader uses."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import DataError

STOPWORDS = "stopwords_pl.txt"
TAXONOMY = "taxonomy.tsv"
PRONOUNS = "pronouns.tsv"
LEXICON = "lexicon.tsv"


def default_data_path(name: str) -> Path:
    # The package is installed as plain files, so its data directory sits
    # next to this module; importlib.resources would import tempfile and
    # zipfile into every subcommand for the same path.
    path = Path(__file__).with_name("data") / name
    if not path.is_file():
        raise DataError(f"bundled data file missing: {name}")
    return path


def read_rows(path: str | Path, kind: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tab-separated fields) for each line of a data file.

    The file is UTF-8, may start with a byte-order mark, and has its lines
    numbered as the corpus reader numbers them. Blank and '#' comment lines
    are skipped but counted; the loaders raise each fault as `line N: ...`.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise DataError(f"line {line_no}: invalid UTF-8 byte 0x{byte:02x}") from exc
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split("\t")
