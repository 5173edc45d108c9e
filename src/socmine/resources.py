"""The data files bundled with the package (default stopword list,
taxonomy, pronoun groups, demonstration lexicon), the one reader every
data-file loader uses, and the texts naming a file that did not open or
a byte that is not UTF-8, which the corpus and config loaders share."""

from __future__ import annotations

import re
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


def cannot_read(kind: str, path: str | Path, exc: OSError) -> DataError:
    """The error of a file that did not open, naming its path once."""
    reason = str(exc).removesuffix(f": {exc.filename!r}")
    return DataError(f"cannot read {kind} file {path}: {reason}")


def read_rows(path: str | Path, kind: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tab-separated fields) for each line of a data file.

    The file is UTF-8, may start with a byte-order mark, and has its lines
    numbered as the corpus reader numbers them. Blank and '#' comment lines
    are skipped but counted; the loaders raise each fault as `line N: ...`.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except OSError as exc:
        raise cannot_read(kind, path, exc) from exc
    except UnicodeDecodeError as exc:
        raise DataError(utf8_fault(path)) from exc
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split("\t")


def utf8_fault(path: str | Path) -> str:
    """`line N: invalid UTF-8 byte 0xXX`, for the first such byte of a file
    that failed to decode, its lines counted as a text-mode reader ends
    them: at LF, CRLF or a lone CR."""
    # surrogateescape reads each undecodable byte as U+DC80-U+DCFF; the
    # pattern is compiled on this error path alone, not at import.
    with Path(path).open(encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                return f"line {line_no}: invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}"
    return "invalid UTF-8"
