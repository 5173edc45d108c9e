import pytest

from socmine.coding import load_pronoun_groups, load_taxonomy
from socmine.errors import DataError
from socmine.resources import read_rows
from socmine.sentiment import load_lexicon
from socmine.text import load_stopwords

# One valid two-line file per loader.
LOADERS = {
    "stopwords": (load_stopwords, "och\natt\n"),
    "taxonomy": (load_taxonomy, "1\tWork\n1\twork\tprefix\n"),
    "pronouns": (load_pronoun_groups, "them\tthey\toni\nus\twe\tmy\n"),
    "lexicon": (load_lexicon, "dobr\tpositive\t1\nfatal\tnegative\t2\n"),
}


def test_read_rows_counts_skipped_lines(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("# comment\n\n  a\tb  \n\t\n#x\tc\nd\n", encoding="utf-8")
    assert list(read_rows(path, "demo")) == [(3, ["a", "b"]), (6, ["d"])]


def test_read_rows_ends_lines_where_the_corpus_reader_does(tmp_path):
    # A form feed or U+2028 inside a line does not end it; CR and CRLF do.
    path = tmp_path / "d.tsv"
    path.write_bytes("a\x0cb\tc\u2028d\r\ne\rf\n".encode("utf-8"))
    assert list(read_rows(path, "demo")) == [(1, ["a\x0cb", "c\u2028d"]), (2, ["e"]), (3, ["f"])]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_skips_a_byte_order_mark(tmp_path, name):
    load, body = LOADERS[name]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert load(marked) == load(plain)


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_every_loader_names_the_line_of_a_bad_byte(tmp_path, name, bom):
    load, body = LOADERS[name]
    path = tmp_path / "bad"
    path.write_bytes(bom + body.encode("utf-8") + b"x\xff\n")
    with pytest.raises(DataError, match=r"^line 3: invalid UTF-8 byte 0xff$"):
        load(path)
