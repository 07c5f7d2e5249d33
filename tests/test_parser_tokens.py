"""Every library module stays within CPython's 4,096-token parser step.

CPython 3.11's parser holds a module's tokens in an array that grows by
doubling, and compiling a module past 4,096 tokens costs about 220 KiB more
memory at every import, which the benchmark's `peak_rss_mib` reads.  The
count is the parser's: every token but comments, the NL tokens of blank and
continued lines, and the encoding marker.
"""

import pathlib
import tokenize

import pytest

import qproj

PARSER_STEP = 4096
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
SOURCES = sorted(pathlib.Path(qproj.__file__).parent.glob("*.py"))


def parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(tok.type not in SKIPPED for tok in tokenize.tokenize(fh.readline))


def test_the_count_skips_comments_and_blank_lines(tmp_path):
    bare, padded = tmp_path / "bare.py", tmp_path / "padded.py"
    bare.write_text("x = 1\n")
    padded.write_text("# a comment\n\nx = 1  # another\n\n")
    # NAME, OP, NUMBER, NEWLINE, ENDMARKER
    assert parser_tokens(bare) == parser_tokens(padded) == 5


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_is_under_the_parser_step(path):
    count = parser_tokens(path)
    assert count <= PARSER_STEP, "%s has %d parser tokens, above %d" % (
        path.name, count, PARSER_STEP)
