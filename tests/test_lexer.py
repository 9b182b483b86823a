"""The lexer against the per-line regex lexer, kept here as the reference.

The library splits the whole text at its blanks into chunks and tags each
distinct chunk once; only a chunk that holds several tokens goes through
``_TOKEN``, and a line is read only when a line or column is asked for. The
reference runs ``_TOKEN`` along every line, as the lexer did before, and
must give the same tokens, tags, lines and columns, and the same first
error.
"""

from hypothesis import given, settings, strategies as st

from rtlcheck import parser
from rtlcheck.parser import Diagnostic, ParseError, parse_program

from gen_programs import DECLS, handler_graph, pretty_expr, ring_program


def reference_tokens(text: str) -> list[tuple[str, str, int, int]] | Diagnostic:
    """(text, tag, line, column) of each token of ``text``, then the end of
    input as ("", "eof", last line, one past its end); or the diagnostic of
    the first token that is no symbol, keyword or word."""
    fixed = {*parser.SYMBOLS, *parser.KEYWORDS}
    rows = text.split("\n")
    out = []
    for line, row in enumerate(rows, 1):
        cut = row.find("#")
        for m in parser._TOKEN.finditer(row, 0, len(row) if cut < 0 else cut):
            word = m.group()
            if word in fixed:
                tag = word
            elif word[0].isalpha():
                tag = "uid" if word[0].isupper() else "lid"
            else:
                return Diagnostic(line, m.start() + 1, f"unexpected character {word[0]!r}")
            out.append((word, tag, line, m.start() + 1))
    out.append(("", "eof", len(rows), len(rows[-1]) + 1))
    return out


def library_tokens(text: str) -> list[tuple[str, str, int, int]] | Diagnostic:
    try:
        ts = parser._Tokens(text)
    except ParseError as exc:
        return exc.diagnostic
    return [(word, tag, d.line, d.col)
            for word, tag, d in zip(ts.texts, ts.tags,
                                    (ts.diagnostic(i, "") for i in range(len(ts.texts))))]


# glued operators, words with "_" and digits, the blanks the lexer skips,
# non-ASCII letters, comments and empty lines
VALID = ("case", "of", "where", "data", "Cons", "St0", "es", "f", "x_y", "x9",
         "_x", "_", "->", "=>", "&&", "||", "|||", "a->b", "=", "==", "\\",
         "\\x", "(", ")", "{", "}", "|", ":", ",", "!", "!=", " ", "  ", "\t",
         "\r", "ǅ", "変", "é", "Éa", "#", "# c", "\n", "\n\n")
# with a word that starts with a digit, characters that are no token, and
# blanks that the lexer does not skip: ASCII, NEL, no-break, ideographic, and
# the line and paragraph separators, at which lines do not end either
FRAGMENTS = (*VALID, "9x", "-", "-->", ".", "\x0b", "\x0c", "\x1c", "\x85",
             "\xa0", "\u3000", "\u2028", "\u2029")


@settings(deadline=None, max_examples=400)
@given(text=st.lists(st.sampled_from(VALID)).map("".join))
def test_lexer_matches_the_reference_on_valid_text(text):
    assert library_tokens(text) == reference_tokens(text)


@settings(deadline=None, max_examples=400)
@given(text=st.lists(st.sampled_from(FRAGMENTS) | st.characters()).map("".join))
def test_lexer_matches_the_reference_on_any_text(text):
    assert library_tokens(text) == reference_tokens(text)


def test_lexer_matches_the_reference_on_explicit_cases():
    for text in ("", "\n", "a->b", "_x x_y", "|||", "f\x0bg", "f\x0cg", "f\x1fg", "f\xa0g", "9x",
                 "x # y\n# z\nw", "data D = A\r\nA\r\n", "a\tb\rc", "ǅ 変",
                 "f (g) {h}", "x -- y", "x y # \x0b",
                 # a parenthesized argument over two lines
                 "data D = A (B\n C) | E\nA",
                 "\n# c\n  \n# d\ndata D = A\n\ndata E = B\nA",
                 "data D = A\n# c\n# d\nA .",
                 "data D = A\r\n\tA\t\r\nf\r\n\t(g)",
                 "data D = A\ndata E = B\n\n\n\nA"):
        assert library_tokens(text) == reference_tokens(text), text
    assert library_tokens("f\x0bg") == Diagnostic(1, 2, "unexpected character '\\x0b'")


# --- the line table ---------------------------------------------------------------

def _lines_read(monkeypatch) -> list[int]:
    """The number of each line the lexer reads into its line table, in order."""
    read, read_line = [], parser._Tokens._read_line

    def spy(ts):
        read.append(len(ts.ends))  # the number of the line being read
        read_line(ts)

    monkeypatch.setattr(parser._Tokens, "_read_line", spy)
    return read


def test_the_line_table_reads_each_line_once_and_only_as_asked(monkeypatch):
    read = _lines_read(monkeypatch)
    decls = "".join(f"data D{i} = A{i} | B{i} (C{i})\n" for i in range(5000))
    source = parse_program(decls + "\nCons Mystery Nil\n")
    assert source.diagnostics == (Diagnostic(5002, 6, "unknown constructor Mystery"),)
    assert read == list(range(1, 5003))
    # a clean parse asks for the lines of the declarations and the line after
    text = DECLS + pretty_expr(ring_program(400))
    read.clear()
    assert parse_program(text).term is not None
    assert read == [1, 2, 3]


# --- the fast path ---------------------------------------------------------------

TOKEN = parser._TOKEN


class _SplitSpy:
    """``_TOKEN``, noting each chunk whose ``findall`` finds several tokens."""

    def __init__(self):
        self.split: list[str] = []

    def findall(self, chunk: str) -> list[str]:
        words = TOKEN.findall(chunk)
        if words != [chunk]:
            self.split.append(chunk)
        return words

    def finditer(self, *args):
        return TOKEN.finditer(*args)


def _atom(state: str) -> str:
    return f"{{ case s of {state} -> True | _ -> False }}"


# a property file as the benchmark's handler graphs read them
GRAPH_PROPS = "".join(
    f"prop {name}: {text}\n" for name, text in (
        ("always_a", f"G {_atom('St0')}"),
        ("response", f"G ({_atom('St0')} => F {_atom('St1')})"),
        ("next_b", f"X {_atom('St1')}"),
        ("not_always_a", f"!G {_atom('St0')}"),
        ("safe_and_live", f"G ({_atom('St0')} || {_atom('St1')}) && F {_atom('St0')}"),
        ("now_a", _atom("St0"))))


def test_common_files_lex_without_a_regex_split(corpus_text, monkeypatch):
    spy = _SplitSpy()
    monkeypatch.setattr(parser, "_TOKEN", spy)
    texts = [*corpus_text.values(), GRAPH_PROPS,
             DECLS + pretty_expr(ring_program(40)),
             DECLS + pretty_expr(handler_graph(8))]
    for text in texts:
        parser._Tokens(text)
    assert spy.split == []
    parser._Tokens("f a->b")  # the spy sees a split where there is one
    assert set(spy.split) == {"a->b"}
