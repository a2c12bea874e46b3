"""The token scanner: total on arbitrary text, exact on kinds and lines."""

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migmine.javafacts import extract_facts, scanner

SAMPLES = [
    "",
    "public class A {}",
    "int x = 0x1F_Ab + 1e-9; double d = .5;",
    'String s = "a \\" b // not a comment"; char c = \'\\\'\';',
    "// line comment\nint a; /* block\ncomment */ int b;",
    "/* unterminated block",
    '"unterminated string\nint live;',
    'var t = """\n  text block "quoted"\n  """;',
    "a.b.c(x, y).d();\nnew p.q.R<S, T>(1)[0];",
    "élève _x $y = café;",
    "weird \x00 bytes \x7f here",
    "int e = 1e+; float f = 2.5f;",
]

# Inputs at the edges of the token grammar, pinned in tests/golden/tokens.json.
EDGE_INPUTS = [
    "a /* x\ny",
    'a "x\ny',
    "a 'x\ny",
    'a """x\ny "" z',
    "a \\",
    '"abc\\',
    "'\\",
    '"""\\',
    '"a\\\nb" c\nd',
    "'\\\n' c\nd",
    '"""\\\nx""" c\nd',
    '"a\\"\nb',
    "\ufeffa b",
    "a \ufeff b",
    "\ufeff\ufeffa",
    "1e+5",
    "0x1p-3",
    "1E-",
    "1e+-2 1ee+3 1-2 0xe+1 .5 1..2 1.e5 1_000L 9a",
    "a\x00b\x7fc \x00",
    "a\xa0b \xa0",
    "\u00e9l\u00e8ve \u65e5\u672c \u8a9e \u2028x \U0001f600y \x1c",
    "/*/",
    "/*/ x */ y /**/ z",
    "$",
    "$ $a a$ _ a1b2",
    "a\r\nb\rc\x0b\fd",
    "// x",
    "a //",
    "a//b\nc",
    '"" """ """" """""',
    '""""',
    "' ''",
    "a   ",
    "a \t\n  ",
    '"""\n a \\""" b\n"""c',
    "a/b*c",
]


TOKENS_GOLDEN = Path(__file__).parent / "golden" / "tokens.json"
RESOLVER_FIXTURES = sorted((Path(__file__).parent / "fixtures" / "resolver").glob("*.java"))


def golden_text():
    """The text of tests/golden/tokens.json as the current `tokenize` gives it:
    one token stream a line, keyed by its source under "sources" and by its
    file name under "fixtures"."""
    sections = {
        "sources": {s: scanner.tokenize(s) for s in SAMPLES + EDGE_INPUTS},
        "fixtures": {p.name: scanner.tokenize(p.read_text()) for p in RESOLVER_FIXTURES},
    }
    parts = []
    for name, streams in sections.items():
        entries = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(toks, separators=(',', ':'))}"
            for key, toks in streams.items()
        )
        parts.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def test_token_streams_match_golden_file():
    """`tokenize` gives exactly the token streams in tests/golden/tokens.json.

    Regenerate the file only for a deliberate change to the token streams,
    from the repository root:

        PYTHONPATH=src:tests python -c "
        import test_scanner as t; t.TOKENS_GOLDEN.write_text(t.golden_text())"
    """
    golden = json.loads(TOKENS_GOLDEN.read_text())
    got = json.loads(golden_text())
    for section in ("sources", "fixtures"):
        assert sorted(got[section]) == sorted(golden[section])
        changed = [key for key in got[section] if got[section][key] != golden[section][key]]
        assert not changed, f"token streams differ from {TOKENS_GOLDEN.name} for {changed}"


def assert_total(source):
    """Valid kinds; identifiers that are verbatim slices of the text, as
    `may_reference` relies on; lines that never fall and never pass the
    text's last line."""
    last = 1
    for kind, value, line in scanner.tokenize(source):
        assert kind in (1, 2, 3, 4, 5)
        assert kind != scanner.IDENT or value in source
        assert last <= line <= 1 + source.count("\n")
        last = line


@given(
    st.text(
        alphabet='abcXY_$09 \t\n"\'/*.(){}<>;,+-=@\\\r\x0b\f\x00\u00e9\ufeffeEpPx',
        max_size=400,
    )
)
@settings(max_examples=500, deadline=None)
def test_tokenize_total_on_java_like_text(source):
    assert_total(source)


@pytest.mark.parametrize("source", SAMPLES)
def test_tokenize_total_on_samples(source):
    assert_total(source)


# Each would be read again to the end of the text from every point in it if
# a token or skipped stretch could fail after scanning ahead.  "/*" repeated
# closes itself ("/*/*/" is one comment); "/* " repeated never does.
LINEAR_TRAPS = ["/*", "/* ", '"a\\\n', '"""', "'\\", "1e+", "\\", " "]


def test_traps_tokenize_in_linear_time():
    start = time.perf_counter()
    for pattern in LINEAR_TRAPS:
        scanner.tokenize("a" + pattern * (200_000 // len(pattern)))
    assert time.perf_counter() - start < 2


# Unbalanced brackets and unclosed scopes: each would be read again to the
# end of the text from every '(' or through every open scope if the fact
# walker matched brackets or looked names up by scanning.  A long dotted
# name would be read again from each of its segments if the walker read a
# name anywhere but at its first identifier.
EXTRACT_TRAPS = ["x = new A(b.c(", "new A(", "a.b(", "{a.b();", "f(A a, a.b(), "]


def test_traps_extract_in_linear_time():
    start = time.perf_counter()
    for pattern in EXTRACT_TRAPS:
        extract_facts(pattern * (100_000 // len(pattern)))
    extract_facts("a" + ".b" * 50_000 + " x;")
    assert time.perf_counter() - start < 6


def test_token_kinds_and_lines():
    toks = scanner.tokenize('int a = 1;\nString s = "x";\nfoo.bar();')
    kinds = [(k, v, ln) for k, v, ln in toks]
    assert (scanner.IDENT, "int", 1) in kinds
    assert (scanner.NUMBER, "", 1) in kinds
    assert (scanner.STRING, "", 2) in kinds
    assert (scanner.IDENT, "bar", 3) in kinds
    assert (scanner.PUNCT, ";", 3) in kinds


def test_byte_order_mark_is_skipped_only_at_the_start():
    assert scanner.tokenize("\ufeffimport a;") == scanner.tokenize("import a;")
    assert scanner.tokenize("a\ufeff")[0] == (scanner.IDENT, "a\ufeff", 1)


def test_comments_and_strings_do_not_leak_identifiers():
    source = '/* new JSONObject(x) */ String s = "obj.toJSONString()"; // more()\n'
    idents = [v for k, v, _ in scanner.tokenize(source) if k == scanner.IDENT]
    assert idents == ["String", "s"]


def test_line_numbers_across_multiline_constructs():
    source = '/* 1\n2\n3 */ a\n"s\\\n t" b\nc'
    toks = scanner.tokenize(source)
    by_value = {v: ln for k, v, ln in toks if k == scanner.IDENT}
    assert by_value["a"] == 3
    assert by_value["b"] == 5
    assert by_value["c"] == 6


def test_package_holds_a_single_tokenizer():
    package = Path(scanner.__file__).parent
    twins = [
        entry.name
        for entry in package.iterdir()
        if entry.name.startswith("_scanner") or entry.suffix in (".pyx", ".c")
    ]
    assert twins == []
