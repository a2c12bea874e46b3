"""The token scanner: total on arbitrary text, exact on kinds and lines."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migmine.javafacts import scanner

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


def assert_total(source):
    for kind, value, line in scanner.tokenize(source):
        assert kind in (1, 2, 3, 4, 5)
        assert line >= 1


@given(
    st.text(
        alphabet='abcXY_$09 \t\n"\'/*.(){}<>;,+-=@\\',
        max_size=400,
    )
)
@settings(max_examples=500, deadline=None)
def test_tokenize_total_on_java_like_text(source):
    assert_total(source)


@pytest.mark.parametrize("source", SAMPLES)
def test_tokenize_total_on_samples(source):
    assert_total(source)


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
