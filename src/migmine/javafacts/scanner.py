"""Java token scanner: the token kinds, `scan` and `tokenize`.

Whitespace (space, tab, CR, LF, form feed, vertical tab), `//` comments and
`/* */` comments are skipped.  The tokens are:

- IDENT: an ASCII letter, `_`, `$` or any non-ASCII character, then any of
  those or ASCII digits.  Its value is a verbatim slice of the text.
- NUMBER: an ASCII digit, then ASCII letters, digits, `_` and `.`; a `+` or
  `-` belongs to it only right after `e`, `E`, `p` or `P`.
- STRING: a `\"\"\"` text block or a `"` string literal; CHAR: a `'` literal.
- PUNCT: any other single character.

A backslash in a literal escapes the next character, a newline included.
An unterminated block comment or text block runs to the end of the text;
an unterminated string or char literal stops before its newline.  Literals
have empty values.

`scan` gives each token as (kind, value, offset), where offset is the index
of its first character in the text; it counts no lines, so the fact walker
dates only the tokens it records.  `tokenize` is the same scan with each
offset turned into a line: 1 plus the newlines before the token's first
character.
"""

import re

IDENT = 1
NUMBER = 2
STRING = 3
CHAR = 4
PUNCT = 5

# Group n is the last group of a token of kind n.  An identifier's or a
# punctuation character's group holds it; a literal's is the empty group at
# its start, so a match's last group gives the token's kind, value and
# offset alike.  Every match ends at a token or at the end of the text, so
# the skipped prefix never backtracks.
_TOKEN = re.compile(
    r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*(?:[^*]+|\*(?!/))*(?:\*/)?)*"
    r"(?:([^\x00-\x23\x25-\x40\x5b-\x5e\x60\x7b-\x7f]"
    r"[^\x00-\x23\x25-\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f]*)"
    r"|()[0-9][0-9A-Za-z_.]*(?:(?<=[eEpP])[+-][0-9A-Za-z_.]*)*"
    r'|()(?:"""(?:[^"\\]+|\\.?|"(?!""))*(?:""")?|"(?:[^"\\\n]+|\\.?)*"?)'
    r"|()'(?:[^'\\\n]+|\\.?)*'?"
    r"|([^ \t\r\n\f\v])"
    r"|\Z)",
    re.DOTALL,
)


def scan(text):
    """Lex Java source into (kind, value, offset) tuples; total on any text.

    A byte order mark is skipped only at the start of the text.
    """
    # the matches without a token are those that end the text
    return [
        (kind, m[kind], m.start(kind))
        for m in _TOKEN.finditer(text, 1 if text.startswith("\ufeff") else 0)
        if (kind := m.lastindex)
    ]


def tokenize(text):
    """Lex Java source into (kind, value, line) tuples: `scan` with lines."""
    toks = []
    line, counted = 1, 0
    for kind, value, start in scan(text):
        line += text.count("\n", counted, start)
        counted = start
        toks.append((kind, value, line))
    return toks
