"""Java token scanner: the token kinds and `tokenize`."""

IDENT = 1
NUMBER = 2
STRING = 3
CHAR = 4
PUNCT = 5


def tokenize(text):
    """Lex Java source into (kind, value, line) tuples.

    Comments and whitespace are skipped.  String and char literals become
    single tokens with empty values so later passes never look inside them.
    Total on arbitrary text: unknown bytes degrade to PUNCT tokens, never an
    exception.  Lines are 1-based and refer to the token start.  A byte
    order mark at the start is skipped like whitespace.
    """
    toks = []
    n = len(text)
    i = 1 if text[:1] == "\ufeff" else 0
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c == " " or c == "\t" or c == "\r" or c == "\f" or c == "\x0b":
            i += 1
            continue
        if c == "/":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "/":
                i += 2
                while i < n and text[i] != "\n":
                    i += 1
                continue
            if nxt == "*":
                i += 2
                while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                    if text[i] == "\n":
                        line += 1
                    i += 1
                if i + 1 < n:
                    i += 2
                else:
                    # unterminated block comment swallows the tail
                    if i < n and text[i] == "\n":
                        line += 1
                    i = n
                continue
            toks.append((PUNCT, "/", line))
            i += 1
            continue
        if c == '"':
            if i + 2 < n and text[i + 1] == '"' and text[i + 2] == '"':
                # text block
                start_line = line
                i += 3
                while i < n:
                    if text[i] == "\\":
                        if i + 1 < n and text[i + 1] == "\n":
                            line += 1
                        i += 2
                        continue
                    if (
                        text[i] == '"'
                        and i + 2 < n
                        and text[i + 1] == '"'
                        and text[i + 2] == '"'
                    ):
                        i += 3
                        break
                    if text[i] == "\n":
                        line += 1
                    i += 1
                else:
                    i = n
                toks.append((STRING, "", start_line))
                continue
            i += 1
            while i < n:
                ch = text[i]
                if ch == "\\":
                    if i + 1 < n and text[i + 1] == "\n":
                        line += 1
                    i += 2
                    continue
                if ch == '"':
                    i += 1
                    break
                if ch == "\n":
                    break  # unterminated: leave the newline for the main loop
                i += 1
            toks.append((STRING, "", line))
            continue
        if c == "'":
            i += 1
            while i < n:
                ch = text[i]
                if ch == "\\":
                    if i + 1 < n and text[i + 1] == "\n":
                        line += 1
                    i += 2
                    continue
                if ch == "'":
                    i += 1
                    break
                if ch == "\n":
                    break
                i += 1
            toks.append((CHAR, "", line))
            continue
        if "0" <= c <= "9":
            i += 1
            while i < n:
                ch = text[i]
                if (
                    "0" <= ch <= "9"
                    or "a" <= ch <= "z"
                    or "A" <= ch <= "Z"
                    or ch == "_"
                    or ch == "."
                ):
                    i += 1
                elif (ch == "+" or ch == "-") and (
                    text[i - 1] == "e"
                    or text[i - 1] == "E"
                    or text[i - 1] == "p"
                    or text[i - 1] == "P"
                ):
                    i += 1
                else:
                    break
            toks.append((NUMBER, "", line))
            continue
        if (
            "a" <= c <= "z"
            or "A" <= c <= "Z"
            or c == "_"
            or c == "$"
            or ord(c) > 127
        ):
            start = i
            i += 1
            while i < n:
                ch = text[i]
                if (
                    "a" <= ch <= "z"
                    or "A" <= ch <= "Z"
                    or "0" <= ch <= "9"
                    or ch == "_"
                    or ch == "$"
                    or ord(ch) > 127
                ):
                    i += 1
                else:
                    break
            toks.append((IDENT, text[start:i], line))
            continue
        toks.append((PUNCT, c, line))
        i += 1
    return toks
