"""Lightweight static facts about Java sources.

Extracts imports and method invocations from raw source text, and
resolves invocations against a per-library class index.  Resolution is
intra-file and declared-type based: the walker tracks the declared types
of locals, fields and parameters in scope only to find an invocation's
receiver type, and exports nothing else about them.  It is a conservative
under-approximation that prefers missing a use over inventing one.

The walker reads the scanner's (kind, value, offset) tokens and counts
lines only for the invocations it records.  One reader, `_dotted`, reads
every dotted name, once, from its first identifier: a name followed by
'(' is a call, any other may start a declaration.  A name qualified
through a keyword (`X.class.getName()`, `Outer.this.m()`, `Outer.super.m()`)
calls a method of `Class` or of an enclosing instance, not of the class
it names, so it is neither a call nor a type.  The walker takes time
linear in the text: one record keeps each bracket's close and each
call's argument count, found once, and a name's declared types are a
stack per name, not a search through every open scope.

`may_reference` is a text check in front of all of that: a source whose
text contains none of a library's class simple names, and not every
segment of any of its packages, cannot use or depend on the library, so it
need not be tokenized for it.

Facts are a pure function of the text.  `FACTS_VERSION` names the
extractor's output; bump it whenever that output changes, so that answers
derived from an older extractor's facts are dropped.

What a blob holds of one library is a pure function of its facts and of
what the resolver reads of the index (`PackageIndex.answer_key`), so it,
and not the facts, is what a store keeps: a `LibraryAnswer`, the uses
`resolve_usages` finds and whether an import names the library
(`imports_name`), from which `facts_depend_on` follows for either value
of its flag.  `encode_answer` writes it as compact JSON, or as "" when it
holds nothing, and `decode_answer` reads it back.  `RESOLVER_VERSION` names the resolver's
output; bump it whenever that changes.
"""

from __future__ import annotations

import io
import json
import zipfile

from ..model import (
    ImportDecl,
    Invocation,
    LibraryAnswer,
    LibraryCoordinate,
    LibraryMethodUse,
    PackageIndex,
    SourceFacts,
)
from .scanner import IDENT, PUNCT, scan

__all__ = [
    "IndexBuildError",
    "build_package_index",
    "fallback_package_index",
    "extract_facts",
    "FACTS_VERSION",
    "may_reference",
    "resolve_usages",
    "imports_name",
    "facts_depend_on",
    "RESOLVER_VERSION",
    "encode_answer",
    "decode_answer",
]

_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

_PRIMITIVES = frozenset(
    "boolean byte char short int long float double void".split()
)
_NON_TYPES = _KEYWORDS - _PRIMITIVES  # the keywords that start no type

_GENERIC_PUNCT = frozenset(".,?[]&@")

# Sets of token values.  A punctuation value is a character that starts no
# identifier and a literal's value is empty, so testing a value needs no
# kind test; but "" is in every string, hence sets.
_STRUCTURAL = frozenset("{}();@")  # the punctuation the walker acts on
_AFTER_NAME = frozenset(".(<[")
_TYPE_DECLARATIONS = frozenset(("class", "interface", "enum"))
_RECORD_OPENERS = frozenset("(<")
_DECLARATOR_ENDS = frozenset("=;,):")
_NEXT_DECLARATOR = frozenset("=;,")
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")


class IndexBuildError(RuntimeError):
    """Raised when a class archive cannot be turned into a usable index."""


def build_package_index(coordinate: LibraryCoordinate, archive: bytes) -> PackageIndex:
    """Index the top-level classes of a zip-format class archive.

    Inner classes (a/B$C.class) fold into their outer class.  An archive
    without any class entries is an error: it cannot resolve anything.
    """
    try:
        zf = zipfile.ZipFile(io.BytesIO(archive))
        names = zf.namelist()
    except (zipfile.BadZipFile, OSError) as exc:
        raise IndexBuildError(f"unreadable class archive for {coordinate}: {exc}") from exc
    classes = set()
    for name in names:
        if not name.endswith(".class") or name.startswith("META-INF/"):
            continue
        base = name[:-6].split("$", 1)[0]
        if base.endswith("module-info") or base.endswith("package-info"):
            continue
        classes.add(base.replace("/", "."))
    if not classes:
        raise IndexBuildError(f"archive for {coordinate} contains no classes")
    packages = {c.rpartition(".")[0] for c in classes if "." in c}
    return PackageIndex(classes=frozenset(classes), packages=frozenset(packages))


def fallback_package_index(coordinate: LibraryCoordinate) -> PackageIndex:
    """Low-confidence index guessing the group id as the package prefix."""
    return PackageIndex(
        classes=frozenset(), packages=frozenset({coordinate.group}), prefix_mode=True
    )


def _skip_generics(toks, i, n, limit=80):
    """Return the index after a type-argument list starting at '<', or None.

    Only type-like contents qualify; anything else means '<' was the
    less-than operator.
    """
    if i >= n or toks[i][1] != "<":
        return None
    depth = 0
    j = i
    steps = 0
    while j < n and steps < limit:
        kind, v, _ = toks[j]
        if kind == PUNCT:
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif v not in _GENERIC_PUNCT:
                return None
        elif kind == IDENT:
            if v in _NON_TYPES and v not in ("extends", "super"):
                return None
        else:
            return None
        j += 1
        steps += 1
    return None


def _dotted(toks, i, n):
    """Read the dotted name whose first identifier is token i.

    Returns (its identifiers, the index after them, typed): `typed` is
    false when an identifier after the first is a keyword, as in
    `X.class` or `Outer.this`, so the name names no type or receiver.
    """
    parts = [toks[i][1]]
    typed = True
    j = i + 1
    while j + 1 < n and toks[j][1] == "." and toks[j + 1][0] == IDENT:
        v = toks[j + 1][1]
        parts.append(v)
        typed = typed and v not in _KEYWORDS
        j += 2
    return parts, j, typed


def _type_suffix(toks, j, n):
    """The index after the type arguments and `[]` pairs at token j, if any."""
    j = _skip_generics(toks, j, n) or j
    while j + 1 < n and toks[j][1] == "[" and toks[j + 1][1] == "]":
        j += 2
    return j


class _Walker:
    """Single linear pass over the token stream collecting facts."""

    def __init__(self, text):
        self.text = text
        self.toks = scan(text)
        self.n = len(self.toks)
        # the line of offset `counted`, moved on demand by `_line`
        self.line, self.counted = 1, 0
        # what `_bracket` found, by open bracket
        self._brackets: dict[int, tuple[int, int]] = {}
        self.package = None
        self.imports: list[ImportDecl] = []
        self.local_types: set[str] = set()
        self.static_import_names: set[str] = set()
        self.invocations: list[Invocation] = []
        # each name's declared types, innermost last; each open scope lists
        # the names it declared, to take back when it closes
        self.bindings: dict[str, list[str]] = {}
        self.scopes: list[set[str]] = [set()]
        self.paren_depth = 0
        self.pending: list[tuple[str, str]] = []
        self.pending_types: dict[str, str] = {}  # first pending type of each name
        self.carry: list[tuple[str, str]] = []

    def run(self) -> SourceFacts:
        toks, n = self.toks, self.n
        i = 0
        while i < n:
            kind, val, _ = toks[i]
            if kind != IDENT:
                if val not in _STRUCTURAL:
                    i += 1
                elif val == "{":
                    self._push_scope()
                    i += 1
                elif val == "}":
                    self._pop_scope()
                    i += 1
                elif val == "(":
                    self.paren_depth += 1
                    i += 1
                elif val == ")":
                    if self.paren_depth > 0:
                        self.paren_depth -= 1
                        if self.paren_depth == 0 and self.pending:
                            self.carry = self.pending
                            self.pending = []
                            self.pending_types = {}
                    i += 1
                elif val == ";":
                    if self.carry:
                        self._merge_carry()
                    i += 1
                else:
                    i = self._skip_annotation(i)
                continue
            if i and toks[i - 1][1] == ".":
                i += 1
                continue
            if val in _KEYWORDS:
                if val == "package" and self.package is None:
                    i += 1
                    if i < n and toks[i][0] == IDENT:
                        parts, i, _ = _dotted(toks, i, n)
                        self.package = ".".join(parts)
                    i += 1
                elif val == "import":
                    i = self._parse_import(i)
                elif val in _TYPE_DECLARATIONS:
                    if i + 1 < n and toks[i + 1][0] == IDENT:
                        self.local_types.add(toks[i + 1][1])
                        i += 2
                    else:
                        i += 1
                elif val == "new":
                    i = self._handle_new(i)
                else:
                    i += 1
                continue
            if (
                val == "record"
                and i + 2 < n
                and toks[i + 1][0] == IDENT
                and toks[i + 2][1] in _RECORD_OPENERS
            ):
                self.local_types.add(toks[i + 1][1])
                i += 2
                continue
            # a declaration or a call needs an identifier or one of . ( < [ next
            if i + 1 < n and (toks[i + 1][0] == IDENT or toks[i + 1][1] in _AFTER_NAME):
                i = self._try_name(i)
                continue
            i += 1
        return SourceFacts(
            package=self.package,
            imports=tuple(self.imports),
            invocations=tuple(self.invocations),
            local_types=frozenset(self.local_types),
        )

    def _line(self, i):
        """The line of token i, counted on from the last line asked for."""
        offset = self.toks[i][2]
        if offset >= self.counted:
            self.line += self.text.count("\n", self.counted, offset)
        else:
            self.line -= self.text.count("\n", offset, self.counted)
        self.counted = offset
        return self.line

    def _bracket(self, open_idx):
        """(close, argument count) of the bracket at open_idx: the index of
        the bracket of any kind that brings the depth of ([{ against )]}
        back to zero from open_idx, or n - 1 if none does, and the
        top-level argument count of a call whose '(' is there.

        A stack pass from open_idx that records every bracket it closes,
        or runs to the end, and steps over the brackets recorded before.
        It jumps over each type-argument list (`_skip_generics`): a comma
        counts when its bracket is the innermost open one, and without
        commas the call has one argument if anything stands between '('
        and its close (or the end).  A jumped list holds no '(' and no
        brace, so every '(' lies on the one path these jumps make through
        the file, and a bracket's record made by an earlier pass holds for
        every later one: each token is read once per file.  A '[' or ']'
        in a jumped list is not matched; compilable Java has none unpaired.
        """
        brackets = self._brackets
        if open_idx in brackets:
            return brackets[open_idx]
        toks, n = self.toks, self.n
        stack = []  # [index, commas] of each open bracket
        j = open_idx
        while j < n:
            v = toks[j][1]
            if v in _OPENERS:
                if j in brackets:
                    j = brackets[j][0] + 1
                    continue
                stack.append([j, 0])
            elif v in _CLOSERS:
                p, commas = stack.pop()
                brackets[p] = (j, commas + 1 if commas else int(j - p > 1))
                if not stack:
                    return brackets[p]
            elif v == ",":
                stack[-1][1] += 1
            elif v == "<":
                g = _skip_generics(toks, j, n)
                if g is not None:
                    j = g
                    continue
            j += 1
        for p, commas in stack:
            brackets[p] = (n - 1, commas + 1 if commas else int(n - p > 1))
        return brackets[open_idx]

    # -- scope machinery ---------------------------------------------------

    def _push_scope(self):
        self.scopes.append(set())
        for name, type_name in self.carry:
            self._bind(name, type_name)
        self.carry = []

    def _pop_scope(self):
        if len(self.scopes) > 1:
            for name in self.scopes.pop():
                types = self.bindings[name]
                types.pop()
                if not types:
                    del self.bindings[name]

    def _bind(self, name, type_name):
        """Declare name in the innermost scope; a second declaration there wins."""
        scope = self.scopes[-1]
        if name in scope:
            self.bindings[name][-1] = type_name
        else:
            scope.add(name)
            self.bindings.setdefault(name, []).append(type_name)

    def _merge_carry(self):
        # paren declarations not followed by a block (bodyless for/try)
        for name, type_name in self.carry:
            self._record_decl(name, type_name)
        self.carry = []

    def _record_decl(self, name, type_name):
        if self.paren_depth > 0:
            self.pending.append((name, type_name))
            self.pending_types.setdefault(name, type_name)
            return
        self._bind(name, type_name)

    def _lookup(self, name):
        types = self.bindings.get(name)
        if types:
            return types[-1]
        return self.pending_types.get(name)

    # -- constructs ----------------------------------------------------------

    def _record_call(self, at, kind, method, open_idx, receiver):
        """Record a call dated by token `at` whose '(' is token open_idx."""
        self.invocations.append(
            Invocation(self._line(at), kind, method, self._bracket(open_idx)[1], receiver)
        )

    def _skip_annotation(self, i):
        toks, n = self.toks, self.n
        j = i + 1
        if j < n and toks[j][1] == "interface":
            return i + 1  # @interface declaration, let the main loop handle it
        if j < n and toks[j][0] == IDENT:
            _, j, _ = _dotted(toks, j, n)
        if j < n and toks[j][1] == "(":
            return self._bracket(j)[0] + 1
        return j

    def _parse_import(self, i):
        toks, n = self.toks, self.n
        j = i + 1
        is_static = j < n and toks[j][1] == "static"
        if is_static:
            j += 1
        if j < n and toks[j][0] == IDENT:
            parts, j, _ = _dotted(toks, j, n)
            wildcard = j + 1 < n and toks[j][1] == "." and toks[j + 1][1] == "*"
            self.imports.append(ImportDecl(".".join(parts), is_static, wildcard))
            if is_static and not wildcard:
                self.static_import_names.add(parts[-1])
        while j < n and toks[j][1] != ";":
            j += 1
        return j + 1

    def _handle_new(self, i):
        toks, n = self.toks, self.n
        j = i + 1
        if not (j < n and toks[j][0] == IDENT) or toks[j][1] in _NON_TYPES:
            return i + 1
        parts, j, typed = _dotted(toks, j, n)
        j = _type_suffix(toks, j, n)
        if not (typed and j < n and toks[j][1] == "("):
            return i + 1  # array creation or malformed
        type_name = ".".join(parts)
        self._record_call(i + 1, "constructor", parts[-1], j, type_name)
        close = self._bracket(j)[0]
        # constructor-chained call: the receiver type is locally evident
        if (
            close + 3 < n
            and toks[close + 1][1] == "."
            and toks[close + 2][0] == IDENT
            and toks[close + 3][1] == "("
        ):
            self._record_call(close + 2, "instance", toks[close + 2][1], close + 3, type_name)
        return j

    def _try_name(self, i):
        """Read the dotted name at token i once, and the call or the
        declaration it starts; returns the index to go on from.

        A call is a name followed by '(': one name is a call only through an
        explicit static import (a wildcard one could attribute local helpers
        to the library), and a qualified one is on a declared variable or a
        class.  A name qualified through a keyword (`X.class.getName()`,
        `Outer.this.m()`) starts no call and no declaration the walker can
        type.
        """
        toks, n = self.toks, self.n
        parts, j, typed = _dotted(toks, i, n)
        if not typed:
            return j
        if j < n and toks[j][1] == "(":
            method = parts.pop()
            declared = self._lookup(parts[0]) if len(parts) == 1 else None
            if declared is not None:
                self._record_call(j - 1, "instance", method, j, declared)
            elif parts:
                self._record_call(j - 1, "static_call", method, j, ".".join(parts))
            elif method in self.static_import_names:
                self._record_call(j - 1, "static_imported", method, j, None)
            return j
        j = _type_suffix(toks, j, n)
        if not (j < n and toks[j][0] == IDENT and toks[j][1] not in _KEYWORDS):
            return i + 1
        k = j + 1
        if not (k < n and toks[k][1] in _DECLARATOR_ENDS):
            return i + 1
        if toks[k][1] == ":" and k + 1 < n and toks[k + 1][1] == ":":
            return i + 1  # method reference, not an enhanced-for declaration
        if toks[k][1] == "=" and k + 1 < n and toks[k + 1][1] == "=":
            return i + 1  # equality comparison
        type_name = ".".join(parts)
        self._record_decl(toks[j][1], type_name)
        # direct multi-declarator form: Type a, b, c;
        while (
            k + 2 < n
            and toks[k][1] == ","
            and toks[k + 1][0] == IDENT
            and toks[k + 1][1] not in _KEYWORDS
            and toks[k + 2][1] in _NEXT_DECLARATOR
        ):
            self._record_decl(toks[k + 1][1], type_name)
            k += 2
        return k


def extract_facts(source: str) -> SourceFacts:
    """Extract the package, imports, local types and invocations of Java text.

    Best-effort and total: syntactically broken files yield fewer facts,
    never an exception.
    """
    return _Walker(source).run()


FACTS_VERSION = "3"


def may_reference(text: str, index: PackageIndex) -> bool:
    """False only when no facts of `text` can reference the indexed library.

    Every identifier the scanner yields is a verbatim slice of the text, and
    every reference that `resolve_usages` or `facts_depend_on` finds ends in
    one of two things:

    - a class of `index.classes` whose simple name is an identifier of the
      file.  Explicit, wildcard, static and fully qualified references,
      same-package references and inner-class folding all look up a dotted
      name of identifiers whose last kept segment is that simple name;
    - a package in, or under, one of `index.packages` whose segments are
      all identifiers of the file: wildcard imports, and every class of a
      prefix-mode index.

    So the text passes only if it holds a class simple name, or every
    segment of some indexed package; otherwise `resolve_usages` of its
    facts is empty and `facts_depend_on` is false for either value of
    `imports_count_as_use`.  A text that holds no class simple name and
    no package's last segment (`index.reference_words`) fails first.
    """
    if not any(word in text for word in index.reference_words):
        return False
    if any(all(segment in text for segment in segments) for segments in index.package_segments):
        return True
    return index.class_pattern is not None and index.class_pattern.search(text) is not None


def _lookup_class(index: PackageIndex, fqcn: str) -> str | None:
    """Find fqcn in the index, folding trailing inner-class segments."""
    parts = fqcn.split(".")
    for cut in range(len(parts), 1, -1):
        cand = ".".join(parts[:cut])
        if index.contains_class(cand):
            return cand
    if len(parts) == 1 and index.contains_class(fqcn):
        return fqcn
    return None


class _Resolver:
    def __init__(self, facts: SourceFacts, index: PackageIndex):
        self.facts = facts
        self.index = index
        self.explicit: dict[str, str] = {}
        self.wildcards: list[str] = []
        self.static_explicit: dict[str, str] = {}
        for imp in facts.imports:
            if imp.is_static:
                if not imp.is_wildcard:
                    cls, _, member = imp.qualified.rpartition(".")
                    if cls:
                        self.static_explicit.setdefault(member, cls)
            elif imp.is_wildcard:
                self.wildcards.append(imp.qualified)
            else:
                simple = imp.qualified.rpartition(".")[2]
                self.explicit.setdefault(simple, imp.qualified)

    def resolve_type(self, name: str | None) -> str | None:
        if not name:
            return None
        index = self.index
        if "." in name:
            hit = _lookup_class(index, name)
            if hit:
                return hit
            # first segment may be an imported simple name (Outer.Inner use)
            first, _, rest = name.partition(".")
            fq = self.explicit.get(first)
            if fq:
                return _lookup_class(index, fq)
            return None
        if name in self.facts.local_types:
            return None  # locally declared type shadows any import
        fq = self.explicit.get(name)
        if fq:
            return _lookup_class(index, fq)
        for pkg in self.wildcards:
            cand = f"{pkg}.{name}"
            if index.contains_class(cand):
                return cand
        if self.facts.package:
            cand = f"{self.facts.package}.{name}"
            if index.contains_class(cand):
                return cand
        return None

    def resolve_static_import(self, method: str) -> str | None:
        fq = self.static_explicit.get(method)
        if fq:
            return _lookup_class(self.index, fq)
        return None


def resolve_usages(facts: SourceFacts, index: PackageIndex) -> list[LibraryMethodUse]:
    """Resolve the invocations in `facts` that belong to the indexed library.

    Unresolvable invocations are dropped: the result is a conservative
    under-approximation with no invented uses.
    """
    res = _Resolver(facts, index)
    uses = []
    for inv in facts.invocations:
        if inv.kind == "static_imported":
            cls = res.resolve_static_import(inv.method)
        else:
            cls = res.resolve_type(inv.receiver)
        if cls is not None:
            uses.append(
                LibraryMethodUse(
                    class_name=cls,
                    method="<init>" if inv.kind == "constructor" else inv.method,
                    arity=inv.arity,
                    line=inv.line,
                )
            )
    return uses


def facts_depend_on(
    facts: SourceFacts, index: PackageIndex, imports_count_as_use: bool = True
) -> bool:
    """True when the file's facts still reference the indexed library.

    Imports without calls count as residual dependency by default; pass
    imports_count_as_use=False to require an actual resolved invocation.
    """
    if resolve_usages(facts, index):
        return True
    return imports_count_as_use and imports_name(facts, index)


def imports_name(facts: SourceFacts, index: PackageIndex) -> bool:
    """True when an import of the file names a class or package of the
    indexed library."""
    for imp in facts.imports:
        if imp.is_wildcard:
            if imp.is_static:
                if _lookup_class(index, imp.qualified):
                    return True
            elif index.covers_package(imp.qualified):
                return True
        else:
            qualified = imp.qualified
            if imp.is_static:
                qualified = qualified.rpartition(".")[0]
            if qualified and _lookup_class(index, qualified):
                return True
    return False


RESOLVER_VERSION = "1"


def encode_answer(answer: LibraryAnswer) -> str:
    """An empty string for an answer that holds nothing; else compact JSON
    of its uses, each [class, method, arity, line], and 1 or 0 for its
    import flag."""
    if not answer.uses and not answer.imports:
        return ""
    return json.dumps([[list(use) for use in answer.uses], int(answer.imports)],
                      separators=(",", ":"))


def decode_answer(data: str) -> LibraryAnswer:
    """The answer `encode_answer` wrote; plain JSON, so decoding runs no code."""
    if not data:
        return LibraryAnswer([], False)
    uses, imports = json.loads(data)
    return LibraryAnswer([LibraryMethodUse(*use) for use in uses], bool(imports))
