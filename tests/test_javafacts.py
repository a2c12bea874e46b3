"""Fact extraction, package indexing and conservative resolution."""

import json
import random
import re
from pathlib import Path

import pytest
from conftest import FIXTURES
from corpusgen import class_jar, corpus_scripts
from hypothesis import given, settings
from hypothesis import strategies as st
from test_resolver_precision import load_ground_truth

from migmine.javafacts import (
    decode_answer,
    encode_answer,
    FACTS_VERSION,
    IndexBuildError,
    build_package_index,
    extract_facts,
    facts_depend_on,
    fallback_package_index,
    may_reference,
    resolve_usages,
)
from migmine.model import (
    LibraryAnswer,
    LibraryCoordinate,
    LibraryMethodUse,
    PackageIndex,
    SourceFacts,
)

JSON_SOURCE = """package com.example;

import org.json.JSONObject;

public class Converter {
    public String run(Object value) {
        JSONObject obj = new JSONObject(value);
        String s = obj.toJSONString();
        return s;
    }
}
"""

GSON_SOURCE = """package com.example;

import com.google.gson.Gson;

public class Converter {
    public String run(Object value) {
        return new Gson().toJson(value);
    }
}
"""


def use_keys(uses):
    return {(u.class_name, u.method, u.arity) for u in uses}


class TestExtractFacts:
    def test_imports_and_package(self):
        facts = extract_facts(JSON_SOURCE)
        assert facts.package == "com.example"
        assert [(i.qualified, i.is_static, i.is_wildcard) for i in facts.imports] == [
            ("org.json.JSONObject", False, False)
        ]

    def test_instance_invocation_with_declared_receiver(self):
        facts = extract_facts(JSON_SOURCE)
        instance = [i for i in facts.invocations if i.kind == "instance"]
        assert len(instance) == 1
        assert instance[0].method == "toJSONString"
        assert instance[0].arity == 0
        assert instance[0].receiver == "JSONObject"

    def test_constructor_chained_call(self):
        facts = extract_facts(GSON_SOURCE)
        kinds = [(i.kind, i.method, i.arity) for i in facts.invocations]
        assert ("constructor", "Gson", 0) in kinds
        assert ("instance", "toJson", 1) in kinds

    def test_constructor_method_is_class_simple_name(self):
        facts = extract_facts("void f() { new a.b.Widget(1, 2); }")
        ctor = facts.invocations[0]
        assert ctor.kind == "constructor"
        assert ctor.method == "Widget"
        assert ctor.arity == 2

    def test_empty_file_has_empty_fact_lists(self):
        facts = extract_facts("public class Empty {}\n")
        assert facts.imports == ()
        assert facts.invocations == ()

    def test_leading_byte_order_mark_keeps_the_imports(self, json_index):
        source = JSON_SOURCE.partition("\n\n")[2]
        assert source.startswith("import org.json.JSONObject;")
        facts = extract_facts("\ufeff" + source)
        assert [i.qualified for i in facts.imports] == ["org.json.JSONObject"]
        uses = resolve_usages(facts, json_index)
        assert uses and uses == resolve_usages(extract_facts(source), json_index)

    def test_leading_byte_order_mark_keeps_the_package(self):
        assert extract_facts("\ufeffpackage a.b;").package == "a.b"

    def test_extraction_is_total_on_garbage(self):
        facts = extract_facts("]]]}{ class ) new ( import \x00\xff ;;;")
        assert facts is not None

    def test_comment_stripping_fold(self):
        commented = JSON_SOURCE.replace(
            "String s = obj.toJSONString();",
            "String s = obj.toJSONString(); // legacy: x.y()\n        /* new Gson() */",
        )
        plain = extract_facts(JSON_SOURCE).invocations
        folded = extract_facts(commented).invocations
        assert [(i.kind, i.method, i.arity) for i in plain] == [
            (i.kind, i.method, i.arity) for i in folded
        ]


class TestPackageIndex:
    def test_inner_classes_fold_into_outer(self):
        index = build_package_index(
            LibraryCoordinate("x", "y", "1"), class_jar(["a/B.class", "a/B$C.class"])
        )
        assert index.classes == frozenset({"a.B"})
        assert index.packages == frozenset({"a"})

    def test_gson_archive_contains_gson(self, gson_index):
        assert gson_index.contains_class("com.google.gson.Gson")
        assert not gson_index.contains_class("org.json.JSONObject")

    def test_empty_archive_is_an_error(self):
        with pytest.raises(IndexBuildError):
            build_package_index(LibraryCoordinate("x", "y", "1"), class_jar([]))

    def test_unreadable_archive_is_an_error(self):
        with pytest.raises(IndexBuildError):
            build_package_index(LibraryCoordinate("x", "y", "1"), b"not a zip")

    def test_fallback_index_matches_by_group_prefix(self):
        index = fallback_package_index(LibraryCoordinate("org.json", "json", "1"))
        assert index.prefix_mode
        assert index.contains_class("org.json.JSONObject")
        assert index.contains_class("org.json.sub.Deep")
        assert not index.contains_class("org.jsonx.Thing")
        assert index.covers_package("org.json")


class TestResolveUsages:
    def test_resolves_json_uses(self, json_index):
        uses = resolve_usages(extract_facts(JSON_SOURCE), json_index)
        assert use_keys(uses) == {
            ("org.json.JSONObject", "<init>", 1),
            ("org.json.JSONObject", "toJSONString", 0),
        }
        assert {u.line for u in uses} == {7, 8}

    def test_disjoint_library_resolves_nothing(self, gson_index):
        assert resolve_usages(extract_facts(JSON_SOURCE), gson_index) == []

    def test_wildcard_import_resolves(self, json_index):
        source = JSON_SOURCE.replace("import org.json.JSONObject;", "import org.json.*;")
        uses = resolve_usages(extract_facts(source), json_index)
        assert ("org.json.JSONObject", "toJSONString", 0) in use_keys(uses)

    def test_calls_qualified_through_a_keyword_are_not_uses(self, json_index):
        """`X.class.getName()` calls a method of Class and `Outer.this.m()`
        one of the enclosing instance: neither is a call on the class named."""
        source = (
            "import org.json.JSONObject;\n"
            "class Outer {\n"
            "    Object o = new JSONObject();\n"
            "    String name() { return JSONObject.class.getName(); }\n"
            "    class Inner { void n() { Outer.this.name(); } }\n"
            "}\n"
        )
        facts = extract_facts(source)
        assert [(i.kind, i.method) for i in facts.invocations] == [("constructor", "JSONObject")]
        assert use_keys(resolve_usages(facts, json_index)) == {("org.json.JSONObject", "<init>", 0)}

    def test_output_projects_into_invocations(self, json_index):
        facts = extract_facts(JSON_SOURCE)
        inv_keys = {(i.method, i.arity, i.line) for i in facts.invocations}
        for use in resolve_usages(facts, json_index):
            method = "JSONObject" if use.method == "<init>" else use.method
            assert (method, use.arity, use.line) in inv_keys


class TestFileDependsOn:
    def test_import_without_calls_counts(self, json_index):
        facts = extract_facts("import org.json.JSONObject;\nclass A {}\n")
        assert facts_depend_on(facts, json_index) is True
        assert facts_depend_on(facts, json_index, imports_count_as_use=False) is False

    def test_no_reference_is_false(self, json_index):
        assert facts_depend_on(extract_facts("class A { int x; }"), json_index) is False

    def test_resolved_call_is_true(self, json_index):
        assert facts_depend_on(extract_facts(JSON_SOURCE), json_index) is True

    def test_wildcard_import_counts(self, json_index):
        facts = extract_facts("import org.json.*;\nclass A {}")
        assert facts_depend_on(facts, json_index) is True

    def test_static_import_counts(self, json_index):
        facts = extract_facts("import static org.json.JSONObject.quote;\nclass A {}")
        assert facts_depend_on(facts, json_index) is True


RESOLVER_FIXTURES = sorted((FIXTURES / "resolver").glob("*.java"))
FIXTURE_TEXTS = [path.read_text() for path in RESOLVER_FIXTURES]
JSON_FALLBACK = fallback_package_index(LibraryCoordinate("org.json", "json", "1"))
_IDENTIFIER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
SOUP_WORDS = [
    "package", "import", "static", "new", "class", "var", "org", "com", "example",
    "x", "value", ".", "*", ";", "(", ")", "{", "}", "=", ",", "<", ">", "//", '"',
]


def fragments(word: str) -> list[str]:
    """Near misses of an index word: what a scrubbed text may still contain."""
    return [word[:-1], word[1:], word[: len(word) // 2], word.swapcase(), "x", ""]


@st.composite
def small_indexes(draw) -> PackageIndex:
    segments = st.sampled_from(["org", "json", "com", "google", "gson", "a"])
    packages = draw(
        st.lists(st.lists(segments, min_size=1, max_size=3).map(".".join), min_size=1, max_size=3)
    )
    if draw(st.booleans()):
        return PackageIndex(frozenset(), frozenset(packages), prefix_mode=True)
    names = st.sampled_from(["JSONObject", "JSONArray", "Gson", "Builder", "A"])
    classes = draw(
        st.sets(st.tuples(st.sampled_from(packages), names).map(".".join), min_size=1, max_size=4)
    )
    return build_package_index(
        LibraryCoordinate("g", "a", "1"),
        class_jar([c.replace(".", "/") + ".class" for c in classes]),
    )


@st.composite
def fixture_mutations(draw, words: tuple[str, ...]) -> str:
    """A resolver fixture with lines dropped and identifiers renamed."""
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines(keepends=True)
    dropped = draw(st.sets(st.integers(0, len(lines) - 1)))
    drop_imports = draw(st.booleans())
    text = "".join(
        line for i, line in enumerate(lines)
        if i not in dropped and not (drop_imports and line.startswith("import "))
    )
    names = sorted(set(_IDENTIFIER.findall(text)) | set(words))
    for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=12)):
        replacement = draw(st.sampled_from(fragments(name)))
        text = re.sub(rf"(?<![\w$]){re.escape(name)}(?![\w$])", replacement, text)
    if draw(st.booleans()):
        # scrub every index word, inside other identifiers too
        for word in words:
            text = text.replace(word, draw(st.sampled_from(fragments(word))))
    return text


@st.composite
def identifier_soup(draw, words: tuple[str, ...]) -> str:
    pool = sorted({*words, *(f for w in words for f in fragments(w)), *SOUP_WORDS})
    separator = draw(st.sampled_from([" ", "", "\n"]))
    return separator.join(draw(st.lists(st.sampled_from(pool), max_size=40)))


class TestMayReference:
    def test_rejected_texts_reference_nothing(self, json_index):
        """A text the check rejects yields no use and no dependency, for
        class, prefix-mode and random indexes alike; both outcomes occur."""
        outcomes = set()

        @given(st.data())
        @settings(max_examples=400, deadline=None)
        def check(data):
            label, index = data.draw(
                st.sampled_from([("json", json_index), ("fallback", JSON_FALLBACK)])
                | small_indexes().map(lambda index: ("random", index))
            )
            text = data.draw(
                fixture_mutations(index.reference_words) | identifier_soup(index.reference_words)
            )
            accepted = may_reference(text, index)
            outcomes.add((label, accepted))
            if not accepted:
                facts = extract_facts(text)
                assert resolve_usages(facts, index) == []
                assert facts_depend_on(facts, index, imports_count_as_use=True) is False
                assert facts_depend_on(facts, index, imports_count_as_use=False) is False

        check()
        assert outcomes == {(label, accepted) for label in ("json", "fallback", "random")
                            for accepted in (True, False)}

    def test_accepts_every_dependent_fixture(self, json_index):
        dependent = [path for path in RESOLVER_FIXTURES if load_ground_truth(path)[1]]
        assert len(dependent) >= 15
        for index in (json_index, JSON_FALLBACK):
            assert [p.name for p in dependent if not may_reference(p.read_text(), index)] == []

    def test_a_sibling_package_with_the_same_last_segment_is_rejected(self):
        index = build_package_index(
            LibraryCoordinate("io.oldkit", "oldkit", "1"),
            class_jar(["io/oldkit/core/Old1.class"]),
        )
        migrated = (
            "package app;\n\nimport io.newkit.core.New1;\n\n"
            "class A {\n    Object f() { return new New1().run(); }\n}\n"
        )
        assert "core" in index.reference_words and "core" in migrated
        assert not may_reference(migrated, index)
        wildcard = migrated.replace("\n\nclass", "\nimport io.oldkit.core.*;\n\nclass")
        assert may_reference(wildcard, index)
        assert facts_depend_on(extract_facts(wildcard), index)

    def test_word_set_holds_simple_names_and_package_last_segments(self, json_index):
        assert set(json_index.reference_words) == {
            "JSONObject", "JSONArray", "JSONException", "JSONTokener", "CDL", "json"
        }
        assert JSON_FALLBACK.reference_words == ("json",)

    def test_answer_key_names_mode_packages_and_classes(self):
        """Indexes with the same mode, packages and fully qualified classes
        share an answer key; which package holds a simple name, the mode,
        and one more class or package each change the key."""

        def index(classes, prefix_mode=False, packages=None):
            return PackageIndex(
                frozenset(classes),
                frozenset(c.rpartition(".")[0] for c in classes) if packages is None
                else frozenset(packages),
                prefix_mode,
            )

        key = index(["a.b.X", "a.c.Y"]).answer_key
        assert key.startswith("uses ")
        assert index(["a.c.Y", "a.b.X"]).answer_key == key
        others = [
            index(["a.b.Y", "a.c.X"]),
            index(["a.b.X", "a.c.Y"], prefix_mode=True),
            index(["a.b.X", "a.c.Y", "a.c.Z"]),
            index(["a.b.X", "a.c.Y", "a.d.Y"]),
            index(["a.b.X", "a.c.Y"], packages=["a.b", "a.c", "a.d"]),
        ]
        keys = [other.answer_key for other in others]
        assert key not in keys and len(set(keys)) == len(keys)


class TestStoredFacts:
    def test_decoding_an_encoded_answer_gives_the_answer(self):
        """A library answer reads back as it was kept: non-ASCII names,
        constructors, arity 0 and an import without uses included; one
        that holds nothing is stored as an empty string."""
        names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
        uses = st.lists(st.builds(
            LibraryMethodUse,
            st.sampled_from(["org.json.JSONObject", "org.jsön.Objekt", "a.b.Größe$Inner"]) | names,
            st.sampled_from(["<init>", "put", "größe"]) | names,
            st.integers(0, 255),
            st.integers(1, 10**6),
        ), max_size=6)
        seen = set()

        @given(uses, st.booleans())
        @settings(max_examples=300, deadline=None)
        def check(uses, imports):
            answer = LibraryAnswer(uses, imports)
            encoded = encode_answer(answer)
            assert (encoded == "") == (not uses and not imports)
            decoded = decode_answer(encoded)
            assert decoded == answer
            # equality alone lets 1 stand for True
            assert type(decoded.imports) is bool and type(decoded.uses) is list
            seen.add((bool(uses), imports))

        check()
        assert decode_answer("") == LibraryAnswer([], False)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


def encode_facts(facts: SourceFacts) -> str:
    """The golden files' form of `facts`, as compact JSON: [package,
    imports, invocations, local types], each import and invocation a list
    of its fields in declaration order."""
    return json.dumps(
        [
            facts.package,
            [[i.qualified, i.is_static, i.is_wildcard] for i in facts.imports],
            [[v.line, v.kind, v.method, v.arity, v.receiver] for v in facts.invocations],
            sorted(facts.local_types),
        ],
        separators=(",", ":"),
    )


FACTS_GOLDEN = Path(__file__).parent / "golden" / "facts" / "resolver.json"


def test_stored_facts_format_is_pinned():
    """The encoded facts of every resolver fixture match tests/golden/facts.

    A database keeps the library answers derived from facts across
    extractor versions unless FACTS_VERSION changes.  When the extractor's
    output changes on purpose, bump FACTS_VERSION in migmine/javafacts and
    regenerate the file from the repository root:

        PYTHONPATH=src:tests python -c "
        import json; from pathlib import Path
        from migmine.javafacts import FACTS_VERSION, extract_facts
        from test_javafacts import encode_facts
        files = sorted(Path('tests/fixtures/resolver').glob('*.java'))
        golden = {'facts_version': FACTS_VERSION,
                  'facts': {p.name: encode_facts(extract_facts(p.read_text())) for p in files}}
        Path('tests/golden/facts/resolver.json').write_text(json.dumps(golden, indent=1) + '\\n')"
    """
    golden = json.loads(FACTS_GOLDEN.read_text())
    got = {p.name: encode_facts(extract_facts(p.read_text())) for p in RESOLVER_FIXTURES}
    assert sorted(golden["facts"]) == sorted(got)
    assert golden["facts_version"] == FACTS_VERSION, (
        f"FACTS_VERSION is {FACTS_VERSION!r} but {FACTS_GOLDEN.name} was written at "
        f"{golden['facts_version']!r}: regenerate it (see this test's docstring)"
    )
    changed = sorted(name for name in got if got[name] != golden["facts"][name])
    assert not changed, (
        f"extract_facts output changed for {changed} while FACTS_VERSION stayed "
        f"{FACTS_VERSION!r}: bump FACTS_VERSION and regenerate {FACTS_GOLDEN.name} "
        "(see this test's docstring)"
    )


_TOKENISH = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*|[0-9]+|[^\sA-Za-z0-9_$]")

# Bracket, generic and scope shapes where a walker shortcut could go wrong.
EDGE_TEXTS = [
    "f(a < b [ c > );",
    "f(x, List<Map<K, V>> y, z); g(a<b, c>d); h(a < b);",
    "new A(b, new C<D>(e), f[0]).g(h, i); new A<B>().c(); new A[] {x.y()};",
    "a.b(c(d[e), f); x.y(,); z.w(( )); v.u(,,);",
    "@Ann(x = {1, 2}) void m() { foo.bar(a -> { return b.c(d, e); }, f); }",
    "for (A a : xs) a.m(1); try (B b = new B()) { b.n(); } catch (C c) { c.o(); } a.p(); b.q();",
    "{ A a; { A b; a.m(); B a; a.k(); } b.n(); a.o(); } a.z();",
    "void f(A a, B b) { a.x(); } void g() { a.y(); } (A c) c.w(); { c.v(); }",
    ") ] } a.b( ( [ { c.d(1,2 } e.f(3)",
    "f(a<" + "b," * 50 + "c>); g(a<b>, c);",
    "A a, b, c; b.m(); A d = e, f; f.n(); g.h().i(j.k(), l).m(n);",
    "x = a < b ? c.d(e) : f.g(h < i, j > k);",
    "import static a.B.c; c(1, 2); c(); d(3);",
    "record R(A a) { void m() { a.n(); } } new R(x).m();",
    "new A(x<a]>y).b();",
    "new A(f(x<a[>y)).b();",
    "K.class.getName(); O.this.m(); a.class();",
]


def fixture_mutants(count=200, seed=16) -> dict[str, str]:
    """`count` seeded mutations of the resolver fixtures, by name: each drops
    a line, deletes a token or renames an identifier, one to six times.

    Draws only `random.Random.random`, whose sequence for a seed stays the
    same across Python versions."""
    rng = random.Random(seed)

    def below(n):
        return int(rng.random() * n)

    mutants = {}
    for k in range(count):
        path = RESOLVER_FIXTURES[k % len(RESOLVER_FIXTURES)]
        text = path.read_text()
        for _ in range(1 + below(6)):
            op = below(3)
            if op == 0:
                lines = text.splitlines(keepends=True)
                if lines:
                    del lines[below(len(lines))]
                text = "".join(lines)
            elif op == 1:
                spans = [m.span() for m in _TOKENISH.finditer(text)]
                if spans:
                    start, end = spans[below(len(spans))]
                    text = text[:start] + text[end:]
            else:
                names = sorted(set(_IDENTIFIER.findall(text)))
                if names:
                    old = names[below(len(names))]
                    new = names[below(len(names))] + ("_" if below(2) else "")
                    text = re.sub(rf"(?<![\w$]){re.escape(old)}(?![\w$])", lambda _: new, text)
        mutants[f"{path.stem}~{k}"] = text
    return mutants


def extended_texts() -> dict[str, dict[str, str]]:
    """The texts tests/golden/facts/extended.json pins, by section and name:
    the fixture mutants, every java text of the acceptance corpus, and the
    edge shapes."""
    corpus = {
        f"{project}/{n}/{path}": text
        for project, commits in corpus_scripts().items()
        for n, (_, files) in enumerate(commits)
        for path, text in files.items()
        if path.endswith(".java") and text is not None
    }
    return {"mutants": fixture_mutants(), "corpus": corpus, "edges": {t: t for t in EDGE_TEXTS}}


EXTENDED_GOLDEN = FACTS_GOLDEN.with_name("extended.json")


def test_facts_beyond_the_fixtures_are_pinned():
    """The encoded facts of mutated fixtures, of the acceptance corpus's java
    texts and of bracket edge shapes match tests/golden/facts/extended.json.

    As for `test_stored_facts_format_is_pinned`: when the extractor's output
    changes on purpose, bump FACTS_VERSION in migmine/javafacts and
    regenerate the file from the repository root:

        PYTHONPATH=src:tests python -c "
        import json; import test_javafacts as t
        from migmine.javafacts import FACTS_VERSION, extract_facts
        golden = {'facts_version': FACTS_VERSION, **{
            section: {name: t.encode_facts(extract_facts(text)) for name, text in texts.items()}
            for section, texts in t.extended_texts().items()}}
        t.EXTENDED_GOLDEN.write_text(json.dumps(golden, indent=1) + '\\n')"
    """
    golden = json.loads(EXTENDED_GOLDEN.read_text())
    assert golden["facts_version"] == FACTS_VERSION, (
        f"FACTS_VERSION is {FACTS_VERSION!r} but {EXTENDED_GOLDEN.name} was written at "
        f"{golden['facts_version']!r}: regenerate it (see this test's docstring)"
    )
    texts = extended_texts()
    assert len(texts["mutants"]) == 200 and len(texts["corpus"]) >= 15
    for section, named in texts.items():
        assert sorted(golden[section]) == sorted(named)
        changed = sorted(
            name for name, text in named.items()
            if encode_facts(extract_facts(text)) != golden[section][name]
        )
        assert not changed, (
            f"extract_facts output changed for {section} {changed[:5]} while FACTS_VERSION "
            f"stayed {FACTS_VERSION!r}: bump FACTS_VERSION and regenerate "
            f"{EXTENDED_GOLDEN.name} (see this test's docstring)"
        )
