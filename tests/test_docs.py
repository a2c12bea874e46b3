"""Archive URLs, cached fetching, javadoc parsing and doc attachment."""

import logging
import threading
import time
import zipfile
from html.parser import HTMLParser
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest
from conftest import FIXTURES
from corpusgen import build_fake_maven_repo, javadoc_jar, javadoc_page
from hypothesis import given, settings
from hypothesis import strategies as st

import migmine.docs as docs_module
from migmine.docs import (
    ArchiveFetcher,
    DocError,
    _ClassPageParser,
    _parse_signature_types,
    archive_path,
    archive_url,
    attach_docs,
    decode_docs,
    docs_key,
    encode_docs,
    parse_class_page,
    parse_doc_archive,
)
from migmine.model import LibraryCoordinate, MethodDoc, MethodMapping

GSON_222 = LibraryCoordinate("com.google.code.gson", "gson", "2.2.2")
JSON_LIB = LibraryCoordinate("org.json", "json", "20140107")


class TestArchiveUrl:
    def test_documentation_url(self):
        assert archive_url(GSON_222, "documentation") == (
            "https://repo1.maven.org/maven2/com/google/code/gson/gson/2.2.2/"
            "gson-2.2.2-javadoc.jar"
        )

    def test_classes_url(self):
        assert archive_url(JSON_LIB, "classes") == (
            "https://repo1.maven.org/maven2/org/json/json/20140107/json-20140107.jar"
        )

    def test_unresolved_version_rejected(self):
        with pytest.raises(ValueError):
            archive_url(LibraryCoordinate("g", "a"), "classes")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            archive_url(GSON_222, "sources")


@pytest.fixture(scope="module")
def fig4_docs():
    html = (FIXTURES / "javadoc" / "Gson.html").read_text()
    return parse_class_page(html, GSON_222)


class TestFig4Parsing:
    """The committed Gson class page must parse to the documented fields."""

    def test_tojson_jsonelement_fields(self, fig4_docs):
        doc = next(d for d in fig4_docs if d.method == "toJson" and d.signature == ("JsonElement",))
        assert doc.description == (
            "Converts a tree of JsonElements into its equivalent JSON representation."
        )
        assert doc.param_docs == (("jsonElement", "root of a tree of JsonElements"),)
        assert doc.return_doc == "JSON String representation of the tree"
        assert doc.since == "1.4"

    def test_page_identity_fields(self, fig4_docs):
        doc = fig4_docs[0]
        assert doc.package == "com.google.gson"
        assert doc.class_name == "Gson"
        assert doc.class_description.startswith("This is the main class for using Gson.")

    def test_constructor_parsed_with_init_name(self, fig4_docs):
        ctor = next(d for d in fig4_docs if d.method == "<init>")
        assert ctor.signature == ()
        assert ctor.description == "Constructs a Gson object with default configuration."

    def test_overloads_distinguished_by_signature(self, fig4_docs):
        overloads = [d for d in fig4_docs if d.method == "toJson"]
        assert {d.signature for d in overloads} == {("JsonElement",), ("Object",)}


TYPE_ADAPTER_PAGE = javadoc_page(
    "com.google.gson", "TypeAdapter", "Converts Java objects to and from JSON.",
    [{"name": "TypeAdapter", "sig": [], "description": "Creates an adapter."}],
    [{"name": "read", "sig": [("com.google.gson.stream.JsonReader", "in")],
      "ret": "T", "description": "Reads one JSON value.",
      "params": [("in", "the reader")], "returns": "the value read"}],
)


@pytest.mark.parametrize(
    "title, class_name",
    [
        ("Class TypeAdapter&lt;T&gt;", "TypeAdapter"),
        ("Class Map.Entry&lt;K,V&gt;", "Entry"),
        ("Class Table&lt;R, C, V&gt;", "Table"),
        ("Annotation Type Beta", "Beta"),
    ],
)
def test_generic_class_title_gives_the_simple_name(title, class_name):
    page = TYPE_ADAPTER_PAGE.replace(">Class TypeAdapter</h2>", f">{title}</h2>")
    assert {d.class_name for d in parse_class_page(page, GSON_222)} == {class_name}


def test_generic_class_page_docs_attach():
    page = TYPE_ADAPTER_PAGE.replace(">Class TypeAdapter</h2>", ">Class TypeAdapter&lt;T&gt;</h2>")
    mapping = MethodMapping(
        source=("org.json", "json"),
        target=("com.google.code.gson", "gson"),
        source_methods=(("org.json.JSONObject", "get", 1),),
        target_methods=(("com.google.gson.TypeAdapter", "read", 1),),
        support=1,
    )
    (_, _, target) = attach_docs([mapping], parse_class_page(page, GSON_222))[0]
    assert target[0].found
    assert target[0].doc.description == "Reads one JSON value."


@pytest.mark.parametrize(
    "signature, name, types",
    [
        (
            '@GwtIncompatible(value="NavigableMap")\npublic static <K,V> NavigableMap<K,V> '
            "unmodifiableNavigableMap(NavigableMap<K,? extends V> map)",
            "unmodifiableNavigableMap",
            ("NavigableMap",),
        ),
        (
            "public void bar(java.util.Map<java.lang.String, java.util.List<int[]>> m, byte[][] b)",
            "bar",
            ("Map", "byte[][]"),
        ),
        ("public static String join(String sep, Object... parts)", "join", ("String", "Object...")),
        ("public int[][] grid(int[][] cells, long[] row)", "grid", ("int[][]", "long[]")),
        ("public Object get(@Nullable java.lang.Object key)", "get", ("Object",)),
        ("public Gson()", "Gson", ()),
    ],
)
def test_signature_types(signature, name, types):
    assert _parse_signature_types(signature, name) == types


class _ReferenceParser(HTMLParser):
    """The stdlib HTML parser driving a page parser's handlers: the
    reference the event scanner of `_ClassPageParser.feed` must match."""

    def __init__(self, target):
        super().__init__(convert_charrefs=True)
        self.target = target

    def handle_starttag(self, tag, attrs):
        self.target.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        self.target.handle_endtag(tag)

    def handle_data(self, data):
        self.target.handle_data(data)


def reference_parse(html, library):
    target = _ClassPageParser()
    reference = _ReferenceParser(target)
    reference.feed(html)
    reference.close()
    target.close()
    return target.docs(library)


# markup that a scanner stopping only at the parser's own tags can misread
SCANNER_TRAPS = [
    '<!-- <a name="method.detail"> -->',
    "<!-- <h4>ghost</h4><pre>ghost(int x)</pre> -->",
    '<script type="text/javascript">var s = \'<div class="block">fake</div>\';</script>',
    "<style>h4 { color: red }</style>",
    '<span title="x>y">quoted</span>',
    '<a title="1>0" href="#x">link</a>',
    '<DIV CLASS="block">Upper</DIV>',
    '<A NAME="method&#95;detail"></A>',
    '<div class="bl&#111;ck">escaped</div>',
    "<PRE>upper(int a)</PRE>",
    "<br/>",
    "<address>addr</address>",
    "<a-b>dash</a-b>",
    "<div-x>dash</div-x>",
    "<dd2>two</dd2>",
    "<div/>",
    "&amp<code>;</code>",
    "&lt<b>;</b>&#60<i>;</i>",
    "<noscript><div>JavaScript is disabled.</div></noscript>",
    "1 < 2 &amp; 3 > 2",
    '<?xml version="1.0"?>',
    "<!DOCTYPE html>",
    "</ dd>",
    '</pre class="x">',
]
UNCLOSED_ENDINGS = ["", '<div class="block', '<a name="method_detail', "<span title='x", "</dd"]
TEXT = st.text(alphabet="abcXY19 &;#x'\"=/-.", max_size=24)


def tag_boundaries(page):
    """Offsets just before or after a tag: where a trap can go without
    landing inside a tag."""
    return [i for i, ch in enumerate(page) if ch == "<" or page[i - 1] == ">"]


@pytest.mark.parametrize("trap", SCANNER_TRAPS)
def test_scanner_parses_like_html_parser_with_one_trap_anywhere(trap):
    for pos in tag_boundaries(TYPE_ADAPTER_PAGE):
        page = TYPE_ADAPTER_PAGE[:pos] + trap + TYPE_ADAPTER_PAGE[pos:]
        assert parse_class_page(page, GSON_222) == reference_parse(page, GSON_222), pos


@st.composite
def trapped_pages(draw):
    def detail(name):
        return {
            "name": name,
            "sig": draw(st.lists(st.tuples(
                st.sampled_from(["java.lang.Object", "int[]", "java.util.Map&lt;K,V&gt;"]),
                st.sampled_from(["a", "b"]),
            ), max_size=2)),
            "ret": "java.lang.Object",
            "description": draw(TEXT),
            "params": draw(st.lists(st.tuples(st.sampled_from(["a", "b"]), TEXT), max_size=2)),
            "returns": draw(TEXT),
            "since": draw(TEXT),
        }

    names = draw(st.lists(st.sampled_from(["toJson", "fromJson", "get"]), max_size=3))
    page = javadoc_page("com.example", "Widget", draw(TEXT), [detail("Widget")],
                        [detail(n) for n in names])
    traps = draw(st.lists(
        st.tuples(st.sampled_from(tag_boundaries(page)), st.sampled_from(SCANNER_TRAPS)),
        min_size=4, max_size=12,
    ))
    for pos, trap in sorted(traps, reverse=True):
        page = page[:pos] + trap + page[pos:]
    return page + draw(st.sampled_from(UNCLOSED_ENDINGS))


@settings(max_examples=200, deadline=None)
@given(trapped_pages())
def test_scanner_parses_like_html_parser(page):
    assert parse_class_page(page, GSON_222) == reference_parse(page, GSON_222)


@pytest.mark.parametrize(
    "html",
    [
        (FIXTURES / "javadoc" / "Gson.html").read_text(),
        # an unclosed script hides the rest of the page
        TYPE_ADAPTER_PAGE.replace("<h4>read</h4>", "<script>var x = 1;<h4>read</h4>"),
    ],
    ids=["committed-page", "unclosed-script"],
)
def test_scanner_matches_html_parser_on_whole_pages(html):
    docs = parse_class_page(html, GSON_222)
    assert docs
    assert docs == reference_parse(html, GSON_222)


def test_self_closing_event_tag_opens_and_closes():
    page = TYPE_ADAPTER_PAGE.replace('<div class="block">Reads', '<div class="block"/>Reads')
    read = next(d for d in parse_class_page(page, GSON_222) if d.method == "read")
    assert read.description == ""


def test_unclosed_comment_runs_to_the_end():
    # as in HTML5 and newer HTMLParser releases; Python 3.11.7's reads it
    # as text up to the next ">", so the differential tests leave it out
    page =TYPE_ADAPTER_PAGE.replace("<h4>read</h4>", "<!-- never closed > <h4>read</h4>")
    assert [d.method for d in parse_class_page(page, GSON_222)] == ["<init>"]


class TestParseDocArchive:
    JAR = javadoc_jar(
        {
            "com/google/gson/Gson.html": javadoc_page(
                "com.google.gson", "Gson", "Main class.",
                [{"name": "Gson", "sig": [], "description": "Default."}],
                [{"name": "toJson", "sig": [("java.lang.Object", "src")],
                  "ret": "java.lang.String", "description": "Serialize."}],
            ),
            "com/google/gson/fields/Only.html": javadoc_page(
                "com.google.gson.fields", "Only", "No methods here.", [], []
            ),
            "com/google/gson/JsonParser.html": javadoc_page(
                "com.google.gson", "JsonParser", "Parses JSON.", [],
                [{"name": "parse", "sig": [("java.lang.String", "json")],
                  "ret": "com.google.gson.JsonElement", "description": "Parse."}],
            ),
        }
    )

    def test_multi_page_archive(self):
        """Only the named classes' pages are parsed.  A named class without a
        page of its own gives no docs, even when a page of that simple name
        exists elsewhere."""
        classes = [
            "com.google.gson.Gson", "com.google.gson.fields.Only",
            "com.google.gson.Missing", "com.google.JsonParser", "JsonParser",
        ]
        docs = parse_doc_archive(self.JAR, GSON_222, classes)
        assert {(d.class_name, d.method) for d in docs} == {
            ("Gson", "<init>"), ("Gson", "toJson"),
        }

    def test_unreadable_archive_is_doc_error(self):
        with pytest.raises(DocError):
            parse_doc_archive(b"not a jar", GSON_222, ["com.google.gson.Gson"])

    def test_unreadable_page_is_doc_error(self):
        import io

        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("com/google/gson/Gson.html", "<html>" + "x" * 4000 + "</html>")
        jar = bytearray(buf.getvalue())
        data = len("PK\x03\x04") + 26 + len("com/google/gson/Gson.html")
        jar[data : data + 16] = b"\xff" * 16  # not a deflate stream
        with pytest.raises(DocError):
            parse_doc_archive(bytes(jar), GSON_222, ["com.google.gson.Gson"])

    def test_unknown_layout_degrades_to_empty(self):
        import io

        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("X.html", "<html><body><p>hand-written docs</p></body></html>")
        assert parse_doc_archive(buf.getvalue(), GSON_222, ["X"]) == []

    def test_parse_is_deterministic(self):
        jar = (FIXTURES / "javadoc" / "Gson.html").read_text()
        first = parse_class_page(jar, GSON_222)
        second = parse_class_page(jar, GSON_222)
        assert first == second


class TestAttachDocs:

    def _mapping(self, target_methods):
        return MethodMapping(
            source=("org.json", "json"),
            target=("com.google.code.gson", "gson"),
            source_methods=(("org.json.JSONObject", "toJSONString", 0),),
            target_methods=tuple(sorted(target_methods)),
            support=3,
        )

    def test_arity_match_attaches(self, fig4_docs):
        mapping = self._mapping({("com.google.gson.Gson", "toJson", 1)})
        (_, _, target) = attach_docs([mapping], fig4_docs)[0]
        assert target[0].found
        assert target[0].doc.method == "toJson"

    def test_constructor_attaches(self, fig4_docs):
        mapping = self._mapping({("com.google.gson.Gson", "<init>", 0)})
        (_, _, target) = attach_docs([mapping], fig4_docs)[0]
        assert target[0].found and target[0].doc.method == "<init>"

    def test_missing_method_gets_marker(self, fig4_docs):
        mapping = self._mapping({("com.google.gson.Gson", "fromJson", 2)})
        (_, source, target) = attach_docs([mapping], fig4_docs)[0]
        assert not target[0].found and target[0].doc is None
        # the source side has no json docs in the pool either
        assert not source[0].found

    def test_equal_arity_overloads_flag_ambiguous(self, fig4_docs):
        mapping = self._mapping({("com.google.gson.Gson", "toJson", 1)})
        (_, _, target) = attach_docs([mapping], fig4_docs)[0]
        assert target[0].ambiguous is True
        # first in page order wins: the JsonElement overload
        assert target[0].doc.signature == ("JsonElement",)

    def test_every_method_has_doc_or_marker(self, fig4_docs):
        mapping = self._mapping(
            {("com.google.gson.Gson", "toJson", 1), ("com.google.gson.Gson", "nope", 9)}
        )
        (_, source, target) = attach_docs([mapping], fig4_docs)[0]
        assert len(source) == len(mapping.source_methods)
        assert len(target) == len(mapping.target_methods)
        assert all(a.found == (a.doc is not None) for a in source + target)


def test_same_simple_name_in_two_libraries_attaches_each_sides_own_doc():
    """org.json and json-simple both have a JSONObject with a one-argument
    get: each side of a migration between them gets its own library's doc."""
    simple = LibraryCoordinate("com.googlecode.json-simple", "json-simple", "1.1.1")
    docs = [
        doc
        for package, library in (("org.json", JSON_LIB), ("org.json.simple", simple))
        for doc in parse_class_page(
            javadoc_page(package, "JSONObject", f"JSONObject of {package}.", [],
                         [{"name": "get", "sig": [("java.lang.Object", "key")],
                           "ret": "java.lang.Object", "description": f"Get from {package}."}]),
            library,
        )
    ]
    mapping = MethodMapping(
        source=JSON_LIB.identity,
        target=simple.identity,
        source_methods=(("org.json.JSONObject", "get", 1),),
        target_methods=(("org.json.simple.JSONObject", "get", 1),),
        support=1,
    )
    (_, [source], [target]) = attach_docs([mapping], docs)[0]
    assert (source.doc.description, source.ambiguous) == ("Get from org.json.", False)
    assert (target.doc.description, target.ambiguous) == ("Get from org.json.simple.", False)


UNTERMINATED_TAGS = ["<div a", '<div a="', "</a x"]


def test_unterminated_tags_scan_in_linear_time():
    """No tag spans a "<", so a page of unterminated tags is not read again
    from each of them to its end."""
    start = time.perf_counter()
    for pattern in UNTERMINATED_TAGS:
        assert parse_class_page(pattern * (200_000 // len(pattern)), GSON_222) == []
    assert time.perf_counter() - start < 2


class TestFetcher:
    def test_file_base_fetch_and_cache(self, tmp_path):
        # as_uri() percent-encodes the space and the "%" of the second name
        for repo_dir in ("repo", "maven repo 100%"):
            base = build_fake_maven_repo(tmp_path / repo_dir)
            cache = tmp_path / "cache" / repo_dir  # a cold cache for each base
            fetcher = ArchiveFetcher(cache, base=base)
            json_coord = LibraryCoordinate("org.json", "json", "20080701")
            data = fetcher.fetch(json_coord, "classes")
            assert data is not None
            assert zipfile.ZipFile(__import__("io").BytesIO(data)).namelist()
            cached = fetcher.cache_path(json_coord, "classes")
            assert cached == cache / "org/json/json/20080701/json-20080701.jar"
            assert cached.is_file()
            # offline re-reads from cache
            offline = ArchiveFetcher(cache, base="file:///nowhere", offline=True)
            assert offline.fetch(json_coord, "classes") == data

    def test_missing_artifact_returns_none(self, tmp_path):
        base = build_fake_maven_repo(tmp_path / "repo")
        fetcher = ArchiveFetcher(tmp_path / "cache", base=base)
        assert fetcher.fetch(LibraryCoordinate("no.such", "thing", "1"), "classes") is None
        # a directory where the jar should be
        coordinate = LibraryCoordinate("no.such", "thing", "2")
        (tmp_path / "repo" / archive_path(coordinate, "classes")).mkdir(parents=True)
        assert fetcher.fetch(coordinate, "classes") is None
        assert not fetcher.cache_path(coordinate, "classes").exists()

    def test_local_read_error_is_a_miss_without_backoff(self, tmp_path, monkeypatch, caplog):
        """A file: base with a file where a directory should be fails every
        read with NotADirectoryError: a miss at once, never retried."""
        (tmp_path / "repo").write_bytes(b"")
        sleeps = []
        monkeypatch.setattr(docs_module, "time", SimpleNamespace(sleep=sleeps.append))
        fetcher = ArchiveFetcher(tmp_path / "cache", base=(tmp_path / "repo").as_uri())
        with caplog.at_level(logging.WARNING, logger="migmine.docs"):
            assert fetcher.fetch(GSON_222, "classes") is None
        assert sleeps == []
        assert [r.getMessage().split()[0] for r in caplog.records] == ["event=fetch_missing"]

    def test_offline_cold_cache_returns_none(self, tmp_path):
        fetcher = ArchiveFetcher(tmp_path / "cache", offline=True)
        assert fetcher.fetch(GSON_222, "documentation") is None

    def test_unresolved_version_skipped(self, tmp_path):
        fetcher = ArchiveFetcher(tmp_path / "cache", offline=True)
        assert fetcher.fetch(LibraryCoordinate("g", "a"), "classes") is None

    def test_each_download_writes_its_own_temporary_file(self, tmp_path):
        """Two fetchers sharing a cache, one downloading while the other
        fetches the same jar, both give its bytes; a stale temporary file
        of the old fixed name is neither read nor moved."""
        base = build_fake_maven_repo(tmp_path / "repo")
        coordinate = LibraryCoordinate("org.json", "json", "20080701")
        first = ArchiveFetcher(tmp_path / "cache", base=base)
        second = ArchiveFetcher(tmp_path / "cache", base=base)
        path = first.cache_path(coordinate, "documentation")
        path.parent.mkdir(parents=True)
        stale = path.with_suffix(".tmp")
        stale.write_bytes(b"stale")
        download = first._download
        during = []

        def racing(url):
            data = download(url)
            during.append(second.fetch(coordinate, "documentation"))
            return data

        first._download = racing
        jar = (tmp_path / "repo" / archive_url(coordinate, "documentation", "")[1:]).read_bytes()
        assert first.fetch(coordinate, "documentation") == jar
        assert during == [jar]
        assert path.read_bytes() == jar
        assert sorted(p.name for p in path.parent.iterdir()) == sorted([path.name, stale.name])
        assert stale.read_bytes() == b"stale"

    def test_http_backoff_then_success(self, tmp_path, monkeypatch):
        """Two 503 answers, each waited out with a doubled sleep, then the jar."""
        attempts = []
        sleeps = []
        monkeypatch.setattr(docs_module, "time", SimpleNamespace(sleep=sleeps.append))

        class Flaky(BaseHTTPRequestHandler):
            def do_GET(self):
                attempts.append(self.path)
                if len(attempts) < 3:
                    self.send_response(503)
                    self.end_headers()
                else:
                    payload = b"PK\x05\x06" + b"\x00" * 18  # empty zip
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Flaky)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_port}/maven2"
            fetcher = ArchiveFetcher(tmp_path / "cache", base=base)
            data = fetcher.fetch(LibraryCoordinate("g", "a", "1"), "classes")
            assert data is not None
            assert len(attempts) == 3
            assert sleeps == [ArchiveFetcher.BACKOFF, 2 * ArchiveFetcher.BACKOFF]
        finally:
            server.shutdown()
            server.server_close()


DOC_TEXT = st.text(max_size=12)
METHOD_DOCS = st.builds(
    MethodDoc,
    library=st.just(GSON_222),
    package=DOC_TEXT,
    class_name=DOC_TEXT,
    class_description=DOC_TEXT,
    method=DOC_TEXT,
    signature=st.lists(DOC_TEXT, max_size=3).map(tuple),
    description=DOC_TEXT,
    param_docs=st.lists(st.tuples(DOC_TEXT, DOC_TEXT), max_size=3).map(tuple),
    return_doc=st.none() | DOC_TEXT,
    since=st.none() | DOC_TEXT,
)


class TestStoredDocs:
    @given(st.lists(METHOD_DOCS, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_decoding_the_encoded_docs_gives_the_parsed_docs(self, docs):
        decoded = decode_docs(encode_docs(docs), GSON_222)
        assert decoded == docs
        # equality alone lets a list stand for a tuple
        assert repr(decoded) == repr(docs)

    def test_decoding_stamps_the_looked_up_library(self):
        docs = parse_doc_archive(
            javadoc_jar({"com/google/gson/TypeAdapter.html": TYPE_ADAPTER_PAGE}),
            GSON_222, ["com.google.gson.TypeAdapter"],
        )
        assert len(docs) == 2
        other = LibraryCoordinate("com.google.code.gson", "gson", "2.3.1")
        assert decode_docs(encode_docs(docs), other) == [d._replace(library=other) for d in docs]
        assert GSON_222.version not in encode_docs(docs)

    def test_key_names_the_content_and_the_class_set(self):
        jar = javadoc_jar({"com/google/gson/TypeAdapter.html": TYPE_ADAPTER_PAGE})
        key = docs_key(jar, ["b.B", "a.A"])
        assert key == docs_key(jar, {"a.A", "b.B"})
        assert key.split("\0")[1:] == ["a.A", "b.B"]
        assert docs_key(jar, ["a.A"]) != key
        assert docs_key(jar + b"\0", ["a.A", "b.B"]) != key
