"""Archive URLs, cached fetching, javadoc parsing and doc attachment."""

import threading
import zipfile
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from conftest import FIXTURES
from corpusgen import build_fake_maven_repo, javadoc_jar, javadoc_page

from migmine.docs import (
    ArchiveFetcher,
    DocError,
    archive_url,
    attach_docs,
    parse_class_page,
    parse_doc_archive,
)
from migmine.model import LibraryCoordinate, MethodMapping

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


class TestParseDocArchive:
    def test_multi_page_archive(self):
        jar = javadoc_jar(
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
            }
        )
        docs = parse_doc_archive(jar, GSON_222)
        assert {(d.class_name, d.method) for d in docs} == {
            ("Gson", "<init>"), ("Gson", "toJson"),
        }

    def test_unreadable_archive_is_doc_error(self):
        with pytest.raises(DocError):
            parse_doc_archive(b"not a jar", GSON_222)

    def test_unknown_layout_degrades_to_empty(self):
        import io

        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("X.html", "<html><body><p>hand-written docs</p></body></html>")
        assert parse_doc_archive(buf.getvalue(), GSON_222) == []

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
            source_methods=frozenset({("org.json.JSONObject", "toJSONString", 0)}),
            target_methods=frozenset(target_methods),
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
        assert not target[0].found
        assert target[0].marker == "no documentation found"
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
        assert all(a.found or a.marker for a in source + target)


class TestFetcher:
    def test_file_base_fetch_and_cache(self, tmp_path):
        base = build_fake_maven_repo(tmp_path / "repo")
        fetcher = ArchiveFetcher(tmp_path / "cache", base=base)
        json_coord = LibraryCoordinate("org.json", "json", "20080701")
        data = fetcher.fetch(json_coord, "classes")
        assert data is not None
        assert zipfile.ZipFile(__import__("io").BytesIO(data)).namelist()
        cached = fetcher.cache_path(json_coord, "classes")
        assert cached == tmp_path / "cache" / "org/json/json/20080701/json-20080701.jar"
        assert cached.is_file()
        # offline re-reads from cache
        offline = ArchiveFetcher(tmp_path / "cache", base="file:///nowhere", offline=True)
        assert offline.fetch(json_coord, "classes") == data

    def test_missing_artifact_returns_none(self, tmp_path):
        base = build_fake_maven_repo(tmp_path / "repo")
        fetcher = ArchiveFetcher(tmp_path / "cache", base=base, retries=1, backoff=0.01)
        assert fetcher.fetch(LibraryCoordinate("no.such", "thing", "1"), "classes") is None

    def test_offline_cold_cache_returns_none(self, tmp_path):
        fetcher = ArchiveFetcher(tmp_path / "cache", offline=True)
        assert fetcher.fetch(GSON_222, "documentation") is None

    def test_unresolved_version_skipped(self, tmp_path):
        fetcher = ArchiveFetcher(tmp_path / "cache", offline=True)
        assert fetcher.fetch(LibraryCoordinate("g", "a"), "classes") is None

    def test_http_backoff_then_success(self, tmp_path):
        attempts = []

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
            fetcher = ArchiveFetcher(tmp_path / "cache", base=base, backoff=0.01)
            data = fetcher.fetch(LibraryCoordinate("g", "a", "1"), "classes")
            assert data is not None
            assert len(attempts) == 3
        finally:
            server.shutdown()
            server.server_close()
