"""Library archive fetching and API documentation harvesting.

Downloads class and -javadoc jars from a Maven-repository-layout server
into a local cache, parses the doclet-generated HTML (JDK 7/8 era method
detail structure) and attaches per-method documentation to method
mappings.  Only the pages of the mapped classes are parsed, each found by
its fully qualified name, and a mapped method is matched only against the
docs of its own library and class, never by class simple name.

A class page is read by one compiled regex that stops only at the start
and end tags of a, div, h1, h2, h4, pre, dt and dd, the only tags the
page parser acts on.  Comments, declarations and processing instructions
are skipped (an unclosed one runs to the end of the page, as in HTML5),
and so are the bodies of script and style, as raw text.  Text
between those stops is read only inside a field being captured.  A
layout the parser does not know yields zero docs and no failure.

The class name is the last word of the page title before any type
parameters ("Class Map.Entry<K,V>" gives Entry).  A method's parameter
types are read from the parameter list after its own name in the
signature, with generic arguments dropped, so an annotation or type
parameters before the name are not read as parameters.

`encode_docs` and `decode_docs` store an archive's parsed docs as plain
JSON, keyed by `docs_key`: the archive's length and CRC-32 and the
classes asked of it.  `DOCS_VERSION` names the parser's output; bump it
whenever that output changes, so that docs stored by an older parser are
dropped.
"""

from __future__ import annotations

import io
import json
import logging
import os
import re
import tempfile
import time
import zipfile
import zlib
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from html import unescape
from pathlib import Path
from urllib.parse import unquote, urlsplit

from .model import (
    UNRESOLVED,
    DocAttachment,
    LibraryCoordinate,
    LibraryId,
    MethodDoc,
    MethodKey,
    MethodMapping,
)

log = logging.getLogger(__name__)

DEFAULT_REPO_BASE = "https://repo1.maven.org/maven2"

ARCHIVE_KINDS = ("classes", "documentation")

DOCS_VERSION = "1"


class DocError(RuntimeError):
    pass


def archive_path(coordinate: LibraryCoordinate, kind: str) -> str:
    """Maven-layout path of the classes jar or the -javadoc jar."""
    if kind not in ARCHIVE_KINDS:
        raise ValueError(f"unknown archive kind {kind!r}")
    if coordinate.version == UNRESOLVED:
        raise ValueError(f"cannot locate an archive for unresolved version: {coordinate}")
    suffix = "-javadoc" if kind == "documentation" else ""
    group_path = coordinate.group.replace(".", "/")
    return (
        f"{group_path}/{coordinate.artifact}/{coordinate.version}/"
        f"{coordinate.artifact}-{coordinate.version}{suffix}.jar"
    )


def archive_url(coordinate: LibraryCoordinate, kind: str, base: str = DEFAULT_REPO_BASE) -> str:
    """Repository URL of the classes jar or the -javadoc jar."""
    return f"{base.rstrip('/')}/{archive_path(coordinate, kind)}"


class ArchiveFetcher:
    """Cached archive downloads with bounded concurrency and backoff.

    The cache directory mirrors the repository path layout, so re-runs
    perform zero network calls for cached coordinates.  A cached file that
    is not a zip archive (one cut short, say) is deleted and counts as a
    miss.  In offline mode only the cache is consulted.

    The base URL's scheme picks the transport.  A `file:` repository (a
    local `~/.m2/repository`, say) is read in place, its URL path
    percent-decoded as urllib does on POSIX; any read error is a miss,
    never retried.  Only other schemes load urllib, at the first download,
    and back off on transient failures: up to `RETRIES` more tries, the
    first after `BACKOFF` seconds, each wait twice the last.
    """

    RETRIES = 3
    BACKOFF = 0.5

    def __init__(
        self,
        cache_dir: str | Path,
        base: str = DEFAULT_REPO_BASE,
        offline: bool = False,
        max_workers: int = 4,
    ):
        self.cache_dir = Path(cache_dir)
        self.base = base
        self.offline = offline
        self.max_workers = max(1, min(max_workers, 4))

    def cache_path(self, coordinate: LibraryCoordinate, kind: str) -> Path:
        return self.cache_dir / archive_path(coordinate, kind)

    def fetch(self, coordinate: LibraryCoordinate, kind: str) -> bytes | None:
        """Archive bytes, or None when unavailable (never raises for misses)."""
        if coordinate.version == UNRESOLVED:
            log.warning("event=fetch_skipped reason=unresolved_version library=%s", coordinate)
            return None
        path = self.cache_path(coordinate, kind)
        if path.is_file():
            data = path.read_bytes()
            if zipfile.is_zipfile(io.BytesIO(data)):
                return data
            log.warning("event=fetch_cache_invalid library=%s kind=%s", coordinate, kind)
            path.unlink(missing_ok=True)
        if self.offline:
            log.warning("event=fetch_skipped reason=offline library=%s kind=%s", coordinate, kind)
            return None
        data = self._download(archive_url(coordinate, kind, self.base))
        if data is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            # a temporary file of its own, so that processes sharing the
            # cache never write or move one another's
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as out:
                    out.write(data)
                os.replace(tmp, path)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
        return data

    def fetch_many(
        self, wants: Iterable[tuple[LibraryCoordinate, str]]
    ) -> dict[tuple[LibraryCoordinate, str], bytes | None]:
        wants = list(dict.fromkeys(wants))
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            results = pool.map(lambda w: self.fetch(*w), wants)
        return dict(zip(wants, results))

    def _download(self, url: str) -> bytes | None:
        parts = urlsplit(url)
        if parts.scheme == "file":
            try:
                return Path(unquote(parts.path)).read_bytes()
            except OSError:  # not transient: no retry
                log.warning("event=fetch_missing url=%s", url)
                return None
        # imported here: urllib.request loads http.client, email and ssl,
        # which a run over a local repository never needs
        import urllib.error
        import urllib.request

        delay = self.BACKOFF
        for attempt in range(self.RETRIES + 1):
            try:
                with urllib.request.urlopen(url, timeout=60) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                if exc.code in (429,) or 500 <= exc.code < 600:
                    if attempt < self.RETRIES:
                        time.sleep(delay)
                        delay *= 2
                        continue
                log.warning("event=fetch_failed url=%s status=%s", url, exc.code)
                return None
            except (urllib.error.URLError, OSError) as exc:
                if attempt < self.RETRIES:
                    time.sleep(delay)
                    delay *= 2
                    continue
                log.warning("event=fetch_failed url=%s error=%s", url, exc)
                return None
        return None


# -- doclet HTML parsing -------------------------------------------------------


def _clean(text: str) -> str:
    return " ".join(text.replace("\xa0", " ").split())


_SECTION_ANCHORS = {
    "constructor.detail": "constructor",
    "constructor_detail": "constructor",
    "method.detail": "method",
    "method_detail": "method",
}

_LABELS = {
    "Parameters:": "params",
    "Returns:": "returns",
    "Since:": "since",
}


# The scanner reads tags as Python's HTMLParser does: names are lowercased
# and end at whitespace, "/", ">" or NUL ("<a-b>" is tag "a-b", not "a"); a
# quoted attribute value may hold ">" and is unescaped; "<x/>" opens and
# closes x.  It stops only at start and end tags of _EVENT_TAGS, which are
# all _ClassPageParser acts on, and at markup whose extent it must know to
# find them: comments, declarations, processing instructions and the raw
# text of script and style.  Unlike HTMLParser, no tag spans a "<": a tag
# name, an attribute name or value, quoted or not, and an end tag's body all
# stop at one, so a tag holding a "<" (javadoc escapes it) is read as text.
# A page of unterminated tags ("<div a" repeated) thus scans in linear time,
# where HTMLParser reads the rest of the page again at each of them.
_EVENT_TAGS = "a|div|h1|h2|h4|pre|dt|dd"
_NAME_END = r"(?=[\t\n\r\f />\x00])"
# attributes of a start tag, up to its closing ">" or "/>"; each use wraps
# them in a lookahead, which keeps their first match as HTMLParser does
# and so cannot backtrack exponentially on a tag that lacks its ">"
_ATTRS = (
    r"""(?:[\s/]*(?:(?<=['"\s/])[^\s/><][^\s/=><]*"""
    r"""(?:\s*=+\s*(?:'[^'<]*'|"[^"<]*"|(?!['"])[^>\s<]*)\s*)?(?:\s|/(?!>))*)*)?\s*"""
)
_RAW_TEXT = "script|style"
_RAW_TEXT_END = {tag: re.compile(rf"</\s*{tag}\s*>", re.I) for tag in _RAW_TEXT.split("|")}
_SCAN = re.compile(
    rf"""
      <!--.*?(?:--\s*>|\Z)      # comment; an unclosed one runs to the end
    | <[!?][^>]*>?              # declaration or processing instruction, likewise
    | </(?:\s*(?P<end>{_EVENT_TAGS})\s*>|(?P<end_>{_EVENT_TAGS}){_NAME_END}[^><]*>)
    | <(?P<start>{_EVENT_TAGS}|{_RAW_TEXT}){_NAME_END}(?=(?P<attrs>{_ATTRS}))(?P=attrs)/?>
    """,
    re.I | re.S | re.X,
)
# any other complete tag, removed from captured text
_MARKUP = re.compile(rf"<[a-zA-Z][^\t\n\r\f />\x00<]*(?=({_ATTRS}))\1/?>|</[^><]*>")
_ATTR_GAP = re.compile(r"(?:\s|/(?!>))*")
_ATTR = re.compile(
    r"""((?<=['"\s/])[^\s/><][^\s/=><]*)(\s*=+\s*('[^'<]*'|"[^"<]*"|(?!['"])[^>\s<]*))?(?:\s|/(?!>))*"""
)


def _attributes(text: str, pos: int, end: int) -> tuple[list[tuple[str, str | None]], bool]:
    """(name, value) pairs of the start tag text[:end] whose name ends at pos,
    and whether the tag closes itself with "/>"."""
    attrs = []
    pos = _ATTR_GAP.match(text, pos).end()
    while pos < end and (m := _ATTR.match(text, pos)):
        name, assigned, value = m.groups()
        if not assigned:
            value = None
        elif value[:1] == value[-1:] and value[:1] in ("'", '"'):
            value = value[1:-1]
        if value:
            value = unescape(value)
        attrs.append((name.lower(), value))
        pos = m.end()
    return attrs, text[pos:end].strip() == "/>"


class _ClassPageParser:
    """Event parser for one doclet-generated class page (JDK 7/8 layout)."""

    def __init__(self):
        self.package: str | None = None
        self.class_name: str | None = None
        self.class_description: str | None = None
        self.records: list[dict] = []
        self._section: str | None = None
        self._record: dict | None = None
        self._capture: str | None = None
        self._capture_tag: str | None = None
        self._capture_depth = 0
        self._buf: list[str] = []
        self._desc_depth = 0  # inside <div class="description">
        self._label_mode: str | None = None

    # capture plumbing

    def _start_capture(self, what: str, tag: str):
        self._capture = what
        self._capture_tag = tag
        self._capture_depth = 1
        self._buf = []

    def _finish_capture(self):
        text = _clean("".join(self._buf))
        what, self._capture = self._capture, None
        if what == "package":
            if self.package is None and text:
                self.package = text
        elif what == "title":
            # "Class Gson", "Annotation Type Foo", "Class Map.Entry<K,V>":
            # the name after the kind words, without type parameters
            words = text.partition("<")[0].split() or [""]
            self.class_name = words[-1].rpartition(".")[2] or None
        elif what == "class_desc":
            if self.class_description is None:
                self.class_description = text
        elif what == "h4":
            if self._record is not None:
                self._record["name"] = text
        elif what == "pre":
            if self._record is not None and self._record.get("signature") is None:
                self._record["signature"] = text
        elif what == "method_desc":
            if self._record is not None and self._record.get("description") is None:
                self._record["description"] = text
        elif what == "dt":
            self._label_mode = _LABELS.get(text)
        elif what == "dd":
            self._consume_dd(text)

    def _consume_dd(self, text: str):
        rec = self._record
        if rec is None or self._label_mode is None:
            return
        if self._label_mode == "params":
            name, sep, doc = text.partition(" - ")
            if sep:
                rec["params"].append((name.strip(), doc.strip()))
            elif text:
                rec["params"].append((text.strip(), ""))
        elif self._label_mode == "returns":
            if rec.get("return_doc") is None:
                rec["return_doc"] = text
        elif self._label_mode == "since":
            if rec.get("since") is None:
                rec["since"] = text

    def _flush_record(self):
        rec = self._record
        self._record = None
        self._label_mode = None
        if rec and rec.get("name") and rec.get("signature") is not None:
            self.records.append(rec)

    # event handlers

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        classes = (attrs.get("class") or "").split()
        if self._capture is not None:
            if tag == self._capture_tag:
                self._capture_depth += 1
            return
        if tag == "a":
            anchor = attrs.get("name") or attrs.get("id") or ""
            section = _SECTION_ANCHORS.get(anchor)
            if section:
                self._flush_record()
                self._section = section
            elif anchor.endswith((".detail", "_detail")):
                self._flush_record()
                self._section = None
            return
        if tag == "div" and "subTitle" in classes and self.package is None:
            self._start_capture("package", tag)
            return
        if tag in ("h1", "h2") and ("title" in classes or self.class_name is None):
            if self.class_name is None:
                self._start_capture("title", tag)
            return
        if tag == "div" and "description" in classes:
            self._desc_depth = 1
            return
        if self._desc_depth > 0 and tag == "div":
            if "block" in classes and self.class_description is None:
                self._start_capture("class_desc", tag)
            else:
                self._desc_depth += 1
            return
        if self._section is not None:
            if tag == "h4":
                self._flush_record()
                self._record = {
                    "kind": self._section,
                    "name": None,
                    "signature": None,
                    "description": None,
                    "params": [],
                    "return_doc": None,
                    "since": None,
                }
                self._start_capture("h4", tag)
            elif self._record is not None:
                if tag == "pre" and self._record.get("signature") is None:
                    self._start_capture("pre", tag)
                elif tag == "div" and "block" in classes:
                    if self._record.get("description") is None:
                        self._start_capture("method_desc", tag)
                elif tag == "dt":
                    self._start_capture("dt", tag)
                elif tag == "dd" and self._label_mode is not None:
                    self._start_capture("dd", tag)

    def handle_endtag(self, tag):
        if self._capture is not None:
            if tag == self._capture_tag:
                self._capture_depth -= 1
                if self._capture_depth == 0:
                    self._finish_capture()
            return
        if self._desc_depth > 0 and tag == "div":
            self._desc_depth -= 1

    def handle_data(self, data):
        if self._capture is not None:
            self._buf.append(data)

    def close(self):
        self._flush_record()

    def docs(self, library: LibraryCoordinate) -> list[MethodDoc]:
        """The page's MethodDocs, once its text has been fed and closed."""
        if not self.class_name:
            return []
        docs = []
        for rec in self.records:
            signature = _parse_signature_types(rec["signature"], rec["name"])
            if signature is None:
                continue
            method = "<init>" if rec["kind"] == "constructor" else rec["name"]
            docs.append(
                MethodDoc(
                    library=library,
                    package=self.package or "",
                    class_name=self.class_name,
                    class_description=self.class_description or "",
                    method=method,
                    signature=signature,
                    description=rec["description"] or "",
                    param_docs=tuple(rec["params"]),
                    return_doc=rec["return_doc"],
                    since=rec["since"],
                )
            )
        return docs

    def feed(self, text: str):
        """Scan a whole page, calling the handlers at each event.

        Text between events is read only while a capture is open: other
        tags are removed from it and each remaining piece is unescaped on
        its own, so "&amp<code>;" reads "&;" as in HTMLParser.  Text an
        unclosed capture holds at the end of the page is never used.
        """
        pos = 0
        while (m := _SCAN.search(text, pos)) is not None:
            if self._capture is not None and pos < m.start():
                # odd items of the split are the attributes _MARKUP captures
                for piece in _MARKUP.split(text[pos : m.start()])[::2]:
                    self.handle_data(unescape(piece))
            pos = m.end()
            end_tag = m["end"] or m["end_"]
            if end_tag is not None:
                self.handle_endtag(end_tag.lower())
                continue
            tag = m["start"]
            if tag is None:
                continue  # a comment, declaration or processing instruction
            tag = tag.lower()
            attrs, closed = _attributes(text, m.end("start"), pos)
            if tag in _RAW_TEXT_END:
                if closed:
                    continue
                body = _RAW_TEXT_END[tag].search(text, pos)
                if body is None:
                    return  # unclosed: the rest of the page is its raw text
                self.handle_data(text[pos : body.start()])
                pos = body.end()
                continue
            self.handle_starttag(tag, attrs)
            if closed:
                self.handle_endtag(tag)


_CALL = re.compile(r"([\w$]+)\s*\(")
_ANNOTATION = re.compile(r"@[\w.$]+(?:\s*\([^()]*\))?")
_TYPE_ARGUMENTS = re.compile(r"<[^<>]*>")


def _parse_signature_types(signature: str, name: str) -> tuple[str, ...] | None:
    """Parameter types (simple names) of method `name` from its <pre> text.

    The parameter list is the one after the method's own name, so an
    annotation or type parameters before it are not read as parameters.
    """
    start = next((m for m in _CALL.finditer(signature) if m[1] == name), None)
    if start is None:
        return None
    inner, closed, _ = _ANNOTATION.sub(" ", signature[start.end() :]).partition(")")
    if not closed:
        return None
    # drop generic arguments, innermost first, so their commas and
    # spaces do not split a parameter
    while (stripped := _TYPE_ARGUMENTS.sub("", inner)) != inner:
        inner = stripped
    types = []
    for param in inner.split(","):
        tokens = _clean(param).split()
        if not tokens:
            continue
        type_part = tokens[-2] if len(tokens) >= 2 else tokens[0]
        varargs = "..." in type_part
        base = type_part.replace("...", "")
        # keep the array suffix, strip the package prefix
        array = "[]" * base.count("[")
        simple = base.split("[", 1)[0].rpartition(".")[2]
        types.append(simple + array + ("..." if varargs else ""))
    return tuple(types)


def parse_class_page(html_text: str, library: LibraryCoordinate) -> list[MethodDoc]:
    """MethodDocs from one class page; empty when the layout is unknown."""
    parser = _ClassPageParser()
    parser.feed(html_text)
    parser.close()
    return parser.docs(library)


def parse_doc_archive(
    archive: bytes, library: LibraryCoordinate, classes: Iterable[str]
) -> list[MethodDoc]:
    """Parse the pages of the named classes in a -javadoc jar into MethodDocs.

    Classes are named fully qualified, and org.json.JSONObject's page is
    org/json/JSONObject.html (method keys name top-level classes, as the
    class index folds inner classes into their outer class).  A class
    without a page in the archive gives no docs.  An unreadable archive or
    page is a DocError.  Published -javadoc jars already contain the doclet
    HTML, so no conversion step is needed before parsing.
    """
    try:
        zf = zipfile.ZipFile(io.BytesIO(archive))
        names = set(zf.namelist())
    except (zipfile.BadZipFile, OSError) as exc:
        raise DocError(f"unreadable documentation archive for {library}: {exc}") from exc
    docs: list[MethodDoc] = []
    for page in sorted({cls.replace(".", "/") + ".html" for cls in classes} & names):
        try:
            text = zf.read(page).decode("utf-8", "replace")
        except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
            raise DocError(f"unreadable page {page} of {library}: {exc}") from exc
        docs.extend(parse_class_page(text, library))
    if not docs:
        log.warning("event=doc_format_warning library=%s reason=no_method_details", library)
    return docs


def docs_key(archive: bytes, classes: Iterable[str]) -> str:
    """The stored docs' key: the archive's length and CRC-32, then the
    sorted class names, NUL-separated.  It names the content, not the
    coordinate, so a jar replaced in the cache is parsed again.

    The key only has to tell apart the jars one database sees under the
    same class set; a hostile jar could carry hostile docs anyway.  CRC-32
    needs no OpenSSL, whose library `hashlib` would map into every run."""
    return "\0".join([f"{len(archive)}-{zlib.crc32(archive):08x}", *sorted(classes)])


def encode_docs(docs: Iterable[MethodDoc]) -> str:
    """Compact JSON of `docs`, one list of a doc's fields in declaration
    order per doc, without its library."""
    # one dumps per doc: dumping the whole list holds every piece of its
    # output until the end, several times the size of the output
    return "[" + ",".join(
        json.dumps(
            [d.package, d.class_name, d.class_description, d.method, d.signature,
             d.description, d.param_docs, d.return_doc, d.since],
            separators=(",", ":"),
        )
        for d in docs
    ) + "]"


def decode_docs(data: str, library: LibraryCoordinate) -> list[MethodDoc]:
    """The docs `encode_docs` wrote, each of `library`; plain JSON, so
    decoding runs no code."""
    return [
        MethodDoc(library, package, class_name, class_description, method, tuple(signature),
                  description, tuple(map(tuple, param_docs)), return_doc, since)
        for (package, class_name, class_description, method, signature,
             description, param_docs, return_doc, since) in json.loads(data)
    ]


def attach_docs(
    mappings: Iterable[MethodMapping], docs: Iterable[MethodDoc]
) -> list[tuple[MethodMapping, list[DocAttachment], list[DocAttachment]]]:
    """Match every mapped method to the documentation of its own library.

    A method of a mapping's source (target) side matches the docs of the
    source (target) library whose page is its class, by fully qualified
    name, with the same method name and arity.  `docs` lists a library's
    versions in lookup order: the first version with a match gives the doc,
    and several same-arity overloads on that one page resolve to the first
    in page order, flagged ambiguous.  Methods with no match get an
    explicit not-found marker.
    """
    by_key: dict[tuple[LibraryId, str, str, int], list[MethodDoc]] = {}
    for doc in docs:
        key = (doc.library.identity, f"{doc.package}.{doc.class_name}", doc.method, doc.arity)
        by_key.setdefault(key, []).append(doc)

    def attach(library: LibraryId, method: MethodKey) -> DocAttachment:
        candidates = by_key.get((library, *method))
        if not candidates:
            return DocAttachment(method=method, doc=None, found=False)
        first = candidates[0]
        overloads = sum(doc.library == first.library for doc in candidates)
        return DocAttachment(method=method, doc=first, found=True, ambiguous=overloads > 1)

    return [
        (
            mapping,
            [attach(mapping.source, m) for m in mapping.source_methods],
            [attach(mapping.target, m) for m in mapping.target_methods],
        )
        for mapping in mappings
    ]
