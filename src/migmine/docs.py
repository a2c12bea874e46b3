"""Library archive fetching and API documentation harvesting.

Downloads class and -javadoc jars from a Maven-repository-layout server
into a local cache, parses the doclet-generated HTML (JDK 7/8 era method
detail structure) and attaches per-method documentation to method
mappings.  Unknown HTML layouts degrade to zero docs, never a failure.
"""

from __future__ import annotations

import io
import logging
import time
import urllib.error
import urllib.request
import zipfile
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from html.parser import HTMLParser
from pathlib import Path

from .model import (
    UNRESOLVED,
    DocAttachment,
    LibraryCoordinate,
    MethodDoc,
    MethodKey,
    MethodMapping,
)

log = logging.getLogger(__name__)

DEFAULT_REPO_BASE = "https://repo1.maven.org/maven2"

ARCHIVE_KINDS = ("classes", "documentation")


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
    perform zero network calls for cached coordinates.  In offline mode
    only the cache is consulted.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        base: str = DEFAULT_REPO_BASE,
        offline: bool = False,
        max_workers: int = 4,
        retries: int = 3,
        backoff: float = 0.5,
    ):
        self.cache_dir = Path(cache_dir)
        self.base = base
        self.offline = offline
        self.max_workers = max(1, min(max_workers, 4))
        self.retries = retries
        self.backoff = backoff

    def cache_path(self, coordinate: LibraryCoordinate, kind: str) -> Path:
        return self.cache_dir / archive_path(coordinate, kind)

    def fetch(self, coordinate: LibraryCoordinate, kind: str) -> bytes | None:
        """Archive bytes, or None when unavailable (never raises for misses)."""
        if coordinate.version == UNRESOLVED:
            log.warning("event=fetch_skipped reason=unresolved_version library=%s", coordinate)
            return None
        path = self.cache_path(coordinate, kind)
        if path.is_file():
            return path.read_bytes()
        if self.offline:
            log.warning("event=fetch_skipped reason=offline library=%s kind=%s", coordinate, kind)
            return None
        data = self._download(archive_url(coordinate, kind, self.base))
        if data is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            tmp.replace(path)
        return data

    def fetch_many(
        self, wants: Iterable[tuple[LibraryCoordinate, str]]
    ) -> dict[tuple[LibraryCoordinate, str], bytes | None]:
        wants = list(dict.fromkeys(wants))
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            results = pool.map(lambda w: self.fetch(*w), wants)
        return dict(zip(wants, results))

    def _download(self, url: str) -> bytes | None:
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(url, timeout=60) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                if exc.code in (429,) or 500 <= exc.code < 600:
                    if attempt < self.retries:
                        time.sleep(delay)
                        delay *= 2
                        continue
                log.warning("event=fetch_failed url=%s status=%s", url, exc.code)
                return None
            except (urllib.error.URLError, OSError) as exc:
                reason = getattr(exc, "reason", exc)
                if isinstance(reason, (FileNotFoundError, IsADirectoryError, PermissionError)):
                    log.warning("event=fetch_missing url=%s", url)
                    return None  # file:// miss: not transient, no retry
                if attempt < self.retries:
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


class _ClassPageParser(HTMLParser):
    """Event parser for one doclet-generated class page (JDK 7/8 layout)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
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
            # "Class Gson", "Interface Foo", "Enum Bar.Baz"
            name = text.split()[-1] if text else ""
            self.class_name = name.rpartition(".")[2] or None
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

    # HTMLParser hooks

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
        super().close()
        self._flush_record()


def _parse_signature_types(signature: str) -> tuple[str, ...] | None:
    """Parameter type list (simple names) from a method detail <pre> text."""
    open_idx = signature.find("(")
    close_idx = signature.rfind(")")
    if open_idx < 0 or close_idx <= open_idx:
        return None
    inner = signature[open_idx + 1 : close_idx].strip()
    if not inner:
        return ()
    chunks = []
    depth = 0
    cur = []
    for ch in inner:
        if ch in "<[(":
            depth += 1
        elif ch in ">])":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    chunks.append("".join(cur))
    types = []
    for chunk in chunks:
        tokens = [t for t in _clean(chunk).split(" ") if t and not t.startswith("@")]
        if not tokens:
            continue
        type_part = tokens[-2] if len(tokens) >= 2 else tokens[0]
        varargs = "..." in type_part
        base = type_part.replace("...", "")
        # drop generics, keep array suffix, strip the package prefix
        array = "[]" * base.count("[")
        base = base.split("<", 1)[0].split("[", 1)[0]
        simple = base.rpartition(".")[2]
        types.append(simple + array + ("..." if varargs else ""))
    return tuple(types)


_SKIP_PAGES = {
    "index.html",
    "help-doc.html",
    "deprecated-list.html",
    "constant-values.html",
    "serialized-form.html",
    "overview-summary.html",
    "overview-frame.html",
    "overview-tree.html",
    "allclasses.html",
    "allclasses-frame.html",
    "allclasses-noframe.html",
    "allclasses-index.html",
    "allpackages-index.html",
}


def _is_class_page(entry_name: str) -> bool:
    parts = entry_name.split("/")
    base = parts[-1]
    if not base.endswith(".html") or base in _SKIP_PAGES:
        return False
    if base.startswith(("package-", "index-", "class-use")):
        return False
    if any(p in ("class-use", "doc-files", "src-html", "resources", "META-INF") for p in parts[:-1]):
        return False
    return bool(base) and (base[0].isupper() or base[0] == "_")


def parse_class_page(html_text: str, library: LibraryCoordinate) -> list[MethodDoc]:
    """MethodDocs from one class page; empty when the layout is unknown."""
    parser = _ClassPageParser()
    try:
        parser.feed(html_text)
        parser.close()
    except Exception as exc:  # malformed HTML: degrade, never crash
        log.warning("event=doc_parse_error library=%s error=%s", library, exc)
        return []
    if not parser.class_name:
        return []
    docs = []
    for rec in parser.records:
        signature = _parse_signature_types(rec["signature"])
        if signature is None:
            continue
        method = "<init>" if rec["kind"] == "constructor" else rec["name"]
        docs.append(
            MethodDoc(
                library=library,
                package=parser.package or "",
                class_name=parser.class_name,
                class_description=parser.class_description or "",
                method=method,
                signature=signature,
                description=rec["description"] or "",
                param_docs=tuple(rec["params"]),
                return_doc=rec["return_doc"],
                since=rec["since"],
            )
        )
    return docs


def parse_doc_archive(archive: bytes, library: LibraryCoordinate) -> list[MethodDoc]:
    """Parse every class page of a -javadoc jar into MethodDocs.

    Published -javadoc jars already contain the doclet HTML, so no
    conversion step is needed before parsing.
    """
    try:
        zf = zipfile.ZipFile(io.BytesIO(archive))
        names = zf.namelist()
    except (zipfile.BadZipFile, OSError) as exc:
        raise DocError(f"unreadable documentation archive for {library}: {exc}") from exc
    docs: list[MethodDoc] = []
    for name in sorted(names):
        if not _is_class_page(name):
            continue
        text = zf.read(name).decode("utf-8", "replace")
        docs.extend(parse_class_page(text, library))
    if not docs:
        log.warning("event=doc_format_warning library=%s reason=no_method_details", library)
    return docs


def attach_docs(
    mappings: Iterable[MethodMapping], docs: Iterable[MethodDoc]
) -> list[tuple[MethodMapping, list[DocAttachment], list[DocAttachment]]]:
    """Match every mapped method to its documentation.

    Matching is by (class simple name, method name, arity).  Methods with
    no matching doc get an explicit not-found marker; several overloads at
    the same arity resolve to the first in page order, flagged ambiguous.
    """
    by_key: dict[tuple[str, str, int], list[MethodDoc]] = {}
    for doc in docs:
        by_key.setdefault((doc.class_name, doc.method, doc.arity), []).append(doc)

    def attach(method: MethodKey) -> DocAttachment:
        cls, name, arity = method
        simple = cls.rpartition(".")[2]
        candidates = by_key.get((simple, name, arity), [])
        if not candidates:
            return DocAttachment(method=method, doc=None, found=False)
        return DocAttachment(
            method=method,
            doc=candidates[0],
            found=True,
            ambiguous=len(candidates) > 1,
        )

    out = []
    for mapping in mappings:
        source_docs = [attach(m) for m in sorted(mapping.source_methods)]
        target_docs = [attach(m) for m in sorted(mapping.target_methods)]
        out.append((mapping, source_docs, target_docs))
    return out
