"""Spans recorded from outside the program, and the per-layer metrics they give.

`Tracer.install` wraps each hook at the name its caller looks it up by
(a module global or a class attribute), so the program stays untouched.  Each
call becomes one span: id, parent span, name, start, end, plus a count
and a byte size that the hook's measure function reads off the
arguments or the result.  Spans stay in memory; `layer_metrics` turns
them into per-layer counts, times and ratios.  A hook whose name no
longer exists is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None  # enclosing span of the same thread
    name: str
    start: float
    end: float
    n: int = 0  # hook-specific count (blobs, hunks, misses, ...)
    size: int = 0  # hook-specific bytes

    @property
    def duration(self) -> float:
        return self.end - self.start


# measures: (positional arguments without self, result, **keyword arguments) -> (n, size)


def _none(args, result, **kwargs):
    return 0, 0


def _git(args, result, cwd=None, data=None):
    # run_git(args, cwd=None, data=None): cat-file --batch reads one blob per input line
    data = args[2] if len(args) > 2 else data
    blobs = data.count(b"\n") if args[0][:1] == ["cat-file"] and data else 0
    return blobs, len(result)


def _text_size(args, result, **kwargs):
    return 0, len(args[0])


def _length(args, result, **kwargs):
    return len(result), 0


def _truthy(args, result, **kwargs):
    return int(bool(result)), 0


def _fetched(args, result, **kwargs):
    return int(result is None), len(result or b"")


def _graph(args, result, **kwargs):
    return len(args[0]), len(result)


def _confirmed(args, result, **kwargs):
    return sum(1 for rule in result if rule.status == "confirmed"), len(result)


def _attached(args, result, **kwargs):
    found = total = 0
    for _, source_docs, target_docs in result:
        for attachment in (*source_docs, *target_docs):
            found += attachment.found
            total += 1
    return found, total


STORE_WRITES = (
    "upsert", "upsert_doc_attachment", "set_meta", "replace_edges",
    "clear_rules_and_downstream", "clear_segments_and_downstream",
    "clear_fragments_and_mappings", "clear_docs",
)
STORE_READS = (
    "projects", "has_commits", "commits_for", "commit_count", "dependency_changes",
    "rules", "segments", "fragment_counts", "mappings", "counts", "get_meta",
)
STAGES = {
    "ingest": "ingest", "detect_rules": "rules", "detect_segments": "segments",
    "detect_fragments": "fragments", "collect_docs": "docs", "export_reports": "export",
}


def hooks() -> list[tuple[str, str, str, object]]:
    """(owner, attribute, span name, measure) for every traced boundary.

    Each owner is the dotted path of the module or class whose attribute
    the callers look up at call time.
    """
    out = [
        ("migmine.gitrepo", "run_git", "gitrepo.run_git", _git),
        ("migmine.gitrepo", "changed_files", "gitrepo.changed_files", _length),
        ("migmine.history.ProjectHistory", "facts_for", "history.facts_for", _none),
        ("migmine.history.ProjectHistory", "uses_for", "history.uses_for", _none),
        ("migmine.history.ProjectHistory", "dependency_changes", "history.dependency_changes", _none),
        ("migmine.history.ProjectHistory", "dependency_timeline", "history.dependency_timeline", _none),
        ("migmine.history", "parse_manifest", "manifest.parse_manifest", _length),
        ("migmine.javafacts", "extract_facts", "javafacts.extract_facts", _text_size),
        ("migmine.javafacts", "resolve_usages", "javafacts.resolve_usages", _length),
        ("migmine.javafacts", "facts_depend_on", "javafacts.facts_depend_on", _truthy),
        ("migmine.pipeline", "normalize_and_filter", "rulegraph.normalize_and_filter", _graph),
        ("migmine.pipeline", "confirm_rules", "rulegraph.confirm_rules", _confirmed),
        ("migmine.pipeline", "find_segments", "segments.find_segments", _length),
        ("migmine.pipeline.Pipeline", "package_index", "segments.package_index", _none),
        ("migmine.pipeline", "unified_diff", "fragments.unified_diff", _length),
        ("migmine.pipeline", "filter_fragments", "fragments.filter_fragments", _length),
        ("migmine.pipeline", "parse_doc_archive", "docs.parse_doc_archive", _length),
        ("migmine.pipeline", "attach_docs", "docs.attach_docs", _attached),
        ("migmine.docs.ArchiveFetcher", "fetch", "docs.fetch", _fetched),
        ("migmine.store.Store", "export", "store.export", _none),
    ]
    out += [("migmine.store.Store", name, f"store.write.{name}", _none) for name in STORE_WRITES]
    out += [("migmine.store.Store", name, f"store.read.{name}", _none) for name in STORE_READS]
    out += [
        ("migmine.pipeline.Pipeline", name, f"pipeline.{label}", _none)
        for name, label in STAGES.items()
    ]
    return out


def resolve(path: str):
    """The module or class at a dotted path, or None when it no longer exists."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self, hook_list) -> None:
        for owner_path, attr, name, measure in hook_list:
            owner = resolve(owner_path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            skip = 1 if isinstance(owner, type) else 0  # methods: drop self
            setattr(owner, attr, self._wrap(fn, name, measure, skip))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, measure, skip):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end))
                raise
            end = time.perf_counter()
            stack.pop()
            n, size = measure(args[skip:], result, **kwargs)
            tracer.spans.append(Span(span_id, parent, name, start, end, n, size))
            return result

        return traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, seconds and ratios over every recorded span."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def count(name):
        return len(by_name[name])

    def total(*names):
        return sum(s.duration for name in names for s in by_name[name])

    def sum_n(name):
        return sum(s.n for s in by_name[name])

    def sum_size(name):
        return sum(s.size for s in by_name[name])

    def self_time(*names):
        return sum(
            s.duration - sum(c.duration for c in children[s.id])
            for name in names for s in by_name[name]
        )

    def busy(*prefixes):
        """Time in spans whose name starts with a prefix, nested ones counted once."""
        out = 0.0
        for s in spans:
            if not s.name.startswith(prefixes):
                continue
            p = s.parent
            while p is not None and not by_id[p].name.startswith(prefixes):
                p = by_id[p].parent
            if p is None:
                out += s.duration
        return out

    def cache_hit_ratio(name, child):
        calls = by_name[name]
        hits = sum(1 for s in calls if not any(c.name == child for c in children[s.id]))
        return _ratio(hits, len(calls))

    def last(name):
        return by_name[name][-1] if by_name[name] else Span(0, None, name, 0.0, 0.0)

    metrics = {f"pipeline.{label}_s": total(f"pipeline.{label}") for label in STAGES.values()}
    hunks = sum_n("fragments.unified_diff")
    attach = by_name["docs.attach_docs"]
    confirm = last("rulegraph.confirm_rules")
    finds = by_name["segments.find_segments"]
    metrics.update({
        "gitrepo.spawns": count("gitrepo.run_git"),
        "gitrepo.busy_s": total("gitrepo.run_git"),
        "gitrepo.blobs_read": sum_n("gitrepo.run_git"),
        "gitrepo.bytes_read": sum_size("gitrepo.run_git"),
        "history.facts_hit_ratio": cache_hit_ratio("history.facts_for", "javafacts.extract_facts"),
        "history.uses_hit_ratio": cache_hit_ratio("history.uses_for", "javafacts.resolve_usages"),
        "history.replay_s": self_time("history.dependency_changes", "history.dependency_timeline"),
        "manifest.parses": count("manifest.parse_manifest"),
        "manifest.parse_s": total("manifest.parse_manifest"),
        "rulegraph.edges": last("rulegraph.normalize_and_filter").n,
        "rulegraph.candidates": last("rulegraph.normalize_and_filter").size,
        "rulegraph.confirmed_ratio": _ratio(confirm.n, confirm.size),
        "segments.pairs": len(finds),
        "segments.useful_ratio": _ratio(sum(1 for s in finds if s.n), len(finds)),
        "segments.index_builds": sum(
            1 for s in by_name["segments.package_index"] if children[s.id]
        ),
        "segments.self_s": self_time("segments.find_segments"),
        "javafacts.blobs_tokenized": count("javafacts.extract_facts"),
        "javafacts.bytes_tokenized": sum_size("javafacts.extract_facts"),
        "javafacts.extract_s": total("javafacts.extract_facts"),
        "javafacts.dependent_ratio": _ratio(
            sum_n("javafacts.facts_depend_on"), count("javafacts.facts_depend_on")
        ),
        "javafacts.resolve_s": busy("javafacts.resolve_usages", "javafacts.facts_depend_on"),
        "fragments.diffs": count("fragments.unified_diff"),
        "fragments.diff_s": total("fragments.unified_diff"),
        "fragments.hunks": hunks,
        "fragments.kept_ratio": _ratio(sum_n("fragments.filter_fragments"), hunks),
        "fragments.filter_s": total("fragments.filter_fragments"),
        "store.write_s": busy("store.write."),
        "store.read_s": busy("store.read."),
        "store.export_s": total("store.export"),
        "docs.fetches": count("docs.fetch"),
        "docs.fetch_misses": sum_n("docs.fetch"),
        "docs.archive_bytes": sum_size("docs.fetch"),
        "docs.parse_s": total("docs.parse_doc_archive"),
        "docs.methods_parsed": sum_n("docs.parse_doc_archive"),
        "docs.attach_s": total("docs.attach_docs"),
        "docs.attached_ratio": _ratio(sum(s.n for s in attach), sum(s.size for s in attach)),
    })
    return metrics
