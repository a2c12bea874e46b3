"""Stage orchestration: ingest, rules, segments, fragments, docs, reports.

Each stage reads its input from the store and can be rerun in isolation;
a full run is exactly the stage sequence, `STAGES`.  A stage's writes, and
the blob answers it computed, commit together when it returns, or not at
all when it raises.  One failing project never aborts a corpus run: it is
logged as `event=project_failed`, kept in `Pipeline.project_errors` and
reflected in the exit status.
"""

from __future__ import annotations

import functools
import logging
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, gitrepo, javafacts
from .docs import (
    DEFAULT_REPO_BASE,
    ArchiveFetcher,
    DocError,
    attach_docs,
    decode_docs,
    docs_key,
    encode_docs,
    parse_doc_archive,
)
from .fragments import DEFAULT_CONTEXT, extract_mappings, filter_fragments, unified_diff
from .history import FactsCache, ProjectHistory
from .model import (
    UNRESOLVED,
    FileChange,
    Fragment,
    LibraryCoordinate,
    LibraryId,
    MethodDoc,
    MethodMapping,
    MigrationRule,
    PackageIndex,
    ProjectRef,
    Segment,
)
from .rulegraph import MigrationGraph, confirm_rules, normalize_and_filter
from .segments import find_segments
from .reports import EXPORT_SELECTORS, write_reports
from .store import Store

log = logging.getLogger(__name__)


class StageDataError(RuntimeError):
    """A stage's prerequisite data is missing from the store."""


# the stage methods of `Pipeline`, in run order
STAGES = ["ingest", "detect_rules", "detect_segments", "detect_fragments", "collect_docs"]


def stage(method):
    """Run a pipeline stage as one store transaction, with the blob answers
    it computed, and log its wall time.

    sqlite3 begins the transaction at the stage's first write, and each stage
    computes what it stores before it clears and writes: git reads, archive
    downloads, parsing and diffing run outside the transaction and hold no
    database lock.  A stage reads blobs one project at a time
    (`Pipeline._per_project`), which closes each history's blob reader when
    the stage is done with that project, so no `cat-file` process outlives
    a stage.
    """

    @functools.wraps(method)
    def run(self, *args, **kwargs):
        start = time.perf_counter()
        with self.store.transaction():
            result = method(self, *args, **kwargs)
            self.facts.save()
        log.info(
            "event=stage_done stage=%s seconds=%.3f",
            method.__name__, time.perf_counter() - start,
        )
        return result

    return run


@dataclass
class RunConfig:
    projects_file: str | None = None
    workdir: str = "migmine-work"
    db_path: str | None = None  # None: WORKDIR/migmine.db
    t_rel: float = 1.0
    context_lines: int = DEFAULT_CONTEXT
    offline: bool = False
    imports_count_as_use: bool = True
    fallback_index: bool = True
    repo_base: str = DEFAULT_REPO_BASE
    jobs: int = 1
    cache_dir: str | None = None

    def __post_init__(self):
        if not self.db_path:
            self.db_path = str(Path(self.workdir) / "migmine.db")
        if not 0.0 <= self.t_rel <= 1.0:
            raise ValueError(f"t_rel must be in [0, 1], got {self.t_rel}")
        if self.context_lines < 0:
            raise ValueError("context_lines must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def cache_path(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir else Path(self.workdir) / "cache"

    @property
    def report_path(self) -> Path:
        return Path(self.workdir) / "reports"


class Pipeline:
    def __init__(self, store: Store, config: RunConfig):
        self.store = store
        self.config = config
        self.fetcher = ArchiveFetcher(
            cache_dir=config.cache_path,
            base=config.repo_base,
            offline=config.offline,
            max_workers=config.jobs,
        )
        self._refs: dict[str, ProjectRef] | None = None
        self._histories: dict[str, ProjectHistory] = {}
        # every stored project's file changes, read at the first stored history
        self._stored_changes: dict[str, dict[str, list[FileChange]]] | None = None
        # every history's answers about blobs, backed by the store's blob_answers table
        self.facts = FactsCache(store)
        self.diffs = 0  # diffs computed so far: `facts` knew none of them
        self._indices: dict[LibraryCoordinate, PackageIndex] = {}
        # "project: error" of each project a stage skipped
        self.project_errors: list[str] = []

    # -- shared state ---------------------------------------------------------

    def _projects(self) -> dict[str, ProjectRef]:
        """The stored projects by id, read once until the next ingest."""
        if self._refs is None:
            self._refs = {r.id: r for r in self.store.projects()}
        return self._refs

    def history(self, project_id: str) -> ProjectHistory:
        """The project's history: ingest's, or one built from the stored
        commits and file changes, which reads no `git log`."""
        if project_id not in self._histories:
            ref = self._projects().get(project_id)
            if ref is None:
                raise StageDataError(f"project {project_id} not ingested")
            if self._stored_changes is None:
                self._stored_changes = self.store.file_changes()
            stored = self._stored_changes.pop(project_id, {})
            commits = self.store.commits_for(project_id)
            self._histories[project_id] = ProjectHistory(
                ref,
                commits,
                {c.commit_id: stored.get(c.commit_id, []) for c in commits},
                facts=self.facts,
            )
        return self._histories[project_id]

    def package_index(self, coordinate: LibraryCoordinate) -> PackageIndex:
        """Class index for a library, from its archive or the prefix fallback."""
        if coordinate in self._indices:
            return self._indices[coordinate]
        index = None
        data = self.fetcher.fetch(coordinate, "classes")
        if data is not None:
            try:
                index = javafacts.build_package_index(coordinate, data)
            except javafacts.IndexBuildError as exc:
                log.warning("event=index_error library=%s error=%s", coordinate, exc)
        if index is None:
            if not self.config.fallback_index:
                raise StageDataError(
                    f"package index unavailable for {coordinate} and fallback disabled"
                )
            log.warning(
                "event=index_fallback library=%s note=low_confidence_prefix_index",
                coordinate,
            )
            index = javafacts.fallback_package_index(coordinate)
        self._indices[coordinate] = index
        return index

    # -- stages -----------------------------------------------------------------

    @stage
    def ingest(self) -> list[str]:
        """Clone projects and record commits plus their file and dependency
        changes.

        Returns the "project: error" strings of the projects that failed,
        which `project_errors` holds too; one project's failure never aborts
        the run, but a run that leaves no project stored is a StageDataError.
        When every project of the projects file ingested, the stored
        projects that it no longer names are deleted, with all their rows.
        """
        cfg = self.config
        jobs = []
        if cfg.projects_file:
            try:
                jobs = gitrepo.read_projects_file(cfg.projects_file)
            except (OSError, UnicodeDecodeError) as exc:
                raise StageDataError(f"cannot read projects file: {exc}") from exc
        if not jobs:
            raise StageDataError("no project origins (empty or missing projects file)")

        clones_dir = Path(cfg.workdir) / "repos"
        # read here, as a sqlite connection must not cross threads
        answered = self.store.answered_blobs()

        def one(job):
            """Read one project's history and every text it names, here in
            the pool, so the later stages of this run read none; but not
            the texts of the blobs the store answers, which a stage reads
            only if it asks one something new.  The history's reader is
            closed when the job returns or fails.  The manifests are
            replayed after the pool, on this stage's thread, as the replay
            may ask the store."""
            origin, project_id = job
            history = None
            try:
                ref, commits, changes = gitrepo.ingest_project(origin, clones_dir, project_id)
                history = ProjectHistory(
                    ref, commits, gitrepo.changed_files(changes), facts=self.facts
                )
                history.read_texts(skip=answered)
                return (project_id, history, history.blobs_read, None)
            except (gitrepo.GitError, gitrepo.UnknownCommitError, OSError) as exc:
                return (project_id, None, 0, exc)
            finally:
                if history is not None:
                    history.close()

        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(one, jobs))

        # rules are mined from every project's history, so a new history voids them
        if any(history is not None for _, history, _, _ in results):
            self.store.clear_rules_and_downstream()
        failed: dict[str, Exception] = {}
        ingested = []
        for project_id, history, blobs_read, error in sorted(results):
            if error is not None:
                failed[project_id] = error
                continue
            self._histories[project_id] = history
            ingested.append(history)
            # the replay reads any manifest text the pool skipped: count those
            # reads, and end the reader they started
            try:
                history.dependency_changes()
                blobs_read += history.blobs_read
            finally:
                history.close()
            log.info(
                "event=ingested project=%s commits=%d blobs_read=%d",
                project_id, len(history.commits), blobs_read,
            )
        self.store.upsert(history.ref for history in ingested)
        # a re-ingested history may have lost or renumbered commits
        self.store.clear_commits(history.ref.id for history in ingested)
        self.store.insert_commits(record for history in ingested for record in history.commits)
        self.store.insert_file_changes((h.ref.id, h.file_changes) for h in ingested)
        self.store.insert_dependency_changes(
            change
            for history in ingested
            for change in history.dependency_changes()
            if change.added or change.removed
        )
        errors = self._record_failures("ingest", failed)
        if not errors:
            for project_id in self.store.keep_projects(project_id for _, project_id in jobs):
                log.info("event=project_dropped project=%s", project_id)
        # the replay above asked the stored answers first: keep those of the
        # blobs a stored change names, then add the ones it reached
        self.store.prune_blob_answers()
        self._refs = self._stored_changes = None
        version = gitrepo.git_version()
        self.store.set_meta("git_version", version)
        log.info("event=vcs_tool version=%r", version)
        if not self._projects():
            raise StageDataError("every project failed to ingest")
        return errors

    @stage
    def detect_rules(self):
        """Cartesian-product graph over all stored changes, filtered by t_rel."""
        if not self.store.has_commits():
            raise StageDataError("no ingested commits; run ingest first")
        graph = MigrationGraph()
        for change in self.store.dependency_changes():
            graph.accumulate(change)
        rules = normalize_and_filter(graph, self.config.t_rel)
        self.store.clear_rules_and_downstream()
        self.store.replace_edges(graph.edges)
        self.store.upsert_rules(rules)
        self.store.set_meta("t_rel", repr(self.config.t_rel))
        log.info("event=rules_detected candidates=%d edges=%d", len(rules), len(graph))
        return rules

    @stage
    def detect_segments(self) -> list[Segment]:
        """Scan each project for each rule whose two libraries its manifests
        declare, and number the segments 1..n in project-then-rule order.

        A project whose history cannot be read is logged and skipped; when
        every project fails, the first failure is raised.
        """
        rules = self.store.rules()
        if not rules:
            raise StageDataError("no rules in store; run detect-rules first")
        found_by_pair, blobs_read = self._per_project(
            "detect_segments", list(self._projects()),
            lambda history: self._rule_segments(history, rules),
        )
        segments = []
        for rule, found in found_by_pair:
            for segment in found:
                # stored in this order, so numbered 1..n as they are stored
                segments.append(segment)
                segment.id = len(segments)
                log.info(
                    "event=segment project=%s rule=%s start=%s end=%s commits=%d",
                    segment.project, rule, segment.start_commit[:12],
                    segment.end_commit[:12], len(segment.commits),
                )
        # segments invalidate everything downstream, including confirmations
        self.store.clear_segments_and_downstream()
        self.store.insert_segments(segments)
        log.info(
            "event=segments_detected pairs=%d segments=%d blobs_read=%d answers_loaded=%d "
            "blobs_tokenized=%d",
            len(found_by_pair), len(segments), blobs_read,
            self.facts.loaded["uses"], self.facts.tokenized,
        )
        return segments

    @stage
    def detect_fragments(self) -> tuple[list[Fragment], list[MethodMapping]]:
        """Diff segment commits into fragments, then confirm or discard rules.

        A diff is asked of `facts` first, by its two blob ids and the
        context; one computed here is stored with the stage, unless the
        repository lacks either blob, so a re-run at the same context
        reads no text.
        A project whose history cannot be read is logged and skipped; when
        every project with a segment fails, the first failure is raised.
        """
        rules = self.store.rules()
        if not rules:
            raise StageDataError("no rules in store; run detect-rules first")
        by_project: dict[str, list[Segment]] = {}
        for segment in self.store.segments(include_discarded=True):
            by_project.setdefault(segment.project, []).append(segment)
        all_fragments, blobs_read = self._per_project(
            "detect_fragments", list(by_project),
            lambda history: [
                fragment
                for segment in by_project[history.ref.id]
                for fragment in self._segment_fragments(history, segment)
            ],
        )
        mappings = extract_mappings(all_fragments)
        self.store.clear_fragments_and_mappings()
        self.store.insert_fragments(all_fragments)
        self.store.insert_mappings(mappings)
        confirmed = confirm_rules(rules, self.store.fragment_counts())
        self.store.upsert_rules(confirmed)
        log.info(
            "event=fragments_detected fragments=%d mappings=%d confirmed=%d diffs=%d "
            "diffs_loaded=%d blobs_read=%d answers_loaded=%d blobs_tokenized=%d",
            len(all_fragments), len(mappings),
            sum(1 for r in confirmed if r.status == "confirmed"),
            self.diffs, self.facts.loaded["diff"], blobs_read,
            self.facts.loaded["uses"], self.facts.tokenized,
        )
        return all_fragments, mappings

    def _per_project(
        self, stage_name: str, project_ids: list[str], work: Callable[[ProjectHistory], list]
    ) -> tuple[list, int]:
        """Run `work` on each project's history in turn; return the lists it
        returned, joined, and the objects they read from git.

        Each history's blob reader is closed when its project's work returns
        or raises, so at most one `cat-file` process runs at a time.  A
        project whose history cannot be read is left out, logged and kept in
        `project_errors`; when every project failed, the first failure is
        raised.
        """
        results: list = []
        blobs_read = 0
        failed: dict[str, Exception] = {}
        for project_id in project_ids:
            history = self.history(project_id)
            try:
                results += work(history)
            except (gitrepo.GitError, gitrepo.UnknownCommitError) as exc:
                failed[project_id] = exc
            finally:
                blobs_read += history.blobs_read
                history.close()
        if failed and len(failed) == len(project_ids):
            raise next(iter(failed.values()))
        self._record_failures(stage_name, failed)
        return results, blobs_read

    def _record_failures(self, stage_name: str, failed: dict[str, Exception]) -> list[str]:
        """Log each project a stage skipped and keep it in `project_errors`;
        return the "project: error" strings kept."""
        errors = []
        for project_id, exc in failed.items():
            log.error("event=project_failed stage=%s project=%s error=%s", stage_name, project_id, exc)
            errors.append(f"{project_id}: {exc}")
        self.project_errors += errors
        return errors

    def _rule_segments(
        self, history: ProjectHistory, rules: list[MigrationRule]
    ) -> list[tuple[MigrationRule, list[Segment]]]:
        """Each rule whose two libraries the project's manifests declare,
        with its segments in the project."""
        declared = history.declared_libraries()
        return [
            (rule, find_segments(
                history,
                rule.source,
                rule.target,
                self.package_index(declared[rule.source]),
                self.package_index(declared[rule.target]),
                self.config.imports_count_as_use,
            ))
            for rule in rules
            if rule.source in declared and rule.target in declared
        ]

    def _segment_fragments(self, history: ProjectHistory, segment: Segment) -> list[Fragment]:
        declared = history.declared_libraries()
        source_index = self.package_index(declared[segment.source])
        target_index = self.package_index(declared[segment.target])
        context = self.config.context_lines
        fragments: list[Fragment] = []
        for commit_id in segment.commits:
            for fc in history.changes(commit_id).java:
                # a fragment needs a source use before and a target use
                # after, so ask for those (cached) before the diff, which
                # reads no text when it is known
                if fc.before_sha == fc.after_sha:
                    continue
                uses_before = history.uses_for(fc.before_sha, source_index)
                if not uses_before:
                    continue
                uses_after = history.uses_for(fc.after_sha, target_index)
                if not uses_after:
                    continue
                hunks = self.facts.hunks(fc, context)
                if hunks is None:
                    self.diffs += 1
                    before, after = history.text(fc.before_sha), history.text(fc.after_sha)
                    hunks = unified_diff(before or "", after or "", context, path=fc.path)
                    if before is not None and after is not None:
                        self.facts.keep_hunks(fc, context, hunks)
                fragments.extend(filter_fragments(hunks, segment, commit_id, uses_before, uses_after))
        return fragments

    @stage
    def collect_docs(self) -> tuple[int, int]:
        """Look up the javadoc of every mapped method on its class's page.

        Each side of a rule looks in its own library, at the versions its
        segments record, in segment order; the first version whose page
        documents the method's name at its arity gives the doc.  An
        archive's docs are parsed once per database: they are stored by
        the archive's digest and the classes asked of it, and read back
        on a later pass.

        detect_fragments confirms or discards every rule and detect_segments
        makes each a candidate again, so a stored rule that is not a
        candidate shows that the fragments are current.
        """
        if all(rule.status == "candidate" for rule in self.store.rules()):
            raise StageDataError(
                "no confirmed or discarded rules; run the pipeline through detect-fragments first"
            )
        by_rule: dict[tuple[LibraryId, LibraryId], list[tuple[int, MethodMapping]]] = {}
        for mapping_id, mapping in self.store.mappings():
            by_rule.setdefault((mapping.source, mapping.target), []).append((mapping_id, mapping))
        # the coordinates each rule's sides look in: their versions in segment order
        lookups: dict[tuple[LibraryId, LibraryId], dict[LibraryCoordinate, None]] = {}
        for segment in self.store.segments():
            coordinates = lookups.setdefault((segment.source, segment.target), {})
            for library, version in (
                (segment.source, segment.source_version), (segment.target, segment.target_version)
            ):
                if version != UNRESOLVED:
                    coordinates[LibraryCoordinate(*library, version)] = None
        classes: dict[LibraryCoordinate, set[str]] = {}
        for (source, target), group in by_rule.items():
            wanted = {
                source: {cls for _, m in group for cls, _, _ in m.source_methods},
                target: {cls for _, m in group for cls, _, _ in m.target_methods},
            }
            for coordinate in lookups.get((source, target), ()):
                classes.setdefault(coordinate, set()).update(wanted[coordinate.identity])
        archives = self.fetcher.fetch_many((c, "documentation") for c in classes)
        keys = {
            coordinate: docs_key(data, classes[coordinate])
            for (coordinate, _), data in archives.items()
            if data is not None
        }
        stored = self.store.archive_docs(set(keys.values()))
        docs_by: dict[LibraryCoordinate, list[MethodDoc]] = {}
        parsed: dict[LibraryCoordinate, list[MethodDoc]] = {}  # what this pass parsed
        for coordinate, key in keys.items():
            if key in stored:
                docs_by[coordinate] = decode_docs(stored[key], coordinate)
                continue
            try:
                docs_by[coordinate] = parsed[coordinate] = parse_doc_archive(
                    archives[coordinate, "documentation"], coordinate, classes[coordinate]
                )
            except DocError as exc:
                log.warning("event=doc_archive_error library=%s error=%s", coordinate, exc)
        rows = []  # (mapping id, side, attachment)
        for rule, group in by_rule.items():
            docs = [doc for c in lookups.get(rule, ()) for doc in docs_by.get(c, [])]
            results = attach_docs([mapping for _, mapping in group], docs)
            for (mapping_id, _), (_, source_docs, target_docs) in zip(group, results):
                rows += [(mapping_id, "source", attachment) for attachment in source_docs]
                rows += [(mapping_id, "target", attachment) for attachment in target_docs]
        self.store.clear_docs()
        # the cache keeps exactly the archives this pass used
        self.store.keep_archive_docs(stored)
        # encoded one archive at a time, as the insert asks for each row
        self.store.insert_archive_docs(
            (key, encode_docs(parsed[c])) for key, c in {keys[c]: c for c in parsed}.items()
        )
        self.store.insert_doc_attachments(rows)
        attached = sum(attachment.found for _, _, attachment in rows)
        missing = len(rows) - attached
        ambiguous = sum(attachment.ambiguous for _, _, attachment in rows)
        log.info(
            "event=docs_collected archives=%d pages=%d methods_parsed=%d "
            "attached=%d missing=%d ambiguous=%d archives_loaded=%d",
            len(parsed),
            # looked-up class pages that documented at least one method
            sum(len({(d.package, d.class_name) for d in docs}) for docs in parsed.values()),
            sum(map(len, parsed.values())),
            attached, missing, ambiguous,
            sum(key in stored for key in keys.values()),
        )
        return attached, missing

    def export_reports(self) -> list[Path]:
        """Write every selector's report in each format; logs their count,
        total size and wall time."""
        start = time.perf_counter()
        outdir = self.config.report_path
        outdir.mkdir(parents=True, exist_ok=True)
        paths = [
            path
            for selector in EXPORT_SELECTORS
            for path in write_reports(self.store, selector, outdir)
        ]
        log.info(
            "event=reports_written reports=%d bytes=%d seconds=%.3f",
            len(paths), sum(path.stat().st_size for path in paths),
            time.perf_counter() - start,
        )
        return paths


def run_all(store: Store, config: RunConfig) -> tuple[int, dict[str, int]]:
    """Full pipeline; exit status 0, or 2 when some projects failed."""
    store.set_meta("tool_version", __version__)
    store.set_meta("run_started_at", datetime.now(timezone.utc).isoformat())
    pipeline = Pipeline(store, config)
    for name in STAGES:
        getattr(pipeline, name)()
    pipeline.export_reports()
    store.set_meta("run_finished_at", datetime.now(timezone.utc).isoformat())
    summary = store.counts()
    log.info(
        "event=summary %s",
        " ".join(f"{key}={value}" for key, value in sorted(summary.items())),
    )
    return (2 if pipeline.project_errors else 0), summary
