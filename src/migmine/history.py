"""Cached per-project view of a repository's history.

Holds the raw changes of one history read and, on first use, resolves
every commit's `pom.xml` and `.java` changes through one blob reader that
streams the history one object at a time.  Caches per-blob facts, the
replayed manifest timeline and the map of declared libraries, so segment
and fragment detection never analyze the same blob twice.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

from . import gitrepo, javafacts
from .manifest import ManifestParseError, diff_dependencies, parse_manifest
from .model import (
    UNRESOLVED,
    CommitRecord,
    DependencyChange,
    FileChange,
    LibraryCoordinate,
    LibraryId,
    PackageIndex,
    ProjectRef,
    SourceFacts,
)

log = logging.getLogger(__name__)


def _touches_pom(*paths: str | None) -> bool:
    return any(p and p.rsplit("/", 1)[-1] == "pom.xml" for p in paths)


def _touches_java(*paths: str | None) -> bool:
    return any(p and p.endswith(".java") for p in paths)


class CommitChanges(NamedTuple):
    """A commit's manifest and source file changes; renames count by either path."""

    pom: list[FileChange]
    java: list[FileChange]


class ProjectHistory:
    def __init__(
        self,
        ref: ProjectRef,
        commits: list[CommitRecord],
        raw_changes: dict[str, list[gitrepo.RawChange]] | None = None,
    ):
        """Without `raw_changes` (a history loaded from the store), they are
        read on first use from the history ending at the last commit."""
        self.ref = ref
        self.commits = commits
        self.by_commit = {c.commit_id: c for c in commits}
        self._raw_changes = raw_changes
        self._file_changes: dict[str, CommitChanges] | None = None
        self._facts: dict[str, SourceFacts] = {}
        self._uses: dict[tuple, list] = {}
        self._timeline: list[dict[LibraryId, LibraryCoordinate]] | None = None
        self._changes: list[DependencyChange] | None = None
        self._declared: dict[LibraryId, LibraryCoordinate] | None = None
        self._dep_flags: dict[tuple, list[bool]] = {}

    def changes(self, commit_id: str) -> CommitChanges:
        """The commit's pom.xml and .java changes against its first parent.

        The first call resolves every commit of the history through one blob
        reader: each caller walks the whole history anyway.
        """
        if self._file_changes is None:
            selected = {
                cid: [
                    e for e in entries
                    if _touches_pom(e.old_path, e.new_path) or _touches_java(e.old_path, e.new_path)
                ]
                for cid, entries in self._read_raw_changes().items()
            }
            self._file_changes = {
                cid: CommitChanges(
                    [fc for fc in files if _touches_pom(fc.path, fc.old_path)],
                    [fc for fc in files if _touches_java(fc.path, fc.old_path)],
                )
                for cid, files in gitrepo.changed_files(self.ref, selected).items()
            }
        if commit_id not in self._file_changes:
            raise gitrepo.UnknownCommitError(
                f"commit {commit_id} is not in the first-parent history of {self.ref.id}"
            )
        return self._file_changes[commit_id]

    def _read_raw_changes(self) -> dict[str, list[gitrepo.RawChange]]:
        if self._raw_changes is not None:
            return self._raw_changes
        tip = self.commits[-1].commit_id
        try:
            return gitrepo.read_history(self.ref, tip)[1]
        except gitrepo.GitError as exc:
            raise gitrepo.UnknownCommitError(
                f"cannot read {self.ref.id} history up to {tip}: {exc}"
            ) from exc

    def facts_for(self, sha: str | None, text: str, path: str) -> SourceFacts:
        if sha is None:
            return javafacts.extract_facts(text, path)
        if sha not in self._facts:
            self._facts[sha] = javafacts.extract_facts(text, path)
        return self._facts[sha]

    @staticmethod
    def _index_key(index: PackageIndex):
        return (index.library.identity, index.prefix_mode)

    def uses_for(self, sha: str | None, text: str, path: str, index: PackageIndex):
        key = (sha, self._index_key(index))
        if sha is None or key not in self._uses:
            uses = javafacts.resolve_usages(self.facts_for(sha, text, path), index)
            if sha is None:
                return uses
            self._uses[key] = uses
        return self._uses[key]

    # -- manifest timeline ---------------------------------------------------

    def _replay_manifests(self) -> None:
        per_path: dict[str, list[LibraryCoordinate]] = {}
        timeline: list[dict[LibraryId, LibraryCoordinate]] = []
        changes: list[DependencyChange] = []
        prev_declared: dict[LibraryId, LibraryCoordinate] = {}
        for commit in self.commits:
            for fc in self.changes(commit.commit_id).pom:
                if fc.kind == "deleted":
                    per_path.pop(fc.path, None)
                    continue
                if fc.kind == "renamed" and fc.old_path:
                    per_path.pop(fc.old_path, None)
                try:
                    per_path[fc.path] = parse_manifest(fc.after or "")
                except ManifestParseError as exc:
                    log.warning(
                        "event=manifest_parse_error project=%s commit=%s path=%s error=%s",
                        self.ref.id, commit.commit_id[:12], fc.path, exc,
                    )
                    per_path[fc.path] = []
            declared: dict[LibraryId, LibraryCoordinate] = {}
            for path in sorted(per_path):
                for coord in per_path[path]:
                    declared.setdefault(coord.identity, coord)
            timeline.append(declared)
            changes.append(
                diff_dependencies(
                    list(prev_declared.values()),
                    list(declared.values()),
                    project=self.ref.id,
                    commit=commit.commit_id,
                )
            )
            prev_declared = declared
        self._timeline = timeline
        self._changes = changes

    def dependency_timeline(self) -> list[dict[LibraryId, LibraryCoordinate]]:
        """Declared dependencies after each commit, identity -> coordinate."""
        if self._timeline is None:
            self._replay_manifests()
        return self._timeline

    def dependency_changes(self) -> list[DependencyChange]:
        """Per-commit added/removed sets, aligned with self.commits."""
        if self._changes is None:
            self._replay_manifests()
        return self._changes

    def declared_libraries(self) -> dict[LibraryId, LibraryCoordinate]:
        """Every library the manifests ever declare -> its latest resolved
        coordinate, or its unresolved one when no declaration names a version.

        A library is in some added or removed set of `dependency_changes`
        exactly when it is in this map.
        """
        if self._declared is None:
            declared: dict[LibraryId, LibraryCoordinate] = {}
            for snapshot in self.dependency_timeline():
                for identity, coord in snapshot.items():
                    if coord.version != UNRESOLVED or identity not in declared:
                        declared[identity] = coord
            self._declared = declared
        return self._declared

    # -- source dependency tracking -------------------------------------------

    def source_dependency_flags(
        self, index: PackageIndex, imports_count_as_use: bool = True
    ) -> list[bool]:
        """Per commit: does any file present at that commit depend on the library.

        Replays java file changes once, evaluating only changed blobs; files
        deleted at a commit stop counting from that commit on.
        """
        key = (self._index_key(index), imports_count_as_use)
        if key in self._dep_flags:
            return self._dep_flags[key]
        dependent: set[str] = set()
        flags = []
        for commit in self.commits:
            for fc in self.changes(commit.commit_id).java:
                if fc.kind == "deleted":
                    dependent.discard(fc.path)
                    continue
                if fc.kind == "renamed" and fc.old_path:
                    dependent.discard(fc.old_path)
                if fc.after is not None and javafacts.facts_depend_on(
                    self.facts_for(fc.after_sha, fc.after, fc.path),
                    index,
                    imports_count_as_use,
                ):
                    dependent.add(fc.path)
                else:
                    dependent.discard(fc.path)
            flags.append(bool(dependent))
        self._dep_flags[key] = flags
        return flags
