"""Cached per-project view of a repository's history.

Holds each commit's `pom.xml` and `.java` changes (`gitrepo.changed_files`
picks them from ingest's history read; later stages read them back from
the store).  A file change names its two versions by blob id; a text is
read when first asked for, through one blob reader per history that
starts at its first read and first checks that the repository still has
the last commit.  A blob that holds a NUL byte is binary and, like a
missing one, reads as no text, so it has no uses, and a binary pom.xml
declares nothing.  The pipeline closes a history's reader when the stage
is done with that project, so a stored history starts at most one reader
per stage, and only when it reads a blob: a stage checks a project's
repository only then, so a project whose every question the store
answers needs no git process in that stage.  Ingest reads every text
(`read_texts`) in its worker pool, and its history keeps them for the
later stages of the run.  Caches the
replayed manifest timeline, the map of declared libraries and per-blob
uses, so segment and fragment detection never analyze the same blob
twice.

A blob whose text contains none of a library's class simple names, and
not every segment of any of its packages (`javafacts.may_reference`),
counts as not using that library and is not tokenized for it.  That "no"
is a screen verdict, kept under the index's `screen_key` and stored, so a
re-run answers it without reading the blob.  A blob whose facts are
already known needs no screen: it cannot change what they resolve to.  A
binary blob, once read, is given the facts of an empty text, which are
kept like any others.  With each pom.xml version's parse result and each
diff's hunks stored too (see below), a re-run reads no blob.

Every answer derived from one blob (its facts, a screen's verdict, a
pom.xml version's parse result, the hunks of a diff that ends at it)
comes from a `FactsCache` that every history of a pipeline shares: memory
first, then the store's `blob_answers` table (the diffs in one query, the
rest in another), and only then the tokenizer, the screen,
`parse_manifest` or the caller's diff.  So a blob is tokenized once per database, not once per history or
per process; a stage stores what it reached with `FactsCache.save`.  A
diff is asked by its after blob, under a question that names the context
and the before blob, and is held encoded (`fragments.encode_hunks`), so
the cache keeps no `Hunk`; it is kept only when the repository has both
blobs (`ProjectHistory.has`).

The manifest replay builds only the timeline of declared dependencies;
the per-commit added and removed sets (`dependency_changes`), which only
ingest stores, are computed from it when first asked for.  It takes each
pom.xml version's coordinates, or its parse error, by blob id from the
`FactsCache`.  A stored error is logged as a fresh one would be.  A parse
result is kept for a binary blob too, as its id fixes its bytes, but not
for one the repository lacks, which the next history reads again.

The last commit whose sources depend on a library is found by walking
back from an upper bound `hi`: the java changes are recorded once per
history (which version each commit replaced at each path, no blob
analyzed), the files present at `hi` are judged, and then, commit by
commit, only the versions each commit replaced.  The walk stops at the
first commit with a dependent file, so versions superseded before that
commit, and versions written after `hi`, are never judged.
"""

from __future__ import annotations

import json
import logging
from typing import NamedTuple

from . import gitrepo, javafacts
from .fragments import decode_hunks, encode_hunks
from .manifest import ManifestParseError, diff_dependencies, parse_manifest
from .model import (
    UNRESOLVED,
    CommitRecord,
    DependencyChange,
    FileChange,
    Hunk,
    LibraryCoordinate,
    LibraryId,
    LibraryMethodUse,
    PackageIndex,
    ProjectRef,
    SourceFacts,
)
from .store import Store

log = logging.getLogger(__name__)


class CommitChanges(NamedTuple):
    """A commit's manifest and source file changes, by their path."""

    pom: list[FileChange]
    java: list[FileChange]


def _decode_manifest(encoded: str) -> list[LibraryCoordinate] | str:
    manifest = json.loads(encoded)
    return manifest if isinstance(manifest, str) else [LibraryCoordinate(*c) for c in manifest]


def _diff_question(fc: FileChange, context: int) -> str:
    """The question that asks a change's after blob for the change's diff."""
    return f"diff {context} {fc.before_sha}"


# how each question's answer is stored; a screen's "no" is "" in memory too
_ENCODERS = {
    "facts": javafacts.encode_facts,
    "manifest": json.JSONEncoder(separators=(",", ":")).encode,
}


class FactsCache:
    """Answers about blobs by blob id (facts, screen verdicts, pom.xml
    parse results and diffs): in memory, then stored, then computed.

    Without a store it is a memory cache.  With one, the stored diffs are
    read in one query at the first diff question and every other stored
    answer in one query at the first other question, so a stage that asks
    no diff holds none; each is decoded when first asked for.  A verdict is a "no" of `javafacts.may_reference`, asked
    under the index's screen key.  A diff is kept encoded and decoded at
    each question.  `save` stores, in one insert, every answer reached
    since the last save, encoding each only then.
    """

    def __init__(self, store: Store | None = None):
        self._store = store
        # (blob id, question) -> facts, parse result, or "" for a verdict
        self._answers: dict[tuple[str, str], object] = {}
        # stored answers not asked for yet, read at the first question of
        # their kind: is_diff -> (blob id, question) -> encoded answer
        self._stored: dict[bool, dict[tuple[str, str], str]] = {}
        self._unsaved: list[tuple[str, str]] = []
        self.tokenized = 0
        self.loaded = 0
        self.diffs_loaded = 0
        self.screens_hit = 0

    def _answer(self, sha: str | None, question: str, decode):
        """The answer known in memory or stored, or None."""
        key = (sha, question)
        answer = self._answers.get(key)
        if answer is None:
            diff = question.startswith("diff ")
            stored = self._stored.get(diff)
            if stored is None:
                stored = self._stored[diff] = (
                    self._store.blob_answers(diffs=diff) if self._store is not None else {}
                )
            encoded = stored.pop(key, None)
            if encoded is not None:
                answer = self._answers[key] = decode(encoded)
                self.loaded += question == "facts"
                self.diffs_loaded += diff
        return answer

    def _keep(self, sha: str, question: str, answer) -> None:
        """Keep an answer that `_answer` did not know yet."""
        self._answers[sha, question] = answer
        self._unsaved.append((sha, question))

    def get(self, sha: str, text: str) -> SourceFacts:
        facts = self.known(sha)
        if facts is None:
            facts = javafacts.extract_facts(text)
            self._keep(sha, "facts", facts)
            self.tokenized += 1
        return facts

    def known(self, sha: str) -> SourceFacts | None:
        """The blob's facts from memory or the store, or None."""
        return self._answer(sha, "facts", javafacts.decode_facts)

    def rejected(self, sha: str, screen: str) -> bool:
        """Whether the screen `screen` is known to reject the blob."""
        if self._answer(sha, screen, str) is None:
            return False
        self.screens_hit += 1
        return True

    def reject(self, sha: str, screen: str) -> None:
        """Keep a "no" that `rejected` did not know yet."""
        self._keep(sha, screen, "")

    def manifest(self, sha: str | None) -> list[LibraryCoordinate] | str | None:
        """A pom.xml blob's coordinates, or the message of the error its
        parse raised; None when neither memory nor the store knows it."""
        return self._answer(sha, "manifest", _decode_manifest)

    def keep_manifest(self, sha: str, manifest: list[LibraryCoordinate] | str) -> None:
        """Keep a parse result that `manifest` did not know yet."""
        self._keep(sha, "manifest", manifest)

    def hunks(self, fc: FileChange, context: int) -> list[Hunk] | None:
        """The change's diff at `context` lines, as hunks of its path; None
        when neither memory nor the store knows it."""
        encoded = self._answer(fc.after_sha, _diff_question(fc, context), str)
        return None if encoded is None else decode_hunks(encoded, fc.path)

    def keep_hunks(self, fc: FileChange, context: int, hunks: list[Hunk]) -> None:
        """Keep, encoded, a diff that `hunks` did not know yet."""
        self._keep(fc.after_sha, _diff_question(fc, context), encode_hunks(hunks))

    def save(self) -> None:
        if self._store is not None and self._unsaved:
            self._store.insert_blob_answers(
                (sha, question, _ENCODERS.get(question, str)(self._answers[sha, question]))
                for sha, question in self._unsaved
            )
        self._unsaved.clear()


# a blob text not read yet
_UNREAD = object()


class ProjectHistory:
    def __init__(
        self,
        ref: ProjectRef,
        commits: list[CommitRecord],
        file_changes: dict[str, list[FileChange]],
        facts: FactsCache | None = None,
    ):
        """`file_changes` maps each commit id, in history order, to its
        pom.xml and .java changes (`gitrepo.changed_files`).  Without
        `facts`, the history keeps its own memory cache."""
        self.ref = ref
        self.commits = commits
        self.by_commit = {c.commit_id: c for c in commits}
        self.file_changes = file_changes
        self._split: dict[str, CommitChanges] | None = None
        self._texts: dict[str, str | None] = {}
        self._binary: set[str] = set()  # blobs read that held a NUL byte
        self._reader = gitrepo.BlobReader(ref, tip=commits[-1].commit_id if commits else None)
        self._facts = facts if facts is not None else FactsCache()
        self._uses: dict[tuple, list[LibraryMethodUse]] = {}
        self._timeline: list[dict[LibraryId, LibraryCoordinate]] | None = None
        self._changes: list[DependencyChange] | None = None
        self._declared: dict[LibraryId, LibraryCoordinate] | None = None
        # per commit: each path its java changes touch -> the change whose
        # version the path held before the commit (None: absent)
        self._replaced: list[dict[str, FileChange | None]] | None = None
        self._tip_files: dict[str, FileChange] = {}
        self._depends: dict[tuple, bool] = {}

    def changes(self, commit_id: str) -> CommitChanges:
        """The commit's pom.xml and .java changes against its first parent."""
        if self._split is None:
            self._split = {
                cid: CommitChanges(
                    [fc for fc in files if gitrepo.is_pom(fc.path)],
                    [fc for fc in files if gitrepo.is_java(fc.path)],
                )
                for cid, files in self.file_changes.items()
            }
        if commit_id not in self._split:
            raise gitrepo.UnknownCommitError(
                f"commit {commit_id} is not in the first-parent history of {self.ref.id}"
            )
        return self._split[commit_id]

    def text(self, sha: str | None) -> str | None:
        """A blob's text; None for no blob, one the repository lacks, or a
        binary one (a NUL byte in its bytes).

        A text not read yet is read through the history's one `BlobReader`,
        which first checks that the repository still has the last commit.
        """
        if sha is None:
            return None
        text = self._texts.get(sha, _UNREAD)
        if text is _UNREAD:
            raw = self._reader.read(sha)
            if raw is not None and b"\0" in raw:
                self._binary.add(sha)
                raw = None
            text = self._texts[sha] = None if raw is None else raw.decode("utf-8", "replace")
        return text

    def has(self, sha: str | None) -> bool:
        """Whether the repository holds the blob, binary or not."""
        return self.text(sha) is not None or sha in self._binary

    def read_texts(self) -> None:
        """Read the text of every version the changes name, as ingest does,
        so that no later stage of the run reads one."""
        for files in self.file_changes.values():
            for fc in files:
                self.text(fc.before_sha)
                self.text(fc.after_sha)

    @property
    def blobs_read(self) -> int:
        """The objects read from git since the last `close`."""
        return self._reader.objects_read

    def close(self) -> None:
        """End the blob reader's process; a later read starts another."""
        self._reader.close()

    def facts_for(self, sha: str, text: str) -> SourceFacts:
        return self._facts.get(sha, text)

    @staticmethod
    def _index_key(index: PackageIndex):
        return (index.library.identity, index.prefix_mode)

    def _screened_facts(self, sha: str, index: PackageIndex) -> SourceFacts | None:
        """The blob's facts, or None when none of them can reference the
        library.

        Asks, in turn: a verdict of the index's screen, from memory or the
        store; the blob's text, when it is in memory, screened and any "no"
        kept; facts already known, whose uses need no screen, by
        `javafacts.may_reference`'s contract; and only then the text, read
        from git and screened.  A binary blob gets the facts of no text,
        kept so that no later run reads it; a missing one gets None and is
        asked of git again by the next history.
        """
        screen = index.screen_key
        if self._facts.rejected(sha, screen):
            return None
        text = self._texts.get(sha, _UNREAD)
        if text is _UNREAD:
            facts = self._facts.known(sha)
            if facts is not None:
                return facts
            text = self.text(sha)
        if text is None:
            return self.facts_for(sha, "") if sha in self._binary else None
        if not javafacts.may_reference(text, index):
            self._facts.reject(sha, screen)
            return None
        return self.facts_for(sha, text)

    def uses_for(self, sha: str | None, index: PackageIndex) -> list[LibraryMethodUse]:
        """The library's method uses in one blob; none in an absent version
        (`sha` None) or a missing blob."""
        if sha is None:
            return []
        key = (sha, self._index_key(index))
        if key not in self._uses:
            facts = self._screened_facts(sha, index)
            self._uses[key] = [] if facts is None else javafacts.resolve_usages(facts, index)
        return self._uses[key]

    # -- manifest timeline ---------------------------------------------------

    def _manifest(self, sha: str | None) -> list[LibraryCoordinate] | str:
        """The coordinates a pom.xml version declares, or the message of the
        error its parse raised: known by blob id, or parsed from its text
        and kept, unless the repository lacks the blob."""
        manifest = self._facts.manifest(sha)
        if manifest is None:
            text = self.text(sha)
            try:
                manifest = parse_manifest(text or "")
            except ManifestParseError as exc:
                manifest = str(exc)
            if self.has(sha):
                self._facts.keep_manifest(sha, manifest)
        return manifest

    def _replay_manifests(self) -> None:
        per_path: dict[str, list[LibraryCoordinate]] = {}
        timeline: list[dict[LibraryId, LibraryCoordinate]] = []
        for commit in self.commits:
            for fc in self.changes(commit.commit_id).pom:
                if fc.kind == "deleted":
                    per_path.pop(fc.path, None)
                    continue
                if fc.kind == "renamed" and fc.old_path:
                    per_path.pop(fc.old_path, None)
                manifest = self._manifest(fc.after_sha)
                if isinstance(manifest, str):
                    log.warning(
                        "event=manifest_parse_error project=%s commit=%s path=%s error=%s",
                        self.ref.id, commit.commit_id[:12], fc.path, manifest,
                    )
                    manifest = []
                per_path[fc.path] = manifest
            declared: dict[LibraryId, LibraryCoordinate] = {}
            for path in sorted(per_path):
                for coord in per_path[path]:
                    declared.setdefault(coord.identity, coord)
            timeline.append(declared)
        self._timeline = timeline

    def dependency_timeline(self) -> list[dict[LibraryId, LibraryCoordinate]]:
        """Declared dependencies after each commit, identity -> coordinate."""
        if self._timeline is None:
            self._replay_manifests()
        return self._timeline

    def dependency_changes(self) -> list[DependencyChange]:
        """Per-commit added/removed sets, aligned with self.commits."""
        if self._changes is None:
            changes = []
            before: dict[LibraryId, LibraryCoordinate] = {}
            for commit, declared in zip(self.commits, self.dependency_timeline()):
                changes.append(
                    diff_dependencies(
                        list(before.values()),
                        list(declared.values()),
                        project=self.ref.id,
                        commit=commit.commit_id,
                    )
                )
                before = declared
            self._changes = changes
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

    def _record_replaced(self) -> None:
        files: dict[str, FileChange] = {}
        replaced: list[dict[str, FileChange | None]] = []
        for commit in self.commits:
            held: dict[str, FileChange | None] = {}
            for fc in self.changes(commit.commit_id).java:
                gone = fc.old_path if fc.kind == "renamed" else None
                for path in (gone, fc.path):
                    if path:
                        held.setdefault(path, files.get(path))
                if gone:
                    files.pop(gone, None)
                if fc.kind == "deleted":
                    files.pop(fc.path, None)
                else:
                    files[fc.path] = fc
            replaced.append(held)
        self._replaced = replaced
        self._tip_files = files

    def _depends_on(
        self, fc: FileChange | None, index: PackageIndex, imports_count_as_use: bool
    ) -> bool:
        """Whether the version `fc` leaves at its path depends on the library;
        judged once per blob id."""
        if fc is None or fc.after_sha is None:
            return False
        key = (fc.after_sha, self._index_key(index), imports_count_as_use)
        if key not in self._depends:
            facts = self._screened_facts(fc.after_sha, index)
            self._depends[key] = facts is not None and javafacts.facts_depend_on(
                facts, index, imports_count_as_use
            )
        return self._depends[key]

    def last_dependent_commit(
        self, index: PackageIndex, hi: int, imports_count_as_use: bool = True
    ) -> int | None:
        """Latest ordinal <= hi after which some file present depends on the
        library, or None when no commit up to hi has such a file.

        Undoes the recorded java changes from the tip down to hi and counts
        the dependent files present there.  While that count is zero, every
        file present at a commit is free of the library, so the count one
        commit earlier is that of the versions the commit replaced: the walk
        judges those and nothing else.
        """
        if self._replaced is None:
            self._record_replaced()
        files = dict(self._tip_files)
        for ordinal in range(len(self.commits) - 1, hi, -1):
            for path, before in self._replaced[ordinal].items():
                if before is None:
                    files.pop(path, None)
                else:
                    files[path] = before
        count = sum(self._depends_on(fc, index, imports_count_as_use) for fc in files.values())
        for ordinal in range(hi, -1, -1):
            if count:
                return ordinal
            count = sum(
                self._depends_on(before, index, imports_count_as_use)
                for before in self._replaced[ordinal].values()
            )
        return None
