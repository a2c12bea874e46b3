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
answers needs no git process in that stage.  Ingest reads, in its worker
pool, every text of a blob the store holds no answer for (`read_texts`),
and its history keeps them for the later stages of the run.  Caches
the replayed manifest timeline and the map of declared libraries, so
segment and fragment detection never replay them twice.

The segment and fragment stages ask two things of a blob for a library:
its method uses, and whether it depends on the library.  Both follow
from one library answer (`model.LibraryAnswer`: the uses, and whether an
import names the library), kept under the index's `answer_key` and
stored, so a re-run tokenizes and resolves nothing.  A blob holding
nothing of the library answers "".  On a miss, a text already in memory
is screened first: one whose text contains none of the library's class
simple names, and not every segment of any of its packages
(`javafacts.may_reference`), holds nothing of it and is not tokenized
for it.  Facts this pipeline already tokenized need no screen: it cannot
change what they resolve to.  Only then is the text read from git and
screened, and facts that pass are resolved once.  A binary blob, once
read, holds nothing of any library, and that answer is kept like any
other.  With each pom.xml version's parse result and each diff's hunks
stored too (see below), a re-run reads no blob.

Every answer derived from one blob (a library answer, a pom.xml
version's parse result, the hunks of a diff that ends at it) comes from
a `FactsCache` that every history of a pipeline shares: memory first,
then the store's `blob_answers` table (each kind of question in one query
of its own), and only then the resolver, `parse_manifest` or the
caller's diff; a stage stores what it reached with `FactsCache.save`.  A
blob's facts, which only a new question needs, are kept in that memory
and never stored, so a blob is tokenized at most once per pipeline, not
once per history or per library.  A diff is asked by its after blob,
under a question that names the context and the before blob, and is
held encoded (`fragments.encode_hunks`), so the cache keeps no `Hunk`; it
is kept only when the repository has both blobs (`ProjectHistory.has`).

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
from collections import Counter
from collections.abc import Callable, Container
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
    LibraryAnswer,
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


_encode_json = json.JSONEncoder(separators=(",", ":")).encode


class FactsCache:
    """Answers about blobs by blob id (library answers, pom.xml parse
    results and diffs): in memory, then stored, then computed; and each
    blob's facts, in memory only.

    Without a store it is a memory cache.  With one, the stored answers of
    each kind (a question's first word: `uses`, `manifest`, `diff`) are
    read in one query at the first question of that kind, so a stage
    holds only the kinds it asks; each is decoded when first asked for, a
    diff at each question, as it is kept encoded.  `loaded` counts the
    answers read from the store, by kind.  `save` stores, in one insert,
    every answer reached since the last save, encoding each only then.
    """

    def __init__(self, store: Store | None = None):
        self._store = store
        # (blob id, question) -> library answer, parse result or encoded diff
        self._answers: dict[tuple[str, str], object] = {}
        # stored answers not asked for yet: kind -> (blob id, question) -> encoded answer
        self._stored: dict[str, dict[tuple[str, str], str]] = {}
        # (blob id, question, encoder) of each answer kept since the last save
        self._unsaved: list[tuple[str, str, Callable[[object], str]]] = []
        self._facts: dict[str, SourceFacts] = {}
        self.tokenized = 0
        self.loaded: Counter[str] = Counter()

    def _answer(self, sha: str | None, question: str, decode):
        """The answer known in memory or stored, or None."""
        key = (sha, question)
        answer = self._answers.get(key)
        if answer is None and self._store is not None:
            kind = question.partition(" ")[0]
            stored = self._stored.get(kind)
            if stored is None:
                stored = self._stored[kind] = self._store.blob_answers(kind)
            encoded = stored.pop(key, None)
            if encoded is not None:
                answer = self._answers[key] = decode(encoded)
                self.loaded[kind] += 1
        return answer

    def _keep(self, sha: str, question: str, answer, encode: Callable[[object], str]) -> None:
        """Keep an answer that `_answer` did not know yet."""
        self._answers[sha, question] = answer
        self._unsaved.append((sha, question, encode))

    def get(self, sha: str, text: str) -> SourceFacts:
        facts = self._facts.get(sha)
        if facts is None:
            facts = self._facts[sha] = javafacts.extract_facts(text)
            self.tokenized += 1
        return facts

    def known(self, sha: str) -> SourceFacts | None:
        """The blob's facts if this cache tokenized it, or None."""
        return self._facts.get(sha)

    def library_answer(self, sha: str, key: str) -> LibraryAnswer | None:
        """What the blob holds of the library whose index has the answer
        key `key`; None when neither memory nor the store knows it."""
        return self._answer(sha, key, javafacts.decode_answer)

    def keep_library_answer(self, sha: str, key: str, answer: LibraryAnswer) -> None:
        """Keep a library answer that `library_answer` did not know yet."""
        self._keep(sha, key, answer, javafacts.encode_answer)

    def manifest(self, sha: str | None) -> list[LibraryCoordinate] | str | None:
        """A pom.xml blob's coordinates, or the message of the error its
        parse raised; None when neither memory nor the store knows it."""
        return self._answer(sha, "manifest", _decode_manifest)

    def keep_manifest(self, sha: str, manifest: list[LibraryCoordinate] | str) -> None:
        """Keep a parse result that `manifest` did not know yet."""
        self._keep(sha, "manifest", manifest, _encode_json)

    def hunks(self, fc: FileChange, context: int) -> list[Hunk] | None:
        """The change's diff at `context` lines, as hunks of its path; None
        when neither memory nor the store knows it."""
        encoded = self._answer(fc.after_sha, _diff_question(fc, context), str)
        return None if encoded is None else decode_hunks(encoded, fc.path)

    def keep_hunks(self, fc: FileChange, context: int, hunks: list[Hunk]) -> None:
        """Keep, encoded, a diff that `hunks` did not know yet."""
        self._keep(fc.after_sha, _diff_question(fc, context), encode_hunks(hunks), str)

    def save(self) -> None:
        if self._store is not None and self._unsaved:
            self._store.insert_blob_answers(
                (sha, question, encode(self._answers[sha, question]))
                for sha, question, encode in self._unsaved
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
        self._timeline: list[dict[LibraryId, LibraryCoordinate]] | None = None
        self._changes: list[DependencyChange] | None = None
        self._declared: dict[LibraryId, LibraryCoordinate] | None = None
        # per commit: each path its java changes touch -> the change whose
        # version the path held before the commit (None: absent)
        self._replaced: list[dict[str, FileChange | None]] | None = None
        self._tip_files: dict[str, FileChange] = {}

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

    def read_texts(self, skip: Container[str] = frozenset()) -> None:
        """Read the text of every version the changes name but the blobs of
        `skip`, as ingest does, so that no later stage of the run reads
        one."""
        for files in self.file_changes.values():
            for fc in files:
                for sha in (fc.before_sha, fc.after_sha):
                    if sha not in skip:
                        self.text(sha)

    @property
    def blobs_read(self) -> int:
        """The objects read from git since the last `close`."""
        return self._reader.objects_read

    def close(self) -> None:
        """End the blob reader's process; a later read starts another."""
        self._reader.close()

    def facts_for(self, sha: str, text: str) -> SourceFacts:
        return self._facts.get(sha, text)

    def _library_answer(self, sha: str, index: PackageIndex) -> LibraryAnswer:
        """What the blob holds of the index's library.

        Asks, in turn: the answer under the index's `answer_key`, from
        memory or the store; and on a miss, the blob's text when it is in
        memory, screened, so that a "no" needs no facts; facts already
        tokenized, which need no screen, by `javafacts.may_reference`'s
        contract; and only then the text, read from git and screened.
        Facts are resolved once, and the answer kept.  A binary blob holds
        nothing, kept so that no later run reads it; a missing one gets an
        answer that holds nothing, not kept, so the next history asks git
        again.
        """
        key = index.answer_key
        answer = self._facts.library_answer(sha, key)
        if answer is not None:
            return answer
        facts = None
        text = self._texts.get(sha, _UNREAD)
        if text is _UNREAD:
            facts = self._facts.known(sha)
            if facts is None:
                text = self.text(sha)
        if text is None and sha not in self._binary:
            return LibraryAnswer([], False)
        if facts is None and text is not None and javafacts.may_reference(text, index):
            facts = self.facts_for(sha, text)
        if facts is None:
            answer = LibraryAnswer([], False)
        else:
            answer = LibraryAnswer(
                javafacts.resolve_usages(facts, index), javafacts.imports_name(facts, index)
            )
        self._facts.keep_library_answer(sha, key, answer)
        return answer

    def uses_for(self, sha: str | None, index: PackageIndex) -> list[LibraryMethodUse]:
        """The library's method uses in one blob; none in an absent version
        (`sha` None) or a missing blob."""
        return [] if sha is None else self._library_answer(sha, index).uses

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
        """Whether the version `fc` leaves at its path depends on the library,
        as `javafacts.facts_depend_on` judges its facts."""
        if fc is None or fc.after_sha is None:
            return False
        uses, imports = self._library_answer(fc.after_sha, index)
        return bool(uses) or (imports_count_as_use and imports)

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
