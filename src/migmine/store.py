"""SQLite-backed system of record between pipeline stages.

The schema and the export formats are the contract; the engine is an
implementation detail.  `reports` renders the exports from the readers
here.

Transaction policy: each pipeline stage runs its writes in one
`Store.transaction()`, so a stage commits once, and a stage that raises
rolls back and leaves the store as it was before the stage.  A write made
outside any transaction (a test, `report`) commits on its own.

Journal: the database keeps a write-ahead log (`PRAGMA journal_mode =
WAL`), so a commit appends the stage's pages to `migmine.db-wal` and
fsyncs that one file, where a rollback journal syncs a journal and the
database.  `synchronous` stays FULL: every commit is on disk when it
returns, as before; NORMAL would save the fsync and could lose the last
stages on power loss.  While a database is open, `migmine.db-wal` and
`migmine.db-shm` (the log's index) sit beside it; the last connection to
close folds the log into the database and removes both.  So even a reader
needs write access to the database's directory.

Write rule: a stage deletes the rows it owns and everything downstream of
them, then inserts.  So a stage's rows take plain INSERTs, and a row
stored twice is a `StoreError`.  Only three tables update a stored row in
place: `projects` (re-ingest, `upsert`), `rules` (status reset and
confirmation, `upsert_rules`) and `run_metadata`.  `dependency_changes`
rows are additions and removals only: a version change of a library that
stays declared is not stored.  Each table a stage fills has one write
path: the stage stores all its rows of that table in one `executemany`,
and a violated constraint is a `StoreError`.  Segment ids come from
`detect_segments`, which numbers the segments it stores 1..n in
project-then-rule order, and each fragment stores the id of its segment;
the foreign key refuses an id that names no stored segment.  Mapping
ids are SQLite's: `collect_docs` reads each one with its mapping.  An
ingest in which every project succeeded deletes the stored projects it
did not read (`keep_projects`): one DELETE, which cascades to their
commits, file and dependency changes and segments.

`blob_answers` is a cache, not a result: what the pipeline derived from
one git blob, keyed by blob id and question, each as JSON, never pickle,
so opening a database runs no stored code.  Only the questions a stage
asks are stored, not the blob's facts.  The question `manifest` holds a
pom.xml blob's `parse_manifest` result, its coordinates or its error
message; a `PackageIndex.answer_key` (`uses <length>-<CRC-32>`) holds what
the blob holds of that index's library (`javafacts.encode_answer`): ""
when it holds nothing, whether the screen of `javafacts.may_reference`
rejected it or its facts resolve to no use and no import, else compact
JSON of its uses, each [class, method, arity, line], and a 0/1 flag for
an import that names the library; `diff <context> <before blob id>`,
asked of a change's after blob, holds the hunks `unified_diff` found
between the two blobs at that many context lines (`fragments.encode_hunks`:
compact JSON of each hunk's four range numbers, then its lines, each
behind its ` `, `-` or `+` prefix; the line numbers are counted again on
decode, and the path is the asking change's).  The answer key names
everything the screen and the resolver read of a package index (prefix
mode, packages and fully qualified classes), not its coordinate, so a
class jar replaced under the same coordinate is judged again.  A blob id
names its content, so an answer never goes stale; a blob the repository
lacks gets none, and neither does a diff with such a side.  Any stage may
add answers; ingest deletes those whose blob no stored file change names,
on either side, and those whose question is of no kind a stage asks, as
an older version's `facts` (`prune_blob_answers`), and keeps the rest
across re-ingests.  It is never exported.  Opening a database whose
`answers_version` differs from this one (the fact extractor's, from which
library answers derive, the manifest parser's, the diff's and the
resolver's versions: `FACTS_VERSION`, `MANIFEST_VERSION`,
`fragments.DIFF_VERSION`, `javafacts.RESOLVER_VERSION`) empties it.

`archive_docs` is a cache too: the docs `docs.parse_doc_archive` parsed
from a -javadoc jar, as JSON (`docs.encode_docs`, never pickle), without
their library, which a reader stamps back on.  Its key is the jar's length
and CRC-32 and the class names asked of it (`docs.docs_key`), so a jar
replaced under the same coordinate is parsed again.  `collect_docs` owns
it: each pass keeps exactly the rows of the archives it used and adds the
ones it parsed.  Ingest leaves it alone, as the key holds no project data.
It is never exported.  Opening a database whose `docs_version` differs
from `docs.DOCS_VERSION` empties it.

Each `doc_attachments` row carries the columns of its mapped method's doc,
all NULL when none was found; the doc's library is the one on that side of
the mapping, and its class and method are the attachment's own.

`file_changes` holds, for each stored commit, the `FileChange`s of its
`pom.xml` and `.java` entries in ingest's history read (binary versions
included), in git's order (`seq`): path, kind, a rename's old path and
the two blob ids, NULL for an absent side.  They read back unchanged.  A
commit's rows go with it, by cascade.  So a history that a later stage
builds from the store needs no `git log`, only the blob reader, and only
for the texts it uses.

Open rule: a database whose `schema_version` differs from
`SCHEMA_VERSION` is refused with a `StoreError` before anything writes to
it; there is no migration.  Version 1 had no `file_changes`, so its
commits would read as histories without changes; version 2 had no
`blob_screens` and stored `file_changes` in full; version 3 stored git's
raw entries (status, old and new path) without their binary ones; version
4 changed those columns and added no table; version 5 added
`pom_manifests`; version 6 folds it, `blob_facts` and `blob_screens` into
`blob_answers`.  A database with no `schema_version` is new: its tables
and this version commit together.  One that holds tables but no version,
which another program wrote, is refused too.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
from collections.abc import Iterable
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path

from .docs import DOCS_VERSION
from .fragments import DIFF_VERSION, render_hunk
from .javafacts import FACTS_VERSION, RESOLVER_VERSION
from .manifest import MANIFEST_VERSION
from .model import (
    CommitRecord,
    DependencyChange,
    DocAttachment,
    FileChange,
    Fragment,
    LibraryCoordinate,
    MethodMapping,
    MigrationRule,
    ProjectRef,
    Segment,
)
from .reports import EXPORT_FORMATS, EXPORT_SELECTORS, render_report

SCHEMA_VERSION = "6"
# the version of every stored blob answer
_ANSWERS_VERSION = f"{FACTS_VERSION}/{MANIFEST_VERSION}/{DIFF_VERSION}/{RESOLVER_VERSION}"

# the questions of each kind of blob answer, by the question's first word
_ANSWER_KINDS = {
    "manifest": "question = 'manifest'",
    "uses": "question GLOB 'uses *'",
    "diff": "question GLOB 'diff *'",
}


class StoreError(RuntimeError):
    pass


_SCHEMA = """
CREATE TABLE IF NOT EXISTS run_metadata (
  key TEXT PRIMARY KEY,
  value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS projects (
  id TEXT PRIMARY KEY,
  origin TEXT NOT NULL,
  workdir TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS commits (
  project TEXT NOT NULL REFERENCES projects(id) ON DELETE CASCADE,
  commit_id TEXT NOT NULL,
  ordinal INTEGER NOT NULL,
  date TEXT NOT NULL,
  author TEXT NOT NULL,
  message TEXT NOT NULL,
  PRIMARY KEY (project, commit_id),
  UNIQUE (project, ordinal)
);
CREATE TABLE IF NOT EXISTS dependency_changes (
  project TEXT NOT NULL,
  commit_id TEXT NOT NULL,
  direction TEXT NOT NULL CHECK (direction IN ('added','removed')),
  grp TEXT NOT NULL,
  artifact TEXT NOT NULL,
  version TEXT NOT NULL,
  PRIMARY KEY (project, commit_id, direction, grp, artifact),
  FOREIGN KEY (project, commit_id) REFERENCES commits(project, commit_id) ON DELETE CASCADE
);
CREATE TABLE IF NOT EXISTS file_changes (
  project TEXT NOT NULL,
  commit_id TEXT NOT NULL,
  seq INTEGER NOT NULL,
  path TEXT NOT NULL,
  kind TEXT NOT NULL CHECK (kind IN ('added','modified','deleted','renamed')),
  old_path TEXT,
  before_sha TEXT,
  after_sha TEXT,
  PRIMARY KEY (project, commit_id, seq),
  FOREIGN KEY (project, commit_id) REFERENCES commits(project, commit_id) ON DELETE CASCADE
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS graph_edges (
  source_group TEXT NOT NULL,
  source_artifact TEXT NOT NULL,
  target_group TEXT NOT NULL,
  target_artifact TEXT NOT NULL,
  weight INTEGER NOT NULL CHECK (weight >= 1),
  PRIMARY KEY (source_group, source_artifact, target_group, target_artifact)
);
CREATE TABLE IF NOT EXISTS rules (
  source_group TEXT NOT NULL,
  source_artifact TEXT NOT NULL,
  target_group TEXT NOT NULL,
  target_artifact TEXT NOT NULL,
  weight INTEGER NOT NULL,
  normalized_weight REAL NOT NULL,
  status TEXT NOT NULL CHECK (status IN ('candidate','confirmed','discarded')),
  PRIMARY KEY (source_group, source_artifact, target_group, target_artifact)
);
CREATE TABLE IF NOT EXISTS segments (
  id INTEGER PRIMARY KEY,
  project TEXT NOT NULL REFERENCES projects(id) ON DELETE CASCADE,
  source_group TEXT NOT NULL,
  source_artifact TEXT NOT NULL,
  target_group TEXT NOT NULL,
  target_artifact TEXT NOT NULL,
  start_commit TEXT NOT NULL,
  end_commit TEXT NOT NULL,
  source_version TEXT NOT NULL,
  target_version TEXT NOT NULL,
  commits TEXT NOT NULL,
  weak_start INTEGER NOT NULL DEFAULT 0,
  UNIQUE (project, source_group, source_artifact, target_group, target_artifact, start_commit),
  FOREIGN KEY (source_group, source_artifact, target_group, target_artifact)
    REFERENCES rules(source_group, source_artifact, target_group, target_artifact)
    ON DELETE CASCADE
);
CREATE TABLE IF NOT EXISTS fragments (
  id INTEGER PRIMARY KEY,
  segment_id INTEGER NOT NULL REFERENCES segments(id) ON DELETE CASCADE,
  commit_id TEXT NOT NULL,
  file TEXT NOT NULL,
  before_start INTEGER NOT NULL,
  before_len INTEGER NOT NULL,
  after_start INTEGER NOT NULL,
  after_len INTEGER NOT NULL,
  diff TEXT NOT NULL,
  removed_methods TEXT NOT NULL,
  added_methods TEXT NOT NULL,
  UNIQUE (segment_id, commit_id, file, before_start, after_start)
);
CREATE TABLE IF NOT EXISTS method_mappings (
  id INTEGER PRIMARY KEY,
  source_group TEXT NOT NULL,
  source_artifact TEXT NOT NULL,
  target_group TEXT NOT NULL,
  target_artifact TEXT NOT NULL,
  source_methods TEXT NOT NULL,
  target_methods TEXT NOT NULL,
  support INTEGER NOT NULL CHECK (support >= 1),
  UNIQUE (source_group, source_artifact, target_group, target_artifact,
          source_methods, target_methods),
  FOREIGN KEY (source_group, source_artifact, target_group, target_artifact)
    REFERENCES rules(source_group, source_artifact, target_group, target_artifact)
    ON DELETE CASCADE
);
CREATE TABLE IF NOT EXISTS doc_attachments (
  mapping_id INTEGER NOT NULL REFERENCES method_mappings(id) ON DELETE CASCADE,
  side TEXT NOT NULL CHECK (side IN ('source','target')),
  class_name TEXT NOT NULL,
  method TEXT NOT NULL,
  arity INTEGER NOT NULL,
  found INTEGER NOT NULL,
  ambiguous INTEGER NOT NULL DEFAULT 0,
  version TEXT,
  class_description TEXT,
  signature TEXT,
  description TEXT,
  param_docs TEXT,
  return_doc TEXT,
  since TEXT,
  PRIMARY KEY (mapping_id, side, class_name, method, arity)
);
CREATE TABLE IF NOT EXISTS blob_answers (
  blob_id TEXT NOT NULL,
  question TEXT NOT NULL,
  answer TEXT NOT NULL,
  PRIMARY KEY (blob_id, question)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS archive_docs (
  key TEXT PRIMARY KEY,
  docs TEXT NOT NULL
);
"""


# compact JSON, as stored in a row's columns
_compact_json = json.JSONEncoder(separators=(",", ":")).encode

# a segment `s` joined to its rule `r`, and the filter that keeps the rules
# not discarded
_RULE_JOIN = (
    " JOIN rules r ON r.source_group = s.source_group AND r.source_artifact = s.source_artifact"
    " AND r.target_group = s.target_group AND r.target_artifact = s.target_artifact"
)
_KEPT = " WHERE r.status != 'discarded'"


def _commit_row(record: CommitRecord) -> tuple:
    return (record.project, record.commit_id, record.ordinal, record.date.isoformat(),
            record.author, record.message)


def _rule_row(rule: MigrationRule) -> tuple:
    return (*rule.key, rule.weight, rule.normalized_weight, rule.status)


def _segment_row(segment: Segment) -> tuple:
    return (segment.id, segment.project, *segment.source, *segment.target,
            segment.start_commit, segment.end_commit, segment.source_version,
            segment.target_version, _compact_json(segment.commits), int(segment.weak_start))


def _methods_json(uses) -> str:
    return _compact_json(sorted({(u.class_name, u.method, u.arity, u.line) for u in uses}))


def _fragment_row(fragment: Fragment) -> tuple:
    hunk = fragment.hunk
    return (fragment.segment_id, fragment.commit, hunk.file, hunk.before_start,
            hunk.before_len, hunk.after_start, hunk.after_len, render_hunk(hunk),
            _methods_json(fragment.removed_methods), _methods_json(fragment.added_methods))


def _mapping_row(mapping: MethodMapping) -> tuple:
    return (*mapping.source, *mapping.target, _compact_json(mapping.source_methods),
            _compact_json(mapping.target_methods), mapping.support)


def _doc_attachment_row(mapping_id: int, side: str, attachment: DocAttachment) -> tuple:
    doc = attachment.doc
    doc_columns = (None,) * 7 if doc is None else (
        doc.library.version, doc.class_description, _compact_json(doc.signature),
        doc.description, _compact_json(doc.param_docs), doc.return_doc, doc.since,
    )
    return (mapping_id, side, *attachment.method, int(attachment.found),
            int(attachment.ambiguous), *doc_columns)


class Store:
    def __init__(self, path: str | Path):
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self.db = sqlite3.connect(self.path)
        self._in_transaction = False
        try:
            try:
                schema = self.get_meta("schema_version")
            except sqlite3.OperationalError:  # no run_metadata table
                schema = None
            problem = None
            if schema not in (None, SCHEMA_VERSION):
                problem = f"database schema version {schema} != supported {SCHEMA_VERSION}"
            elif schema is None and self.db.execute("SELECT 1 FROM sqlite_master").fetchone():
                problem = "database holds tables but no schema version"
            if problem:
                raise StoreError(f"{problem}; use a fresh --db path")
            self.db.execute("PRAGMA journal_mode = WAL")
            self.db.execute("PRAGMA foreign_keys = ON")
            with self.transaction():
                # a new database's tables and their version commit together, or neither
                self.db.executescript("BEGIN;" + _SCHEMA)
                if schema is None:
                    self.set_meta("schema_version", SCHEMA_VERSION)
                if self.get_meta("answers_version") != _ANSWERS_VERSION:
                    # answers of another extractor or parser version may differ from this one's
                    self.db.execute("DELETE FROM blob_answers")
                    self.set_meta("answers_version", _ANSWERS_VERSION)
                if self.get_meta("docs_version") != DOCS_VERSION:
                    # likewise docs stored by another parser version
                    self.keep_archive_docs(())
                    self.set_meta("docs_version", DOCS_VERSION)
        except BaseException:
            self.db.close()
            raise

    def close(self):
        self.db.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @contextmanager
    def transaction(self):
        """Commit every write inside the block once, or none if it raises.

        A transaction opened inside another one joins it.  sqlite3 sends
        BEGIN only before the first write, so a block that writes nothing
        commits nothing.
        """
        if self._in_transaction:
            yield
            return
        self._in_transaction = True
        try:
            yield
            self.db.commit()
        except BaseException:
            self.db.rollback()
            raise
        finally:
            self._in_transaction = False

    @contextmanager
    def _writing(self, what):
        """A transaction in which a violated constraint is a StoreError naming `what`."""
        try:
            with self.transaction():
                yield
        except sqlite3.IntegrityError as exc:
            raise StoreError(f"integrity violation storing {what}: {exc}") from exc

    def set_meta(self, key: str, value: str) -> None:
        with self.transaction():
            self.db.execute(
                "INSERT INTO run_metadata (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )

    def get_meta(self, key: str) -> str | None:
        row = self.db.execute("SELECT value FROM run_metadata WHERE key = ?", (key,)).fetchone()
        return row[0] if row else None

    # -- writes ----------------------------------------------------------------

    def upsert(self, refs: Iterable[ProjectRef]) -> None:
        """Store projects, each replacing the stored project of its id."""
        with self._writing("projects"):
            self.db.executemany(
                "INSERT INTO projects (id, origin, workdir) VALUES (?, ?, ?) ON CONFLICT(id) "
                "DO UPDATE SET origin = excluded.origin, workdir = excluded.workdir",
                refs,
            )

    def upsert_doc_attachment(self, mapping_id: int, side: str, attachment: DocAttachment) -> None:
        """Insert one attachment with its doc; one already stored is a StoreError."""
        self.insert_doc_attachments([(mapping_id, side, attachment)])

    # Each batch is one executemany.  A row already stored, or stored twice
    # in the batch, is a StoreError; outside a stage's transaction the
    # batch then stores none of its rows.

    def insert_commits(self, records: Iterable[CommitRecord]) -> None:
        with self._writing("commits"):
            self.db.executemany(
                "INSERT INTO commits (project, commit_id, ordinal, date, author, message) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                map(_commit_row, records),
            )

    def insert_file_changes(
        self, histories: Iterable[tuple[str, dict[str, list[FileChange]]]]
    ) -> None:
        """Store each (project, file changes by commit id) pair's changes, in
        order, under their stored commits."""
        rows = (
            (project, commit_id, seq, *change)
            for project, by_commit in histories
            for commit_id, changes in by_commit.items()
            for seq, change in enumerate(changes)
        )
        with self._writing("file changes"):
            self.db.executemany(
                "INSERT INTO file_changes (project, commit_id, seq, path, kind, old_path, "
                "before_sha, after_sha) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    def insert_dependency_changes(self, changes: Iterable[DependencyChange]) -> None:
        rows = (
            (change.project, change.commit, direction, coord.group, coord.artifact, coord.version)
            for change in changes
            for direction, coords in (("added", change.added), ("removed", change.removed))
            for coord in sorted(coords)
        )
        with self._writing("dependency changes"):
            self.db.executemany(
                "INSERT INTO dependency_changes (project, commit_id, direction, grp, artifact, "
                "version) VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )

    def upsert_rules(self, rules: Iterable[MigrationRule]) -> None:
        """Store rules, each replacing the stored rule of its key."""
        with self._writing("rules"):
            self.db.executemany(
                "INSERT INTO rules (source_group, source_artifact, target_group, "
                "target_artifact, weight, normalized_weight, status) VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(source_group, source_artifact, target_group, target_artifact) "
                "DO UPDATE SET weight = excluded.weight, "
                "normalized_weight = excluded.normalized_weight, status = excluded.status",
                map(_rule_row, rules),
            )

    def insert_segments(self, segments: Iterable[Segment]) -> None:
        """Store segments under their own ids."""
        with self._writing("segments"):
            self.db.executemany(
                "INSERT INTO segments (id, project, source_group, source_artifact, "
                "target_group, target_artifact, start_commit, end_commit, source_version, "
                "target_version, commits, weak_start) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                map(_segment_row, segments),
            )

    def insert_fragments(self, fragments: Iterable[Fragment]) -> None:
        """Store fragments, each under the stored segment its id names."""
        with self._writing("fragments"):
            self.db.executemany(
                "INSERT INTO fragments (segment_id, commit_id, file, before_start, before_len, "
                "after_start, after_len, diff, removed_methods, added_methods) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                map(_fragment_row, fragments),
            )

    def insert_mappings(self, mappings: Iterable[MethodMapping]) -> None:
        with self._writing("mappings"):
            self.db.executemany(
                "INSERT INTO method_mappings (source_group, source_artifact, target_group, "
                "target_artifact, source_methods, target_methods, support) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                map(_mapping_row, mappings),
            )

    def insert_doc_attachments(self, rows: Iterable[tuple[int, str, DocAttachment]]) -> None:
        """Store (mapping id, side, attachment) rows."""
        with self._writing("doc attachments"):
            self.db.executemany(
                "INSERT INTO doc_attachments (mapping_id, side, class_name, method, arity, "
                "found, ambiguous, version, class_description, signature, description, "
                "param_docs, return_doc, since) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                itertools.starmap(_doc_attachment_row, rows),
            )

    # -- stage lifecycle ---------------------------------------------------------

    def keep_projects(self, ids: Iterable[str]) -> list[str]:
        """Delete every stored project but those of `ids` with one DELETE,
        which takes their commits, file and dependency changes and segments
        by cascade; returns the deleted ids, sorted."""
        ids = list(ids)
        others = f"FROM projects WHERE id NOT IN ({','.join('?' * len(ids))})"
        with self.transaction():
            dropped = [id_ for id_, in self.db.execute(f"SELECT id {others} ORDER BY id", ids)]
            if dropped:
                self.db.execute(f"DELETE {others}", ids)
        return dropped

    def clear_commits(self, projects: Iterable[str]) -> None:
        """Drop the projects' stored commits and, by cascade, their file and
        dependency changes."""
        with self.transaction():
            self.db.executemany(
                "DELETE FROM commits WHERE project = ?", ((project,) for project in projects)
            )

    # Deleting rules or mappings cascades to their doc attachments.

    def clear_rules_and_downstream(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM rules")
            self.db.execute("DELETE FROM graph_edges")

    def clear_segments_and_downstream(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM segments")
            self.db.execute("DELETE FROM method_mappings")

    def clear_fragments_and_mappings(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM fragments")
            self.db.execute("DELETE FROM method_mappings")

    def clear_docs(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM doc_attachments")

    def insert_blob_answers(self, rows: Iterable[tuple[str, str, str]]) -> None:
        """Store (blob id, question, encoded answer) rows; a question already
        answered for its blob is a StoreError."""
        with self._writing("blob answers"):
            self.db.executemany(
                "INSERT INTO blob_answers (blob_id, question, answer) VALUES (?, ?, ?)", rows
            )

    def prune_blob_answers(self) -> None:
        """Delete every answer whose blob no stored file change names, or
        whose question is of no kind of `_ANSWER_KINDS`."""
        with self.transaction():
            self.db.execute(
                "DELETE FROM blob_answers WHERE blob_id NOT IN (SELECT before_sha FROM "
                "file_changes WHERE before_sha IS NOT NULL UNION SELECT after_sha FROM "
                "file_changes WHERE after_sha IS NOT NULL) OR NOT ("
                + " OR ".join(_ANSWER_KINDS.values()) + ")"
            )

    def keep_archive_docs(self, keys: Iterable[str]) -> None:
        """Delete every stored archive's docs but those of `keys`."""
        keys = list(keys)
        with self.transaction():
            self.db.execute(
                f"DELETE FROM archive_docs WHERE key NOT IN ({','.join('?' * len(keys))})", keys
            )

    def insert_archive_docs(self, rows: Iterable[tuple[str, str]]) -> None:
        """Store (key, encoded docs) rows; a key already stored is a StoreError."""
        with self._writing("archive docs"):
            self.db.executemany("INSERT INTO archive_docs (key, docs) VALUES (?, ?)", rows)

    def replace_edges(self, edges: dict) -> None:
        """Fill graph_edges, which `clear_rules_and_downstream` emptied, with
        the graph's weighted (source, target) edges."""
        with self._writing("graph edges"):
            self.db.executemany(
                "INSERT INTO graph_edges (source_group, source_artifact, target_group, "
                "target_artifact, weight) VALUES (?, ?, ?, ?, ?)",
                [(*src, *dst, weight) for (src, dst), weight in sorted(edges.items())],
            )

    # -- readers -------------------------------------------------------------

    def projects(self) -> list[ProjectRef]:
        rows = self.db.execute(
            "SELECT id, origin, workdir FROM projects ORDER BY id"
        ).fetchall()
        return [ProjectRef(*row) for row in rows]

    def has_commits(self) -> bool:
        return self.db.execute("SELECT 1 FROM commits LIMIT 1").fetchone() is not None

    def commits_for(self, project: str) -> list[CommitRecord]:
        rows = self.db.execute(
            "SELECT project, commit_id, ordinal, date, author, message "
            "FROM commits WHERE project = ? ORDER BY ordinal",
            (project,),
        ).fetchall()
        return [
            CommitRecord(
                project=p, commit_id=c, ordinal=o,
                date=datetime.fromisoformat(d), author=a, message=m,
            )
            for p, c, o, d, a, m in rows
        ]

    def file_changes(self) -> dict[str, dict[str, list[FileChange]]]:
        """Every project's stored file changes: project -> commit id -> its
        changes in git's order.  A commit without changes is absent."""
        out: dict[str, dict[str, list[FileChange]]] = {}
        for project, commit_id, *change in self.db.execute(
            "SELECT project, commit_id, path, kind, old_path, before_sha, after_sha "
            "FROM file_changes ORDER BY project, commit_id, seq"
        ):
            out.setdefault(project, {}).setdefault(commit_id, []).append(FileChange(*change))
        return out

    def blob_answers(self, kind: str | None = None) -> dict[tuple[str, str], str]:
        """The stored answers, (blob id, question) -> encoded answer: every
        one, or only those whose question's first word is `kind`."""
        where = "" if kind is None else " WHERE " + _ANSWER_KINDS[kind]
        return {
            (blob, question): answer
            for blob, question, answer in self.db.execute(
                "SELECT blob_id, question, answer FROM blob_answers" + where
            )
        }

    def answered_blobs(self) -> set[str]:
        """The ids of the blobs that have at least one stored answer."""
        return {blob for (blob,) in self.db.execute("SELECT DISTINCT blob_id FROM blob_answers")}

    def archive_docs(self, keys: Iterable[str]) -> dict[str, str]:
        """The encoded docs stored under each of `keys` that has a row."""
        keys = list(keys)
        return dict(self.db.execute(
            f"SELECT key, docs FROM archive_docs WHERE key IN ({','.join('?' * len(keys))})", keys
        ))

    def commit_count(self) -> int:
        return self.db.execute("SELECT COUNT(*) FROM commits").fetchone()[0]

    def dependency_changes(self) -> list[DependencyChange]:
        """All stored changes, ordered by (project, commit ordinal)."""
        rows = self.db.execute(
            "SELECT d.project, d.commit_id, d.direction, d.grp, d.artifact, d.version "
            "FROM dependency_changes d JOIN commits c "
            "ON c.project = d.project AND c.commit_id = d.commit_id "
            "ORDER BY d.project, c.ordinal, d.direction, d.grp, d.artifact"
        ).fetchall()
        grouped: dict[tuple[str, str], dict[str, set]] = {}
        order: list[tuple[str, str]] = []
        for project, commit_id, direction, grp, artifact, version in rows:
            key = (project, commit_id)
            if key not in grouped:
                grouped[key] = {"added": set(), "removed": set()}
                order.append(key)
            grouped[key][direction].add(LibraryCoordinate(grp, artifact, version))
        return [
            DependencyChange(
                project, commit_id,
                frozenset(grouped[(project, commit_id)]["added"]),
                frozenset(grouped[(project, commit_id)]["removed"]),
            )
            for project, commit_id in order
        ]

    def rules(self, statuses: tuple[str, ...] | None = None) -> list[MigrationRule]:
        query = (
            "SELECT source_group, source_artifact, target_group, target_artifact, "
            "weight, normalized_weight, status FROM rules"
        )
        params: tuple = ()
        if statuses:
            query += f" WHERE status IN ({','.join('?' * len(statuses))})"
            params = statuses
        query += " ORDER BY weight DESC, source_group, source_artifact, target_group, target_artifact"
        return [
            MigrationRule((sg, sa), (tg, ta), weight, normalized, status)
            for sg, sa, tg, ta, weight, normalized, status in self.db.execute(query, params)
        ]

    def segments(self, include_discarded: bool = False) -> list[Segment]:
        query = (
            "SELECT s.project, s.source_group, s.source_artifact, s.target_group, "
            "s.target_artifact, s.start_commit, s.end_commit, s.source_version, "
            "s.target_version, s.commits, s.weak_start, s.id FROM segments s" + _RULE_JOIN
        )
        if not include_discarded:
            query += _KEPT
        query += (
            " ORDER BY s.project, s.source_group, s.source_artifact, s.target_group, "
            "s.target_artifact, "
            "(SELECT ordinal FROM commits c WHERE c.project = s.project "
            " AND c.commit_id = s.start_commit)"
        )
        out = []
        for row in self.db.execute(query):
            out.append(
                Segment(
                    project=row[0],
                    source=(row[1], row[2]),
                    target=(row[3], row[4]),
                    start_commit=row[5],
                    end_commit=row[6],
                    source_version=row[7],
                    target_version=row[8],
                    commits=json.loads(row[9]),
                    weak_start=bool(row[10]),
                    id=row[11],
                )
            )
        return out

    def fragment_counts(self) -> dict[tuple, int]:
        rows = self.db.execute(
            "SELECT s.source_group, s.source_artifact, s.target_group, s.target_artifact, "
            "COUNT(f.id) FROM fragments f JOIN segments s ON s.id = f.segment_id "
            "GROUP BY s.source_group, s.source_artifact, s.target_group, s.target_artifact"
        ).fetchall()
        return {((sg, sa), (tg, ta)): count for sg, sa, tg, ta, count in rows}

    def mappings(self) -> list[tuple[int, MethodMapping]]:
        rows = self.db.execute(
            "SELECT id, source_group, source_artifact, target_group, target_artifact, "
            "source_methods, target_methods, support FROM method_mappings "
            "ORDER BY support DESC, source_group, source_artifact, target_group, "
            "target_artifact, source_methods, target_methods"
        ).fetchall()
        return [
            (
                row_id,
                MethodMapping(
                    (sg, sa), (tg, ta),
                    tuple(tuple(m) for m in json.loads(src)),
                    tuple(tuple(m) for m in json.loads(dst)),
                    support,
                ),
            )
            for row_id, sg, sa, tg, ta, src, dst, support in rows
        ]

    def counts(self) -> dict[str, int]:
        def one(query: str) -> int:
            return self.db.execute(query).fetchone()[0]

        return {
            "projects": one("SELECT COUNT(*) FROM projects"),
            "commits": one("SELECT COUNT(*) FROM commits"),
            "rules_candidate": one("SELECT COUNT(*) FROM rules WHERE status = 'candidate'"),
            "rules_confirmed": one("SELECT COUNT(*) FROM rules WHERE status = 'confirmed'"),
            "rules_discarded": one("SELECT COUNT(*) FROM rules WHERE status = 'discarded'"),
            "segments": one("SELECT COUNT(*) FROM segments s" + _RULE_JOIN + _KEPT),
            "fragments": one(
                "SELECT COUNT(*) FROM fragments f JOIN segments s ON s.id = f.segment_id"
                + _RULE_JOIN + _KEPT
            ),
            "mappings": one("SELECT COUNT(*) FROM method_mappings"),
            "docs_attached": one("SELECT COUNT(*) FROM doc_attachments WHERE found = 1"),
            "docs_missing": one("SELECT COUNT(*) FROM doc_attachments WHERE found = 0"),
        }

    def fragment_rows(self) -> list[tuple]:
        """The kept rules' fragments with their segment's project and rule,
        in report order."""
        return self.db.execute(
            "SELECT s.project, s.source_group, s.source_artifact, s.target_group, "
            "s.target_artifact, f.commit_id, f.file, f.before_start, f.before_len, "
            "f.after_start, f.after_len, f.removed_methods, f.added_methods, f.diff "
            "FROM fragments f JOIN segments s ON s.id = f.segment_id" + _RULE_JOIN + _KEPT
            + " ORDER BY s.project, s.source_group, s.source_artifact, s.target_group, "
            "s.target_artifact, "
            "(SELECT ordinal FROM commits c WHERE c.project = s.project "
            " AND c.commit_id = f.commit_id), f.file, f.before_start"
        ).fetchall()

    # -- exports -------------------------------------------------------------

    def export(self, fmt: str, selector: str) -> bytes:
        """The report bytes of one selector in one format."""
        if fmt not in EXPORT_FORMATS:
            raise StoreError(f"unknown export format {fmt!r} (use json or csv)")
        if selector not in EXPORT_SELECTORS:
            raise StoreError(
                f"unknown export selector {selector!r} (use one of {', '.join(EXPORT_SELECTORS)})"
            )
        return render_report(self, fmt, selector)
