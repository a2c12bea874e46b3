"""SQLite-backed system of record between pipeline stages.

The schema and the export formats are the contract; the engine is an
implementation detail.  Exports are deterministic: identical inputs give
byte-identical reports (no timestamps, stable ordering everywhere).

Transaction policy: each pipeline stage runs its writes in one
`Store.transaction()`, so a stage commits once, and a stage that raises
rolls back and leaves the store as it was before the stage.  A write made
outside any transaction (a test, `report`) commits on its own.

Write rule: a stage deletes the rows it owns and everything downstream of
them, then inserts.  So a stage's rows take plain INSERTs, and a row
stored twice is a `StoreError`.  Only three tables update a stored row in
place: `projects` (re-ingest), `rules` (status reset and confirmation) and
`run_metadata`.  `method_docs` holds only the docs an attachment points to.
"""

from __future__ import annotations

import csv
import io
import json
import sqlite3
from contextlib import contextmanager
from pathlib import Path

from .fragments import render_hunk
from .model import (
    CommitRecord,
    DependencyChange,
    DocAttachment,
    Fragment,
    LibraryCoordinate,
    MethodDoc,
    MethodMapping,
    MigrationRule,
    ProjectRef,
    Segment,
    library_key,
    method_key_str,
)

SCHEMA_VERSION = "1"

EXPORT_SELECTORS = ("rules", "segments", "fragments", "mappings")
EXPORT_FORMATS = ("json", "csv")


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
  direction TEXT NOT NULL CHECK (direction IN ('added','removed','upgraded')),
  grp TEXT NOT NULL,
  artifact TEXT NOT NULL,
  version TEXT NOT NULL,
  prior_version TEXT,
  PRIMARY KEY (project, commit_id, direction, grp, artifact),
  FOREIGN KEY (project, commit_id) REFERENCES commits(project, commit_id) ON DELETE CASCADE
);
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
CREATE TABLE IF NOT EXISTS method_docs (
  id INTEGER PRIMARY KEY,
  grp TEXT NOT NULL,
  artifact TEXT NOT NULL,
  version TEXT NOT NULL,
  package TEXT NOT NULL,
  class_name TEXT NOT NULL,
  class_description TEXT NOT NULL,
  method TEXT NOT NULL,
  signature TEXT NOT NULL,
  description TEXT NOT NULL,
  param_docs TEXT NOT NULL,
  return_doc TEXT,
  since TEXT,
  UNIQUE (grp, artifact, version, class_name, method, signature)
);
CREATE TABLE IF NOT EXISTS doc_attachments (
  mapping_id INTEGER NOT NULL REFERENCES method_mappings(id) ON DELETE CASCADE,
  side TEXT NOT NULL CHECK (side IN ('source','target')),
  class_name TEXT NOT NULL,
  method TEXT NOT NULL,
  arity INTEGER NOT NULL,
  doc_id INTEGER REFERENCES method_docs(id),
  found INTEGER NOT NULL,
  ambiguous INTEGER NOT NULL DEFAULT 0,
  PRIMARY KEY (mapping_id, side, class_name, method, arity)
);
"""


def _methods_json(uses) -> str:
    rows = sorted(
        {(u.class_name, u.method, u.arity, u.line) for u in uses}
    )
    return json.dumps(rows, separators=(",", ":"))


def _keys_json(keys) -> str:
    return json.dumps(sorted(keys), separators=(",", ":"))


class Store:
    def __init__(self, path: str | Path):
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self.db = sqlite3.connect(self.path)
        self._in_transaction = False
        self.db.execute("PRAGMA foreign_keys = ON")
        self.db.executescript(_SCHEMA)
        row = self.db.execute(
            "SELECT value FROM run_metadata WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self.db.execute(
                "INSERT INTO run_metadata (key, value) VALUES ('schema_version', ?)",
                (SCHEMA_VERSION,),
            )
            self.db.commit()
        elif row[0] != SCHEMA_VERSION:
            raise StoreError(
                f"database schema version {row[0]} != supported {SCHEMA_VERSION}; "
                "use a fresh --db path"
            )

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

    def upsert(self, entity):
        """Store any pipeline entity; returns its key or new row id.

        Projects and rules replace the stored row of the same key; every
        other entity is inserted, and one already stored is a StoreError.
        """
        handlers = {
            ProjectRef: self.upsert_project,
            CommitRecord: self.upsert_commit,
            DependencyChange: self.upsert_dependency_change,
            MigrationRule: self.upsert_rule,
            Segment: self.upsert_segment,
            Fragment: self.upsert_fragment,
            MethodMapping: self.upsert_mapping,
            MethodDoc: self.upsert_method_doc,
        }
        handler = handlers.get(type(entity))
        if handler is None:
            raise StoreError(f"no store handler for {type(entity).__name__}")
        try:
            return handler(entity)
        except sqlite3.IntegrityError as exc:
            raise StoreError(f"integrity violation storing {entity!r}: {exc}") from exc

    def upsert_project(self, ref: ProjectRef) -> str:
        with self.transaction():
            self.db.execute(
                "INSERT INTO projects (id, origin, workdir) VALUES (?, ?, ?) "
                "ON CONFLICT(id) DO UPDATE SET origin = excluded.origin, "
                "workdir = excluded.workdir",
                (ref.id, ref.origin, ref.workdir),
            )
        return ref.id

    def upsert_commit(self, record: CommitRecord) -> str:
        with self.transaction():
            self.db.execute(
                "INSERT INTO commits (project, commit_id, ordinal, date, author, message) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    record.project,
                    record.commit_id,
                    record.ordinal,
                    record.date.isoformat(),
                    record.author,
                    record.message,
                ),
            )
        return record.commit_id

    def upsert_dependency_change(self, change: DependencyChange) -> tuple[str, str]:
        rows = []
        for coord in sorted(change.added):
            rows.append((change.project, change.commit, "added", coord.group,
                         coord.artifact, coord.version, None))
        for coord in sorted(change.removed):
            rows.append((change.project, change.commit, "removed", coord.group,
                         coord.artifact, coord.version, None))
        for old, new in sorted(change.upgraded):
            rows.append((change.project, change.commit, "upgraded", new.group,
                         new.artifact, new.version, old.version))
        with self.transaction():
            self.db.executemany(
                "INSERT INTO dependency_changes "
                "(project, commit_id, direction, grp, artifact, version, prior_version) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return (change.project, change.commit)

    def upsert_rule(self, rule: MigrationRule) -> tuple[str, str, str, str]:
        with self.transaction():
            self.db.execute(
                "INSERT INTO rules (source_group, source_artifact, target_group, "
                "target_artifact, weight, normalized_weight, status) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(source_group, source_artifact, target_group, target_artifact) "
                "DO UPDATE SET weight = excluded.weight, "
                "normalized_weight = excluded.normalized_weight, status = excluded.status",
                (*rule.key, rule.weight, rule.normalized_weight, rule.status),
            )
        return rule.key

    def upsert_segment(self, segment: Segment) -> int:
        with self.transaction():
            return self.db.execute(
                "INSERT INTO segments (project, source_group, source_artifact, "
                "target_group, target_artifact, start_commit, end_commit, "
                "source_version, target_version, commits, weak_start) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    segment.project,
                    *segment.source,
                    *segment.target,
                    segment.start_commit,
                    segment.end_commit,
                    segment.source_version,
                    segment.target_version,
                    json.dumps(segment.commits, separators=(",", ":")),
                    int(segment.weak_start),
                ),
            ).lastrowid

    def _segment_id(self, fragment: Fragment) -> int:
        row = self.db.execute(
            "SELECT id FROM segments WHERE project = ? AND source_group = ? AND "
            "source_artifact = ? AND target_group = ? AND target_artifact = ? AND "
            "start_commit = ?",
            (fragment.project, *fragment.source, *fragment.target, fragment.start_commit),
        ).fetchone()
        if row is None:
            raise StoreError(
                "fragment references unknown segment "
                f"({fragment.project}, {library_key(fragment.source)} -> "
                f"{library_key(fragment.target)}, start {fragment.start_commit})"
            )
        return row[0]

    def upsert_fragment(self, fragment: Fragment) -> int:
        segment_id = self._segment_id(fragment)
        hunk = fragment.hunk
        with self.transaction():
            return self.db.execute(
                "INSERT INTO fragments (segment_id, commit_id, file, before_start, "
                "before_len, after_start, after_len, diff, removed_methods, added_methods) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    segment_id,
                    fragment.commit,
                    hunk.file,
                    hunk.before_start,
                    hunk.before_len,
                    hunk.after_start,
                    hunk.after_len,
                    render_hunk(hunk),
                    _methods_json(fragment.removed_methods),
                    _methods_json(fragment.added_methods),
                ),
            ).lastrowid

    def upsert_mapping(self, mapping: MethodMapping) -> int:
        src_json = _keys_json(mapping.source_methods)
        dst_json = _keys_json(mapping.target_methods)
        with self.transaction():
            return self.db.execute(
                "INSERT INTO method_mappings (source_group, source_artifact, "
                "target_group, target_artifact, source_methods, target_methods, support) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (*mapping.source, *mapping.target, src_json, dst_json, mapping.support),
            ).lastrowid

    def upsert_method_doc(self, doc: MethodDoc) -> int:
        with self.transaction():
            return self.db.execute(
                "INSERT INTO method_docs (grp, artifact, version, package, class_name, "
                "class_description, method, signature, description, param_docs, "
                "return_doc, since) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    doc.library.group,
                    doc.library.artifact,
                    doc.library.version,
                    doc.package,
                    doc.class_name,
                    doc.class_description,
                    doc.method,
                    json.dumps(list(doc.signature), separators=(",", ":")),
                    doc.description,
                    json.dumps([list(p) for p in doc.param_docs], separators=(",", ":")),
                    doc.return_doc,
                    doc.since,
                ),
            ).lastrowid

    def upsert_doc_attachment(
        self, mapping_id: int, side: str, attachment: DocAttachment, doc_id: int | None
    ) -> None:
        """Insert one attachment; one already stored is a StoreError."""
        cls, method, arity = attachment.method
        try:
            with self.transaction():
                self.db.execute(
                    "INSERT INTO doc_attachments (mapping_id, side, class_name, method, "
                    "arity, doc_id, found, ambiguous) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (mapping_id, side, cls, method, arity, doc_id,
                     int(attachment.found), int(attachment.ambiguous)),
                )
        except sqlite3.IntegrityError as exc:
            raise StoreError(
                f"integrity violation storing {attachment!r} for mapping {mapping_id}: {exc}"
            ) from exc

    # -- stage lifecycle ---------------------------------------------------------

    def clear_commits(self, project: str) -> None:
        """Drop a project's stored commits and, by cascade, their dependency changes."""
        with self.transaction():
            self.db.execute("DELETE FROM commits WHERE project = ?", (project,))

    # Deleting rules or mappings cascades to their attachments, which leaves
    # the docs they pointed to unattached; those go too.

    def clear_rules_and_downstream(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM rules")
            self.db.execute("DELETE FROM graph_edges")
            self.db.execute("DELETE FROM method_docs")

    def clear_segments_and_downstream(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM segments")
            self.db.execute("DELETE FROM method_mappings")
            self.db.execute("DELETE FROM method_docs")

    def clear_fragments_and_mappings(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM fragments")
            self.db.execute("DELETE FROM method_mappings")
            self.db.execute("DELETE FROM method_docs")

    def clear_docs(self) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM doc_attachments")
            self.db.execute("DELETE FROM method_docs")

    def replace_edges(self, edges: dict) -> None:
        with self.transaction():
            self.db.execute("DELETE FROM graph_edges")
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
        from datetime import datetime

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

    def commit_count(self) -> int:
        return self.db.execute("SELECT COUNT(*) FROM commits").fetchone()[0]

    def dependency_changes(self) -> list[DependencyChange]:
        """All stored changes, ordered by (project, commit ordinal)."""
        rows = self.db.execute(
            "SELECT d.project, d.commit_id, d.direction, d.grp, d.artifact, d.version "
            "FROM dependency_changes d JOIN commits c "
            "ON c.project = d.project AND c.commit_id = d.commit_id "
            "WHERE d.direction IN ('added', 'removed') "
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
            "s.target_version, s.commits, s.weak_start FROM segments s "
            "JOIN rules r ON r.source_group = s.source_group "
            "AND r.source_artifact = s.source_artifact "
            "AND r.target_group = s.target_group AND r.target_artifact = s.target_artifact "
        )
        if not include_discarded:
            query += "WHERE r.status != 'discarded' "
        query += (
            "ORDER BY s.project, s.source_group, s.source_artifact, s.target_group, "
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
                    frozenset(tuple(m) for m in json.loads(src)),
                    frozenset(tuple(m) for m in json.loads(dst)),
                    support,
                ),
            )
            for row_id, sg, sa, tg, ta, src, dst, support in rows
        ]

    def counts(self) -> dict[str, int]:
        def one(query: str, params: tuple = ()) -> int:
            return self.db.execute(query, params).fetchone()[0]

        return {
            "projects": one("SELECT COUNT(*) FROM projects"),
            "commits": one("SELECT COUNT(*) FROM commits"),
            "rules_candidate": one("SELECT COUNT(*) FROM rules WHERE status = 'candidate'"),
            "rules_confirmed": one("SELECT COUNT(*) FROM rules WHERE status = 'confirmed'"),
            "rules_discarded": one("SELECT COUNT(*) FROM rules WHERE status = 'discarded'"),
            "segments": len(self.segments()),
            "fragments": one(
                "SELECT COUNT(*) FROM fragments f JOIN segments s ON s.id = f.segment_id "
                "JOIN rules r ON r.source_group = s.source_group "
                "AND r.source_artifact = s.source_artifact "
                "AND r.target_group = s.target_group AND r.target_artifact = s.target_artifact "
                "WHERE r.status != 'discarded'"
            ),
            "mappings": one("SELECT COUNT(*) FROM method_mappings"),
            "docs_attached": one("SELECT COUNT(*) FROM doc_attachments WHERE found = 1"),
            "docs_missing": one("SELECT COUNT(*) FROM doc_attachments WHERE found = 0"),
        }

    # -- exports -------------------------------------------------------------

    def export(self, fmt: str, selector: str) -> bytes:
        """Deterministic report bytes; discarded rules never leave the store."""
        if fmt not in EXPORT_FORMATS:
            raise StoreError(f"unknown export format {fmt!r} (use json or csv)")
        if selector not in EXPORT_SELECTORS:
            raise StoreError(
                f"unknown export selector {selector!r} (use one of {', '.join(EXPORT_SELECTORS)})"
            )
        rows = getattr(self, f"_export_{selector}")()
        if fmt == "json":
            return (json.dumps(rows, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        buf = io.StringIO()
        writer = csv.writer(buf)
        columns = _CSV_COLUMNS[selector]
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[col]) for col in columns])
        return buf.getvalue().encode("utf-8")

    def _export_rules(self) -> list[dict]:
        return [
            {
                "source": library_key(rule.source),
                "target": library_key(rule.target),
                "weight": rule.weight,
                "normalized_weight": rule.normalized_weight,
                "status": rule.status,
            }
            for rule in self.rules(("candidate", "confirmed"))
        ]

    def _export_segments(self) -> list[dict]:
        return [
            {
                "project": seg.project,
                "rule": f"{library_key(seg.source)}->{library_key(seg.target)}",
                "start_commit": seg.start_commit,
                "end_commit": seg.end_commit,
                "source_version": seg.source_version,
                "target_version": seg.target_version,
                "commits": seg.commits,
                "weak_start": seg.weak_start,
            }
            for seg in self.segments()
        ]

    def _export_fragments(self) -> list[dict]:
        rows = self.db.execute(
            "SELECT s.project, s.source_group, s.source_artifact, s.target_group, "
            "s.target_artifact, f.commit_id, f.file, f.before_start, f.before_len, "
            "f.after_start, f.after_len, f.removed_methods, f.added_methods, f.diff "
            "FROM fragments f JOIN segments s ON s.id = f.segment_id "
            "JOIN rules r ON r.source_group = s.source_group "
            "AND r.source_artifact = s.source_artifact "
            "AND r.target_group = s.target_group AND r.target_artifact = s.target_artifact "
            "WHERE r.status != 'discarded' "
            "ORDER BY s.project, s.source_group, s.source_artifact, s.target_group, "
            "s.target_artifact, "
            "(SELECT ordinal FROM commits c WHERE c.project = s.project "
            " AND c.commit_id = f.commit_id), f.file, f.before_start"
        ).fetchall()
        out = []
        for row in rows:
            out.append(
                {
                    "project": row[0],
                    "rule": f"{row[1]}:{row[2]}->{row[3]}:{row[4]}",
                    "commit": row[5],
                    "file": row[6],
                    "before_range": [row[7], row[8]],
                    "after_range": [row[9], row[10]],
                    "removed_methods": [
                        {"class": c, "method": m, "arity": a, "line": ln}
                        for c, m, a, ln in json.loads(row[11])
                    ],
                    "added_methods": [
                        {"class": c, "method": m, "arity": a, "line": ln}
                        for c, m, a, ln in json.loads(row[12])
                    ],
                    "diff": row[13],
                }
            )
        return out

    def _export_mappings(self) -> list[dict]:
        return [
            {
                "rule": f"{library_key(m.source)}->{library_key(m.target)}",
                "source_methods": [
                    {"class": c, "method": mm, "arity": a}
                    for c, mm, a in sorted(m.source_methods)
                ],
                "target_methods": [
                    {"class": c, "method": mm, "arity": a}
                    for c, mm, a in sorted(m.target_methods)
                ],
                "support": m.support,
            }
            for _, m in self.mappings()
        ]


_CSV_COLUMNS = {
    "rules": ["source", "target", "weight", "normalized_weight", "status"],
    "segments": [
        "project", "rule", "start_commit", "end_commit",
        "source_version", "target_version", "commits", "weak_start",
    ],
    "fragments": [
        "project", "rule", "commit", "file", "before_range", "after_range",
        "removed_methods", "added_methods",
    ],
    "mappings": ["rule", "source_methods", "target_methods", "support"],
}


def _csv_cell(value) -> str:
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            return ";".join(
                method_key_str((d["class"], d["method"], d["arity"])) for d in value
            )
        return ";".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
