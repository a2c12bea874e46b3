"""Store write rules, foreign keys, export shapes and determinism."""

import dataclasses
import json
import sqlite3
from datetime import datetime, timezone

import pytest

from migmine.docs import DOCS_VERSION
from migmine.fragments import DIFF_VERSION, unified_diff
from migmine.history import FactsCache
from migmine.javafacts import FACTS_VERSION, RESOLVER_VERSION
from migmine.manifest import MANIFEST_VERSION
from migmine.model import (
    CommitRecord,
    DependencyChange,
    DocAttachment,
    FileChange,
    Fragment,
    LibraryAnswer,
    LibraryCoordinate,
    LibraryMethodUse,
    MethodDoc,
    MethodMapping,
    MigrationRule,
    ProjectRef,
    Segment,
)
from migmine.store import EXPORT_FORMATS, EXPORT_SELECTORS, SCHEMA_VERSION, Store, StoreError

ANSWERS_VERSION = f"{FACTS_VERSION}/{MANIFEST_VERSION}/{DIFF_VERSION}/{RESOLVER_VERSION}"
JSON_ID = ("org.json", "json")
GSON_ID = ("com.google.code.gson", "gson")


@pytest.fixture
def store(tmp_path):
    with Store(tmp_path / "test.db") as s:
        yield s


def seed_project(store, project="demo"):
    store.upsert([ProjectRef(project, f"/src/{project}", f"/work/{project}")])
    store.insert_commits(
        CommitRecord(
            project=project,
            commit_id=commit,
            date=datetime(2015, 3, ordinal + 1, tzinfo=timezone.utc),
            author="Dev One",
            message=f"step {ordinal}",
            ordinal=ordinal,
        )
        for ordinal, commit in enumerate(["c0", "c1", "c2"])
    )


def seed_rule(store, status="candidate"):
    store.upsert_rules([MigrationRule(JSON_ID, GSON_ID, 2, 1.0, status)])


def make_segment(project="demo", segment_id=1):
    return Segment(
        project=project,
        source=JSON_ID,
        target=GSON_ID,
        start_commit="c1",
        end_commit="c2",
        source_version="20080701",
        target_version="2.3.1",
        commits=["c1", "c2"],
        id=segment_id,
    )


def make_mapping(support=1):
    return MethodMapping(
        JSON_ID,
        GSON_ID,
        (("org.json.JSONObject", "toJSONString", 0),),
        (("com.google.gson.Gson", "toJson", 1),),
        support=support,
    )


def make_fragment(segment_id=1):
    hunk = unified_diff("a\nb\n", "a\nc\n", 1, path="src/A.java")[0]
    return Fragment(
        segment_id=segment_id,
        source=JSON_ID,
        target=GSON_ID,
        commit="c2",
        hunk=hunk,
        removed_methods=frozenset(
            {LibraryMethodUse("org.json.JSONObject", "toJSONString", 0, 2)}
        ),
        added_methods=frozenset(
            {LibraryMethodUse("com.google.gson.Gson", "toJson", 1, 2)}
        ),
    )


def make_doc():
    return MethodDoc(
        library=LibraryCoordinate(*GSON_ID, "2.2.2"),
        package="com.google.gson",
        class_name="Gson",
        class_description="Main.",
        method="toJson",
        signature=("JsonElement",),
        description="Converts.",
        param_docs=(("jsonElement", "root"),),
        return_doc="JSON",
        since="1.4",
    )


class TestUpserts:
    def test_commit_stored_twice_is_store_error(self, store):
        seed_project(store)
        record = store.commits_for("demo")[0]
        before = store.counts()["commits"]
        with pytest.raises(StoreError):
            store.insert_commits([record])
        assert store.counts()["commits"] == before

    def test_fragment_with_unknown_segment_is_store_error(self, store):
        seed_project(store)
        seed_rule(store)
        with pytest.raises(StoreError, match="FOREIGN KEY constraint failed"):
            store.insert_fragments([make_fragment(segment_id=99)])

    def test_fragment_insert_finds_its_segment_itself(self, store):
        """One statement per fragment: it names its segment by id, so
        nothing looks the segment up."""
        seed_project(store)
        seed_rule(store)
        store.insert_segments([make_segment()])
        statements = []
        store.db.set_trace_callback(statements.append)
        try:
            store.insert_fragments([make_fragment()])
        finally:
            store.db.set_trace_callback(None)
        assert [s.split()[0] for s in statements if s.split()[0] not in ("BEGIN", "COMMIT")] == [
            "INSERT"
        ]

    def test_segment_requires_existing_rule(self, store):
        seed_project(store)
        with pytest.raises(StoreError):
            store.insert_segments([make_segment()])

    def test_full_chain_roundtrip(self, store):
        """Segments read back with the ids they were stored under, a
        fragment under its segment's id; storing a row again is an error."""
        seed_project(store)
        seed_rule(store)
        segment = make_segment()
        later = dataclasses.replace(segment, start_commit="c2", commits=["c2"], id=2)
        store.insert_segments([segment, later])
        for again in (segment, dataclasses.replace(segment, end_commit="c1", id=3)):
            with pytest.raises(StoreError):
                store.insert_segments([again])
        assert store.segments() == [segment, later]
        store.insert_fragments([make_fragment(segment_id=2)])
        with pytest.raises(StoreError):
            store.insert_fragments([make_fragment(segment_id=2)])
        assert store.db.execute("SELECT segment_id FROM fragments").fetchall() == [(2,)]

        mapping = make_mapping()
        store.insert_mappings([mapping, dataclasses.replace(mapping, target_methods=())])
        with pytest.raises(StoreError):
            store.insert_mappings([dataclasses.replace(mapping, support=5)])
        stored = dict(store.mappings())
        assert len(stored) == 2
        assert [m.support for m in stored.values()] == [1, 1]

    def test_dependency_change_roundtrip(self, store):
        seed_project(store)
        change = DependencyChange(
            "demo",
            "c1",
            added=frozenset({LibraryCoordinate(*GSON_ID, "2.3.1")}),
            removed=frozenset({LibraryCoordinate(*JSON_ID, "20080701")}),
        )
        store.insert_dependency_changes([change])
        with pytest.raises(StoreError):
            store.insert_dependency_changes([change])
        loaded = store.dependency_changes()
        assert len(loaded) == 1
        assert loaded[0].added == change.added
        assert loaded[0].removed == change.removed

    def _mapping_id(self, store):
        seed_rule(store)
        store.insert_mappings([make_mapping()])
        return store.mappings()[0][0]

    def test_doc_attachment_carries_its_doc(self, store):
        mapping_id = self._mapping_id(store)
        found = DocAttachment(("com.google.gson.Gson", "toJson", 1), make_doc(), True, True)
        missing = DocAttachment(("org.json.JSONObject", "toJSONString", 0), None, False)
        store.upsert_doc_attachment(mapping_id, "target", found)
        store.upsert_doc_attachment(mapping_id, "source", missing)
        assert store.db.execute(
            "SELECT side, found, ambiguous, version, class_description, signature, "
            "description, param_docs, return_doc, since FROM doc_attachments ORDER BY side"
        ).fetchall() == [
            ("source", 0, 0, None, None, None, None, None, None, None),
            ("target", 1, 1, "2.2.2", "Main.", '["JsonElement"]', "Converts.",
             '[["jsonElement","root"]]', "JSON", "1.4"),
        ]

    def test_doc_attachment_stored_twice_is_store_error(self, store):
        mapping_id = self._mapping_id(store)
        attachment = DocAttachment(("com.google.gson.Gson", "toJson", 1), None, False)
        store.upsert_doc_attachment(mapping_id, "target", attachment)
        with pytest.raises(StoreError):
            store.upsert_doc_attachment(mapping_id, "target", attachment)
        assert store.db.execute("SELECT COUNT(*) FROM doc_attachments").fetchone() == (1,)

    def test_project_and_rule_update_in_place(self, store):
        seed_project(store)
        store.upsert([ProjectRef("demo", "/src/demo", "/elsewhere/demo"),
                      ProjectRef("other", "/src/other", "/work/other")])
        assert store.projects() == [ProjectRef("demo", "/src/demo", "/elsewhere/demo"),
                                    ProjectRef("other", "/src/other", "/work/other")]
        seed_rule(store)
        seed_rule(store, status="confirmed")
        assert [r.status for r in store.rules()] == ["confirmed"]

    def test_keep_projects_deletes_every_other_project_with_its_rows(self, store):
        """Each other project goes with its commits, file and dependency
        changes, segments and fragments, by cascade."""
        for project in ("demo", "gone", "kept"):
            seed_project(store, project)
        seed_rule(store)
        store.insert_file_changes(
            (project, {"c1": [FileChange("A.java", "modified", None, "b1", "b2")]})
            for project in ("demo", "gone", "kept")
        )
        store.insert_dependency_changes(
            DependencyChange(project, "c1", frozenset({LibraryCoordinate(*GSON_ID, "2.3.1")}),
                             frozenset())
            for project in ("demo", "gone", "kept")
        )
        store.insert_segments([make_segment("demo", 1), make_segment("gone", 2)])
        store.insert_fragments([make_fragment(1), make_fragment(2)])
        statements = []
        store.db.set_trace_callback(statements.append)
        assert store.keep_projects(["kept", "demo", "unknown"]) == ["gone"]
        store.db.set_trace_callback(None)
        # no RETURNING: the store needs only SQLite 3.24
        assert not [sql for sql in statements if "RETURNING" in sql.upper()]
        assert [ref.id for ref in store.projects()] == ["demo", "kept"]
        for table in ("commits", "file_changes", "dependency_changes", "segments"):
            assert store.db.execute(
                f"SELECT DISTINCT project FROM {table} ORDER BY project"
            ).fetchall() == [("demo",), ("kept",)][: 1 if table == "segments" else 2], table
        assert store.db.execute("SELECT segment_id FROM fragments").fetchall() == [(1,)]
        assert store.keep_projects(["demo", "kept"]) == []

    def test_rule_or_edge_that_breaks_a_constraint_is_store_error(self, store):
        """Rules and graph edges are stored like every other table: a
        violated constraint is a StoreError, and nothing of the batch stays."""
        rule = MigrationRule(JSON_ID, GSON_ID, 2, 1.0)
        with pytest.raises(StoreError, match="CHECK constraint failed"):
            store.upsert_rules([rule, MigrationRule(GSON_ID, JSON_ID, 1, 0.5, "bogus")])
        with pytest.raises(StoreError, match="CHECK constraint failed"):
            store.replace_edges({(JSON_ID, GSON_ID): 2, (GSON_ID, JSON_ID): 0})
        assert store.rules() == []
        assert store.db.execute("SELECT COUNT(*) FROM graph_edges").fetchone() == (0,)


class TestBatches:
    """A stage stores each table's rows in one batch; the write rule holds
    for the batch as a whole."""

    def test_duplicate_row_in_a_batch_stores_none_of_it(self, store):
        seed_project(store)
        seed_rule(store)
        segment = make_segment()
        later = dataclasses.replace(segment, start_commit="c2", commits=["c2"], id=2)
        with pytest.raises(StoreError):
            store.insert_segments([segment, later, segment])
        assert store.segments() == []
        records = store.commits_for("demo")
        with pytest.raises(StoreError):
            store.insert_commits([records[0]._replace(commit_id="c3", ordinal=3),
                                  records[1]])
        assert store.commits_for("demo") == records

    def test_fragment_with_unknown_segment_stores_none_of_the_batch(self, store):
        seed_project(store)
        seed_rule(store)
        store.insert_segments([make_segment()])
        with pytest.raises(StoreError, match="FOREIGN KEY constraint failed"):
            store.insert_fragments([make_fragment(), make_fragment(segment_id=99)])
        assert store.db.execute("SELECT COUNT(*) FROM fragments").fetchone() == (0,)
        store.insert_fragments([make_fragment()])
        assert store.db.execute("SELECT COUNT(*) FROM fragments").fetchone() == (1,)


class TestJournal:
    """The store keeps a write-ahead log and fsyncs it at every commit."""

    @staticmethod
    def pragmas(db) -> tuple:
        return (db.execute("PRAGMA journal_mode").fetchone()[0],
                db.execute("PRAGMA synchronous").fetchone()[0])

    def test_every_connection_logs_ahead_and_syncs_fully(self, store):
        assert self.pragmas(store.db) == ("wal", 2)
        with Store(store.path) as other:
            assert self.pragmas(other.db) == ("wal", 2)

    def test_rollback_journal_database_converts_and_keeps_its_rows(self, tmp_path):
        path = tmp_path / "old.db"
        with Store(path) as s:
            seed_project(s)
        db = sqlite3.connect(path)
        assert db.execute("PRAGMA journal_mode = DELETE").fetchone() == ("delete",)
        db.close()
        with Store(path) as s:
            assert self.pragmas(s.db) == ("wal", 2)
            assert [c.commit_id for c in s.commits_for("demo")] == ["c0", "c1", "c2"]
        db = sqlite3.connect(path)
        assert db.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        db.close()

    def test_second_store_reads_what_the_first_committed(self, store):
        with Store(store.path) as other:
            assert other.projects() == []
            seed_project(store)
            assert [ref.id for ref in other.projects()] == ["demo"]
            seed_rule(other)
            assert len(store.rules()) == 1

    def test_log_files_live_beside_an_open_database(self, tmp_path):
        path = tmp_path / "m.db"
        with Store(path) as s:
            seed_project(s)
            assert (tmp_path / "m.db-wal").exists() and (tmp_path / "m.db-shm").exists()
        # the last connection to close folds the log into the database
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.db"]


class TestTransactions:
    def test_write_outside_a_transaction_commits_on_its_own(self, store):
        seed_project(store)
        with Store(store.path) as other:
            assert [ref.id for ref in other.projects()] == ["demo"]
            assert len(other.commits_for("demo")) == 3

    def test_nested_transaction_joins_the_outer_one(self, store):
        with Store(store.path) as other:
            with store.transaction():
                seed_project(store)
                with store.transaction():
                    seed_rule(store)
                assert other.rules() == []
                assert other.projects() == []
            assert len(other.rules()) == 1
            assert len(other.projects()) == 1

    def test_raising_block_rolls_back_every_write(self, store):
        seed_rule(store)
        with pytest.raises(StoreError):
            with store.transaction():
                store.clear_rules_and_downstream()
                seed_project(store)
                store.insert_segments([make_segment(project="absent")])
        assert len(store.rules()) == 1
        assert store.projects() == []
        seed_project(store)  # the store still commits after a rollback
        with Store(store.path) as other:
            assert len(other.projects()) == 1


class TestExports:
    def test_unknown_selector_or_format(self, store):
        with pytest.raises(StoreError):
            store.export("json", "everything")
        with pytest.raises(StoreError):
            store.export("xml", "rules")

    def test_empty_store_exports(self, store):
        assert json.loads(store.export("json", "rules")) == []
        csv_text = store.export("csv", "mappings").decode()
        assert csv_text.splitlines()[0] == "rule,source_methods,target_methods,support"
        assert len(csv_text.splitlines()) == 1

    def test_rules_export_hides_discarded(self, store):
        seed_rule(store, status="confirmed")
        store.upsert_rules([MigrationRule(("a", "b"), ("c", "d"), 1, 1.0, "discarded")])
        rows = json.loads(store.export("json", "rules"))
        assert [row["source"] for row in rows] == ["org.json:json"]
        assert rows[0]["status"] == "confirmed"
        # still in the store for audit
        assert {r.status for r in store.rules()} == {"confirmed", "discarded"}

    def test_mappings_csv_columns(self, store):
        seed_rule(store, status="confirmed")
        store.insert_mappings([
            dataclasses.replace(
                make_mapping(support=12),
                target_methods=(
                    ("com.google.gson.Gson", "<init>", 0),
                    ("com.google.gson.Gson", "toJson", 1),
                ),
            )
        ])
        lines = store.export("csv", "mappings").decode().splitlines()
        assert lines[0] == "rule,source_methods,target_methods,support"
        assert lines[1] == (
            "org.json:json->com.google.code.gson:gson,"
            "org.json.JSONObject#toJSONString/0,"
            "com.google.gson.Gson#<init>/0;com.google.gson.Gson#toJson/1,12"
        )

    def test_fragment_export_shape(self, store):
        seed_project(store)
        seed_rule(store, status="confirmed")
        store.insert_segments([make_segment()])
        store.insert_fragments([make_fragment()])
        rows = json.loads(store.export("json", "fragments"))
        assert len(rows) == 1
        row = rows[0]
        assert row["rule"] == "org.json:json->com.google.code.gson:gson"
        assert row["before_range"] == [1, 2]
        assert row["removed_methods"][0]["method"] == "toJSONString"
        assert row["diff"].startswith("@@ ")

    def test_json_exports_are_the_standard_encoding(self, store, corpus_run):
        """Each JSON report is what `json.dumps(rows, indent=2)` writes, for
        multi-line diffs, text outside ASCII and empty reports too."""
        seed_project(store)
        seed_rule(store, status="confirmed")
        store.insert_segments([make_segment()])
        fragment = make_fragment()
        hunk = unified_diff("a\nb \u00e9\n", "a\n\tc \u2028\n", 1, path="src/\u00c9.java")[0]
        store.insert_fragments([fragment._replace(hunk=hunk)])
        with Store(store.path.replace("test.db", "empty.db")) as empty:
            for s in (store, corpus_run.store, empty):
                for selector in EXPORT_SELECTORS:
                    report = s.export("json", selector)
                    standard = json.dumps(json.loads(report), indent=2, ensure_ascii=False)
                    assert report == (standard + "\n").encode("utf-8")
            assert empty.export("json", "rules") == b"[]\n"

    def test_identical_content_gives_identical_bytes(self, tmp_path):
        outputs = []
        for name in ("one", "two"):
            with Store(tmp_path / f"{name}.db") as s:
                seed_project(s)
                seed_rule(s, status="confirmed")
                s.insert_segments([make_segment()])
                s.insert_fragments([make_fragment()])
                outputs.append(
                    tuple(s.export(fmt, sel) for fmt in ("json", "csv")
                          for sel in ("rules", "segments", "fragments", "mappings"))
                )
        assert outputs[0] == outputs[1]


# the dependency_changes DDL of schema version 1 before upgrade rows were dropped
LEGACY_DEPENDENCY_CHANGES = """
CREATE TABLE dependency_changes (
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
"""


def test_store_with_upgrade_rows_is_refused(tmp_path):
    """Only schema version 1 wrote 'upgraded' rows, so a database that holds
    them is refused at open; this version's table cannot hold one."""
    path = tmp_path / "legacy.db"
    db = sqlite3.connect(path)
    db.executescript(
        LEGACY_DEPENDENCY_CHANGES
        + "CREATE TABLE run_metadata (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
        "INSERT INTO run_metadata VALUES ('schema_version', '1');"
    )
    db.close()
    with pytest.raises(StoreError, match="schema version 1 != supported"):
        Store(path)
    with Store(tmp_path / "fresh.db") as store:
        seed_project(store)
        with pytest.raises(sqlite3.IntegrityError, match="CHECK"):
            store.db.execute(
                "INSERT INTO dependency_changes VALUES ('demo', 'c1', 'upgraded', 'junit', "
                "'junit', '4.12')"
            )


def test_foreign_tables_without_a_schema_version_are_refused(tmp_path):
    """A database that holds tables but no schema version is not new: it
    is refused, and left as it was, rather than stamped with this version."""
    path = tmp_path / "legacy.db"
    db = sqlite3.connect(path)
    db.executescript(LEGACY_DEPENDENCY_CHANGES)
    db.close()
    before = path.read_bytes()
    with pytest.raises(StoreError, match="holds tables but no schema version"):
        Store(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["legacy.db"]


def test_a_first_open_cut_short_leaves_a_new_database(tmp_path, monkeypatch):
    """A first open that fails before the schema version is stamped creates
    no table and closes its connection, so the next open takes the
    database as new."""
    path = tmp_path / "cut.db"
    set_meta = Store.set_meta

    def cut_short(self, key, value):
        if key == "schema_version":
            raise RuntimeError("cut short")
        set_meta(self, key, value)

    monkeypatch.setattr(Store, "set_meta", cut_short)
    with pytest.raises(RuntimeError, match="cut short"):
        Store(path)
    # the last connection's close folded and removed the write-ahead log
    assert [p.name for p in tmp_path.iterdir()] == ["cut.db"]
    monkeypatch.undo()
    with Store(path) as store:
        assert store.get_meta("schema_version") == SCHEMA_VERSION
        assert store.blob_answers() == {}


def test_schema_version_mismatch_fails(tmp_path):
    path = tmp_path / "versioned.db"
    with Store(path) as s:
        s.set_meta("schema_version", "999")
    with pytest.raises(StoreError):
        Store(path)


class TestBlobFacts:
    """What every answer of `blob_answers` shares."""

    def test_same_blob_stored_twice_is_store_error(self, store):
        store.insert_blob_answers([("b1", "uses 1-0", "")])
        with pytest.raises(StoreError):
            store.insert_blob_answers([("b2", "uses 1-0", ""), ("b1", "uses 1-0", "")])
        # the failed insert stored nothing
        assert store.blob_answers() == {("b1", "uses 1-0"): ""}
        # another question about the same blob is another answer
        store.insert_blob_answers([("b1", "manifest", "[]")])
        assert store.blob_answers() == {("b1", "uses 1-0"): "", ("b1", "manifest"): "[]"}

    def test_other_facts_version_empties_the_table_at_open(self, tmp_path):
        """Library answers derive from the extractor's facts: every answer
        goes, parse results and diffs too."""
        path = tmp_path / "facts.db"
        with Store(path) as s:
            s.insert_blob_answers(
                [("b1", "diff 3 b0", "[]"), ("b1", "uses 1-0", ""), ("p1", "manifest", "[]")]
            )
        with Store(path) as s:
            assert len(s.blob_answers()) == 3
            assert s.get_meta("answers_version") == ANSWERS_VERSION
            s.set_meta("answers_version", f"0/{MANIFEST_VERSION}/{DIFF_VERSION}/{RESOLVER_VERSION}")
        with Store(path) as s:
            assert s.blob_answers() == {}
            assert s.get_meta("answers_version") == ANSWERS_VERSION

    def test_no_export_holds_blob_facts(self, corpus_run):
        """Nor a blob's id or a library answer that holds something."""
        rows = corpus_run.store.db.execute(
            "SELECT blob_id, answer FROM blob_answers WHERE question GLOB 'uses *' AND answer != ''"
        ).fetchall()
        assert rows
        exported = b"".join(
            corpus_run.store.export(fmt, selector)
            for fmt in EXPORT_FORMATS for selector in EXPORT_SELECTORS
        )
        assert [blob for blob, answer in rows
                if blob.encode() in exported or answer.encode() in exported] == []
        assert "blob_answers" not in EXPORT_SELECTORS


class TestPomManifests:
    """The `manifest` answers of `blob_answers`, through a `FactsCache`."""

    def test_rows_read_back_and_a_blob_stored_twice_is_store_error(self, store):
        coordinates = [LibraryCoordinate("g", "a", "1")]
        facts = FactsCache(store)
        assert facts.manifest("a" * 40) is None
        facts.keep_manifest("a" * 40, coordinates)
        facts.keep_manifest("b" * 40, "malformed")
        facts.save()
        rows = {("a" * 40, "manifest"): '[["g","a","1"]]', ("b" * 40, "manifest"): '"malformed"'}
        assert store.blob_answers() == rows
        again = FactsCache(store)
        assert (again.manifest("a" * 40), again.manifest("b" * 40)) == (coordinates, "malformed")
        with pytest.raises(StoreError):
            store.insert_blob_answers([("c" * 40, "manifest", "[]"), ("a" * 40, "manifest", "[]")])
        assert store.blob_answers() == rows

    def test_a_row_holds_coordinates_or_an_error(self, store):
        """An error message reads back as a message, whatever it says, and
        a pom.xml that declares nothing as no coordinates."""
        facts = FactsCache(store)
        facts.keep_manifest("a" * 40, "[]")
        facts.keep_manifest("b" * 40, [])
        facts.save()
        again = FactsCache(store)
        assert (again.manifest("a" * 40), again.manifest("b" * 40)) == ("[]", [])

    def test_other_manifest_version_empties_the_table_at_open(self, tmp_path):
        """The library answers go too, and are computed again."""
        path = tmp_path / "poms.db"
        with Store(path) as s:
            s.insert_blob_answers([("a" * 40, "manifest", "[]"), ("b1", "uses 1-0", "")])
        with Store(path) as s:
            assert len(s.blob_answers()) == 2
            s.set_meta("answers_version", f"{FACTS_VERSION}/0/{DIFF_VERSION}/{RESOLVER_VERSION}")
        with Store(path) as s:
            assert s.blob_answers() == {}
            assert s.get_meta("answers_version") == ANSWERS_VERSION


class TestLibraryAnswers:
    """The answers of `blob_answers` asked under a `PackageIndex.answer_key`,
    through a `FactsCache`."""

    KEY = "uses 24-0123abcd"

    def test_answers_read_back_and_one_holding_nothing_is_empty(self, store):
        use = LibraryMethodUse("org.json.JSONObject", "<init>", 1, 7)
        facts = FactsCache(store)
        assert facts.library_answer("a" * 40, self.KEY) is None
        facts.keep_library_answer("a" * 40, self.KEY, LibraryAnswer([use], True))
        facts.keep_library_answer("b" * 40, self.KEY, LibraryAnswer([], False))
        facts.save()
        assert store.blob_answers() == {
            ("a" * 40, self.KEY): '[[["org.json.JSONObject","<init>",1,7]],1]',
            ("b" * 40, self.KEY): "",
        }
        again = FactsCache(store)
        assert again.library_answer("a" * 40, "uses 24-00000000") is None
        assert again.library_answer("a" * 40, self.KEY) == LibraryAnswer([use], True)
        assert again.library_answer("b" * 40, self.KEY) == LibraryAnswer([], False)
        assert again.loaded == {"uses": 2}

    # "3/1/1": the answers version before the resolver's version joined it
    @pytest.mark.parametrize(
        "old", ["3/1/1", f"{FACTS_VERSION}/{MANIFEST_VERSION}/{DIFF_VERSION}/0"]
    )
    def test_another_resolver_version_empties_the_answers_once_at_open(self, tmp_path, old):
        """A database written before library answers were stored, or under
        another `RESOLVER_VERSION`, drops every stored answer when it is
        opened, and keeps the ones stored after that."""
        path = tmp_path / "answers.db"
        with Store(path) as s:
            s.insert_blob_answers([("a" * 40, self.KEY, ""), ("b1", "manifest", "[]")])
            s.set_meta("answers_version", old)
        with Store(path) as s:
            assert s.blob_answers() == {}
            assert s.get_meta("answers_version") == ANSWERS_VERSION
            s.insert_blob_answers([("a" * 40, self.KEY, "")])
        with Store(path) as s:
            assert s.blob_answers() == {("a" * 40, self.KEY): ""}


class TestStoredDiffs:
    """The `diff <context> <before blob id>` answers of `blob_answers`,
    through a `FactsCache`."""

    BEFORE = "int a;\nint b;\nint c;\n"
    AFTER = "int a;\nlong b;\nint c;\n"

    def change(self, path="src/A.java", before="b" * 40, after="a" * 40):
        return FileChange(path, "modified", None, before, after)

    def test_hunks_read_back_under_the_asking_changes_path(self, store):
        hunks = unified_diff(self.BEFORE, self.AFTER, 1, path="src/A.java")
        facts = FactsCache(store)
        assert facts.hunks(self.change(), 1) is None
        facts.keep_hunks(self.change(), 1, hunks)
        facts.save()
        assert store.blob_answers() == {
            ("a" * 40, f"diff 1 {'b' * 40}"): '[[1,3,1,3," int a;\\n","-int b;\\n",'
            '"+long b;\\n"," int c;\\n"]]',
        }
        again = FactsCache(store)
        # another context, or another before blob, is another question
        assert again.hunks(self.change(), 0) is None
        assert again.hunks(self.change(before="c" * 40), 1) is None
        assert again.loaded == {}
        assert again.hunks(self.change(), 1) == hunks
        assert again.hunks(self.change(path="src/B.java"), 1) == [
            hunk._replace(file="src/B.java") for hunk in hunks
        ]
        assert again.loaded == {"diff": 1}

    def test_a_cache_asked_no_diff_reads_no_stored_diff(self, store, monkeypatch):
        """The stored diffs are read at the first diff question, and the
        answers of each other kind at the first question of that kind, so
        a stage that asks only library answers holds no diff's text.  A
        blob's facts are never read from the store, not even a `facts` row
        an older version stored."""
        key = TestLibraryAnswers.KEY
        facts = FactsCache(store)
        facts.keep_hunks(self.change(), 1, unified_diff(self.BEFORE, self.AFTER, 1))
        facts.keep_library_answer("b1", key, LibraryAnswer([], False))
        store.insert_blob_answers([("b1", "facts", "[null,[],[],[]]")])
        facts.save()
        asked = []
        read = Store.blob_answers
        monkeypatch.setattr(Store, "blob_answers",
                            lambda self, kind=None: asked.append(kind) or read(self, kind))
        again = FactsCache(store)
        assert again.known("b1") is None and asked == []
        assert again.library_answer("b1", key) is not None
        assert again.library_answer("b2", key) is None
        assert asked == ["uses"]
        assert again.manifest("b1") is None
        assert again.hunks(self.change(), 1) is not None
        assert again.hunks(self.change(), 3) is None
        assert asked == ["uses", "manifest", "diff"]
        assert again.loaded == {"uses": 1, "diff": 1}

    @pytest.mark.parametrize("old", ["3/1", f"{FACTS_VERSION}/{MANIFEST_VERSION}/0"])
    def test_other_answers_version_empties_the_stored_diffs_at_open(self, tmp_path, old):
        """A database written before diffs were stored, or by another diff
        or encoding, drops every stored diff, library answers and all."""
        path = tmp_path / "diffs.db"
        with Store(path) as s:
            facts = FactsCache(s)
            facts.keep_hunks(self.change(), 3, unified_diff(self.BEFORE, self.AFTER))
            facts.save()
            s.insert_blob_answers([("b1", "uses 1-0", "")])
            assert len(s.blob_answers()) == 2
            s.set_meta("answers_version", old)
        with Store(path) as s:
            assert s.blob_answers() == {}
            assert FactsCache(s).hunks(self.change(), 3) is None
            assert s.get_meta("answers_version") == ANSWERS_VERSION


class TestArchiveDocs:
    def test_same_key_stored_twice_is_store_error(self, store):
        store.insert_archive_docs([("k1", "[]")])
        with pytest.raises(StoreError):
            store.insert_archive_docs([("k2", "[]"), ("k1", "[]")])
        # the failed insert stored nothing
        assert store.archive_docs(["k1", "k2", "k3"]) == {"k1": "[]"}

    def test_keep_deletes_every_other_key(self, store):
        store.insert_archive_docs([("k1", "[1]"), ("k2", "[2]"), ("k3", "[3]")])
        store.keep_archive_docs(["k3", "k1", "k9"])
        assert store.archive_docs(["k1", "k2", "k3"]) == {"k1": "[1]", "k3": "[3]"}
        store.keep_archive_docs([])
        assert store.archive_docs(["k1", "k3"]) == {}

    def test_other_docs_version_empties_the_table_at_open(self, tmp_path):
        path = tmp_path / "docs.db"
        with Store(path) as s:
            s.insert_archive_docs([("k1", "[]")])
        with Store(path) as s:
            assert s.archive_docs(["k1"]) == {"k1": "[]"}
            s.set_meta("docs_version", "0")
        with Store(path) as s:
            assert s.archive_docs(["k1"]) == {}
            assert s.get_meta("docs_version") == DOCS_VERSION

    def test_no_export_holds_archive_docs(self, corpus_run):
        rows = corpus_run.store.db.execute("SELECT key, docs FROM archive_docs").fetchall()
        assert len(rows) == 2
        exported = b"".join(
            corpus_run.store.export(fmt, selector)
            for fmt in EXPORT_FORMATS for selector in EXPORT_SELECTORS
        )
        assert [key for key, docs in rows
                if key.encode() in exported or docs.encode() in exported] == []
        # nor any class or method description it holds
        texts = {text for _, docs in rows for doc in json.loads(docs) for text in (doc[2], doc[5])}
        assert [text for text in texts if text and text.encode() in exported] == []
