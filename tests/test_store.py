"""Store write rules, foreign keys, export shapes and determinism."""

import dataclasses
import json
from datetime import datetime, timezone

import pytest

from migmine.fragments import unified_diff
from migmine.model import (
    CommitRecord,
    DependencyChange,
    DocAttachment,
    Fragment,
    LibraryCoordinate,
    LibraryMethodUse,
    MethodDoc,
    MethodMapping,
    MigrationRule,
    ProjectRef,
    Segment,
)
from migmine.store import Store, StoreError

JSON_ID = ("org.json", "json")
GSON_ID = ("com.google.code.gson", "gson")


@pytest.fixture
def store(tmp_path):
    with Store(tmp_path / "test.db") as s:
        yield s


def seed_project(store, project="demo"):
    store.upsert(ProjectRef(project, f"/src/{project}", f"/work/{project}"))
    for ordinal, commit in enumerate(["c0", "c1", "c2"]):
        store.upsert(
            CommitRecord(
                project=project,
                commit_id=commit,
                date=datetime(2015, 3, ordinal + 1, tzinfo=timezone.utc),
                author="Dev One",
                message=f"step {ordinal}",
                ordinal=ordinal,
            )
        )


def seed_rule(store, status="candidate"):
    store.upsert(MigrationRule(JSON_ID, GSON_ID, 2, 1.0, status))


def make_segment(project="demo"):
    return Segment(
        project=project,
        source=JSON_ID,
        target=GSON_ID,
        start_commit="c1",
        end_commit="c2",
        source_version="20080701",
        target_version="2.3.1",
        commits=["c1", "c2"],
    )


def make_fragment(project="demo", start="c1"):
    hunk = unified_diff("a\nb\n", "a\nc\n", 1, path="src/A.java")[0]
    return Fragment(
        project=project,
        source=JSON_ID,
        target=GSON_ID,
        start_commit=start,
        commit="c2",
        hunk=hunk,
        removed_methods=frozenset(
            {LibraryMethodUse(JSON_ID, "org.json.JSONObject", "toJSONString", 0, 2)}
        ),
        added_methods=frozenset(
            {LibraryMethodUse(GSON_ID, "com.google.gson.Gson", "toJson", 1, 2)}
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
            store.upsert(record)
        assert store.counts()["commits"] == before

    def test_fragment_with_unknown_segment_is_store_error(self, store):
        seed_project(store)
        seed_rule(store)
        with pytest.raises(StoreError) as err:
            store.upsert(make_fragment(start="nonexistent"))
        assert "unknown segment" in str(err.value)

    def test_segment_requires_existing_rule(self, store):
        seed_project(store)
        with pytest.raises(StoreError):
            store.upsert(make_segment())

    def test_full_chain_roundtrip(self, store):
        """Each insert returns a new row id; storing a row again is an error."""
        seed_project(store)
        seed_rule(store)
        segment = make_segment()
        segment_id = store.upsert(segment)
        assert isinstance(segment_id, int)
        later = dataclasses.replace(segment, start_commit="c2", commits=["c2"])
        later_id = store.upsert(later)
        assert isinstance(later_id, int) and later_id != segment_id
        with pytest.raises(StoreError):
            store.upsert(dataclasses.replace(segment, end_commit="c1"))
        fragment_id = store.upsert(make_fragment())
        assert isinstance(fragment_id, int)
        with pytest.raises(StoreError):
            store.upsert(make_fragment())
        assert store.db.execute(
            "SELECT segment_id FROM fragments WHERE id = ?", (fragment_id,)
        ).fetchone() == (segment_id,)
        segs = store.segments()
        assert len(segs) == 2
        assert segs[0].commits == ["c1", "c2"]
        assert segs[0].end_commit == "c2"

        mapping = MethodMapping(
            JSON_ID,
            GSON_ID,
            frozenset({("org.json.JSONObject", "toJSONString", 0)}),
            frozenset({("com.google.gson.Gson", "toJson", 1)}),
            support=1,
        )
        mapping_id = store.upsert(mapping)
        other_id = store.upsert(dataclasses.replace(mapping, target_methods=frozenset()))
        assert isinstance(other_id, int) and other_id != mapping_id
        with pytest.raises(StoreError):
            store.upsert(dataclasses.replace(mapping, support=5))
        assert dict(store.mappings())[mapping_id].support == 1

    def test_dependency_change_roundtrip(self, store):
        seed_project(store)
        change = DependencyChange(
            "demo",
            "c1",
            added=frozenset({LibraryCoordinate(*GSON_ID, "2.3.1")}),
            removed=frozenset({LibraryCoordinate(*JSON_ID, "20080701")}),
        )
        store.upsert(change)
        with pytest.raises(StoreError):
            store.upsert(change)
        loaded = store.dependency_changes()
        assert len(loaded) == 1
        assert loaded[0].added == change.added
        assert loaded[0].removed == change.removed

    def test_method_doc_upsert(self, store):
        doc = make_doc()
        first = store.upsert(doc)
        overload = store.upsert(dataclasses.replace(doc, signature=("Object",)))
        assert isinstance(first, int) and isinstance(overload, int) and overload != first
        with pytest.raises(StoreError):
            store.upsert(dataclasses.replace(doc, description="Serializes."))
        assert store.db.execute(
            "SELECT description FROM method_docs WHERE id = ?", (first,)
        ).fetchone() == ("Converts.",)

    def test_doc_attachment_stored_twice_is_store_error(self, store):
        seed_rule(store)
        mapping_id = store.upsert(
            MethodMapping(
                JSON_ID,
                GSON_ID,
                frozenset({("org.json.JSONObject", "toJSONString", 0)}),
                frozenset({("com.google.gson.Gson", "toJson", 1)}),
                support=1,
            )
        )
        attachment = DocAttachment(("com.google.gson.Gson", "toJson", 1), None, False)
        store.upsert_doc_attachment(mapping_id, "target", attachment, None)
        with pytest.raises(StoreError):
            store.upsert_doc_attachment(mapping_id, "target", attachment, None)
        assert store.db.execute("SELECT COUNT(*) FROM doc_attachments").fetchone() == (1,)

    def test_project_and_rule_update_in_place(self, store):
        seed_project(store)
        store.upsert(ProjectRef("demo", "/src/demo", "/elsewhere/demo"))
        assert store.projects() == [ProjectRef("demo", "/src/demo", "/elsewhere/demo")]
        seed_rule(store)
        seed_rule(store, status="confirmed")
        assert [r.status for r in store.rules()] == ["confirmed"]


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
                store.upsert(make_segment(project="absent"))
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
        store.upsert(MigrationRule(("a", "b"), ("c", "d"), 1, 1.0, "discarded"))
        rows = json.loads(store.export("json", "rules"))
        assert [row["source"] for row in rows] == ["org.json:json"]
        assert rows[0]["status"] == "confirmed"
        # still in the store for audit
        assert {r.status for r in store.rules()} == {"confirmed", "discarded"}

    def test_mappings_csv_columns(self, store):
        seed_rule(store, status="confirmed")
        store.upsert(
            MethodMapping(
                JSON_ID,
                GSON_ID,
                frozenset({("org.json.JSONObject", "toJSONString", 0)}),
                frozenset(
                    {
                        ("com.google.gson.Gson", "<init>", 0),
                        ("com.google.gson.Gson", "toJson", 1),
                    }
                ),
                support=12,
            )
        )
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
        store.upsert(make_segment())
        store.upsert(make_fragment())
        rows = json.loads(store.export("json", "fragments"))
        assert len(rows) == 1
        row = rows[0]
        assert row["rule"] == "org.json:json->com.google.code.gson:gson"
        assert row["before_range"] == [1, 2]
        assert row["removed_methods"][0]["method"] == "toJSONString"
        assert row["diff"].startswith("@@ ")

    def test_identical_content_gives_identical_bytes(self, tmp_path):
        outputs = []
        for name in ("one", "two"):
            with Store(tmp_path / f"{name}.db") as s:
                seed_project(s)
                seed_rule(s, status="confirmed")
                s.upsert(make_segment())
                s.upsert(make_fragment())
                outputs.append(
                    tuple(s.export(fmt, sel) for fmt in ("json", "csv")
                          for sel in ("rules", "segments", "fragments", "mappings"))
                )
        assert outputs[0] == outputs[1]


def test_upsert_rejects_unknown_entity(store):
    with pytest.raises(StoreError):
        store.upsert(object())


def test_schema_version_mismatch_fails(tmp_path):
    path = tmp_path / "versioned.db"
    with Store(path) as s:
        s.set_meta("schema_version", "999")
    with pytest.raises(StoreError):
        Store(path)
