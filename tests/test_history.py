"""Manifest timeline replay (multi-module unions, parse resilience) and the
backward search for the last commit whose sources use a library."""

import hashlib
import logging
from datetime import datetime, timezone

from conftest import ingested_history
from corpusgen import (
    GSON_LIB,
    JSON_LIB,
    JUNIT_LIB,
    SERIALIZER_GSON,
    build_repo,
    pom,
    simple_json_user,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from migmine import javafacts
from migmine.gitrepo import changed_files, ingest_project
from migmine.history import CommitChanges, FactsCache, ProjectHistory
from migmine.model import UNRESOLVED, CommitRecord, FileChange, LibraryCoordinate, ProjectRef
from migmine.store import Store

JSON_ID = ("org.json", "json")
GSON_ID = ("com.google.code.gson", "gson")
JUNIT_ID = ("junit", "junit")


def history_for(tmp_path, name, commits):
    path = tmp_path / name
    build_repo(path, commits)
    return ingested_history(path, tmp_path / "work", name)


def test_multi_module_dependencies_union_per_commit(tmp_path):
    history = history_for(
        tmp_path,
        "multimod",
        [
            (
                "init",
                {
                    "pom.xml": pom("parent"),
                    "core/pom.xml": pom("core", JSON_LIB),
                    "web/pom.xml": pom("web", JUNIT_LIB),
                },
            ),
        ],
    )
    declared = history.dependency_timeline()[0]
    assert set(declared) == {JSON_ID, JUNIT_ID}
    change = history.dependency_changes()[0]
    assert {c.identity for c in change.added} == {JSON_ID, JUNIT_ID}


def test_moving_a_dependency_between_modules_is_no_change(tmp_path):
    history = history_for(
        tmp_path,
        "movedep",
        [
            (
                "init",
                {
                    "core/pom.xml": pom("core", JSON_LIB, JUNIT_LIB),
                    "web/pom.xml": pom("web"),
                },
            ),
            (
                "move json to web module",
                {
                    "core/pom.xml": pom("core", JUNIT_LIB),
                    "web/pom.xml": pom("web", JSON_LIB),
                },
            ),
        ],
    )
    change = history.dependency_changes()[1]
    assert not change.added and not change.removed


def test_deleting_a_module_pom_removes_its_dependencies(tmp_path):
    history = history_for(
        tmp_path,
        "dropmod",
        [
            (
                "init",
                {"pom.xml": pom("app", JUNIT_LIB), "old/pom.xml": pom("old", JSON_LIB)},
            ),
            ("drop old module", {"old/pom.xml": None}),
        ],
    )
    change = history.dependency_changes()[1]
    assert {c.identity for c in change.removed} == {JSON_ID}
    assert JSON_ID not in history.dependency_timeline()[1]


def test_a_pom_renamed_away_stops_declaring(tmp_path):
    """A module pom.xml that git reports renamed to pom.xml.bak is no
    manifest any more: its dependencies leave the timeline in that commit,
    and the commit's dependency change removes them."""
    history = history_for(
        tmp_path,
        "shelved",
        [
            ("init", {"pom.xml": pom("app", JUNIT_LIB), "old/pom.xml": pom("old", JSON_LIB)}),
            ("shelve old module", {"old/pom.xml": None, "old/pom.xml.bak": pom("old", JSON_LIB)}),
        ],
    )
    assert [fc.kind for fc in history.changes(history.commits[1].commit_id).pom] == ["deleted"]
    assert [set(declared) for declared in history.dependency_timeline()] == [
        {JSON_ID, JUNIT_ID}, {JUNIT_ID}
    ]
    change = history.dependency_changes()[1]
    assert {c.identity for c in change.removed} == {JSON_ID} and not change.added


def test_a_java_file_renamed_away_stops_counting_as_a_source(tmp_path, json_index):
    """A .java file that git reports renamed to Foo.java.orig is no source
    any more, so the commit that renames the last org.json user away is the
    first with no dependent file."""
    users = {
        f"src/main/java/com/example/app/{name}.java": simple_json_user("com.example.app", name)
        for name in ("Reader", "Writer")
    }
    reader, writer = users
    history = history_for(
        tmp_path,
        "orig",
        [
            ("init", {"pom.xml": pom("app", JSON_LIB), **users}),
            ("drop the reader", {reader: None}),
            ("set the writer aside", {writer: None, writer + ".orig": users[writer]}),
        ],
    )
    assert [fc.kind for fc in history.changes(history.commits[2].commit_id).java] == ["deleted"]
    assert history.last_dependent_commit(json_index, 2) == 1


def test_malformed_manifest_degrades_to_empty_not_crash(tmp_path, caplog):
    history = history_for(
        tmp_path,
        "badpom",
        [
            ("init", {"pom.xml": pom("app", JSON_LIB)}),
            ("corrupt the manifest", {"pom.xml": "<project><dependencies>"}),
            ("restore", {"pom.xml": pom("app", GSON_LIB)}),
        ],
    )
    changes = history.dependency_changes()
    # corrupt commit reads as an empty manifest: json temporarily removed
    assert {c.identity for c in changes[1].removed} == {JSON_ID}
    assert {c.identity for c in changes[2].added} == {GSON_ID}


def test_first_module_version_wins_on_identity_collision(tmp_path):
    history = history_for(
        tmp_path,
        "collide",
        [
            (
                "init",
                {
                    "a/pom.xml": pom("a", ("org.json", "json", "20080701")),
                    "b/pom.xml": pom("b", ("org.json", "json", "20140107")),
                },
            ),
        ],
    )
    declared = history.dependency_timeline()[0]
    # deterministic: the lexicographically first module path supplies the version
    assert declared[JSON_ID].version == "20080701"


def test_declared_libraries_keep_the_latest_resolved_version(tmp_path):
    """Each library ever declared maps to its latest resolved coordinate; a
    later unresolvable version does not replace it, and a library whose
    version never resolves maps to its unresolved coordinate."""
    history = history_for(
        tmp_path,
        "declared",
        [
            ("init", {"pom.xml": pom("declared", ("org.json", "json", "20070101"))}),
            ("upgrade", {"pom.xml": pom("declared", JSON_LIB, ("junit", "junit", "${junit.v}"))}),
            ("unpin", {"pom.xml": pom("declared", ("org.json", "json", "${json.v}"), GSON_LIB)}),
            ("drop json", {"pom.xml": pom("declared", GSON_LIB)}),
        ],
    )
    assert history.declared_libraries() == {
        JSON_ID: LibraryCoordinate(*JSON_LIB),
        GSON_ID: LibraryCoordinate(*GSON_LIB),
        JUNIT_ID: LibraryCoordinate(*JUNIT_ID, UNRESOLVED),
    }
    ever_changed = {
        coord.identity
        for change in history.dependency_changes()
        for coord in change.added | change.removed
    }
    assert ever_changed == set(history.declared_libraries())


def stored_replay(tmp_path, name, commits, caplog) -> tuple[list, list[str], list[str]]:
    """Replay a project's manifests through a history whose facts cache
    stores the parse results, then, as a re-run does, through a new
    history and cache over the same store.  Returns the second history's
    timeline, and the event=manifest_parse_error lines of each replay;
    the second replay must read no blob."""
    build_repo(tmp_path / name, commits)
    ref, commits, changes = ingest_project(str(tmp_path / name), tmp_path / "work", name)
    caplog.set_level(logging.WARNING, logger="migmine")
    logged = []
    with Store(tmp_path / "m.db") as store:
        for _ in range(2):
            caplog.clear()
            facts = FactsCache(store)
            history = ProjectHistory(ref, commits, changed_files(changes), facts=facts)
            try:
                timeline = history.dependency_timeline()
            finally:
                history.close()
            facts.save()
            logged.append([
                r.getMessage() for r in caplog.records
                if "event=manifest_parse_error" in r.getMessage()
            ])
        assert history.blobs_read == 0
    return timeline, *logged


def test_a_stored_parse_error_logs_as_a_fresh_parse(tmp_path, caplog):
    """A malformed and a binary pom.xml version store their parse errors, so
    a replay from the store logs the lines a fresh parse logged."""
    timeline, first, again = stored_replay(tmp_path, "badpoms", [
        ("init", {"pom.xml": pom("app", JSON_LIB)}),
        ("corrupt", {"pom.xml": "<project><dependencies>"}),
        ("binary", {"pom.xml": "\0" + pom("app", GSON_LIB)}),
        ("restore", {"pom.xml": pom("app", GSON_LIB)}),
    ], caplog)
    assert [set(declared) for declared in timeline] == [{JSON_ID}, set(), set(), {GSON_ID}]
    assert len(first) == 2
    assert again == first


def test_a_pom_blob_the_repository_lacks_is_not_stored(tmp_path):
    """A pom.xml version whose blob git cannot find declares nothing, and
    its parse error is not stored: the next history asks git again."""
    build_repo(tmp_path / "lacking", [("init", {"pom.xml": pom("app", JSON_LIB)})])
    ref, [commit], _ = ingest_project(str(tmp_path / "lacking"), tmp_path / "work")
    gone = FileChange("pom.xml", "added", None, None, "1" * 40)
    with Store(tmp_path / "m.db") as store:
        for _ in range(2):
            facts = FactsCache(store)
            history = ProjectHistory(ref, [commit], {commit.commit_id: [gone]}, facts=facts)
            try:
                assert history.dependency_timeline() == [{}]
                # the last-commit check, then the missing blob
                assert history.blobs_read == 2
            finally:
                history.close()
            facts.save()
        assert store.blob_answers() == {}


# -- last_dependent_commit against a forward replay ------------------------------

JSON_USER = """package com.example;

import org.json.JSONObject;

public class User {
    public String dump(Object value) {
        return new JSONObject(value).toJSONString();
    }
}
"""
IMPORT_ONLY = """package com.example;

import org.json.JSONObject;

public class Lingering {
}
"""
NAMED_IN_COMMENT = """package com.example;

// once built a JSONObject here
public class Quiet {
}
"""
PLAIN = """package com.example;

public class Plain {
}
"""
# None: a blob the reader could not find, read as having no text
VERSIONS = [JSON_USER, IMPORT_ONLY, NAMED_IN_COMMENT, PLAIN, SERIALIZER_GSON, None]
PATHS = ["A.java", "B.java", "C.java", "D.java"]


class ScriptedHistory(ProjectHistory):
    """A history whose java changes and blob texts are given, not read from
    a repository."""

    def __init__(
        self,
        java_changes: list[list[FileChange]],
        texts: dict[str, str | None],
        facts: FactsCache | None = None,
    ):
        # no repository: a text not given cannot be read
        ref = ProjectRef("scripted", "scripted", "scripted")
        date = datetime(2015, 1, 1, tzinfo=timezone.utc)
        super().__init__(
            ref,
            [CommitRecord(ref.id, f"c{i}", date, "dev", "", i) for i in range(len(java_changes))],
            {},
            facts=facts,
        )
        self._texts.update(texts)
        self.scripted = {f"c{i}": CommitChanges([], fcs) for i, fcs in enumerate(java_changes)}

    def changes(self, commit_id: str) -> CommitChanges:
        return self.scripted[commit_id]


def forward_dependency_flags(history, index, imports_count_as_use):
    """The forward, whole-history replay that `last_dependent_commit` replaced."""
    dependent: set[str] = set()
    flags = []
    for commit in history.commits:
        for fc in history.changes(commit.commit_id).java:
            if fc.kind == "deleted":
                dependent.discard(fc.path)
                continue
            if fc.kind == "renamed" and fc.old_path:
                dependent.discard(fc.old_path)
            after = history.text(fc.after_sha)
            if (
                after is not None
                and javafacts.may_reference(after, index)
                and javafacts.facts_depend_on(
                    history.facts_for(fc.after_sha, after),
                    index,
                    imports_count_as_use,
                )
            ):
                dependent.add(fc.path)
            else:
                dependent.discard(fc.path)
        flags.append(bool(dependent))
    return flags


def draw_version(data) -> tuple[str | None, str]:
    """A text and its blob id; equal ids always carry equal texts."""
    text = data.draw(st.sampled_from(VERSIONS))
    if text is not None:
        text += f"// v{data.draw(st.integers(0, 2))}\n"
    return text, hashlib.sha1(repr(text).encode()).hexdigest()


def draw_java_changes(data) -> tuple[list[list[FileChange]], dict[str, str | None]]:
    """Adds, modifies, deletes and renames that git could report, commit by
    commit, and the text of each blob; paths may be deleted, re-added and
    renamed onto again."""
    present: dict[str, tuple[str | None, str]] = {}
    texts: dict[str, str | None] = {}
    commits = []
    for _ in range(data.draw(st.integers(1, 8))):
        changes = []
        for _ in range(data.draw(st.integers(0, 3))):
            absent = [p for p in PATHS if p not in present]
            kinds = ["added"] if absent else []
            if present:
                kinds += ["modified", "deleted"] + (["renamed"] if absent else [])
            kind = data.draw(st.sampled_from(kinds))
            if kind == "added":
                path = data.draw(st.sampled_from(absent))
                text, sha = present[path] = draw_version(data)
                texts[sha] = text
                changes.append(FileChange(path, kind, None, None, sha))
                continue
            old = data.draw(st.sampled_from(sorted(present)))
            _, before_sha = present.pop(old)
            if kind == "deleted":
                changes.append(FileChange(old, kind, None, before_sha, None))
                continue
            path = old if kind == "modified" else data.draw(st.sampled_from(absent))
            text, sha = present[path] = draw_version(data)
            texts[sha] = text
            changes.append(
                FileChange(path, kind, old if kind == "renamed" else None, before_sha, sha)
            )
        commits.append(changes)
    return commits, texts


def test_last_dependent_commit_matches_a_forward_replay(json_index):
    seen = set()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def check(data):
        java_changes, texts = draw_java_changes(data)
        reference = ScriptedHistory(java_changes, texts)
        # one history answers for both settings, so its caches must keep them apart
        history = ScriptedHistory(java_changes, texts)
        answers = {}
        for imports_count_as_use in (True, False):
            flags = forward_dependency_flags(reference, json_index, imports_count_as_use)
            for hi in data.draw(st.permutations(range(len(java_changes)))):
                expected = max((i for i in range(hi + 1) if flags[i]), default=None)
                got = history.last_dependent_commit(json_index, hi, imports_count_as_use)
                assert got == expected
                answers[imports_count_as_use, hi] = got
                seen.add("none" if got is None else "at hi" if got == hi else "below hi")
        if any(answers[True, hi] != answers[False, hi] for hi in range(len(java_changes))):
            seen.add("imports decide")

    check()
    assert seen == {"none", "at hi", "below hi", "imports decide"}


def test_a_rerun_answers_from_verdicts_and_facts_without_reading(json_index):
    """A history that shares a first history's facts cache but holds none of
    its texts answers every question alike and reads no blob: the blob's
    kept library answer answers each one.  Only a blob the first history
    could not find is read again."""
    indexes = [json_index, javafacts.fallback_package_index(LibraryCoordinate(*JSON_LIB))]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        java_changes, texts = draw_java_changes(data)
        facts = FactsCache()
        first = ScriptedHistory(java_changes, texts, facts)
        missing = {sha: None for sha, text in texts.items() if text is None}
        rerun = ScriptedHistory(java_changes, missing, facts)
        for index in indexes:
            for imports_count_as_use in (True, False):
                for hi in range(len(java_changes)):
                    expected = first.last_dependent_commit(index, hi, imports_count_as_use)
                    assert rerun.last_dependent_commit(index, hi, imports_count_as_use) == expected
            for sha in texts:
                expected = first.uses_for(sha, index)
                assert rerun.uses_for(sha, index) == expected

    check()


def test_a_shared_cache_tokenizes_a_blob_once(json_index):
    """Histories that share a facts cache tokenize a blob at most once: a
    history that holds no text of the blob answers a library that no
    history asked yet from the facts another history tokenized, and reads
    nothing."""
    fallback = javafacts.fallback_package_index(LibraryCoordinate(*JSON_LIB))
    assert fallback.answer_key != json_index.answer_key
    sha = "a" * 40
    facts = FactsCache()
    first = ScriptedHistory([], {sha: JSON_USER}, facts)
    assert first.uses_for(sha, json_index)
    expected = ScriptedHistory([], {sha: JSON_USER}).uses_for(sha, fallback)
    # no repository: reading the blob would fail
    other = ScriptedHistory([], {}, facts)
    assert expected and other.uses_for(sha, fallback) == expected
    assert (facts.tokenized, other.blobs_read) == (1, 0)


# -- binary versions --------------------------------------------------------------


def test_a_binary_pom_version_declares_nothing(tmp_path, caplog):
    """A pom.xml version that holds a NUL byte reads as no text: it declares
    nothing, and the replay logs it as a manifest it could not parse."""
    caplog.set_level(logging.WARNING, logger="migmine")
    history = history_for(
        tmp_path,
        "binpom",
        [
            ("init", {"pom.xml": pom("app", JSON_LIB)}),
            ("binary", {"pom.xml": "\0" + pom("app", JSON_LIB, GSON_LIB)}),
            ("restore", {"pom.xml": pom("app", GSON_LIB)}),
        ],
    )
    assert [set(declared) for declared in history.dependency_timeline()] == [
        {JSON_ID}, set(), {GSON_ID}
    ]
    [warning] = [
        r.getMessage() for r in caplog.records if "event=manifest_parse_error" in r.getMessage()
    ]
    assert f"commit={history.commits[1].commit_id[:12]} path=pom.xml" in warning


def test_a_java_file_that_turns_from_binary_to_text_depends_from_then_on(tmp_path, json_index):
    """A .java file goes binary -> text -> text: the binary version reads as
    no text and depends on nothing, and the dependent text version after it
    is the last dependent commit."""
    history = history_for(
        tmp_path,
        "unbinary",
        [
            ("binary", {"pom.xml": pom("app", JSON_LIB), "src/User.java": "\0" + JSON_USER}),
            ("text", {"src/User.java": JSON_USER}),
            ("plain", {"src/User.java": PLAIN}),
        ],
    )
    binary, text, plain = (history.changes(c.commit_id).java for c in history.commits)
    assert [fc.kind for fc in (*binary, *text, *plain)] == ["added", "modified", "modified"]
    assert history.text(binary[0].after_sha) is None
    assert history.uses_for(binary[0].after_sha, json_index) == []
    assert history.uses_for(text[0].after_sha, json_index)
    assert history.last_dependent_commit(json_index, 2) == 1
    assert history.last_dependent_commit(json_index, 0) is None
