"""Manifest timeline replay: multi-module unions and parse resilience."""

from corpusgen import GSON_LIB, JSON_LIB, JUNIT_LIB, build_repo, pom

from migmine.gitrepo import ingest_project
from migmine.history import ProjectHistory
from migmine.model import UNRESOLVED, LibraryCoordinate

JSON_ID = ("org.json", "json")
GSON_ID = ("com.google.code.gson", "gson")
JUNIT_ID = ("junit", "junit")


def history_for(tmp_path, name, commits):
    path = tmp_path / name
    build_repo(path, commits)
    return ProjectHistory(*ingest_project(str(path), tmp_path / "work", name))


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
    assert not change.added and not change.removed and not change.upgraded


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
