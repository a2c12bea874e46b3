"""Pipeline-level behaviors that only show up on purpose-built repos."""

import hashlib
import json
import logging
import shutil
import sqlite3
import subprocess
import zipfile
from collections import Counter
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest
from conftest import NETWORK_BASE, corpus_config, run_corpus, serve_downloads
from corpusgen import (
    GSON_APP,
    GSON_LIB,
    JSON_LIB,
    LANG3_LIB,
    LANG_LIB,
    SERIALIZER_GSON,
    SERIALIZER_JSON,
    _git,
    build_fake_maven_repo,
    build_repo,
    class_jar,
    javadoc_jar,
    javadoc_page,
    pom,
    simple_json_user,
)

from migmine import javafacts
from migmine.docs import archive_path
from migmine.fragments import DIFF_VERSION
from migmine.javafacts import FACTS_VERSION
from migmine.manifest import MANIFEST_VERSION
from migmine.model import (
    CommitRecord,
    LibraryCoordinate,
    MethodMapping,
    MigrationRule,
    ProjectRef,
    Segment,
)
from migmine.pipeline import STAGES, Pipeline, RunConfig, StageDataError, run_all
from migmine.store import EXPORT_FORMATS, EXPORT_SELECTORS, Store, StoreError


def single_repo_config(tmp_path, name, commits) -> RunConfig:
    repo = tmp_path / "repos" / name
    build_repo(repo, commits)
    projects = tmp_path / "projects.txt"
    projects.write_text(f"{repo}\n")
    base = build_fake_maven_repo(tmp_path / "mavenrepo")
    return RunConfig(
        projects_file=str(projects),
        workdir=str(tmp_path / "work"),
        db_path=str(tmp_path / "m.db"),
        repo_base=base,
    )


def exports(store) -> dict:
    return {
        (fmt, selector): store.export(fmt, selector)
        for fmt in EXPORT_FORMATS
        for selector in EXPORT_SELECTORS
    }


def run_single_repo(tmp_path, name, commits):
    config = single_repo_config(tmp_path, name, commits)
    store = Store(config.db_path)
    code, summary = run_all(store, config)
    return store, code, summary


PADDING = "\n".join(f"    // migration note {i}: keep the surrounding code stable" for i in range(30))

PADDED_JSON = SERIALIZER_JSON.replace(
    "public class Serializer {", "public class Serializer {\n" + PADDING
)
PADDED_GSON = SERIALIZER_GSON.replace(
    "public class Serializer {", "public class Serializer {\n" + PADDING
)


def test_fragment_detected_across_file_rename(tmp_path):
    """git reports the directory move as a rename; the diff and the use
    resolution run across it (before = old path content)."""
    old = "src/main/java/com/example/app/v1/Serializer.java"
    new = "src/main/java/com/example/app/v2/Serializer.java"
    store, code, summary = run_single_repo(
        tmp_path,
        "renamer",
        [
            ("init", {"pom.xml": pom("renamer", JSON_LIB), old: PADDED_JSON}),
            (
                "swap library and move the serializer",
                {
                    "pom.xml": pom("renamer", GSON_LIB),
                    old: None,
                    new: PADDED_GSON,
                },
            ),
        ],
    )
    try:
        assert code == 0
        assert summary["rules_confirmed"] == 1
        fragments = json.loads(store.export("json", "fragments"))
        assert {f["file"] for f in fragments} == {new}
        removed = {m["method"] for f in fragments for m in f["removed_methods"]}
        assert "toJSONString" in removed
    finally:
        store.close()


def test_a_migration_that_renames_a_source_away_gets_its_segment(tmp_path):
    """The migrating commit renames the last other org.json user to
    Legacy.java.orig, which is no source: the segment ends at that commit,
    and the migration is mined as if the file had been deleted."""
    serializer = "src/main/java/com/example/app/Serializer.java"
    legacy = "src/main/java/com/example/app/Legacy.java"
    store, code, summary = run_single_repo(
        tmp_path,
        "set-aside",
        [
            ("init", {"pom.xml": pom("set-aside", JSON_LIB), serializer: PADDED_JSON,
                      legacy: simple_json_user("com.example.app", "Legacy")}),
            ("migrate and set the legacy user aside", {
                "pom.xml": pom("set-aside", GSON_LIB), serializer: PADDED_GSON,
                legacy: None, legacy + ".orig": simple_json_user("com.example.app", "Legacy"),
            }),
        ],
    )
    try:
        assert code == 0
        [segment] = store.segments()
        assert segment.end_commit == store.commits_for("set-aside")[-1].commit_id
        assert summary["rules_confirmed"] == 1
    finally:
        store.close()


TWO_SITES_JSON = """package com.example.app;

import org.json.JSONObject;

public class Twice {
    public String first(Object value) {
        JSONObject one = new JSONObject(value);
        return one.toJSONString();
    }
%s
    public String second(Object value) {
        JSONObject two = new JSONObject(value);
        return two.toJSONString();
    }
}
""" % ("\n".join(f"    // spacer {i}" for i in range(12)))

TWO_SITES_GSON = """package com.example.app;

import com.google.gson.Gson;

public class Twice {
    public String first(Object value) {
        return new Gson().toJson(value);
    }
%s
    public String second(Object value) {
        return new Gson().toJson(value);
    }
}
""" % ("\n".join(f"    // spacer {i}" for i in range(12)))


def test_distant_call_sites_give_multiple_fragments_per_commit(tmp_path):
    """Two replacement sites separated by enough context split into two
    hunks, each witnessing the mapping on its own."""
    path = "src/main/java/com/example/app/Twice.java"
    store, code, summary = run_single_repo(
        tmp_path,
        "twosites",
        [
            ("init", {"pom.xml": pom("twosites", JSON_LIB), path: TWO_SITES_JSON}),
            (
                "migrate both call sites",
                {"pom.xml": pom("twosites", GSON_LIB), path: TWO_SITES_GSON},
            ),
        ],
    )
    try:
        assert code == 0
        fragments = json.loads(store.export("json", "fragments"))
        same_commit_files = {(f["commit"], f["file"]) for f in fragments}
        assert len(same_commit_files) == 1
        assert len(fragments) == 2  # one fragment per distant hunk
        mappings = json.loads(store.export("json", "mappings"))
        assert len(mappings) >= 1
    finally:
        store.close()


def test_import_only_residue_blocks_confirmation_until_removed(tmp_path):
    """A leftover import keeps the project dependent, shifting the segment
    end to the cleanup commit."""
    path = "src/main/java/com/example/app/Serializer.java"
    lingering = SERIALIZER_GSON.replace(
        "import com.google.gson.Gson;",
        "import com.google.gson.Gson;\nimport org.json.JSONObject;",
    )
    store, code, summary = run_single_repo(
        tmp_path,
        "residue",
        [
            ("init", {"pom.xml": pom("residue", JSON_LIB), path: SERIALIZER_JSON}),
            (
                "migrate but forget the import",
                {"pom.xml": pom("residue", GSON_LIB), path: lingering},
            ),
            ("drop stale import", {path: SERIALIZER_GSON}),
        ],
    )
    try:
        assert code == 0
        segments = json.loads(store.export("json", "segments"))
        assert len(segments) == 1
        history = segments[0]
        assert history["start_commit"] != history["end_commit"]
        assert len(history["commits"]) >= 1
    finally:
        store.close()


def test_commit_after_ingest_changes_no_export(tmp_path):
    """Later stages read the history up to the last ingested commit, so a
    commit that reverts the migration after ingest changes nothing."""
    path = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(
        tmp_path,
        "grows",
        [
            ("init", {"pom.xml": pom("grows", JSON_LIB), path: PADDED_JSON}),
            ("migrate", {"pom.xml": pom("grows", GSON_LIB), path: PADDED_GSON}),
        ],
    )
    store = Store(config.db_path)
    try:
        assert run_all(store, config)[0] == 0
        before = exports(store)
        assert json.loads(before["json", "segments"])
        repo = tmp_path / "repos" / "grows"
        (repo / "pom.xml").write_text(pom("grows", JSON_LIB))
        (repo / path).write_text(PADDED_JSON)
        _git(["commit", "-q", "-am", "revert"], cwd=repo)
        pipeline = Pipeline(store, config)
        pipeline.detect_segments()
        pipeline.detect_fragments()
        pipeline.collect_docs()
        assert exports(store) == before
    finally:
        store.close()


def first_parent_commits(repo) -> list[str]:
    out = subprocess.run(
        ["git", "rev-list", "--first-parent", "--reverse", "HEAD"],
        cwd=repo, check=True, capture_output=True, text=True,
    )
    return out.stdout.split()


def test_reingest_after_amend_replaces_the_last_commit(tmp_path):
    """The amended commit takes the old one's ordinal; ingest must not trip
    over the (project, ordinal) key of the commit it replaces."""
    path = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(
        tmp_path,
        "amended",
        [
            ("init", {"pom.xml": pom("amended", JSON_LIB), path: SERIALIZER_JSON}),
            ("migrate", {"pom.xml": pom("amended", GSON_LIB), path: SERIALIZER_GSON}),
        ],
    )
    repo = tmp_path / "repos" / "amended"
    with Store(config.db_path) as store:
        assert Pipeline(store, config).ingest() == []
        _git(["commit", "-q", "--amend", "-m", "migrate to gson"], cwd=repo)
        assert Pipeline(store, config).ingest() == []
        stored = store.commits_for("amended")
        assert [c.commit_id for c in stored] == first_parent_commits(repo)
        assert stored[-1].message == "migrate to gson"
        assert {c.commit for c in store.dependency_changes()} == {c.commit_id for c in stored}


def test_reingest_after_reset_drops_the_lost_commit(tmp_path):
    """A commit no longer in the history leaves the store with its
    dependency changes, so no rule is mined from it."""
    path = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(
        tmp_path,
        "rewound",
        [
            ("init", {"pom.xml": pom("rewound", JSON_LIB), path: SERIALIZER_JSON}),
            ("migrate", {"pom.xml": pom("rewound", GSON_LIB), path: SERIALIZER_GSON}),
        ],
    )
    repo = tmp_path / "repos" / "rewound"
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        pipeline.ingest()
        assert [str(rule) for rule in pipeline.detect_rules()] == [
            "org.json:json -> com.google.code.gson:gson"
        ]
        _git(["reset", "-q", "--hard", "HEAD~1"], cwd=repo)
        pipeline = Pipeline(store, config)
        assert pipeline.ingest() == []
        assert [c.commit_id for c in store.commits_for("rewound")] == first_parent_commits(repo)
        assert pipeline.detect_rules() == []
        assert all(c.commit == first_parent_commits(repo)[0] for c in store.dependency_changes())


def test_reingest_after_reset_drops_the_lost_commits_file_changes(tmp_path):
    """The stored file changes are those of the stored commits: a commit no
    longer in the history takes its file changes with it."""
    path = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(
        tmp_path,
        "rewound",
        [
            ("init", {"pom.xml": pom("rewound", JSON_LIB), path: SERIALIZER_JSON}),
            ("migrate", {"pom.xml": pom("rewound", GSON_LIB), path: SERIALIZER_GSON}),
        ],
    )
    repo = tmp_path / "repos" / "rewound"
    init, migrate = first_parent_commits(repo)
    with Store(config.db_path) as store:
        Pipeline(store, config).ingest()
        assert set(store.file_changes()["rewound"]) == {init, migrate}
        _git(["reset", "-q", "--hard", "HEAD~1"], cwd=repo)
        assert Pipeline(store, config).ingest() == []
        assert set(store.file_changes()["rewound"]) == {init}
        assert store.db.execute(
            "SELECT COUNT(*) FROM file_changes WHERE commit_id = ?", (migrate,)
        ).fetchone() == (0,)


# large enough for git to pair a delete and an add as a rename
MOVED = "class Moved {\n" + "".join(f"  int f{i};\n" for i in range(30)) + "}\n"


def assert_same_history(stored, ingested) -> None:
    """The stored history's changes are ingest's, and so is the manifest
    timeline it replays from the stored parse results, reading no blob;
    ingest replayed the texts it read from git."""
    try:
        assert stored.commits == ingested.commits
        for commit in ingested.commits:
            assert stored.changes(commit.commit_id) == ingested.changes(commit.commit_id)
        assert stored.dependency_timeline() == ingested.dependency_timeline()
        assert stored.declared_libraries() == ingested.declared_libraries()
        assert stored.dependency_changes() == ingested.dependency_changes()
        assert stored.blobs_read == 0
    finally:
        stored.close()


def test_stored_history_reads_as_ingests(corpus, tmp_path):
    """A later stage's history, built from the stored commits and file
    changes, is the one ingest built from its `git log`."""
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        ingest = Pipeline(store, config)
        assert ingest.ingest() == []
        later = Pipeline(store, config)
        for project_id in corpus.repos:
            assert_same_history(later.history(project_id), ingest.history(project_id))


def spy_javafacts(monkeypatch) -> Counter:
    """The calls made from now on to each `javafacts` function that reads a
    blob's facts: tokenizing and resolving them."""
    calls: Counter = Counter()
    for name in ("extract_facts", "resolve_usages"):
        function = getattr(javafacts, name)

        def spy(*args, _name=name, _function=function, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(javafacts, name, spy)
    return calls


def assert_answers_match_facts(store, pipeline) -> None:
    """Each library answer the pipeline stored is what its blob's facts give
    against the index it was asked under: `resolve_usages`' uses,
    `imports_name`'s flag, and so `facts_depend_on`'s verdict for both
    values of its flag.  The facts are those of the blob's text; answers
    holding uses and an import and answers holding nothing both occur."""
    histories = list(pipeline._histories.values())
    indexes = {
        index.answer_key: index
        for history in histories
        for index in map(pipeline.package_index, history.declared_libraries().values())
    }
    owner = {
        sha: history
        for history in histories
        for changes in history.file_changes.values()
        for fc in changes
        for sha in (fc.before_sha, fc.after_sha)
        if sha
    }
    answers = store.blob_answers()
    kinds = set()
    try:
        for (sha, question), encoded in answers.items():
            if not question.startswith("uses "):
                continue
            index = indexes[question]
            facts = javafacts.extract_facts(owner[sha].text(sha) or "")
            uses, imports = javafacts.decode_answer(encoded)
            assert uses == javafacts.resolve_usages(facts, index), (sha, question)
            assert imports == javafacts.imports_name(facts, index), (sha, question)
            for flag in (True, False):
                assert (bool(uses) or (flag and imports)) == javafacts.facts_depend_on(
                    facts, index, flag
                ), (sha, question, flag)
            kinds.add((bool(uses), imports))
    finally:
        for history in histories:
            history.close()
    assert kinds >= {(True, True), (False, False)}


@pytest.mark.parametrize("workload", ["long-history", "corpus-breadth", "wide-migration"])
def test_stored_history_reads_as_ingests_on_each_benchmark_workload(
    workload, tmp_path, monkeypatch
):
    """On each benchmark corpus, a stored history is ingest's, each stored
    library answer is what its blob's facts give, no blob's facts are
    stored, and a re-run of the stages after ingest reads no blob, not even
    in `detect_fragments`, tokenizes and resolves no facts, and exports the
    bytes the run exported.  Each JSON export is the standard encoding of
    its rows, and `Store.export` gives each written report's bytes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    spec = workloads.generate(workload, 7, tmp_path / "corpus")
    config = RunConfig(
        projects_file=spec["projects_file"],
        workdir=str(tmp_path / "work"),
        db_path=str(tmp_path / "m.db"),
        repo_base=spec["repo_base"],
        jobs=spec["jobs"],
    )
    with Store(config.db_path) as store:
        ingest = Pipeline(store, config)
        assert ingest.ingest() == []
        later = Pipeline(store, config)
        for project_id in spec["oracle"]["projects"]:
            assert_same_history(later.history(project_id), ingest.history(project_id))
        for name in STAGES[1:]:
            getattr(ingest, name)()
        run = {p.name: p.read_bytes() for p in ingest.export_reports()}
        assert len(run) == 2 * len(EXPORT_SELECTORS)
        for selector in EXPORT_SELECTORS:
            written = run[f"{selector}.json"]
            standard = json.dumps(json.loads(written), indent=2, ensure_ascii=False) + "\n"
            assert written == standard.encode("utf-8")
            for fmt in EXPORT_FORMATS:
                assert store.export(fmt, selector) == run[f"{selector}.{fmt}"]
        assert ingest.diffs > 0
        assert "facts" not in {question for _, question in store.blob_answers()}
        assert_answers_match_facts(store, ingest)
        readers = spy_blob_readers(monkeypatch)
        calls = spy_javafacts(monkeypatch)
        rerun = Pipeline(store, config)
        for name in STAGES[1:]:
            getattr(rerun, name)()
        assert {p.name: p.read_bytes() for p in rerun.export_reports()} == run
    assert readers == []
    assert calls == {}
    assert (rerun.diffs, rerun.facts.loaded["diff"]) == (0, ingest.diffs)


def test_stored_history_keeps_renames_deletions_and_quiet_commits(tmp_path):
    """A rename, a deletion, the root commit and a commit that touches
    neither a pom.xml nor a .java file read back from the store as ingest
    read them; the quiet commit has no changes, and is no unknown commit.
    A binary .java file is stored, and its version reads as an empty text."""
    config = single_repo_config(
        tmp_path,
        "mixed",
        [
            ("root", {"pom.xml": pom("mixed", JSON_LIB), "old/Moved.java": MOVED,
                      "src/A.java": SERIALIZER_JSON, "res/Data.java": "\0\1binary\n"}),
            ("notes", {"notes.txt": "hi\n"}),
            ("move", {"old/Moved.java": None, "new/Moved.java": MOVED}),
            ("drop", {"src/A.java": None, "pom.xml": pom("mixed", GSON_LIB)}),
        ],
    )
    root, notes, move, drop = first_parent_commits(tmp_path / "repos" / "mixed")
    with Store(config.db_path) as store:
        ingest = Pipeline(store, config)
        assert ingest.ingest() == []
        stored = Pipeline(store, config).history("mixed")
        assert_same_history(stored, ingest.history("mixed"))
        assert [c.path for c in stored.changes(root).java] == [
            "old/Moved.java", "res/Data.java", "src/A.java"
        ]
        assert stored.changes(notes) == ([], [])
        assert [(c.kind, c.old_path) for c in stored.changes(move).java] == [
            ("renamed", "old/Moved.java")
        ]
        assert [c.kind for c in stored.changes(drop).java] == ["deleted"]
        assert [c.path for c in stored.changes(drop).pom] == ["pom.xml"]
        binary = stored.changes(root).java[1].after_sha
        try:
            assert stored.text(binary) == ""
        finally:
            stored.close()
        # the quiet commit stores no row
        assert set(store.file_changes()["mixed"]) == {root, move, drop}
        assert [e.path for e in store.file_changes()["mixed"][root]] == [
            "old/Moved.java", "pom.xml", "res/Data.java", "src/A.java"
        ]
        # each row holds its FileChange's columns: an old path only for a
        # rename, NULL for an absent side
        assert store.db.execute(
            "SELECT commit_id, kind, old_path, before_sha IS NULL, after_sha IS NULL "
            "FROM file_changes ORDER BY commit_id, seq"
        ).fetchall() == sorted([
            *[(root, "added", None, 1, 0)] * 4,
            (move, "renamed", "old/Moved.java", 0, 0),
            (drop, "modified", None, 0, 0),
            (drop, "deleted", None, 0, 1),
        ], key=lambda row: row[0])
        assert store.file_changes()["mixed"] == {
            commit_id: entries
            for commit_id, entries in ingest.history("mixed").file_changes.items() if entries
        }


def test_reingest_after_reset_voids_the_mined_rows(tmp_path):
    """Re-ingest clears the rules and everything mined from them, so a later
    stage reports the missing rules instead of reading a vanished history."""
    from migmine.cli import main

    path = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(
        tmp_path,
        "stale",
        [
            ("init", {"pom.xml": pom("stale", JSON_LIB), path: PADDED_JSON}),
            ("migrate", {"pom.xml": pom("stale", GSON_LIB), path: PADDED_GSON}),
        ],
    )
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        assert store.counts()["docs_attached"] > 0
        _git(["reset", "-q", "--hard", "HEAD~1"], cwd=tmp_path / "repos" / "stale")
        pipeline = Pipeline(store, config)
        assert pipeline.ingest() == []
        with pytest.raises(StageDataError):
            pipeline.detect_fragments()
        for table in ("rules", "segments", "fragments", "method_mappings", "doc_attachments"):
            assert store.db.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)
    flags = ["--workdir", config.workdir, "--db", config.db_path, "--repo-base", config.repo_base]
    assert main(["detect-fragments", *flags]) == 1


def test_failed_reingest_keeps_the_mined_rows(tmp_path):
    """An ingest that stores no history leaves every mined row in place."""
    path = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(
        tmp_path,
        "moved",
        [
            ("init", {"pom.xml": pom("moved", JSON_LIB), path: PADDED_JSON}),
            ("migrate", {"pom.xml": pom("moved", GSON_LIB), path: PADDED_GSON}),
        ],
    )
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        before = exports(store), store.counts()
        (tmp_path / "repos" / "moved").rename(tmp_path / "elsewhere")
        assert len(Pipeline(store, config).ingest()) == 1
        assert (exports(store), store.counts()) == before


def test_a_reingest_of_a_shorter_projects_file_exports_as_a_fresh_run(
    corpus, tmp_path, caplog
):
    """An ingest in which every named project succeeded deletes the stored
    projects the projects file no longer names, with their rows, and logs
    each one; the stages after it export what a fresh run on that file
    exports."""
    kept = ["mig-json-gson", "mig-noise"]
    shorter = tmp_path / "shorter.txt"
    shorter.write_text(
        "".join(f"{corpus.root / 'repos' / name}\n" for name in kept), encoding="utf-8"
    )
    config = corpus_config(corpus, tmp_path / "grown")
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        named = {blob for blob, _ in store.blob_answers()}
        caplog.set_level(logging.INFO, logger="migmine.pipeline")
        assert run_all(store, replace(config, projects_file=str(shorter)))[0] == 0
        reingested = exports(store)
        assert [ref.id for ref in store.projects()] == kept
        assert store.db.execute(
            "SELECT DISTINCT project FROM file_changes ORDER BY project"
        ).fetchall() == [(name,) for name in kept]
        assert {blob for blob, _ in store.blob_answers()} < named
    dropped = [r.getMessage() for r in caplog.records if "event=project_dropped" in r.getMessage()]
    assert dropped == [
        f"event=project_dropped project={name}" for name in sorted(set(corpus.repos) - set(kept))
    ]
    fresh = replace(corpus_config(corpus, tmp_path / "fresh"), projects_file=str(shorter))
    with Store(fresh.db_path) as store:
        assert run_all(store, fresh)[0] == 0
        assert exports(store) == reingested
        answers = store.blob_answers()
    with Store(config.db_path) as store:
        assert store.blob_answers().keys() == answers.keys()


def test_an_ingest_with_a_failed_project_drops_no_project(corpus, tmp_path, caplog):
    """When a named project fails to ingest, every stored project keeps
    its rows, the ones the projects file no longer names too."""
    shorter = tmp_path / "shorter.txt"
    shorter.write_text(f"{corpus.root / 'repos' / 'mig-single'}\n{tmp_path / 'gone'}\n")
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        commits = store.commit_count()
        caplog.set_level(logging.INFO, logger="migmine.pipeline")
        [error] = Pipeline(store, replace(config, projects_file=str(shorter))).ingest()
        assert "gone" in error
        assert sorted(ref.id for ref in store.projects()) == sorted(corpus.repos)
        assert store.commit_count() == commits
    assert [r for r in caplog.records if "event=project_dropped" in r.getMessage()] == []


def test_a_project_that_fails_to_ingest_is_a_project_error(corpus, tmp_path, caplog):
    """A project that fails to ingest is logged and kept in `project_errors`
    as a later stage's failed project is; ingest returns it too."""
    mixed = tmp_path / "projects.txt"
    mixed.write_text(f"{corpus.root / 'repos' / 'mig-single'}\n{tmp_path / 'gone'}\n")
    config = replace(corpus_config(corpus, tmp_path), projects_file=str(mixed))
    caplog.set_level(logging.ERROR, logger="migmine")
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        [error] = pipeline.ingest()
        assert pipeline.project_errors == [error]
        assert [ref.id for ref in store.projects()] == ["mig-single"]
    project, _, detail = error.partition(": ")
    assert project == "gone" and detail
    assert [r.getMessage() for r in caplog.records] == [
        f"event=project_failed stage=ingest project=gone error={detail}"
    ]


def test_repeated_project_ids_take_the_next_free_suffix(tmp_path):
    """b/foo is suffixed to foo-2, so c/foo-2 must not take that id too."""
    origins = [tmp_path / "a" / "foo", tmp_path / "b" / "foo", tmp_path / "c" / "foo-2"]
    for size, repo in enumerate(origins, start=1):
        build_repo(repo, [(f"step {i}", {"pom.xml": pom(f"p{i}", JSON_LIB)}) for i in range(size)])
    projects = tmp_path / "projects.txt"
    projects.write_text("".join(f"{repo}\n" for repo in origins))
    config = RunConfig(
        projects_file=str(projects),
        workdir=str(tmp_path / "work"),
        db_path=str(tmp_path / "m.db"),
    )
    with Store(config.db_path) as store:
        assert Pipeline(store, config).ingest() == []
        stored = {p.id: p.origin for p in store.projects()}
        assert stored == {
            "foo": str(origins[0]), "foo-2": str(origins[1]), "foo-2-2": str(origins[2])
        }
        assert [len(store.commits_for(pid)) for pid in ("foo", "foo-2", "foo-2-2")] == [1, 2, 3]


def test_segments_read_the_project_list_once(corpus, tmp_path, monkeypatch):
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        pipeline.ingest()
        pipeline.detect_rules()
        calls = []
        projects = Store.projects

        def counted(self):
            calls.append(1)
            return projects(self)

        monkeypatch.setattr(Store, "projects", counted)
        assert Pipeline(store, config).detect_segments()
    assert len(calls) == 1


def test_segments_skip_projects_that_never_declare_both_libraries(tmp_path, caplog):
    """A project that only ever declares the target library gets no index
    build or fetch for the source library, so disabling the prefix fallback
    changes nothing when every declared library has a class jar."""
    serializer = "src/main/java/com/example/app/Serializer.java"
    migrating = tmp_path / "repos" / "migrating"
    build_repo(
        migrating,
        [
            ("init", {"pom.xml": pom("migrating", JSON_LIB), serializer: SERIALIZER_JSON}),
            ("migrate", {"pom.xml": pom("migrating", GSON_LIB), serializer: SERIALIZER_GSON}),
        ],
    )
    gson_only = tmp_path / "repos" / "gson-only"
    build_repo(
        gson_only,
        [
            ("init", {"pom.xml": pom("gson-only", GSON_LIB)}),
            ("use gson", {"src/main/java/com/example/svc/App.java": GSON_APP}),
        ],
    )
    projects = tmp_path / "projects.txt"
    projects.write_text(f"{migrating}\n{gson_only}\n")
    config = RunConfig(
        projects_file=str(projects),
        workdir=str(tmp_path / "work"),
        db_path=str(tmp_path / "m.db"),
        repo_base=build_fake_maven_repo(tmp_path / "mavenrepo"),
    )
    caplog.set_level(logging.WARNING, logger="migmine")
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        pipeline.ingest()
        pipeline.detect_rules()
        found = pipeline.detect_segments()
        assert [s.project for s in found] == ["migrating"]
        segments = store.export("json", "segments")
        strict = Pipeline(store, replace(config, fallback_index=False))
        assert strict.detect_segments() == found
        assert store.export("json", "segments") == segments
    noisy = [
        r.getMessage()
        for r in caplog.records
        if "org.json:json" in r.getMessage()
        and ("event=index_fallback" in r.getMessage() or "reason=unresolved_version" in r.getMessage())
    ]
    assert noisy == []


def test_docs_collected_logs_parse_work(corpus, tmp_path, caplog):
    """The acceptance corpus has one javadoc jar per library of its one
    confirmed rule, each with one class page (JSONObject, Gson) that
    documents a constructor and two methods.  Gson has two one-argument
    toJson overloads, and both mappings attach one of them."""
    caplog.set_level(logging.INFO, logger="migmine.pipeline")
    run = run_corpus(corpus, tmp_path)
    run.store.close()
    collected = [r.getMessage() for r in caplog.records if "event=docs_collected" in r.getMessage()]
    assert collected == [
        "event=docs_collected archives=2 pages=2 methods_parsed=6 attached=9 missing=1 ambiguous=2 "
        "archives_loaded=0"
    ]


def test_reports_written_logs_each_export_once(corpus, tmp_path, caplog):
    """A run logs one `reports_written` line for its export, and a second
    export one more; each counts the 8 reports and their bytes on disk."""
    caplog.set_level(logging.INFO, logger="migmine.pipeline")
    run = run_corpus(corpus, tmp_path)
    try:
        paths = Pipeline(run.store, run.config).export_reports()
    finally:
        run.store.close()
    written = [r.getMessage() for r in caplog.records if "event=reports_written" in r.getMessage()]
    assert len(paths) == 2 * len(EXPORT_SELECTORS) == 8
    size = sum(path.stat().st_size for path in paths)
    assert [m.rsplit(" ", 1)[0] for m in written] == [
        f"event=reports_written reports=8 bytes={size}"
    ] * 2
    assert all(float(m.split("seconds=")[1]) >= 0 for m in written)


def fail_on_second_row(monkeypatch, store, builder: str, table: str) -> tuple[list, list]:
    """Make the store's row builder `builder` raise a disk error at its
    second row; returns the rows asked for and the row count `table` held
    when it raised."""
    import migmine.store as store_module

    calls, stored = [], []
    build = getattr(store_module, builder)

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            stored.append(store.db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])
            raise sqlite3.OperationalError("disk I/O error")
        return build(*args)

    monkeypatch.setattr(store_module, builder, failing)
    return calls, stored


def test_failing_stage_leaves_store_unchanged(corpus, tmp_path, monkeypatch):
    """detect-fragments clears fragments and mappings, then rewrites them;
    a write failing halfway rolls the whole stage back."""
    config = corpus_config(corpus, tmp_path)
    store = Store(config.db_path)
    try:
        pipeline = Pipeline(store, config)
        pipeline.ingest()
        pipeline.detect_rules()
        pipeline.detect_segments()
        pipeline.detect_fragments()
        before = exports(store)
        assert json.loads(before["json", "fragments"])

        calls, stored = fail_on_second_row(monkeypatch, store, "_fragment_row", "fragments")
        with pytest.raises(sqlite3.OperationalError):
            pipeline.detect_fragments()
        assert len(calls) == 2
        assert stored == [1]  # the batch had stored its first row
        assert exports(store) == before
        with Store(config.db_path) as other:
            assert exports(other) == before

        monkeypatch.undo()
        pipeline.detect_fragments()
        assert exports(store) == before
    finally:
        store.close()


def test_failing_docs_write_keeps_the_previous_attachments(
    corpus_run, corpus, tmp_path, monkeypatch
):
    """collect-docs clears the attachments, then rewrites them; a write
    failing halfway leaves the previous pass's attachments in place."""
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    store = Store(config.db_path)
    try:
        pipeline = Pipeline(store, config)
        before = stored_attachments(store)
        assert before == ACCEPTANCE_ATTACHMENTS

        calls, stored = fail_on_second_row(
            monkeypatch, store, "_doc_attachment_row", "doc_attachments"
        )
        with pytest.raises(sqlite3.OperationalError):
            pipeline.collect_docs()
        assert len(calls) == 2
        assert stored == [1]  # the batch had stored its first row
        assert stored_attachments(store) == before
        with Store(config.db_path) as other:
            assert stored_attachments(other) == before

        monkeypatch.undo()
        pipeline.collect_docs()
        assert stored_attachments(store) == before
    finally:
        store.close()


def test_stages_are_the_five_stage_methods_in_run_order():
    assert STAGES == [
        "ingest", "detect_rules", "detect_segments", "detect_fragments", "collect_docs"
    ]
    assert all(callable(getattr(Pipeline, name)) for name in STAGES)


def test_the_database_defaults_to_the_workdir(tmp_path):
    """The database, like the cache and the reports, lives in the workdir
    unless a path is given, whether the CLI or a caller builds the config."""
    assert Path(RunConfig(workdir=str(tmp_path)).db_path) == tmp_path / "migmine.db"
    assert RunConfig(workdir=str(tmp_path), db_path="m.db").db_path == "m.db"


def test_each_stage_commits_once(corpus, tmp_path, monkeypatch, caplog):
    """COMMITs stay bounded by the stage count however many rows are stored."""
    statements = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        db = connect(*args, **kwargs)
        db.set_trace_callback(lambda sql: statements.append(sql.lstrip().split(None, 1)[0].upper()))
        return db

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    config = corpus_config(corpus, tmp_path)
    caplog.set_level(logging.INFO, logger="migmine.pipeline")
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
    # schema set-up, run_all's three set_meta writes, one per stage
    assert statements.count("COMMIT") <= 1 + 3 + len(STAGES)
    assert statements.count("INSERT") > 5 * statements.count("COMMIT")
    done = [r.getMessage() for r in caplog.records if "event=stage_done" in r.getMessage()]
    assert [m.split()[1] for m in done] == [f"stage={name}" for name in STAGES]
    assert all(float(m.split("seconds=")[1]) >= 0 for m in done)


class CountingConnection:
    """A sqlite3 connection that records the SQL of each Python-level
    execute and executemany call; a trace callback cannot tell them apart,
    as it fires once per executemany row."""

    def __init__(self, db, calls: list[str]):
        self._db = db
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._db, name)

    def execute(self, sql, *args):
        self._calls.append(sql)
        return self._db.execute(sql, *args)

    def executemany(self, sql, rows):
        self._calls.append(sql)
        return self._db.executemany(sql, rows)


# statements a stage runs once per project: a new Pipeline loads each
# project's commits
PER_PROJECT = ("SELECT project, commit_id, ordinal, date, author, message FROM commits",)


def test_no_stage_runs_a_statement_per_row(corpus, tmp_path, monkeypatch):
    """Each stage of a run and of a re-run calls each of its statements
    once, so the calls do not grow with the rows it stores: one batch per
    table, not one call per row."""
    calls: list[str] = []
    connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect", lambda *a, **k: CountingConnection(connect(*a, **k), calls)
    )
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        repeated = {}
        for label, stages in (("run", STAGES), ("rerun", STAGES[1:])):
            pipeline = Pipeline(store, config)
            for name in [*stages, "export_reports"]:
                calls.clear()
                getattr(pipeline, name)()
                counts = Counter(calls)
                repeated[label, name] = {sql for sql, n in counts.items() if n > 1}
                for sql in repeated[label, name]:
                    assert sql.startswith(PER_PROJECT), (label, name, sql)
                    assert counts[sql] == len(corpus.repos), (label, name, sql)
        # every table a stage writes holds rows enough for a per-row call to repeat
        for table in ("commits", "dependency_changes", "rules", "segments", "fragments",
                      "method_mappings", "doc_attachments"):
            assert store.db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0] >= 2, table
    assert {key: len(sqls) for key, sqls in repeated.items() if sqls} == {
        ("rerun", "detect_segments"): 1,
    }


def test_stage_work_runs_before_the_transaction(corpus, tmp_path, monkeypatch):
    """Downloads, segment scans, diffs and doc parsing hold no database lock:
    each stage computes first and only then clears and rewrites its tables."""
    import migmine.pipeline as pipeline_module
    from migmine.docs import ArchiveFetcher

    config = corpus_config(corpus, tmp_path)
    store = Store(config.db_path)
    seen = []

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen.append((name, store.db.in_transaction))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("find_segments", "unified_diff", "parse_doc_archive", "attach_docs"):
        spy(pipeline_module, name)
    spy(Pipeline, "package_index")
    spy(ArchiveFetcher, "fetch_many")
    try:
        assert run_all(store, config)[0] == 0
    finally:
        store.close()
    assert {name for name, _ in seen} == {
        "find_segments", "unified_diff", "parse_doc_archive", "attach_docs",
        "package_index", "fetch_many",
    }
    assert [name for name, locked in seen if locked] == []


# doc_attachments of the acceptance corpus when every mapping is attached on
# its own: (mapping_id, side, class, method, arity, doc, found, ambiguous),
# doc being the attached doc's (group, artifact, version, class, method,
# signature) or None
JSON_DOC = ("org.json", "json", "20080701", "JSONObject")
GSON_DOC = ("com.google.code.gson", "gson", "2.3.1", "Gson")
ACCEPTANCE_ATTACHMENTS = [
    (1, "source", "org.json.JSONObject", "<init>", 1, (*JSON_DOC, "<init>", '["Object"]'), 1, 0),
    (1, "source", "org.json.JSONObject", "toJSONString", 0, (*JSON_DOC, "toJSONString", "[]"), 1, 0),
    (1, "target", "com.google.gson.Gson", "<init>", 0, (*GSON_DOC, "<init>", "[]"), 1, 0),
    (1, "target", "com.google.gson.Gson", "toJson", 1, (*GSON_DOC, "toJson", '["Object"]'), 1, 1),
    (2, "source", "org.json.JSONObject", "<init>", 1, (*JSON_DOC, "<init>", '["Object"]'), 1, 0),
    (2, "source", "org.json.JSONObject", "optString", 1, None, 0, 0),
    (2, "source", "org.json.JSONObject", "quote", 1, (*JSON_DOC, "quote", '["String"]'), 1, 0),
    (2, "source", "org.json.JSONObject", "toJSONString", 0, (*JSON_DOC, "toJSONString", "[]"), 1, 0),
    (2, "target", "com.google.gson.Gson", "<init>", 0, (*GSON_DOC, "<init>", "[]"), 1, 0),
    (2, "target", "com.google.gson.Gson", "toJson", 1, (*GSON_DOC, "toJson", '["Object"]'), 1, 1),
]


def stored_attachments(store) -> list[tuple]:
    """The doc of an attachment is that of its side's library, and of its
    own class and method."""
    rows = store.db.execute(
        "SELECT a.mapping_id, a.side, a.class_name, a.method, a.arity, "
        "CASE a.side WHEN 'source' THEN m.source_group ELSE m.target_group END, "
        "CASE a.side WHEN 'source' THEN m.source_artifact ELSE m.target_artifact END, "
        "a.version, a.signature, a.found, a.ambiguous "
        "FROM doc_attachments a JOIN method_mappings m ON m.id = a.mapping_id "
        "ORDER BY a.mapping_id, a.side, a.class_name, a.method, a.arity"
    ).fetchall()
    return [
        (
            *row[:5],
            None if row[7] is None
            else (*row[5:8], row[2].rpartition(".")[2], row[3], row[8]),
            *row[9:],
        )
        for row in rows
    ]


def test_collect_docs_attaches_once_per_rule(corpus, tmp_path, monkeypatch):
    import migmine.pipeline as pipeline_module

    calls = []
    attach_docs = pipeline_module.attach_docs

    def counted(mappings, docs):
        calls.append(mappings)
        return attach_docs(mappings, docs)

    monkeypatch.setattr(pipeline_module, "attach_docs", counted)
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        rules = {(mapping.source, mapping.target) for _, mapping in store.mappings()}
        rows = stored_attachments(store)
    assert len(calls) == len(rules) == 1
    assert rows == ACCEPTANCE_ATTACHMENTS


def test_colliding_docs_store_the_first_parsed(corpus, tmp_path, monkeypatch):
    """Docs of one class page sharing a method name and arity attach the
    first one parsed, flagged ambiguous.  A doc of another package's class
    of the same simple name is never attached."""
    import migmine.pipeline as pipeline_module

    parse_doc_archive = pipeline_module.parse_doc_archive

    def parse_with_twins(data, coordinate, classes):
        docs = parse_doc_archive(data, coordinate, classes)
        if coordinate.artifact != "json":
            return docs
        attached = next(doc for doc in docs if doc.method == "toJSONString")
        return [
            attached._replace(package="a.shadow", description="Shadow."),
            attached._replace(description="Twin."),
            *docs,
        ]

    monkeypatch.setattr(pipeline_module, "parse_doc_archive", parse_with_twins)
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        attached = store.db.execute(
            "SELECT DISTINCT description, ambiguous FROM doc_attachments "
            "WHERE method = 'toJSONString'"
        ).fetchall()
    assert attached == [("Twin.", 1)]


class RecordingPipe:
    """A process's stdin that records each object id written to it."""

    def __init__(self, pipe, ids: list[str]):
        self._pipe = pipe
        self._ids = ids

    def __getattr__(self, name):
        return getattr(self._pipe, name)

    def write(self, data: bytes) -> int:
        self._ids.append(data.decode("ascii").strip())
        return self._pipe.write(data)


def spy_blob_readers(monkeypatch) -> list[tuple[str, list[str], subprocess.Popen]]:
    """Every `git cat-file` process started from now on, in start order:
    its resolved workdir, the object ids asked of it, and the process."""
    from migmine import gitrepo

    readers = []
    popen = subprocess.Popen

    def spy(cmd, **kwargs):
        proc = popen(cmd, **kwargs)
        if "cat-file" in cmd:
            ids: list[str] = []
            proc.stdin = RecordingPipe(proc.stdin, ids)
            readers.append((str(Path(kwargs["cwd"]).resolve()), ids, proc))
        return proc

    # subprocess.run, and so run_git, starts its processes through Popen too
    monkeypatch.setattr(gitrepo.subprocess, "Popen", spy)
    return readers


def git_blob_id(text: str) -> str:
    data = text.encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def rerun_reading(corpus_run, corpus, tmp_path, monkeypatch, caplog, **overrides):
    """Re-run a copy of the acceptance corpus run from detect-rules to the
    exports, with the config's `overrides`.  Returns the blob readers each
    stage started, the (before, after) ids of the texts it diffed, its
    histories, the paths it exported and the stage logs."""
    import migmine.pipeline as pipeline_module

    readers = spy_blob_readers(monkeypatch)
    diffed = []
    diff = pipeline_module.unified_diff

    def spy_diff(before, after, *args, **kwargs):
        diffed.append((git_blob_id(before), git_blob_id(after)))
        return diff(before, after, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "unified_diff", spy_diff)
    config = replace(stored_corpus_copy(corpus_run, corpus, tmp_path), **overrides)
    caplog.set_level(logging.INFO, logger="migmine")
    by_stage = {}
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        for name in [*STAGES[1:], "export_reports"]:
            started = len(readers)
            paths = getattr(pipeline, name)()
            by_stage[name] = readers[started:]
            # no reader outlives its stage
            assert all(proc.poll() is not None for _, _, proc in readers), name
        histories = [pipeline.history(project_id) for project_id in corpus.repos]
    logs = {
        r.getMessage().split()[0]: r.getMessage() for r in caplog.records
        if "blobs_read=" in r.getMessage()
    }
    return by_stage, diffed, histories, paths, logs


def logged(logs, event, key) -> int:
    return int(logs[event].split(f" {key}=")[1].split()[0])


def test_a_rerun_reads_no_blob(corpus_run, corpus, tmp_path, monkeypatch, caplog):
    """A re-run over a stored run asks git for no object in any stage: the
    manifest replay takes each pom.xml version's stored parse result, every
    other blob is answered by its stored library answers, and each diff by
    its stored hunks.  So no stage starts a blob reader or tokenizes or
    resolves facts, and the exports still match the golden files."""
    calls = spy_javafacts(monkeypatch)
    by_stage, diffed, _, paths, logs = rerun_reading(
        corpus_run, corpus, tmp_path, monkeypatch, caplog
    )
    assert calls == {}
    assert {name: started for name, started in by_stage.items() if started} == {}
    assert diffed == []
    assert [p.name for p in paths if p.read_bytes() != (GOLDEN / p.name).read_bytes()] == []
    assert logged(logs, "event=fragments_detected", "diffs") == 0
    # each fragment's diff, and the diffs that gave no fragment
    assert logged(logs, "event=fragments_detected", "diffs_loaded") >= len(corpus.fragments)


def test_each_stored_library_answer_is_what_its_facts_give(corpus, tmp_path):
    """On the acceptance corpus too, each stored library answer is what its
    blob's facts give against its index."""
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        for name in STAGES:
            getattr(pipeline, name)()
        assert_answers_match_facts(store, pipeline)


def test_a_rerun_reads_no_stored_facts(corpus_run, corpus, tmp_path):
    """A re-run's stages read each kind of stored answer in a query of its
    own, once: the parse results, the library answers and the diffs.  No
    query reads a blob's facts, which are not stored."""
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    selects = []
    with Store(config.db_path) as store:
        store.db.set_trace_callback(
            lambda sql: selects.append(sql) if "FROM blob_answers" in sql else None
        )
        pipeline = Pipeline(store, config)
        for name in STAGES[1:]:
            getattr(pipeline, name)()
        store.db.set_trace_callback(None)
    assert sorted(sql.split(" WHERE ")[1] for sql in selects) == [
        "question = 'manifest'", "question GLOB 'diff *'", "question GLOB 'uses *'"
    ]


def test_a_changed_context_diffs_afresh_like_a_fresh_run(
    corpus_run, corpus, tmp_path, monkeypatch, caplog
):
    """A stored diff answers only at its own context.  A re-run at another
    `context_lines` asks git only for the texts it diffs, through at most
    one reader per project, which first asks for the project's last
    commit; it stores those diffs beside the others, and exports what a
    fresh run at that context exports."""
    by_stage, diffed, histories, paths, logs = rerun_reading(
        corpus_run, corpus, tmp_path, monkeypatch, caplog, context_lines=1
    )
    tips = {str(Path(h.ref.workdir).resolve()): h.commits[-1].commit_id for h in histories}
    assert {name for name, started in by_stage.items() if started} == {"detect_fragments"}
    workdirs = [workdir for workdir, _, _ in by_stage["detect_fragments"]]
    assert len(workdirs) == len(set(workdirs))
    asked = set()
    for workdir, ids, _ in by_stage["detect_fragments"]:
        assert ids[0] == tips[workdir]
        assert len(ids[1:]) == len(set(ids[1:]))
        asked.update(ids[1:])
    assert diffed
    assert asked == {sha for pair in diffed for sha in pair}
    assert logged(logs, "event=fragments_detected", "diffs") == len(diffed)
    assert logged(logs, "event=fragments_detected", "diffs_loaded") == 0
    with Store(tmp_path / "migmine.db") as store:
        stored = Counter(question.split()[1] for _, question in store.blob_answers()
                         if question.startswith("diff "))
    assert stored == {"3": len(diffed), "1": len(diffed)}
    fresh = run_corpus(corpus, tmp_path / "fresh", context_lines=1)
    fresh.store.close()
    rerun = {p.name: p.read_bytes() for p in paths}
    assert rerun == {p.name: p.read_bytes() for p in fresh.config.report_path.iterdir()}
    assert rerun != {p.name: p.read_bytes() for p in GOLDEN.iterdir()}


def test_stage_logs_count_blob_reads_and_loaded_answers(
    corpus_run, corpus, tmp_path, monkeypatch, caplog
):
    """`blobs_read` counts the objects a stage asked of git, the last-commit
    checks included: none in a re-run's segment stage, which the store
    answers, and the diffed texts in a fragment stage at a context the
    store holds no diff for.  `answers_loaded` counts the library answers
    read from the database so far: a re-run reads answers and tokenizes
    nothing."""
    by_stage, _, _, _, logs = rerun_reading(
        corpus_run, corpus, tmp_path, monkeypatch, caplog, context_lines=2
    )
    read = {
        event: sum(len(ids) for _, ids, _ in by_stage[stage_name])
        for event, stage_name in (("event=segments_detected", "detect_segments"),
                                  ("event=fragments_detected", "detect_fragments"))
    }
    assert {event: logged(logs, event, "blobs_read") for event in read} == read
    assert read["event=segments_detected"] == 0 < read["event=fragments_detected"]
    # fragments ask only of blobs the segment stage already answered
    loaded = logged(logs, "event=segments_detected", "answers_loaded")
    assert loaded > 0
    assert logged(logs, "event=fragments_detected", "answers_loaded") == loaded
    assert {event: logged(logs, event, "blobs_tokenized") for event in read} == dict.fromkeys(
        read, 0
    )


def test_a_stage_that_raises_leaves_no_blob_reader_running(
    corpus_run, corpus, tmp_path, monkeypatch
):
    """A stage that raises after its histories opened their blob readers
    still ends every reader's process.  In a re-run at a context the store
    holds no diff for, the fragment stage is the one that reads: it diffs
    texts."""
    readers = spy_blob_readers(monkeypatch)
    config = replace(stored_corpus_copy(corpus_run, corpus, tmp_path), context_lines=2)

    def full_disk(fragments):
        raise sqlite3.OperationalError("database or disk is full")

    with Store(config.db_path) as store:
        monkeypatch.setattr(store, "insert_fragments", full_disk)
        pipeline = Pipeline(store, config)
        pipeline.detect_rules()
        pipeline.detect_segments()
        assert readers == []
        with pytest.raises(sqlite3.OperationalError):
            pipeline.detect_fragments()
    assert readers
    assert all(proc.poll() is not None for _, _, proc in readers)


def test_a_stage_runs_one_blob_reader_at_a_time(corpus_run, corpus, tmp_path, monkeypatch):
    """A stage reads one project at a time and ends the project's blob
    reader before the next project starts: each `cat-file` process starts
    only after every earlier one has exited.  With the stored blob answers
    gone, both the segment and the fragment stage read blobs of several
    projects."""
    from migmine import gitrepo

    readers = spy_blob_readers(monkeypatch)
    spy = gitrepo.subprocess.Popen
    running_at_start = []

    def checked(cmd, **kwargs):
        if "cat-file" in cmd:
            running_at_start.append([w for w, _, proc in readers if proc.poll() is None])
        return spy(cmd, **kwargs)

    monkeypatch.setattr(gitrepo.subprocess, "Popen", checked)
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    with Store(config.db_path) as store:
        with store.db:
            store.db.execute("DELETE FROM blob_answers")
        Pipeline(store, config).detect_rules()
        for name in ("detect_segments", "detect_fragments"):
            started = len(readers)
            # a new pipeline holds no text that the stage before read
            getattr(Pipeline(store, config), name)()
            assert len({workdir for workdir, _, _ in readers[started:]}) >= 2, name
    assert running_at_start and all(running == [] for running in running_at_start)
    assert all(proc.poll() is not None for _, _, proc in readers)


def test_segment_ids_run_in_project_then_rule_order(tmp_path):
    """Segments are numbered 1..n project by project, and within a project
    in the stored rules' order (heaviest first)."""
    serializer = "src/main/java/com/example/app/Serializer.java"
    repos = tmp_path / "repos"
    build_repo(repos / "alpha", [
        ("init", {"pom.xml": pom("alpha", JSON_LIB, LANG_LIB), serializer: SERIALIZER_JSON}),
        ("to gson", {"pom.xml": pom("alpha", GSON_LIB, LANG_LIB), serializer: SERIALIZER_GSON}),
        ("to lang3", {"pom.xml": pom("alpha", GSON_LIB, LANG3_LIB)}),
    ])
    build_repo(repos / "beta", [
        ("init", {"pom.xml": pom("beta", JSON_LIB), serializer: SERIALIZER_JSON}),
        ("to gson", {"pom.xml": pom("beta", GSON_LIB), serializer: SERIALIZER_GSON}),
    ])
    projects = tmp_path / "projects.txt"
    projects.write_text(f"{repos / 'beta'}\n{repos / 'alpha'}\n")
    config = RunConfig(
        projects_file=str(projects),
        workdir=str(tmp_path / "work"),
        db_path=str(tmp_path / "m.db"),
        repo_base=build_fake_maven_repo(tmp_path / "mavenrepo"),
    )
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        pipeline.ingest()
        rules = [(rule.source, rule.target) for rule in pipeline.detect_rules()]
        assert rules[:2] == [(JSON_LIB[:2], GSON_LIB[:2]), (LANG_LIB[:2], LANG3_LIB[:2])]
        numbered = sorted(pipeline.detect_segments(), key=lambda s: s.id)
    assert [(s.id, s.project, (s.source, s.target)) for s in numbered] == [
        (1, "alpha", rules[0]), (2, "alpha", rules[1]), (3, "beta", rules[0]),
    ]


def test_a_diff_whose_blob_the_repository_lacks_is_not_stored(tmp_path):
    """A diff with a side git cannot read is computed against no text and
    used, but not stored, so the next stage diffs it again, and stores it
    once the repository has both blobs."""
    path = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(
        tmp_path,
        "lossy",
        [
            ("init", {"pom.xml": pom("lossy", JSON_LIB), path: PADDED_JSON}),
            ("migrate", {"pom.xml": pom("lossy", GSON_LIB), path: PADDED_GSON}),
        ],
    )
    after = git_blob_id(PADDED_GSON)
    loose = tmp_path / "repos" / "lossy" / ".git" / "objects" / after[:2] / after[2:]
    data = loose.read_bytes()

    def diffs(store) -> list[str]:
        return sorted(q for _, q in store.blob_answers() if q.startswith("diff "))

    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        assert [blob for blob, q in store.blob_answers() if q.startswith("diff ")] == [after]
        stored = diffs(store)
        other = replace(config, context_lines=1)
        loose.unlink()
        try:
            # the after blob's facts are stored, so only the diff reads it
            lacking = Pipeline(store, other)
            lacking.detect_fragments()
            assert lacking.diffs == 1
            assert diffs(store) == stored
        finally:
            loose.write_bytes(data)
        Pipeline(store, other).detect_fragments()
        assert diffs(store) == sorted([*stored, stored[0].replace("diff 3 ", "diff 1 ")])


def test_a_blob_read_that_fails_mid_ingest_fails_only_its_project(
    corpus, tmp_path, monkeypatch
):
    """A project whose blob reader fails after its first read is ingest's
    one error: the other projects are stored, and the failed job's reader
    is ended with the rest."""
    from migmine import gitrepo

    readers = spy_blob_readers(monkeypatch)
    ask = gitrepo.BlobReader._ask

    def failing_ask(self, sha):
        # the last-commit check and one blob succeed, then the reader fails
        if self.ref.id == "mig-json-gson" and self.objects_read == 2:
            raise gitrepo.GitError("git cat-file --batch failed (rc=128): injected")
        return ask(self, sha)

    monkeypatch.setattr(gitrepo.BlobReader, "_ask", failing_ask)
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        [error] = Pipeline(store, config).ingest()
        assert "mig-json-gson" in error and error.endswith("injected")
        assert {ref.id for ref in store.projects()} == set(corpus.repos) - {"mig-json-gson"}
        assert store.commits_for("mig-json-gson") == []
    failed = str((corpus.root / "repos" / "mig-json-gson").resolve())
    [asked] = [ids for workdir, ids, _ in readers if workdir == failed]
    assert asked[0] == corpus.repos["mig-json-gson"][-1] and len(asked) == 2
    assert len(readers) == len(corpus.repos)
    assert all(proc.poll() is not None for _, _, proc in readers)


def test_a_first_run_reads_its_blobs_at_ingest_only(corpus, tmp_path, caplog):
    """Ingest reads every text its histories name, in its worker pool, and
    logs how many objects each project read; the later stages of the same
    run read none from git."""
    caplog.set_level(logging.INFO, logger="migmine")
    run = run_corpus(corpus, tmp_path)
    run.store.close()
    assert run.code == 0
    messages = [r.getMessage() for r in caplog.records]
    ingested = [m for m in messages if m.startswith("event=ingested ")]
    assert len(ingested) == len(corpus.repos)
    assert all(int(m.split(" blobs_read=")[1]) > 1 for m in ingested)
    for event in ("event=segments_detected ", "event=fragments_detected "):
        [line] = [m for m in messages if m.startswith(event)]
        assert " blobs_read=0 " in line


def test_a_rerun_reads_no_binary_java_blob(tmp_path, monkeypatch):
    """A binary .java version, once read, holds nothing of any library, and
    that answer is stored like any other, so a re-run's segment stage asks
    git for no object at all, that blob included."""
    serializer = "src/main/java/com/example/app/Serializer.java"
    config = single_repo_config(tmp_path, "binjava", [
        ("init", {"pom.xml": pom("binjava", JSON_LIB), serializer: PADDED_JSON,
                  "src/Blob.java": "\0\1binary"}),
        ("migrate", {"pom.xml": pom("binjava", GSON_LIB), serializer: PADDED_GSON}),
    ])
    with Store(config.db_path) as store:
        code, summary = run_all(store, config)
        assert code == 0 and summary["rules_confirmed"] == 1
        [binary] = [
            fc.after_sha
            for changes in Pipeline(store, config).history("binjava").file_changes.values()
            for fc in changes if fc.path == "src/Blob.java"
        ]
        stored = {q: a for (blob, q), a in store.blob_answers().items() if blob == binary}
        assert stored and all(q.startswith("uses ") and a == "" for q, a in stored.items())
        readers = spy_blob_readers(monkeypatch)
        pipeline = Pipeline(store, config)
        pipeline.detect_rules()
        assert pipeline.detect_segments()
        assert readers == []


PLAIN_SOURCE = """package com.example.app;

public class %s {
    private int count;

    public int next(int step) {
        count = count + step;
        return Math.max(count, 0);
    }
}
"""


def test_plain_files_are_never_tokenized(tmp_path, monkeypatch, caplog):
    """A file that names neither library is not tokenized for either, in
    any stage; the stage logs count the blobs that were."""
    from migmine import javafacts

    serializer = "src/main/java/com/example/app/Serializer.java"
    plain = {
        f"src/main/java/com/example/app/{name}.java": PLAIN_SOURCE % name
        for name in ("Counter", "Stepper", "Ledger")
    }
    config = single_repo_config(
        tmp_path,
        "mostly-plain",
        [
            (
                "init",
                {"pom.xml": pom("mostly-plain", JSON_LIB), serializer: SERIALIZER_JSON, **plain},
            ),
            ("tweak", {path: text + "// tweaked\n" for path, text in plain.items()}),
            (
                "migrate",
                {
                    "pom.xml": pom("mostly-plain", GSON_LIB),
                    serializer: SERIALIZER_GSON,
                    **{path: text + "// migrated\n" for path, text in plain.items()},
                },
            ),
        ],
    )
    tokenized = []
    extract = javafacts.extract_facts

    def spy(text):
        tokenized.append(text)
        return extract(text)

    monkeypatch.setattr(javafacts, "extract_facts", spy)
    caplog.set_level(logging.INFO, logger="migmine")
    with Store(config.db_path) as store:
        code, summary = run_all(store, config)
    assert code == 0
    assert summary["rules_confirmed"] == 1
    assert sorted(tokenized) == sorted([SERIALIZER_JSON, SERIALIZER_GSON])
    logged = {
        r.getMessage().split()[0]: int(r.getMessage().rsplit("blobs_tokenized=", 1)[1])
        for r in caplog.records
        if "blobs_tokenized=" in r.getMessage()
    }
    # the serializer's two versions, each tokenized once across both stages
    assert logged == {"event=segments_detected": 2, "event=fragments_detected": 2}
    assert len(tokenized) == 2


SIBLING_SOURCE = """package com.example.app;

import com.acme.json.Reader;

public class Loader {
    public Object load(String text) {
        return new Reader(text).read();
    }
}
"""


def test_a_file_naming_only_a_sibling_package_is_never_tokenized(tmp_path, monkeypatch):
    """A file that spells the last segment of the library's package, but in
    another package and beside no class of the library, is not tokenized."""
    from migmine import javafacts

    serializer = "src/main/java/com/example/app/Serializer.java"
    loader = "src/main/java/com/example/app/Loader.java"
    config = single_repo_config(
        tmp_path,
        "sibling",
        [
            ("init", {"pom.xml": pom("sibling", JSON_LIB), serializer: SERIALIZER_JSON,
                      loader: SIBLING_SOURCE}),
            ("tweak", {loader: SIBLING_SOURCE + "// tweaked\n"}),
            ("migrate", {"pom.xml": pom("sibling", GSON_LIB), serializer: SERIALIZER_GSON,
                         loader: SIBLING_SOURCE + "// migrated\n"}),
        ],
    )
    tokenized = []
    extract = javafacts.extract_facts

    def spy(text):
        tokenized.append(text)
        return extract(text)

    monkeypatch.setattr(javafacts, "extract_facts", spy)
    with Store(config.db_path) as store:
        code, summary = run_all(store, config)
    assert code == 0
    assert summary["rules_confirmed"] == 1
    assert sorted(tokenized) == sorted([SERIALIZER_JSON, SERIALIZER_GSON])


GOLDEN = Path(__file__).parent / "golden" / "acceptance"


def stored_corpus_copy(corpus_run, corpus, tmp_path) -> RunConfig:
    """A config whose database is a copy of the acceptance corpus run's."""
    config = corpus_config(corpus, tmp_path)
    copy = sqlite3.connect(config.db_path)
    try:
        corpus_run.store.db.backup(copy)
    finally:
        copy.close()
    return config


def maven_repo_copy(corpus, tmp_path) -> Path:
    """A copy of the acceptance corpus's file: Maven repository, for a test
    to change."""
    return Path(shutil.copytree(corpus.root / "mavenrepo", tmp_path / "mavenrepo"))


def test_rerun_from_rules_tokenizes_nothing(corpus_run, corpus, tmp_path, monkeypatch, caplog):
    """A new Pipeline over a stored run reads every blob's library answers
    from the store, so it tokenizes nothing, and its exports still match
    the golden files."""
    from migmine import javafacts

    tokenized = []
    extract = javafacts.extract_facts

    def spy(text):
        tokenized.append(text)
        return extract(text)

    monkeypatch.setattr(javafacts, "extract_facts", spy)
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    caplog.set_level(logging.INFO, logger="migmine")
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        pipeline.detect_rules()
        pipeline.detect_segments()
        pipeline.detect_fragments()
        pipeline.collect_docs()
        paths = pipeline.export_reports()
    assert tokenized == []
    assert pipeline.facts.loaded["uses"] > 0
    logged = [r.getMessage() for r in caplog.records if "blobs_tokenized=" in r.getMessage()]
    assert len(logged) == 2
    assert all(m.endswith(" blobs_tokenized=0") for m in logged)
    assert sorted(p.name for p in paths) == sorted(p.name for p in GOLDEN.iterdir())
    assert [p.name for p in paths if p.read_bytes() != (GOLDEN / p.name).read_bytes()] == []


def test_segments_over_a_stored_history_diff_no_dependencies(
    corpus_run, corpus, tmp_path, monkeypatch
):
    """Only ingest stores the per-commit dependency changes; a later stage
    replays the manifest timeline without diffing it."""
    import migmine.history as history_module

    diffs = []
    diff = history_module.diff_dependencies

    def spy(*args, **kwargs):
        diffs.append(kwargs.get("commit"))
        return diff(*args, **kwargs)

    monkeypatch.setattr(history_module, "diff_dependencies", spy)
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    with Store(config.db_path) as store:
        assert Pipeline(store, config).detect_segments()
    assert diffs == []


INSERT_ANSWERS = "INSERT INTO blob_answers (blob_id, question, answer) VALUES (?, ?, ?)"


def test_screen_verdicts_are_stored_in_one_batch_and_go_with_blob_facts(
    corpus, tmp_path, monkeypatch
):
    """A stage stores its library answers and parse results alike, in one
    insert.  Opening a database whose answers version, which names the
    fact extractor's, differs empties both."""
    calls: list[str] = []
    connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect", lambda *a, **k: CountingConnection(connect(*a, **k), calls)
    )
    config = corpus_config(corpus, tmp_path)

    def rows(store):
        """The stored parse results and library answers."""
        return [
            store.db.execute(f"SELECT COUNT(*) FROM blob_answers WHERE {where}").fetchone()[0]
            for where in ("question = 'manifest'", "question GLOB 'uses *'")
        ]

    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        inserts = {}
        for name in STAGES:
            calls.clear()
            getattr(pipeline, name)()
            inserts[name] = calls.count(INSERT_ANSWERS)
        assert inserts["ingest"] == inserts["detect_segments"] == 1
        assert max(inserts.values()) == 1
        assert all(rows(store))
        store.set_meta("answers_version", "0")
    with Store(config.db_path) as store:
        assert rows(store) == [0, 0]


def changed_blobs(store) -> set[str]:
    """The ids of the blobs the stored file changes name, on either side."""
    return {
        sha
        for commits in store.file_changes().values()
        for changes in commits.values()
        for fc in changes
        for sha in (fc.before_sha, fc.after_sha)
        if sha is not None
    }


def test_a_reingest_keeps_the_blob_answers(corpus, tmp_path, monkeypatch, caplog):
    """Ingesting an unchanged corpus again keeps every stored answer and
    reads only the texts of the blobs the store does not answer: here
    churn-upgrades' App.java, as no rule names two of that project's
    libraries, so no stage asked it anything.  The stages after it read and
    tokenize nothing, no reader outlives the ingest, and the run exports
    what the first run exported."""
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        answers = store.blob_answers()
        unanswered = changed_blobs(store) - {blob for blob, _ in answers}
        assert unanswered == {git_blob_id(GSON_APP)}
        reports = {p.name: p.read_bytes() for p in config.report_path.iterdir()}
        caplog.set_level(logging.INFO, logger="migmine")
        readers = spy_blob_readers(monkeypatch)
        pipeline = Pipeline(store, config)
        pipeline.ingest()
        assert all(proc.poll() is not None for _, _, proc in readers)
        # each reader asks its project's tip commit first
        assert len(readers) == 1
        assert set(readers[0][1][1:]) == unanswered
        for name in STAGES[1:]:
            getattr(pipeline, name)()
        paths = pipeline.export_reports()
        assert store.blob_answers() == answers
    assert {p.name: p.read_bytes() for p in paths} == reports
    ingested = [r.getMessage() for r in caplog.records if "event=ingested " in r.getMessage()]
    assert sorted(ingested) == [
        f"event=ingested project={name} commits={len(commits)} "
        f"blobs_read={2 if name == 'churn-upgrades' else 0}"
        for name, commits in sorted(corpus.repos.items())
    ]
    logged = [r.getMessage() for r in caplog.records if "blobs_tokenized=" in r.getMessage()]
    assert len(logged) == 2
    assert all(" blobs_read=0 " in m and m.endswith(" blobs_tokenized=0") for m in logged)


def test_a_reingest_after_the_answers_were_dropped_reads_in_the_pool(
    corpus_run, corpus, tmp_path, monkeypatch, caplog
):
    """A database written under another answers version drops its stored
    answers at open but keeps its file changes.  Its re-ingest reads every
    text in the pool again, one reader per project, manifests included,
    so the replay after the pool reads none; no reader outlives the
    ingest, and the run exports what a fresh run exported."""
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    with Store(config.db_path) as store:
        store.set_meta("answers_version", f"{FACTS_VERSION}/{MANIFEST_VERSION}/{DIFF_VERSION}")
    caplog.set_level(logging.INFO, logger="migmine")
    readers = spy_blob_readers(monkeypatch)
    with Store(config.db_path) as store:
        assert store.blob_answers() == {}
        stored = changed_blobs(store)
        pipeline = Pipeline(store, config)
        pipeline.ingest()
        assert all(proc.poll() is not None for _, _, proc in readers)
        assert len(readers) == len(corpus.repos)
        assert {sha for _, ids, _ in readers for sha in ids[1:]} == stored
        for name in STAGES[1:]:
            getattr(pipeline, name)()
        assert all(proc.poll() is not None for _, _, proc in readers)
        assert exports(store) == exports(corpus_run.store)
        assert store.blob_answers() == corpus_run.store.blob_answers()
    ingested = [r.getMessage() for r in caplog.records if "event=ingested " in r.getMessage()]
    assert len(ingested) == len(corpus.repos)
    assert all(int(m.split(" blobs_read=")[1]) > 1 for m in ingested)


def test_ingest_keeps_the_parse_results_of_stored_pom_versions(tmp_path, monkeypatch):
    """Ingest stores each pom.xml version's parse result and deletes every
    answer whose blob no stored change names, and every answer to a
    question of no kind a stage asks, as an older version's `facts`.  A
    rename away from pom.xml is the deletion of its old path and names no
    new version, and a project whose re-ingest fails keeps its stored
    changes and so its answers.  A row is inserted only for a version with
    none, so a re-ingest of the same histories writes no row."""
    config = single_repo_config(tmp_path, "poms", [
        ("init", {"pom.xml": pom("poms", JSON_LIB), "core/pom.xml": pom("core"),
                  "web/pom.xml": pom("web", JSON_LIB)}),
        ("swap", {"pom.xml": pom("poms", GSON_LIB), "core/pom.xml": None,
                  "web/pom.xml": None, "web/pom.xml.orig": pom("web", JSON_LIB) + "\n"}),
    ])
    build_repo(tmp_path / "repos" / "gone", [("init", {"pom.xml": pom("gone", GSON_LIB)})])
    with open(config.projects_file, "a") as projects:
        projects.write(f"{tmp_path / 'repos' / 'gone'}\n")
    inserts = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        db = connect(*args, **kwargs)
        db.set_trace_callback(
            lambda sql: inserts.append(sql) if sql.startswith("INSERT INTO blob_answers") else None
        )
        return db

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        assert pipeline.ingest() == []
        rows = store.blob_answers()
        assert len(inserts) == len(rows) == 5
        assert {question for _, question in rows} == {"manifest"}
        changes = [
            fc for project in ("poms", "gone")
            for fcs in pipeline.history(project).file_changes.values() for fc in fcs
        ]
        assert ("deleted", "web/pom.xml") in {(fc.kind, fc.path) for fc in changes}
        assert {sha for sha, _ in rows} == {fc.after_sha for fc in changes if fc.after_sha}
        named = next(iter(rows))[0]
        store.insert_blob_answers([("f" * 40, "manifest", "[]"), (named, "facts", "[]")])
        (tmp_path / "repos" / "gone").rename(tmp_path / "elsewhere")
        inserts.clear()
        assert len(Pipeline(store, config).ingest()) == 1
        assert inserts == []
        assert store.blob_answers() == rows


def get_page(package, class_name, description):
    """A class page documenting one `get(Object)` method."""
    return javadoc_page(
        package, class_name, f"{class_name} of {package}.", [],
        [{"name": "get", "sig": [("java.lang.Object", "key")], "ret": "java.lang.Object",
          "description": description}],
    )


def collect_docs_over(tmp_path, source, target, segments, mapping, jars) -> list[tuple]:
    """Run collect-docs over one confirmed rule, its segments and one mapping.

    `segments` gives (project, source version, target version) per segment,
    in segment order; `jars` gives a javadoc jar's pages per coordinate.
    Returns (side, method, version, description, found, ambiguous) per
    stored attachment.
    """
    config = RunConfig(
        workdir=str(tmp_path / "work"), db_path=str(tmp_path / "m.db"), offline=True
    )
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        for (group, artifact, version), pages in jars.items():
            path = pipeline.fetcher.cache_path(
                LibraryCoordinate(group, artifact, version), "documentation"
            )
            path.parent.mkdir(parents=True)
            path.write_bytes(javadoc_jar(pages))
        store.upsert_rules([MigrationRule(source, target, 1, 1.0, "confirmed")])
        store.upsert(ProjectRef(project, project, project) for project, _, _ in segments)
        store.insert_commits(
            CommitRecord(project, "c1", datetime(2020, 1, 1), "a", "m", 0)
            for project, _, _ in segments
        )
        store.insert_segments(
            Segment(project, source, target, "c1", "c1", source_version, target_version,
                    ["c1"], id=n)
            for n, (project, source_version, target_version) in enumerate(segments, 1)
        )
        store.insert_mappings([replace(mapping, source=source, target=target)])
        pipeline.collect_docs()
        return store.db.execute(
            "SELECT side, class_name || '.' || method, version, description, found, ambiguous "
            "FROM doc_attachments ORDER BY side, class_name, method"
        ).fetchall()


def test_same_class_in_two_libraries_gets_each_sides_own_doc(tmp_path):
    """org.json:json and android-json both ship org.json.JSONObject; each
    side of a migration between them is documented by its own library."""
    android = ("com.vaadin.external.google", "android-json")
    get = (("org.json.JSONObject", "get", 1),)
    rows = collect_docs_over(
        tmp_path, JSON_LIB[:2], android, [("p", "20140107", "0.0.20131108.vaadin1")],
        MethodMapping(JSON_LIB[:2], android, get, get, 1),
        {
            (*JSON_LIB[:2], "20140107"): {
                "org/json/JSONObject.html": get_page("org.json", "JSONObject", "From org.json."),
            },
            (*android, "0.0.20131108.vaadin1"): {
                "org/json/JSONObject.html": get_page("org.json", "JSONObject", "From android."),
            },
        },
    )
    assert rows == [
        ("source", "org.json.JSONObject.get", "20140107", "From org.json.", 1, 0),
        ("target", "org.json.JSONObject.get", "0.0.20131108.vaadin1", "From android.", 1, 0),
    ]


def test_doc_comes_from_the_first_version_in_segment_order(tmp_path):
    """A method documented in both versions a rule's segments record is
    documented by the version of the first segment, and is not ambiguous."""
    gson = GSON_LIB[:2]
    rows = collect_docs_over(
        tmp_path, JSON_LIB[:2], gson, [("a", "20140107", "1.9"), ("b", "20140107", "1.10")],
        MethodMapping(JSON_LIB[:2], gson, (("org.json.JSONObject", "get", 1),),
                      (("com.google.gson.JsonObject", "get", 1),), 1),
        {
            (*gson, version): {
                "com/google/gson/JsonObject.html":
                    get_page("com.google.gson", "JsonObject", f"From {version}."),
            }
            for version in ("1.9", "1.10")
        },
    )
    assert rows == [
        ("source", "org.json.JSONObject.get", None, None, 0, 0),
        ("target", "com.google.gson.JsonObject.get", "1.9", "From 1.9.", 1, 0),
    ]


def test_later_version_documents_what_the_first_lacks(tmp_path):
    """A version whose page lacks the method, or that has no page for the
    class, is passed over for the next one."""
    gson = GSON_LIB[:2]
    rows = collect_docs_over(
        tmp_path, JSON_LIB[:2], gson,
        [("a", "20140107", "1.8"), ("b", "20140107", "1.9"), ("c", "20140107", "1.10")],
        MethodMapping(JSON_LIB[:2], gson, (("org.json.JSONObject", "get", 1),),
                      (("com.google.gson.JsonObject", "get", 1),), 1),
        {
            (*gson, "1.8"): {},
            (*gson, "1.9"): {"com/google/gson/JsonObject.html": javadoc_page(
                "com.google.gson", "JsonObject", "No get yet.", [], [])},
            (*gson, "1.10"): {"com/google/gson/JsonObject.html":
                              get_page("com.google.gson", "JsonObject", "From 1.10.")},
        },
    )
    assert rows[1] == ("target", "com.google.gson.JsonObject.get", "1.10", "From 1.10.", 1, 0)


# doc_attachments and method_docs as a schema-1 database written before
# each attachment carried its doc stored them
PARENT_DOCS_DDL = """
DROP TABLE doc_attachments;
CREATE TABLE method_docs (
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
CREATE TABLE doc_attachments (
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
INSERT INTO method_docs VALUES
  (1, 'com.google.code.gson', 'gson', '2.3.1', 'com.google.gson', 'Gson', 'Main.',
   'toJson', '["Object"]', 'Serializes.', '[]', NULL, NULL);
INSERT INTO doc_attachments VALUES (1, 'target', 'com.google.gson.Gson', 'toJson', 1, 1, 1, 1);
"""


def table_rows(db, skip=()) -> dict[str, list]:
    names = [row[0] for row in db.execute("SELECT name FROM sqlite_master WHERE type = 'table'")]
    return {
        name: sorted(db.execute(f"SELECT * FROM {name}").fetchall(), key=repr)
        for name in names
        if name not in skip
    }


# file_changes as a schema-3 database stored git's raw entries
SCHEMA_3_FILE_CHANGES = """
DROP TABLE file_changes;
CREATE TABLE file_changes (
  project TEXT NOT NULL,
  commit_id TEXT NOT NULL,
  seq INTEGER NOT NULL,
  status TEXT NOT NULL,
  old_path TEXT NOT NULL,
  new_path TEXT,
  old_blob TEXT,
  new_blob TEXT,
  PRIMARY KEY (project, commit_id, seq),
  FOREIGN KEY (project, commit_id) REFERENCES commits(project, commit_id) ON DELETE CASCADE
) WITHOUT ROWID;
"""


# the blob caches that version 6 folded into blob_answers: blob_facts
# since version 1, blob_screens since 3 and pom_manifests in 5
BLOB_FACTS = """
DROP TABLE blob_answers;
CREATE TABLE blob_facts (blob_id TEXT PRIMARY KEY, facts TEXT NOT NULL);
"""
BLOB_SCREENS = """
CREATE TABLE blob_screens (
  blob_id TEXT NOT NULL, screen TEXT NOT NULL, PRIMARY KEY (blob_id, screen)
) WITHOUT ROWID;
"""
POM_MANIFESTS = """
CREATE TABLE pom_manifests (
  blob_id TEXT PRIMARY KEY, coordinates TEXT, error TEXT,
  CHECK ((coordinates IS NULL) != (error IS NULL))
);
"""


# the schema version each shape was written with, and how to write it
OLD_SCHEMAS = {
    "attached": ("1", BLOB_FACTS + "DROP TABLE file_changes;"),
    "separate": ("1", BLOB_FACTS + PARENT_DOCS_DDL + "DROP TABLE file_changes;"),
    "schema-2": ("2", BLOB_FACTS),
    "schema-3": ("3", BLOB_FACTS + BLOB_SCREENS + SCHEMA_3_FILE_CHANGES),
    "schema-4": ("4", BLOB_FACTS + BLOB_SCREENS),
    "schema-5": ("5", BLOB_FACTS + BLOB_SCREENS + POM_MANIFESTS),
}


@pytest.mark.parametrize("shape", OLD_SCHEMAS)
def test_schema_1_database_is_refused_and_left_as_it_was(shape, corpus_run, corpus, tmp_path):
    """A database of an older schema is refused with a StoreError, raised
    before anything writes to it.  Version 1 stored no file changes, so its
    commits would read as histories without changes, whether its docs sit
    on their attachments or in a method_docs table; version 2 stored no
    screen verdicts and wrote every file change column in full; version 3
    stored git's raw entries, without their binary ones; version 4 stored
    no pom.xml parse results; version 5 kept each blob cache in its own
    table."""
    version, script = OLD_SCHEMAS[shape]
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    db = sqlite3.connect(config.db_path)
    db.executescript(
        script + f"UPDATE run_metadata SET value = '{version}' WHERE key = 'schema_version';"
    )
    db.close()
    before = Path(config.db_path).read_bytes()
    with pytest.raises(StoreError, match=f"schema version {version} != supported 6"):
        Store(config.db_path)
    assert Path(config.db_path).read_bytes() == before
    assert [p.name for p in tmp_path.glob("migmine.db*")] == ["migmine.db"]


JSON_COORD = LibraryCoordinate(*JSON_LIB)
GSON_COORD = LibraryCoordinate(*GSON_LIB)


def spy_parses(monkeypatch) -> list[LibraryCoordinate]:
    """The coordinates collect-docs parses a javadoc jar of, in call order."""
    import migmine.pipeline as pipeline_module

    parsed = []
    parse = pipeline_module.parse_doc_archive

    def spy(data, coordinate, classes):
        parsed.append(coordinate)
        return parse(data, coordinate, classes)

    monkeypatch.setattr(pipeline_module, "parse_doc_archive", spy)
    return parsed


def cached_keys(store) -> list[str]:
    return [key for (key,) in store.db.execute("SELECT key FROM archive_docs ORDER BY key")]


def collect_docs_again(config, caplog) -> tuple[list[str], list[tuple], list[str]]:
    """collect-docs on a new Pipeline over a stored run: the docs lines it
    logs, the attachments it stores and the archive keys left cached."""
    caplog.clear()
    caplog.set_level(logging.INFO, logger="migmine")
    with Store(config.db_path) as store:
        Pipeline(store, config).collect_docs()
        attachments = stored_attachments(store)
        keys = cached_keys(store)
    logged = [r.getMessage() for r in caplog.records if "event=doc" in r.getMessage()]
    return logged, attachments, keys


def test_rerun_parses_no_javadoc_page(corpus_run, corpus, tmp_path, monkeypatch, caplog):
    """A full run over a stored run, ingest included, reads every archive's
    docs from the store and stores the same attachments."""
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    parsed = spy_parses(monkeypatch)
    caplog.set_level(logging.INFO, logger="migmine.pipeline")
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        assert stored_attachments(store) == ACCEPTANCE_ATTACHMENTS
        assert cached_keys(store) == cached_keys(corpus_run.store)
    assert parsed == []
    assert [r.getMessage() for r in caplog.records if "event=docs_collected" in r.getMessage()] == [
        "event=docs_collected archives=0 pages=0 methods_parsed=0 attached=9 missing=1 ambiguous=2 "
        "archives_loaded=2"
    ]


def test_changed_class_set_is_parsed_again(corpus_run, corpus, tmp_path, monkeypatch, caplog):
    """A mapping that names another class of a library asks its jar for
    another class set: that jar is parsed again, and its old row goes."""
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    before = cached_keys(corpus_run.store)
    db = sqlite3.connect(config.db_path)
    with db:
        (methods,) = db.execute("SELECT source_methods FROM method_mappings WHERE id = 1").fetchone()
        db.execute(
            "UPDATE method_mappings SET source_methods = ? WHERE id = 1",
            (json.dumps(sorted([*json.loads(methods), ["org.json.JSONArray", "length", 0]])),),
        )
    db.close()
    parsed = spy_parses(monkeypatch)
    logged, attachments, keys = collect_docs_again(config, caplog)
    assert parsed == [JSON_COORD]
    assert logged[-1].startswith("event=docs_collected archives=1 pages=1 methods_parsed=3 ")
    assert logged[-1].endswith(" archives_loaded=1")
    assert len(keys) == 2
    assert [key for key in keys if key in before] == [
        key for key in before if key.endswith("\0com.google.gson.Gson")
    ]
    assert ("org.json.JSONArray", "length") in {(row[2], row[3]) for row in attachments}


# a gson javadoc jar documenting only Gson's constructor, and the attachments
# it gives the target side: (method, description, found)
REPLACED_GSON_JAVADOC = javadoc_jar({"com/google/gson/Gson.html": javadoc_page(
    "com.google.gson", "Gson", "Replaced.",
    [{"name": "Gson", "sig": [], "description": "Replaced constructor."}], [],
)})
REPLACED_TARGET_DOCS = [("<init>", "Replaced constructor.", 1), ("toJson", None, 0)]
# a json class jar that also holds gson's main class, a name that texts the
# old jar's screen rejected hold
REPLACED_JSON_CLASSES = class_jar([
    "org/json/JSONObject.class", "org/json/JSONArray.class",
    "org/json/JSONException.class", "org/json/JSONTokener.class",
    "com/google/gson/Gson.class",
])


def target_docs(store) -> list[tuple]:
    return store.db.execute(
        "SELECT DISTINCT method, description, found FROM doc_attachments "
        "WHERE side = 'target' ORDER BY method"
    ).fetchall()


def test_jar_replaced_under_its_coordinate_is_parsed_again(
    corpus_run, corpus, tmp_path, monkeypatch, caplog
):
    """Stored docs are keyed by a jar's content, not its coordinate; a jar
    whose bytes changed still gives its own docs, not the ones stored for
    the old jar."""
    repo = maven_repo_copy(corpus, tmp_path)
    config = replace(stored_corpus_copy(corpus_run, corpus, tmp_path), repo_base=repo.as_uri())
    (repo / archive_path(GSON_COORD, "documentation")).write_bytes(REPLACED_GSON_JAVADOC)
    parsed = spy_parses(monkeypatch)
    logged, attachments, keys = collect_docs_again(config, caplog)
    assert parsed == [GSON_COORD]
    assert logged[-1].endswith(" archives_loaded=1")
    assert len(keys) == 2
    with Store(config.db_path) as store:
        assert target_docs(store) == REPLACED_TARGET_DOCS


def test_class_jar_replaced_under_its_coordinate_is_screened_again(
    corpus_run, corpus, tmp_path, caplog
):
    """A library answer's key names what the screen and the resolver read
    of an index, not the index's coordinate: after a class jar is replaced
    in the repository, a re-run over the stored run reads the texts it
    asks from git, as no blob's facts are stored, and exports what a fresh
    run exports."""
    repo = maven_repo_copy(corpus, tmp_path)
    config = replace(stored_corpus_copy(corpus_run, corpus, tmp_path), repo_base=repo.as_uri())
    (repo / archive_path(JSON_COORD, "classes")).write_bytes(REPLACED_JSON_CLASSES)
    with Store(config.db_path) as store:
        assert "" in store.blob_answers().values()  # a blob holding nothing of a library
        caplog.set_level(logging.INFO, logger="migmine")
        pipeline = Pipeline(store, config)
        for name in STAGES[1:]:
            getattr(pipeline, name)()
        rerun = exports(store)
    [segments] = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("event=segments_detected ")]
    assert int(segments.split(" blobs_read=")[1].split()[0]) > 0
    fresh = replace(config, db_path=str(tmp_path / "fresh.db"))
    with Store(fresh.db_path) as store:
        run_all(store, fresh)
        assert exports(store) == rerun
    assert rerun != exports(corpus_run.store)


def test_corrupt_javadoc_jar_is_never_cached(corpus_run, corpus, tmp_path, monkeypatch, caplog):
    """A network base's cached jar that is not a zip archive is deleted:
    online the jar is fetched again and its stored docs attach; offline it
    is a miss on every pass."""
    serve_downloads(monkeypatch, corpus.root / "mavenrepo")
    config = replace(stored_corpus_copy(corpus_run, corpus, tmp_path), repo_base=NETWORK_BASE)
    path = Pipeline(corpus_run.store, config).fetcher.cache_path(JSON_COORD, "documentation")
    path.parent.mkdir(parents=True)
    parsed = spy_parses(monkeypatch)
    for offline in (False, True):
        config = replace(config, offline=offline)
        path.write_bytes(b"not a zip")
        for _ in range(2):
            parsed.clear()
            logged, attachments, keys = collect_docs_again(config, caplog)
            assert parsed == []
            if offline:
                assert not path.exists()
                assert logged[-1].startswith("event=docs_collected archives=0 ")
                assert logged[-1].endswith(" archives_loaded=1")
                assert [key.split("\0")[1:] for key in keys] == [["com.google.gson.Gson"]]
                assert {row[6] for row in attachments if row[1] == "source"} == {0}
            else:
                assert zipfile.is_zipfile(path)
                assert logged == [
                    "event=docs_collected archives=0 pages=0 methods_parsed=0 attached=9 "
                    "missing=1 ambiguous=2 archives_loaded=2"
                ]
                assert attachments == ACCEPTANCE_ATTACHMENTS
                assert keys == cached_keys(corpus_run.store)


def test_run_over_a_file_base_copies_no_jar(corpus_run):
    """A file: repository is read in place: the acceptance run leaves no
    file under the archive cache and writes the golden exports."""
    assert [p for p in corpus_run.config.cache_path.rglob("*") if p.is_file()] == []
    reports = corpus_run.config.report_path
    assert sorted(p.name for p in reports.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())
    assert [p.name for p in GOLDEN.iterdir() if (reports / p.name).read_bytes() != p.read_bytes()] == []


def test_jar_replaced_in_a_file_repository_between_passes_is_read_as_replaced(
    corpus_run, corpus, tmp_path
):
    """A file: repository is read on every pass, so jars rebuilt there
    between two passes over one workdir are read as rebuilt: the docs and
    the library answers follow their new bytes, as in a fresh run."""
    repo = maven_repo_copy(corpus, tmp_path)
    config = replace(stored_corpus_copy(corpus_run, corpus, tmp_path), repo_base=repo.as_uri())

    def rerun():
        with Store(config.db_path) as store:
            pipeline = Pipeline(store, config)
            for name in STAGES[1:]:
                getattr(pipeline, name)()
            return exports(store), target_docs(store)

    stored = exports(corpus_run.store)
    assert rerun() == (stored, target_docs(corpus_run.store))
    (repo / archive_path(GSON_COORD, "documentation")).write_bytes(REPLACED_GSON_JAVADOC)
    assert rerun() == (stored, REPLACED_TARGET_DOCS)
    (repo / archive_path(JSON_COORD, "classes")).write_bytes(REPLACED_JSON_CLASSES)
    replaced, _ = rerun()
    assert replaced != stored
    fresh = replace(config, db_path=str(tmp_path / "fresh.db"))
    with Store(fresh.db_path) as store:
        run_all(store, fresh)
        assert exports(store) == replaced


def test_non_zip_jar_in_a_file_repository_is_a_miss_and_is_kept(
    corpus_run, corpus, tmp_path, caplog
):
    """A jar in a file: repository that is not a zip archive gives no class
    index and no docs, and stays in the repository as it was."""
    repo = maven_repo_copy(corpus, tmp_path)
    config = replace(stored_corpus_copy(corpus_run, corpus, tmp_path), repo_base=repo.as_uri())
    jars = [repo / archive_path(JSON_COORD, kind) for kind in ("classes", "documentation")]
    for jar in jars:
        jar.write_bytes(b"not a zip")
    caplog.set_level(logging.WARNING, logger="migmine")
    with Store(config.db_path) as store:
        pipeline = Pipeline(store, config)
        assert pipeline.package_index(JSON_COORD) == javafacts.fallback_package_index(JSON_COORD)
        pipeline.collect_docs()
        attachments = stored_attachments(store)
    assert [r.getMessage().split()[0] for r in caplog.records] == [
        "event=index_error", "event=index_fallback", "event=doc_archive_error"
    ]
    assert {row[6] for row in attachments if row[1] == "source"} == {0}
    assert [jar.read_bytes() for jar in jars] == [b"not a zip"] * 2
    assert not config.cache_path.exists()


def test_database_without_archive_docs_opens_and_fills_it(
    corpus_run, corpus, tmp_path, monkeypatch, caplog
):
    """A database written before docs were cached opens with an empty
    archive_docs table, which collect-docs fills; the next pass parses
    nothing."""
    config = stored_corpus_copy(corpus_run, corpus, tmp_path)
    db = sqlite3.connect(config.db_path)
    db.executescript(
        "DROP TABLE archive_docs; DELETE FROM run_metadata WHERE key = 'docs_version';"
    )
    before = table_rows(db, skip=("run_metadata",))
    db.close()
    with Store(config.db_path) as store:
        assert cached_keys(store) == []
        assert table_rows(store.db, skip=("archive_docs", "run_metadata")) == before
    parsed = spy_parses(monkeypatch)
    for expected in ([GSON_COORD, JSON_COORD], []):
        parsed.clear()
        _, attachments, keys = collect_docs_again(config, caplog)
        assert sorted(parsed) == expected
        assert attachments == ACCEPTANCE_ATTACHMENTS
        assert keys == cached_keys(corpus_run.store)
