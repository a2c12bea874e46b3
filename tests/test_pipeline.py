"""Pipeline-level behaviors that only show up on purpose-built repos."""

import json
import logging
import sqlite3
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import corpus_config
from corpusgen import (
    GSON_APP,
    GSON_LIB,
    JSON_LIB,
    SERIALIZER_GSON,
    SERIALIZER_JSON,
    _git,
    build_fake_maven_repo,
    build_repo,
    pom,
)

from migmine.pipeline import Pipeline, RunConfig, StageDataError, run_all
from migmine.store import EXPORT_FORMATS, EXPORT_SELECTORS, Store


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
        for table in ("rules", "segments", "fragments", "method_mappings",
                      "method_docs", "doc_attachments"):
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

        calls = []
        upsert_fragment = Store.upsert_fragment

        def fail_on_second_call(self, fragment):
            calls.append(fragment)
            if len(calls) == 2:
                raise sqlite3.OperationalError("disk I/O error")
            return upsert_fragment(self, fragment)

        monkeypatch.setattr(Store, "upsert_fragment", fail_on_second_call)
        with pytest.raises(sqlite3.OperationalError):
            pipeline.detect_fragments()
        assert len(calls) == 2
        assert exports(store) == before
        with Store(config.db_path) as other:
            assert exports(other) == before

        monkeypatch.undo()
        pipeline.detect_fragments()
        assert exports(store) == before
    finally:
        store.close()


STAGES = ["ingest", "detect_rules", "detect_segments", "detect_fragments", "collect_docs"]


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
    rows = store.db.execute(
        "SELECT a.mapping_id, a.side, a.class_name, a.method, a.arity, a.doc_id, "
        "d.grp, d.artifact, d.version, d.class_name, d.method, d.signature, "
        "a.found, a.ambiguous FROM doc_attachments a "
        "LEFT JOIN method_docs d ON d.id = a.doc_id "
        "ORDER BY a.mapping_id, a.side, a.class_name, a.method, a.arity"
    ).fetchall()
    return [(*row[:5], None if row[5] is None else row[6:12], *row[12:]) for row in rows]


def test_collect_docs_writes_each_doc_once(corpus, tmp_path, monkeypatch):
    inserts = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        db = connect(*args, **kwargs)
        db.set_trace_callback(
            lambda sql: inserts.append(sql) if sql.lstrip().startswith("INSERT INTO method_docs") else None
        )
        return db

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        (stored,), = store.db.execute("SELECT COUNT(*) FROM method_docs").fetchall()
    assert len(inserts) == stored > 0


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
    """Docs sharing a store key (library, class simple name, method, signature)
    keep the first one parsed, which is also the one attach_docs picks.  Docs
    no mapping uses are not stored at all."""
    import migmine.pipeline as pipeline_module

    parse_doc_archive = pipeline_module.parse_doc_archive

    def parse_with_twins(data, coordinate):
        docs = parse_doc_archive(data, coordinate)
        if coordinate.artifact != "json":
            return docs
        attached = next(doc for doc in docs if doc.method == "toJSONString")
        unused = replace(attached, class_name="Foo", method="bar", signature=("int",))
        return [
            replace(attached, package="a.shadow"),
            *docs,
            replace(unused, package="a"),
            replace(unused, package="b"),
        ]

    monkeypatch.setattr(pipeline_module, "parse_doc_archive", parse_with_twins)
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        stored = store.db.execute(
            "SELECT method, package FROM method_docs "
            "WHERE grp = 'org.json' AND method IN ('toJSONString', 'bar')"
        ).fetchall()
        attached = store.db.execute(
            "SELECT DISTINCT d.package FROM doc_attachments a "
            "JOIN method_docs d ON d.id = a.doc_id WHERE a.method = 'toJSONString'"
        ).fetchall()
    assert stored == [("toJSONString", "a.shadow")]
    assert attached == [("a.shadow",)]


def test_one_blob_reader_per_project_per_pass(corpus, tmp_path, monkeypatch):
    """Each pass reads a project's blobs through one `git cat-file` process,
    however many commits touch a pom.xml or a .java file."""
    from migmine import gitrepo

    readers = []
    popen = subprocess.Popen

    def spy(cmd, **kwargs):
        if "cat-file" in cmd:
            readers.append(str(Path(kwargs["cwd"]).resolve()))
        return popen(cmd, **kwargs)

    # subprocess.run, and so run_git, starts its processes through Popen too
    monkeypatch.setattr(gitrepo.subprocess, "Popen", spy)
    config = corpus_config(corpus, tmp_path)
    with Store(config.db_path) as store:
        assert run_all(store, config)[0] == 0
        workdirs = sorted(str(Path(ref.workdir).resolve()) for ref in store.projects())
        assert len(workdirs) == len(corpus.repos)
        assert sorted(readers) == workdirs
        readers.clear()
        pipeline = Pipeline(store, config)
        pipeline.detect_rules()
        pipeline.detect_segments()
        pipeline.detect_fragments()
        pipeline.collect_docs()
        pipeline.export_reports()
    assert sorted(readers) == workdirs
