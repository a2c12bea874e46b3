"""History ingestion against scripted repositories."""

import shutil
import subprocess

import pytest
from conftest import ingested_history
from corpusgen import GSON_LIB, JSON_LIB, _git, build_repo, pom

from migmine import gitrepo
from migmine.gitrepo import (
    GitError,
    IngestError,
    NoHistoryError,
    BlobReader,
    UnknownCommitError,
    changed_files,
    git_version,
    ingest_project,
    read_history,
)
from migmine.history import CommitChanges, FactsCache, ProjectHistory
from migmine.javafacts import fallback_package_index
from migmine.model import (
    CommitRecord,
    FileChange,
    LibraryAnswer,
    LibraryCoordinate,
    ProjectRef,
)
from migmine.pipeline import Pipeline, RunConfig
from migmine.store import Store


@pytest.fixture(scope="module")
def small_repo(tmp_path_factory):
    path = tmp_path_factory.mktemp("repos") / "small"
    hashes = build_repo(
        path,
        [
            ("first", {"pom.xml": "<project/>", "src/A.java": "class A {}\n"}),
            ("second", {"pom.xml": "<project><x/></project>"}),
            ("third", {"src/A.java": "class A { int x; }\n", "notes.txt": "hi\n"}),
        ],
    )
    return path, hashes


# large enough for git to pair a delete and an add as a rename
MOVED = "class Moved {\n" + "".join(f"  int f{i};\n" for i in range(30)) + "}\n"


class TestIngest:
    def test_commit_count_and_order(self, small_repo):
        path, hashes = small_repo
        ref, records, _ = ingest_project(str(path), path.parent / "work")
        assert [r.commit_id for r in records] == hashes
        assert [r.ordinal for r in records] == [0, 1, 2]
        assert [r.message for r in records] == ["first", "second", "third"]

    def test_metadata_populated(self, small_repo):
        path, _ = small_repo
        _, records, _ = ingest_project(str(path), path.parent / "work")
        assert all(r.author == "Dev One" for r in records)
        assert all(r.date.tzinfo is not None for r in records)
        dates = [r.date for r in records]
        assert dates == sorted(dates)

    def test_forty_commits_have_increasing_dates(self, tmp_path):
        path = tmp_path / "long"
        hashes = build_repo(
            path, [(f"c{i}", {"src/A.java": f"class A {{ int f{i}; }}\n"}) for i in range(40)]
        )
        _, records, _ = ingest_project(str(path), tmp_path / "work")
        assert [r.commit_id for r in records] == hashes
        assert [r.ordinal for r in records] == list(range(40))
        dates = [r.date for r in records]
        assert all(a < b for a, b in zip(dates, dates[1:]))

    def test_ingest_is_deterministic(self, small_repo):
        path, _ = small_repo
        first = ingest_project(str(path), path.parent / "work")
        second = ingest_project(str(path), path.parent / "work")
        assert first == second

    def test_unreachable_origin_is_ingest_error(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_project(str(tmp_path / "definitely-missing.git"), tmp_path / "w")

    def test_empty_repository_is_distinct_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        subprocess.run(["git", "init", "-q", str(empty)], check=True)
        with pytest.raises(NoHistoryError):
            ingest_project(str(empty), tmp_path / "w")

    def test_clone_from_local_url(self, small_repo, tmp_path):
        path, hashes = small_repo
        ref, records, _ = ingest_project(path.as_uri(), tmp_path / "clones", "cloned")
        assert ref.workdir.endswith("cloned")
        assert [r.commit_id for r in records] == hashes

    def test_git_version_reports(self):
        assert git_version().startswith("git version")

    def test_git_never_waits_on_a_credential_prompt(self, small_repo, monkeypatch):
        seen = {}

        def fake_run(cmd, **kwargs):
            seen.update(kwargs)
            return subprocess.CompletedProcess(cmd, 0, b"git version 0\n", b"")

        monkeypatch.setenv("MIGMINE_PROBE", "kept")
        monkeypatch.setattr(gitrepo.subprocess, "run", fake_run)
        git_version()
        assert seen["env"]["GIT_TERMINAL_PROMPT"] == "0"
        assert seen["env"]["MIGMINE_PROBE"] == "kept"

        # the blob reader is started with the same environment
        reader = {}
        popen = subprocess.Popen

        def spy_popen(cmd, **kwargs):
            reader.update(kwargs, cmd=cmd)
            return popen(cmd, **kwargs)

        monkeypatch.setattr(gitrepo.subprocess, "Popen", spy_popen)
        path, hashes = small_repo
        with BlobReader(ProjectRef("p", str(path), str(path))) as blobs:
            assert blobs.read(hashes[0]).startswith(b"tree ")
        assert reader["cmd"][1:] == ["cat-file", "--batch"]
        assert reader["env"]["GIT_TERMINAL_PROMPT"] == "0"
        assert reader["env"]["MIGMINE_PROBE"] == "kept"

    def test_scripted_five_commit_fixture(self, corpus, tmp_path):
        ref, records, _ = ingest_project(
            str(corpus.root / "repos" / "mig-json-gson"), tmp_path, "mjg"
        )
        assert len(records) == 5
        assert [r.message for r in records] == corpus.messages["mig-json-gson"]
        assert [r.commit_id for r in records] == corpus.repos["mig-json-gson"]


class TestChangedFiles:
    def test_pom_filter_single_modification(self, small_repo):
        path, hashes = small_repo
        history = ingested_history(path, path.parent / "work")
        changes = history.changes(hashes[1]).pom
        assert len(changes) == 1
        change = changes[0]
        assert change.kind == "modified"
        assert history.text(change.before_sha) == "<project/>"
        assert history.text(change.after_sha) == "<project><x/></project>"

    def test_no_matching_path_is_empty(self, small_repo):
        path, hashes = small_repo
        history = ingested_history(path, path.parent / "work")
        assert history.changes(hashes[1]).java == []
        assert [c.path for c in history.changes(hashes[2]).java] == ["src/A.java"]
        assert history.changes(hashes[2]).pom == []

    def test_selection_by_pom_basename_and_java_suffix(self, tmp_path):
        path = tmp_path / "selection"
        names = ["pom.xml.bak", "module/mypom.xml", "module/sub/pom.xml", "A.javax", "src/A.java"]
        hashes = build_repo(
            path,
            [
                ("add", {**{name: f"{name}\n" for name in names}, "old/Moved.java": MOVED}),
                ("rename away from .java", {"old/Moved.java": None, "old/Moved.txt": MOVED}),
            ],
        )
        history = ingested_history(path, tmp_path / "work")
        added = history.changes(hashes[0])
        assert [c.path for c in added.pom] == ["module/sub/pom.xml"]
        assert [c.path for c in added.java] == ["old/Moved.java", "src/A.java"]
        # a rename away from .java is the deletion of its .java path
        renamed = history.changes(hashes[1])
        assert [(c.kind, c.path) for c in renamed.java] == [("deleted", "old/Moved.java")]

    def test_a_rename_across_kinds_is_a_deletion_and_an_addition(self, tmp_path):
        """git's rename of a pom.xml or .java file to a path of another kind
        is kept as the deletion of the old path and the addition of the new
        one, each only when its path is a pom.xml or .java file; a rename
        within one kind stays a rename."""
        path = tmp_path / "across"
        manifest, notes = pom("app", JSON_LIB), MOVED.replace("f", "g")
        hashes = build_repo(
            path,
            [
                ("add", {"pom.xml": manifest, "a/Moved.java": MOVED, "notes/Moved.txt": notes}),
                ("rename across kinds", {
                    "pom.xml": None, "pom.xml.bak": manifest,
                    "a/Moved.java": None, "a/Moved.java.orig": MOVED,
                    "notes/Moved.txt": None, "b/Moved.java": notes,
                }),
                ("rename back and within kinds", {
                    "pom.xml.bak": None, "core/pom.xml": manifest,
                    "b/Moved.java": None, "c/Moved.java": notes,
                }),
            ],
        )
        _, _, raw = ingest_project(str(path), tmp_path / "work")
        assert [fc.kind for fc in raw[hashes[1]]] == ["renamed"] * 3
        blob = {fc.path: fc.after_sha for fc in raw[hashes[0]]}
        selected = changed_files(raw)
        assert sorted(selected[hashes[1]]) == [
            FileChange("a/Moved.java", "deleted", None, blob["a/Moved.java"], None),
            FileChange("b/Moved.java", "added", None, None, blob["notes/Moved.txt"]),
            FileChange("pom.xml", "deleted", None, blob["pom.xml"], None),
        ]
        assert sorted((fc.kind, fc.old_path, fc.path) for fc in selected[hashes[2]]) == [
            ("added", None, "core/pom.xml"), ("renamed", "b/Moved.java", "c/Moved.java"),
        ]

    def test_root_commit_adds_have_no_before(self, small_repo):
        path, hashes = small_repo
        history = ingested_history(path, path.parent / "work")
        changes = history.changes(hashes[0]).java
        assert len(changes) == 1
        assert changes[0].kind == "added"
        assert changes[0].before_sha is None
        assert history.text(changes[0].after_sha) == "class A {}\n"

    def test_unknown_commit_raises_lookup_error(self, small_repo, tmp_path):
        """A history built from the store, as every stage after ingest builds
        it, knows only its stored commits, and its first text read needs the
        repository to still have its last one."""
        path, hashes = small_repo
        ref, records, raw = ingest_project(str(path), path.parent / "work")
        selected = changed_files(raw)

        def stored_history(name: str, commits: list[CommitRecord]) -> ProjectHistory:
            config = RunConfig(workdir=str(tmp_path), db_path=str(tmp_path / f"{name}.db"))
            with Store(config.db_path) as store:
                store.upsert([ref])
                store.insert_commits(commits)
                store.insert_file_changes(
                    [(ref.id, {c.commit_id: selected.get(c.commit_id, []) for c in commits})]
                )
                return Pipeline(store, config).history(ref.id)

        with pytest.raises(UnknownCommitError):
            stored_history("all", records).changes("0" * 40)
        # a stored history holds its own commits, not HEAD's
        stored = stored_history("two", records[:2])
        [pom_change] = stored.changes(hashes[1]).pom
        with pytest.raises(UnknownCommitError):
            stored.changes(hashes[2])
        try:
            assert stored.text(pom_change.after_sha) == "<project><x/></project>"
        finally:
            stored.close()
        # a stored last commit the repository no longer has: its changes
        # read from the store, its first text read fails
        gone = records[:1] + [CommitRecord(ref.id, "f" * 40, records[1].date, "", "", 1)]
        history = stored_history("gone", gone)
        [java] = history.changes(hashes[0]).java
        try:
            with pytest.raises(UnknownCommitError, match="f{40}"):
                history.text(java.after_sha)
            # the failed reader is gone: the next read checks again
            with pytest.raises(UnknownCommitError, match="f{40}"):
                history.text(java.after_sha)
        finally:
            history.close()

    def test_rename_detection(self, tmp_path):
        path = tmp_path / "renamer"
        hashes = build_repo(
            path,
            [
                ("add", {"old/Moved.java": MOVED}),
                ("move", {"old/Moved.java": None, "new/Moved.java": MOVED}),
            ],
        )
        changes = ingested_history(path, tmp_path / "work").changes(hashes[1]).java
        assert [c.kind for c in changes] == ["renamed"]
        assert changes[0].old_path == "old/Moved.java"
        assert changes[0].path == "new/Moved.java"

    def test_replay_invariant_before_equals_previous_after(self, small_repo):
        path, hashes = small_repo
        ref, records, raw = ingest_project(str(path), path.parent / "work")
        kept = changed_files(raw)
        # notes.txt touches neither a pom.xml nor a .java file
        assert kept == {
            cid: [fc for fc in entries if fc.path != "notes.txt"] for cid, entries in raw.items()
        }
        history = ProjectHistory(ref, records, raw)
        last_after: dict[str, str] = {}
        try:
            for record in records:
                for fc in raw[record.commit_id]:
                    if fc.kind != "added":
                        previous = last_after.get(fc.old_path or fc.path)
                        if previous is not None:
                            assert history.text(fc.before_sha) == previous
                            # each distinct blob is read and decoded once
                            assert history.text(fc.before_sha) is previous
                    last_after.pop(fc.old_path or fc.path, None)
                    if fc.kind != "deleted":
                        last_after[fc.path] = history.text(fc.after_sha)
        finally:
            history.close()
        assert last_after["notes.txt"] == "hi\n"

    def test_binary_blobs_are_stored_and_read_as_no_text(self, tmp_path):
        """A binary version is kept with its change and reads as no text, so
        it yields no uses and no dependence.  It is not tokenized, and its
        answer, which holds nothing, is kept so that a later run need not
        read it again."""
        path = tmp_path / "binrepo"
        path.mkdir()
        subprocess.run(["git", "init", "-q", "-b", "main", str(path)], check=True)
        (path / "blob.bin").write_bytes(b"\x00\x01\x02binary")
        (path / "Data.java").write_bytes(b"\x00\x01import org.json.JSONObject;\n")
        (path / "ok.txt").write_text("text\n")
        env = {"GIT_AUTHOR_DATE": "2015-03-01T10:00:00+00:00",
               "GIT_COMMITTER_DATE": "2015-03-01T10:00:00+00:00"}
        _git(["add", "-A"], cwd=path)
        _git(["commit", "-q", "-m", "bin"], cwd=path, env=env)
        ref, records, raw = ingest_project(str(path), tmp_path / "w")
        assert [fc.path for fc in raw[records[0].commit_id]] == ["Data.java", "blob.bin", "ok.txt"]
        [java] = changed_files(raw)[records[0].commit_id]
        assert (java.path, java.kind) == ("Data.java", "added")
        facts = FactsCache()
        history = ProjectHistory(ref, records, changed_files(raw), facts=facts)
        index = fallback_package_index(LibraryCoordinate("org.json", "json", "1"))
        try:
            assert history.text(java.after_sha) is None
            assert history.uses_for(java.after_sha, index) == []
            assert history.last_dependent_commit(index, 0) is None
        finally:
            history.close()
        assert facts.known(java.after_sha) is None
        assert facts.tokenized == 0
        assert facts.library_answer(java.after_sha, index.answer_key) == LibraryAnswer([], False)

    def test_dead_reader_is_git_error_not_empty_changes(self, tmp_path, monkeypatch):
        path = tmp_path / "vanishing"
        hashes = build_repo(path, [("first", {"pom.xml": "<project/>"})])
        ref, records, raw = ingest_project(str(path), tmp_path / "work")
        history = ProjectHistory(ref, records, raw)
        [pom_change] = history.changes(hashes[0]).pom
        shutil.rmtree(path / ".git")
        # git must not find an enclosing repository above the test directory
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        try:
            for _ in range(2):  # a dead reader is replaced, and fails again
                with pytest.raises(GitError, match=r"cat-file --batch failed \(rc=128\)"):
                    history.text(pom_change.after_sha)
        finally:
            history.close()

    def test_missing_blob_reads_as_none(self, small_repo):
        path, hashes = small_repo
        ref, records, raw = ingest_project(str(path), path.parent / "work")
        [pom_change] = raw[hashes[1]]
        history = ProjectHistory(ref, records, raw)
        try:
            assert history.text("f" * 40) is None
            assert history.text(pom_change.after_sha) == "<project><x/></project>"
        finally:
            history.close()


# -- the one-stream reader against per-commit diff-tree ------------------------


def reference_history(path) -> dict[str, list[FileChange]]:
    """Per-commit `git diff-tree -r -M` against the first parent, oldest first."""

    def git(*args):
        out = subprocess.run(["git", *args], cwd=path, check=True, stdout=subprocess.PIPE)
        return out.stdout.decode()

    history = {}
    for commit in git("rev-list", "--first-parent", "--reverse", "HEAD").split():
        parents = git("rev-list", "--parents", "-n", "1", commit).split()[1:]
        base = parents[:1] or ["--root"]
        fields = git("diff-tree", "-r", "-M", "-z", "--no-commit-id", *base, commit).split("\0")
        entries = []
        i = 0
        while fields[i]:
            _, _, old_sha, new_sha, status = fields[i][1:].split(" ")
            paths = fields[i + 1 : i + (3 if status[0] in "RC" else 2)]
            if status[0] == "R":
                entries.append(FileChange(paths[1], "renamed", paths[0], old_sha, new_sha))
            elif status[0] in "AC":
                entries.append(FileChange(paths[-1], "added", None, None, new_sha))
            elif status[0] == "D":
                entries.append(FileChange(paths[0], "deleted", None, old_sha, None))
            else:
                entries.append(FileChange(paths[0], "modified", None, old_sha, new_sha))
            i += 1 + len(paths)
        history[commit] = entries
    return history


def read_and_compare(path) -> dict[str, list[FileChange]]:
    records, changes = read_history(ProjectRef("p", str(path), str(path)))
    expected = reference_history(path)
    assert [r.commit_id for r in records] == list(expected)
    assert changes == expected
    return changes


def commit_all(path, message, day, *extra):
    date = f"2016-01-{day:02d}T10:00:00+00:00"
    env = {"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}
    _git(["add", "-A"], cwd=path)
    _git(["commit", "-q", "-m", message, *extra], cwd=path, env=env)


class TestReadHistory:
    def test_acceptance_corpus_matches_diff_tree(self, corpus):
        for name in corpus.repos:
            changes = read_and_compare(corpus.root / "repos" / name)
            assert list(changes) == corpus.repos[name]
            assert all(changes.values()), name

    def test_no_ff_merge_carries_first_parent_diff(self, tmp_path):
        path = tmp_path / "merged"
        build_repo(path, [("init", {"pom.xml": pom("app", JSON_LIB), "src/A.java": "class A {}\n"})])
        _git(["checkout", "-q", "-b", "side"], cwd=path)
        (path / "pom.xml").write_text(pom("app", GSON_LIB))
        commit_all(path, "side pom", 1)
        (path / "src" / "A.java").write_text("class A { int side; }\n")
        commit_all(path, "side java", 2)
        side = subprocess.run(
            ["git", "rev-list", "main..side"], cwd=path, check=True, stdout=subprocess.PIPE
        ).stdout.decode().split()
        _git(["checkout", "-q", "main"], cwd=path)
        (path / "src" / "B.java").write_text("class B {}\n")
        commit_all(path, "main java", 3)
        _git(["merge", "-q", "--no-ff", "side", "-m", "merge side"], cwd=path)

        changes = read_and_compare(path)
        assert len(side) == 2 and not set(side) & set(changes)
        merge = list(changes)[-1]
        assert {e.path for e in changes[merge]} == {"pom.xml", "src/A.java"}
        history = ingested_history(path, tmp_path / "work")
        assert [history.text(c.after_sha) for c in history.changes(merge).pom] == [
            pom("app", GSON_LIB)
        ]
        assert [c.path for c in history.changes(merge).java] == ["src/A.java"]

    def test_repository_config_does_not_change_the_stream(self, tmp_path):
        path = tmp_path / "configured"
        build_repo(
            path,
            [
                ("add", {"pom.xml": pom("app"), "a/Moved.java": MOVED}),
                ("move", {"a/Moved.java": None, "b/Moved.java": MOVED}),
            ],
        )
        for key, value in (
            ("log.showRoot", "false"), ("diff.renames", "false"), ("core.abbrev", "12"),
        ):
            _git(["config", key, value], cwd=path)
        root, move = read_and_compare(path).values()
        assert {e.path for e in root} == {"pom.xml", "a/Moved.java"}
        assert [e.kind for e in move] == ["renamed"]
        assert all(len(e.after_sha) == 40 for e in root)

    def test_rename_binary_and_empty_commits(self, tmp_path):
        path = tmp_path / "mixed"
        hashes = build_repo(
            path,
            [
                ("add", {"old/Moved.java": MOVED, "res/Data.java": "\0\1binary\n"}),
                ("empty", {}),
                ("move", {"old/Moved.java": None, "new/Moved.java": MOVED}),
            ],
        )
        changes = read_and_compare(path)
        assert changes[hashes[1]] == []
        history = ingested_history(path, tmp_path / "work")
        # the binary .java file is kept, and reads as no text
        added = history.changes(hashes[0]).java
        assert [c.path for c in added] == ["old/Moved.java", "res/Data.java"]
        assert history.text(added[1].after_sha) is None
        assert history.changes(hashes[1]) == CommitChanges([], [])
        assert [c.kind for c in history.changes(hashes[2]).java] == ["renamed"]
