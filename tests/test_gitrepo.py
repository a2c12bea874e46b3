"""History ingestion against scripted repositories."""

import shutil
import subprocess

import pytest
from corpusgen import GSON_LIB, JSON_LIB, _git, build_repo, pom

from migmine import gitrepo
from migmine.gitrepo import (
    GitError,
    IngestError,
    NoHistoryError,
    RawChange,
    UnknownCommitError,
    changed_files,
    git_version,
    ingest_project,
    read_history,
)
from migmine.history import CommitChanges, ProjectHistory
from migmine.model import CommitRecord, ProjectRef


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


def history_of(path, work) -> ProjectHistory:
    return ProjectHistory(*ingest_project(str(path), work))


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
        path, _ = small_repo
        assert changed_files(ProjectRef("p", str(path), str(path)), {}) == {}
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
        changes = history_of(path, path.parent / "work").changes(hashes[1]).pom
        assert len(changes) == 1
        change = changes[0]
        assert change.kind == "modified"
        assert change.before == "<project/>"
        assert change.after == "<project><x/></project>"

    def test_no_matching_path_is_empty(self, small_repo):
        path, hashes = small_repo
        history = history_of(path, path.parent / "work")
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
        history = history_of(path, tmp_path / "work")
        added = history.changes(hashes[0])
        assert [c.path for c in added.pom] == ["module/sub/pom.xml"]
        assert [c.path for c in added.java] == ["old/Moved.java", "src/A.java"]
        renamed = history.changes(hashes[1])
        assert [(c.old_path, c.path) for c in renamed.java] == [("old/Moved.java", "old/Moved.txt")]

    def test_root_commit_adds_have_no_before(self, small_repo):
        path, hashes = small_repo
        changes = history_of(path, path.parent / "work").changes(hashes[0]).java
        assert len(changes) == 1
        assert changes[0].kind == "added"
        assert changes[0].before is None
        assert changes[0].after == "class A {}\n"

    def test_unknown_commit_raises_lookup_error(self, small_repo):
        path, hashes = small_repo
        ref, records, _ = ingest_project(str(path), path.parent / "work")
        with pytest.raises(UnknownCommitError):
            ProjectHistory(ref, records).changes("0" * 40)
        # a stored history reads up to its own last commit, not HEAD
        stored = ProjectHistory(ref, records[:2])
        assert stored.changes(hashes[1]).pom
        with pytest.raises(UnknownCommitError):
            stored.changes(hashes[2])
        # a stored commit the repository no longer has
        gone = records[:1] + [CommitRecord(ref.id, "f" * 40, records[1].date, "", "", 1)]
        with pytest.raises(UnknownCommitError):
            ProjectHistory(ref, gone).changes(hashes[0])

    def test_rename_detection(self, tmp_path):
        path = tmp_path / "renamer"
        hashes = build_repo(
            path,
            [
                ("add", {"old/Moved.java": MOVED}),
                ("move", {"old/Moved.java": None, "new/Moved.java": MOVED}),
            ],
        )
        changes = history_of(path, tmp_path / "work").changes(hashes[1]).java
        assert [c.kind for c in changes] == ["renamed"]
        assert changes[0].old_path == "old/Moved.java"
        assert changes[0].path == "new/Moved.java"

    def test_replay_invariant_before_equals_previous_after(self, small_repo):
        path, hashes = small_repo
        ref, records, raw = ingest_project(str(path), path.parent / "work")
        by_commit = changed_files(ref, raw)
        assert list(by_commit) == [r.commit_id for r in records]
        last_after: dict[str, str] = {}
        for record in records:
            for change in by_commit[record.commit_id]:
                if change.kind != "added":
                    previous = last_after.get(change.old_path or change.path)
                    if previous is not None:
                        assert change.before == previous
                        # each distinct blob is decoded once
                        assert change.before is previous
                if change.after is not None:
                    last_after[change.path] = change.after
                if change.kind == "renamed":
                    last_after.pop(change.old_path, None)
                elif change.kind == "deleted":
                    last_after.pop(change.path, None)
        assert last_after["notes.txt"] == "hi\n"

    def test_binary_blobs_are_skipped(self, tmp_path):
        path = tmp_path / "binrepo"
        path.mkdir()
        subprocess.run(["git", "init", "-q", "-b", "main", str(path)], check=True)
        (path / "blob.bin").write_bytes(b"\x00\x01\x02binary")
        (path / "ok.txt").write_text("text\n")
        env = {"GIT_AUTHOR_DATE": "2015-03-01T10:00:00+00:00",
               "GIT_COMMITTER_DATE": "2015-03-01T10:00:00+00:00"}
        _git(["add", "-A"], cwd=path)
        _git(["commit", "-q", "-m", "bin"], cwd=path, env=env)
        ref, records, raw = ingest_project(str(path), tmp_path / "w")
        changes = changed_files(ref, raw)[records[0].commit_id]
        assert [c.path for c in changes] == ["ok.txt"]

    def test_dead_reader_is_git_error_not_empty_changes(self, tmp_path, monkeypatch):
        path = tmp_path / "vanishing"
        hashes = build_repo(path, [("first", {"pom.xml": "<project/>"})])
        history = history_of(path, tmp_path / "work")
        shutil.rmtree(path / ".git")
        # git must not find an enclosing repository above the test directory
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        with pytest.raises(GitError, match=r"cat-file --batch failed \(rc=128\)"):
            history.changes(hashes[0])

    def test_missing_blob_reads_as_none(self, small_repo):
        path, hashes = small_repo
        ref, _, raw = ingest_project(str(path), path.parent / "work")
        gone = "f" * 40
        entry = RawChange("M", "pom.xml", "pom.xml", gone, raw[hashes[1]][0].new_sha)
        [change] = changed_files(ref, {hashes[1]: [entry]})[hashes[1]]
        assert change.before is None
        assert change.after == "<project><x/></project>"


# -- the one-stream reader against per-commit diff-tree ------------------------


def reference_history(path) -> dict[str, list[RawChange]]:
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
            entries.append(RawChange(status, paths[0], paths[-1], old_sha, new_sha))
            i += 1 + len(paths)
        history[commit] = entries
    return history


def read_and_compare(path) -> dict[str, list[RawChange]]:
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
        assert {e.new_path for e in changes[merge]} == {"pom.xml", "src/A.java"}
        history = history_of(path, tmp_path / "work")
        assert [c.after for c in history.changes(merge).pom] == [pom("app", GSON_LIB)]
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
        assert {e.new_path for e in root} == {"pom.xml", "a/Moved.java"}
        assert [e.status[0] for e in move] == ["R"]
        assert all(len(e.new_sha) == 40 for e in root)

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
        history = history_of(path, tmp_path / "work")
        assert [c.path for c in history.changes(hashes[0]).java] == ["old/Moved.java"]
        assert history.changes(hashes[1]) == CommitChanges([], [])
        assert [c.kind for c in history.changes(hashes[2]).java] == ["renamed"]
