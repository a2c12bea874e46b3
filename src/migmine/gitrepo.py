"""Git history ingestion through subprocesses.

One `git log` per project and ingest reads the first-parent history,
oldest first, together with every commit's file changes; this gives every
project a stable linear timeline for segment ordering.  Ingest stores the
pom.xml and .java changes (`changed_files` picks them), so a later stage
runs no `git log`.  File contents come from the object store, never from
checkouts: a `BlobReader` runs one `cat-file --batch` process, started at
its first read and fed one object id at a time, and a history reads its
texts through at most one per stage.  The reader checks that the
repository still has the project's last commit when it starts, so a stage
checks a repository only when it first reads a blob from it: a stage
whose every answer about a project is stored starts no git process for
it, and a vanished clone goes unnoticed.  No git call, neither `run_git`
nor that reader, waits on a credential prompt.
"""

from __future__ import annotations

import logging
import os
import re
import subprocess
from datetime import datetime, timezone
from pathlib import Path

from .model import CommitRecord, FileChange, ProjectRef

log = logging.getLogger(__name__)

GIT = "git"


class GitError(RuntimeError):
    pass


class IngestError(GitError):
    """Clone or history read failed; message carries the origin."""


class NoHistoryError(IngestError):
    """The repository exists but has no commits."""


class UnknownCommitError(LookupError):
    pass


def _git_env() -> dict[str, str]:
    # a clone that needs credentials fails instead of blocking on a prompt
    return {**os.environ, "GIT_TERMINAL_PROMPT": "0"}


def run_git(args: list[str], cwd: str | Path | None = None) -> bytes:
    try:
        proc = subprocess.run(
            [GIT, *args],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_git_env(),
        )
    except OSError as exc:  # no git binary, or cwd is gone
        raise GitError(f"git {' '.join(args[:2])} could not start: {exc}") from exc
    if proc.returncode != 0:
        raise GitError(
            f"git {' '.join(args[:2])} failed (rc={proc.returncode}): "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout


def git_version() -> str:
    return run_git(["version"]).decode("ascii", "replace").strip()


def derive_project_id(origin: str) -> str:
    tail = origin.rstrip("/").rsplit("/", 1)[-1]
    if tail.endswith(".git"):
        tail = tail[:-4]
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", tail).strip("-")
    return slug or "project"


def read_projects_file(path: str | Path) -> list[tuple[str, str]]:
    """(origin, project id) of each project a projects file names, one
    origin per line, # starting a comment.  An id is `derive_project_id`'s,
    suffixed -2, -3, ... when an earlier line took it."""
    taken: set[str] = set()
    projects = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        origin = raw.split("#", 1)[0].strip()
        if not origin:
            continue
        base = project_id = derive_project_id(origin)
        suffix = 1
        while project_id in taken:
            suffix += 1
            project_id = f"{base}-{suffix}"
        taken.add(project_id)
        projects.append((origin, project_id))
    return projects


def _is_git_workdir(path: Path) -> bool:
    return (path / ".git").exists() or (path / "HEAD").is_file()


def ingest_project(
    origin: str, workdir_base: str | Path, project_id: str | None = None
) -> tuple[ProjectRef, list[CommitRecord], dict[str, list[FileChange]]]:
    """Clone (or reuse) a repository and read its first-parent history.

    Local directory origins are read in place; URLs are cloned below
    workdir_base and reused on later runs.  Returns the reference plus
    `read_history` of its HEAD.
    """
    project_id = project_id or derive_project_id(origin)
    origin_path = Path(origin)
    if origin_path.is_dir() and _is_git_workdir(origin_path):
        workdir = origin_path.resolve()
    else:
        workdir = Path(workdir_base) / project_id
        if not (workdir.is_dir() and _is_git_workdir(workdir)):
            workdir.parent.mkdir(parents=True, exist_ok=True)
            try:
                run_git(["clone", "--quiet", origin, str(workdir)])
            except GitError as exc:
                raise IngestError(f"cannot clone {origin}: {exc}") from exc
    ref = ProjectRef(id=project_id, origin=origin, workdir=str(workdir))
    return (ref, *read_history(ref))


# a raw entry's status letter -> its kind; M and T (a type change) modify
_KINDS = {"A": "added", "C": "added", "D": "deleted", "R": "renamed"}


def read_history(ref: ProjectRef) -> tuple[list[CommitRecord], dict[str, list[FileChange]]]:
    """Commits on HEAD's first-parent chain and each commit's file changes.

    One `git log` stream gives both.  Commits come oldest first with 0-based
    ordinals.  Changes map each commit id to its entries against the first
    parent (the empty tree for a root commit), recursive, renames detected;
    the command line overrides any repository config that would change this.
    """
    try:
        raw = run_git(
            [
                "log", "--first-parent", "--diff-merges=first-parent", "--root",
                "-r", "-M", "--raw", "--no-abbrev", "-z", "--reverse",
                "--format=%x1e%H%x1f%an%x1f%aI%x1f%B", "HEAD", "--",
            ],
            cwd=ref.workdir,
        )
    except GitError as exc:
        if _has_no_commits(ref.workdir):
            raise NoHistoryError(f"no commit history in {ref.origin}") from exc
        raise IngestError(f"cannot read the history of {ref.origin}: {exc}") from exc
    records: list[CommitRecord] = []
    changes: dict[str, list[FileChange]] = {}
    # -z stream: a "\x1e"-led header per commit, then for each raw entry its
    # ":modes shas status" field and one path field (two for renames/copies)
    fields = iter(raw.decode("utf-8", "replace").split("\0"))
    for field in fields:
        field = field.lstrip("\n")
        if field.startswith("\x1e"):
            commit_id, author, date_str, message = field[1:].split("\x1f", 3)
            records.append(
                CommitRecord(
                    project=ref.id,
                    commit_id=commit_id,
                    date=datetime.fromisoformat(date_str).astimezone(timezone.utc),
                    author=author,
                    message=message.rstrip("\n"),
                    ordinal=len(records),
                )
            )
            entries = changes[commit_id] = []
        elif field.startswith(":"):
            _, _, old_sha, new_sha, status = field[1:].split(" ", 4)
            old_path = path = next(fields)
            if status.startswith(("R", "C")):
                path = next(fields)
            kind = _KINDS.get(status[0], "modified")
            entries.append(FileChange(
                path, kind, old_path if kind == "renamed" else None,
                None if kind == "added" else old_sha, None if kind == "deleted" else new_sha,
            ))
    if not records:
        raise NoHistoryError(f"no commit history in {ref.origin}")
    return records, changes


def _has_no_commits(workdir: str) -> bool:
    """Whether workdir is a repository whose HEAD names no commit yet."""
    try:
        run_git(["rev-parse", "--git-dir"], cwd=workdir)
    except GitError:
        return False
    try:
        run_git(["rev-parse", "--verify", "--quiet", "HEAD"], cwd=workdir)
    except GitError:
        return True
    return False


def is_pom(path: str) -> bool:
    """Whether the path names a pom.xml."""
    return path.rsplit("/", 1)[-1] == "pom.xml"


def is_java(path: str) -> bool:
    """Whether the path names a .java file."""
    return path.endswith(".java")


def changed_files(changes: dict[str, list[FileChange]]) -> dict[str, list[FileChange]]:
    """Each commit's changes that touch a pom.xml or a .java file, in git's
    order: the changes a history reads and ingest stores.  A rename whose
    two paths are not both pom.xml or both .java files is taken as the
    deletion of its old path and the addition of its new one, and each is
    kept only when its path is one: a pom.xml renamed to pom.xml.bak
    declares nothing from then on.  A binary version is kept; it reads as
    no text (`ProjectHistory.text`)."""
    selected = {}
    for commit_id, entries in changes.items():
        kept = selected[commit_id] = []
        for fc in entries:
            parts = [fc]
            if fc.kind == "renamed" and not (
                is_pom(fc.path) and is_pom(fc.old_path)
                or is_java(fc.path) and is_java(fc.old_path)
            ):
                parts = [FileChange(fc.old_path, "deleted", None, fc.before_sha, None),
                         FileChange(fc.path, "added", None, None, fc.after_sha)]
            kept += [part for part in parts if is_pom(part.path) or is_java(part.path)]
    return selected


class BlobReader:
    """Object id -> its bytes (None when missing), served by one `git
    cat-file --batch` process that starts at the first read.

    With a `tip` commit, the first read asks for it before anything else: a
    repository that no longer has it raises `UnknownCommitError`.  Without
    `--buffer` git flushes each reply, so each id is written only after the
    previous object has been read.  A reader that dies raises `GitError`
    with git's stderr, and so does one that cannot start.  A process that
    failed, or found no tip, is ended at once, so the next read starts
    another and checks the tip again.  `objects_read` counts the ids asked
    since the last `close`, the tip included.
    """

    def __init__(self, ref: ProjectRef, tip: str | None = None):
        self.ref = ref
        self.tip = tip
        self.objects_read = 0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> BlobReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, sha: str) -> bytes | None:
        if self._proc is None:
            self._start()
            if self.tip is not None and self._ask(self.tip) is None:
                self._end()
                raise UnknownCommitError(
                    f"commit {self.tip} of {self.ref.id} is not in {self.ref.workdir}"
                )
        return self._ask(sha)

    def close(self) -> None:
        """End the process, if one runs, and wait for it; zero `objects_read`."""
        self._end()
        self.objects_read = 0

    def _end(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            # every wanted reply is in: a process blocked on writing one must not hang the close
            proc.kill()
            with proc:  # closes the pipes and waits
                pass

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                [GIT, "cat-file", "--batch"],
                cwd=self.ref.workdir,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=_git_env(),
            )
        except OSError as exc:  # no git binary, or workdir is gone
            raise GitError(f"git cat-file --batch could not start: {exc}") from exc

    def _failed(self) -> GitError:
        proc = self._proc
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        rc = proc.wait()
        stderr = proc.stderr.read().decode("utf-8", "replace").strip()
        self._end()
        return GitError(f"git cat-file --batch failed (rc={rc}) in {self.ref.workdir}: {stderr}")

    def _ask(self, sha: str) -> bytes | None:
        proc = self._proc
        self.objects_read += 1
        try:
            proc.stdin.write(f"{sha}\n".encode("ascii"))
            proc.stdin.flush()
        except BrokenPipeError:
            raise self._failed() from None
        header = proc.stdout.readline().split()
        if header[1:] == [b"missing"]:
            return None
        if len(header) != 3:
            raise self._failed()
        size = int(header[2])
        data = proc.stdout.read(size)
        if len(data) != size or proc.stdout.read(1) != b"\n":
            raise self._failed()
        return data
