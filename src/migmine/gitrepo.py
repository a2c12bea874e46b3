"""Git history ingestion through subprocesses.

One `git log` per project reads the first-parent history, oldest first,
together with every commit's raw changes; this gives every project a
stable linear timeline for segment ordering.  File contents come from the
object store, never from checkouts: one `cat-file --batch` process per
history read, fed one object id at a time.  No git call, neither
`run_git` nor that reader, waits on a credential prompt.
"""

from __future__ import annotations

import logging
import os
import re
import subprocess
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

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


class RawChange(NamedTuple):
    """One `--raw` diff entry; paths are equal unless renamed or copied."""

    status: str  # A, M, D, T, or R/C with a similarity score
    old_path: str
    new_path: str
    old_sha: str  # all zeros when there is no old side
    new_sha: str


def _git_env() -> dict[str, str]:
    # a clone that needs credentials fails instead of blocking on a prompt
    return {**os.environ, "GIT_TERMINAL_PROMPT": "0"}


def run_git(args: list[str], cwd: str | Path | None = None) -> bytes:
    proc = subprocess.run(
        [GIT, *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_git_env(),
    )
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


def _is_git_workdir(path: Path) -> bool:
    return (path / ".git").exists() or (path / "HEAD").is_file()


def ingest_project(
    origin: str, workdir_base: str | Path, project_id: str | None = None
) -> tuple[ProjectRef, list[CommitRecord], dict[str, list[RawChange]]]:
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


def read_history(
    ref: ProjectRef, tip: str = "HEAD"
) -> tuple[list[CommitRecord], dict[str, list[RawChange]]]:
    """Commits on tip's first-parent chain and each commit's raw changes.

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
                "--format=%x1e%H%x1f%an%x1f%aI%x1f%B", tip, "--",
            ],
            cwd=ref.workdir,
        )
    except GitError as exc:
        raise NoHistoryError(f"no commit history in {ref.origin}: {exc}") from exc
    records: list[CommitRecord] = []
    changes: dict[str, list[RawChange]] = {}
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
            old_path = new_path = next(fields)
            if status.startswith(("R", "C")):
                new_path = next(fields)
            entries.append(RawChange(status, old_path, new_path, old_sha, new_sha))
    if not records:
        raise NoHistoryError(f"no commit history in {ref.origin}")
    return records, changes


def changed_files(
    ref: ProjectRef, entries_by_commit: dict[str, list[RawChange]]
) -> dict[str, list[FileChange]]:
    """Each commit's raw changes with both blob versions read and decoded.

    One `cat-file --batch` process serves the whole history, one object at
    a time, so a single raw blob is in memory at once.  Each distinct blob
    is read and decoded once: a commit's "after" text is the same string
    as the next change's "before" text.  An entry with a binary blob on
    either side is skipped entirely; a missing blob reads as None.
    """
    texts: dict[str, str | object | None] = {}
    out: dict[str, list[FileChange]] = {}
    with _cat_file(ref.workdir) as read:

        def text(sha: str) -> str | object | None:
            if not sha.strip("0"):
                return None
            if sha not in texts:
                raw = read(sha)
                texts[sha] = (
                    raw if raw is None
                    else _BINARY if b"\0" in raw
                    else raw.decode("utf-8", "replace")
                )
            return texts[sha]

        for commit_id, entries in entries_by_commit.items():
            changes = out[commit_id] = []
            for status, old_path, new_path, old_sha, new_sha in entries:
                before = text(old_sha)
                after = text(new_sha)
                if before is _BINARY or after is _BINARY:
                    continue
                code = status[0]
                if code in ("A", "C"):
                    changes.append(FileChange(new_path, "added", None, None, after, None, new_sha))
                elif code == "D":
                    changes.append(FileChange(old_path, "deleted", None, before, None, old_sha, None))
                elif code == "R":
                    changes.append(
                        FileChange(new_path, "renamed", old_path, before, after, old_sha, new_sha)
                    )
                else:  # M, T
                    changes.append(
                        FileChange(new_path, "modified", None, before, after, old_sha, new_sha)
                    )
    return out


_BINARY = object()


@contextmanager
def _cat_file(workdir: str | Path) -> Iterator[Callable[[str], bytes | None]]:
    """A reader from object id to its bytes (None when missing), served by one
    `git cat-file --batch` process that lives as long as the block.

    Without `--buffer` git flushes each reply, so each id is written only
    after the previous object has been read.  A reader that dies raises
    `GitError` with git's stderr; the process is always waited for.
    """
    with subprocess.Popen(
        [GIT, "cat-file", "--batch"],
        cwd=workdir,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_git_env(),
    ) as proc:

        def failed() -> GitError:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
            rc = proc.wait()
            stderr = proc.stderr.read().decode("utf-8", "replace").strip()
            return GitError(f"git cat-file --batch failed (rc={rc}): {stderr}")

        def read(sha: str) -> bytes | None:
            try:
                proc.stdin.write(f"{sha}\n".encode("ascii"))
                proc.stdin.flush()
            except BrokenPipeError:
                raise failed() from None
            header = proc.stdout.readline().split()
            if header[1:] == [b"missing"]:
                return None
            if len(header) != 3:
                raise failed()
            size = int(header[2])
            data = proc.stdout.read(size)
            if len(data) != size or proc.stdout.read(1) != b"\n":
                raise failed()
            return data

        try:
            yield read
            proc.stdin.close()
            if proc.wait() != 0:
                raise failed()
        except BaseException:
            proc.kill()
            raise
