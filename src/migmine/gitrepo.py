"""Git history ingestion through subprocesses.

One `git log` per project reads the first-parent history, oldest first,
together with every commit's raw changes; this gives every project a
stable linear timeline for segment ordering.  File contents come from the
object store through `cat-file --batch`, never from checkouts.  Every call
goes through `run_git`, which never waits on a credential prompt.
"""

from __future__ import annotations

import logging
import os
import re
import subprocess
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


def run_git(args: list[str], cwd: str | Path | None = None, data: bytes | None = None) -> bytes:
    proc = subprocess.run(
        [GIT, *args],
        cwd=cwd,
        input=data,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        # a clone that needs credentials fails instead of blocking on a prompt
        env={**os.environ, "GIT_TERMINAL_PROMPT": "0"},
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


def changed_files(ref: ProjectRef, entries: list[RawChange]) -> list[FileChange]:
    """One commit's raw changes with both blob versions read and decoded.

    All blobs come from one cat-file --batch call, none when `entries` is
    empty.  An entry with a binary blob on either side is skipped entirely.
    """
    blobs = _read_blobs(
        ref.workdir,
        {sha for entry in entries for sha in (entry.old_sha, entry.new_sha) if sha.strip("0")},
    )
    changes = []
    for status, old_path, new_path, old_sha, new_sha in entries:
        before = blobs.get(old_sha)
        after = blobs.get(new_sha)
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
    return changes


_BINARY = object()


def _read_blobs(workdir: str | Path, shas: set[str]) -> dict[str, str | object]:
    """Bulk-read blobs via one cat-file --batch call; binary marked, not decoded."""
    if not shas:
        return {}
    ordered = sorted(shas)
    data = run_git(
        ["cat-file", "--batch"],
        cwd=workdir,
        data=("\n".join(ordered) + "\n").encode("ascii"),
    )
    out: dict[str, str | object] = {}
    pos = 0
    for sha in ordered:
        nl = data.index(b"\n", pos)
        header = data[pos:nl].decode("ascii", "replace").split()
        pos = nl + 1
        if len(header) < 3 or header[1] == "missing":
            continue
        size = int(header[2])
        raw = data[pos : pos + size]
        pos += size + 1  # trailing newline after the blob
        out[header[0]] = _BINARY if b"\0" in raw else raw.decode("utf-8", "replace")
    return out
