"""Migration period detection.

Only a project whose manifests declare both libraries of a rule, at any
commit, is scanned for that rule; any other project has no segment.  For
one (project, rule) pair: the end commit is the earliest commit after
which no source file depends on the retired library (with the target
already in the manifest); the start commit is found scanning backward for
the first code change related to the replacement, bounded below by the
commit that first added the target library to any manifest.

The end search walks back from its upper bound
(`ProjectHistory.last_dependent_commit`).  It analyzes the files present
at that bound and the earlier versions of files changed after the last
commit that still depends on the retired library; versions superseded
before that commit are never analyzed.
"""

from __future__ import annotations

from .history import ProjectHistory
from .model import UNRESOLVED, LibraryId, PackageIndex, Segment


class SegmentScanner:
    """Precomputes the per-commit signals one rule needs over one project."""

    def __init__(
        self,
        history: ProjectHistory,
        source: LibraryId,
        target: LibraryId,
        source_index: PackageIndex,
        target_index: PackageIndex,
        imports_count_as_use: bool = True,
    ):
        self.history = history
        self.source = source
        self.target = target
        self.source_index = source_index
        self.target_index = target_index
        self.imports_count_as_use = imports_count_as_use
        self.timeline = history.dependency_timeline()
        self._deltas: dict[int, tuple[bool, bool]] = {}

    def target_present(self, ordinal: int) -> bool:
        return self.target in self.timeline[ordinal]

    def first_target_addition(self, hi: int) -> int | None:
        """The first commit whose manifests declare the target: the one that
        first adds it."""
        return next((i for i in range(hi + 1) if self.target_present(i)), None)

    def deltas(self, ordinal: int) -> tuple[bool, bool]:
        """(source use removed, target use added) by this commit's java changes."""
        if ordinal in self._deltas:
            return self._deltas[ordinal]
        commit_id = self.history.commits[ordinal].commit_id
        removed_source = added_target = False
        for fc in self.history.changes(commit_id).java:
            src_before = self._use_counts(fc.before_sha, self.source_index)
            src_after = self._use_counts(fc.after_sha, self.source_index)
            if any(src_before[k] > src_after.get(k, 0) for k in src_before):
                removed_source = True
            dst_before = self._use_counts(fc.before_sha, self.target_index)
            dst_after = self._use_counts(fc.after_sha, self.target_index)
            if any(dst_after[k] > dst_before.get(k, 0) for k in dst_after):
                added_target = True
            if removed_source and added_target:
                break
        self._deltas[ordinal] = (removed_source, added_target)
        return self._deltas[ordinal]

    def _use_counts(self, sha, index) -> dict[tuple, int]:
        counts: dict[tuple, int] = {}
        for use in self.history.uses_for(sha, index):
            counts[use.method_key] = counts.get(use.method_key, 0) + 1
        return counts

    # -- boundary location ----------------------------------------------------

    def find_end(self, hi: int) -> int | None:
        """Earliest ordinal <= hi with the target declared and every commit
        from there to hi free of source-library dependency."""
        last = self.history.last_dependent_commit(
            self.source_index, hi, self.imports_count_as_use
        )
        lo = 0 if last is None else last + 1
        return next((i for i in range(lo, hi + 1) if self.target_present(i)), None)

    def find_start(self, end: int) -> tuple[int, bool]:
        """Scan backward from end for the first replacement-related commit.

        Bounded below by the first manifest addition of the target library;
        falls back to end itself.  Returns (ordinal, weak_start).
        """
        lower = self.first_target_addition(end)
        if lower is None:
            lower = end
        start = end
        for i in range(lower, end + 1):
            removed, added = self.deltas(i)
            if removed or added:
                start = i
                break
        removed, added = self.deltas(start)
        return start, (added and not removed)

    def segment_between(self, start: int, end: int, weak_start: bool) -> Segment:
        """The segment from start to end, with the source version at the last
        pre-start commit declaring it and the target version at end.

        Either version degrades to "unresolved" when the manifest never names
        a resolvable one; the docs stage skips such coordinates.
        """
        commits = [
            self.history.commits[i].commit_id
            for i in range(start, end + 1)
            if any(self.deltas(i))
        ]
        if not commits:
            commits = [self.history.commits[end].commit_id]
        source_version = next(
            (
                self.timeline[i][self.source].version
                for i in range(start - 1, -1, -1)
                if self.source in self.timeline[i]
            ),
            UNRESOLVED,
        )
        target_coord = self.timeline[end].get(self.target)
        return Segment(
            project=self.history.ref.id,
            source=self.source,
            target=self.target,
            start_commit=self.history.commits[start].commit_id,
            end_commit=self.history.commits[end].commit_id,
            source_version=source_version,
            target_version=target_coord.version if target_coord else UNRESOLVED,
            commits=commits,
            weak_start=weak_start,
        )


def find_segments(
    history: ProjectHistory,
    source: LibraryId,
    target: LibraryId,
    source_index: PackageIndex,
    target_index: PackageIndex,
    imports_count_as_use: bool = True,
) -> list[Segment]:
    """All migration periods of the rule in this project, oldest first.

    Repeated migrations (migrate, revert, migrate again) are found by
    rerunning the scan on the history prefix before each found start.
    """
    declared = history.declared_libraries()
    if source not in declared or target not in declared:
        return []
    scanner = SegmentScanner(
        history, source, target, source_index, target_index, imports_count_as_use
    )
    segments = []
    hi = len(history.commits) - 1
    while hi >= 0:
        end = scanner.find_end(hi)
        if end is None:
            break
        start, weak = scanner.find_start(end)
        segments.append(scanner.segment_between(start, end, weak))
        hi = start - 1
    segments.reverse()
    return segments

