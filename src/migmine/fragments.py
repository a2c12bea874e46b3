"""Unified-diff hunks and their filtering into migration fragments.

A hunk survives as a fragment only when its removed lines carry at least
one source-library method use and its added lines at least one
target-library use; everything else is unrelated change and is dropped.

A diff of two blobs never changes, so its hunks can be stored and reused:
`encode_hunks` writes them as compact JSON, without their file, and
`decode_hunks` gives back exactly what `unified_diff` returned.
`DIFF_VERSION` names the hunks `unified_diff` yields and their encoding;
bump it whenever either changes, so that stored hunks are dropped.
"""

from __future__ import annotations

import difflib
import json
from collections import defaultdict
from collections.abc import Iterable

from .model import (
    Fragment,
    Hunk,
    HunkLine,
    LibraryMethodUse,
    MethodMapping,
    Segment,
)

DEFAULT_CONTEXT = 3
DIFF_VERSION = "1"

# each line's tag as `render_hunk` and `encode_hunks` write it, and back
_PREFIX = {"context": " ", "removed": "-", "added": "+"}
_TAG = {prefix: tag for tag, prefix in _PREFIX.items()}


def unified_diff(before: str, after: str, context: int = DEFAULT_CONTEXT, path: str = "") -> list[Hunk]:
    """Standard unified-diff hunks between two texts.

    Line text keeps its terminator so apply_hunks round-trips byte-exactly;
    identical inputs yield no hunks.
    """
    if context < 0:
        raise ValueError("context must be >= 0")
    a = before.splitlines(keepends=True)
    b = after.splitlines(keepends=True)
    matcher = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
    hunks = []
    for group in matcher.get_grouped_opcodes(context):
        i1, i2 = group[0][1], group[-1][2]
        j1, j2 = group[0][3], group[-1][4]
        lines = []
        for tag, ai1, ai2, bj1, bj2 in group:
            if tag == "equal":
                for k in range(ai1, ai2):
                    lines.append(HunkLine("context", a[k], k + 1, bj1 + (k - ai1) + 1))
                continue
            if tag in ("replace", "delete"):
                for k in range(ai1, ai2):
                    lines.append(HunkLine("removed", a[k], k + 1, None))
            if tag in ("replace", "insert"):
                for k in range(bj1, bj2):
                    lines.append(HunkLine("added", b[k], None, k + 1))
        hunks.append(
            Hunk(
                file=path,
                before_start=i1 + 1 if i2 > i1 else i1,
                before_len=i2 - i1,
                after_start=j1 + 1 if j2 > j1 else j1,
                after_len=j2 - j1,
                lines=tuple(lines),
            )
        )
    return hunks


def apply_hunks(before: str, hunks: Iterable[Hunk]) -> str:
    """Reconstruct the after-text from the before-text plus hunks."""
    a = before.splitlines(keepends=True)
    out: list[str] = []
    pos = 0
    for hunk in hunks:
        start = hunk.before_start - 1 if hunk.before_len > 0 else hunk.before_start
        out.extend(a[pos:start])
        pos = start
        for line in hunk.lines:
            if line.tag == "context":
                out.append(a[pos])
                pos += 1
            elif line.tag == "removed":
                pos += 1
            else:
                out.append(line.text)
    out.extend(a[pos:])
    return "".join(out)


def encode_hunks(hunks: Iterable[Hunk]) -> str:
    """Compact JSON of `hunks`: per hunk, its four range numbers, then the
    text of each line behind its `render_hunk` prefix."""
    return json.dumps(
        [
            [h.before_start, h.before_len, h.after_start, h.after_len,
             *(_PREFIX[line.tag] + line.text for line in h.lines)]
            for h in hunks
        ],
        separators=(",", ":"),
    )


def decode_hunks(data: str, path: str) -> list[Hunk]:
    """The hunks `encode_hunks` wrote, as hunks of the file `path`; each
    line's numbers are counted again from its hunk's ranges."""
    hunks = []
    for before_start, before_len, after_start, after_len, *encoded in json.loads(data):
        # an empty side's start is the line before the hunk
        before_no = before_start + (before_len == 0)
        after_no = after_start + (after_len == 0)
        lines = []
        for line in encoded:
            tag = _TAG[line[0]]
            lines.append(HunkLine(
                tag,
                line[1:],
                None if tag == "added" else before_no,
                None if tag == "removed" else after_no,
            ))
            before_no += tag != "added"
            after_no += tag != "removed"
        hunks.append(Hunk(path, before_start, before_len, after_start, after_len, tuple(lines)))
    return hunks


_NO_EOL = "\\ No newline at end of file\n"


def render_hunk(hunk: Hunk) -> str:
    """Render one hunk as unified-diff text (with @@ header)."""
    parts = [
        f"@@ -{hunk.before_start},{hunk.before_len} "
        f"+{hunk.after_start},{hunk.after_len} @@\n"
    ]
    for line in hunk.lines:
        text = line.text
        if text.endswith("\n"):
            parts.append(_PREFIX[line.tag] + text)
        else:
            parts.append(_PREFIX[line.tag] + text + "\n" + _NO_EOL)
    return "".join(parts)


def filter_fragments(
    hunks: Iterable[Hunk],
    segment: Segment,
    commit: str,
    uses_before: Iterable[LibraryMethodUse],
    uses_after: Iterable[LibraryMethodUse],
) -> list[Fragment]:
    """Keep hunks witnessing the migration.

    uses_before are the source-library uses resolved on the full before
    file, uses_after the target-library uses on the full after file; line
    numbers are matched against the hunk's removed/added lines.
    """
    by_before_line: dict[int, list[LibraryMethodUse]] = defaultdict(list)
    for use in uses_before:
        by_before_line[use.line].append(use)
    by_after_line: dict[int, list[LibraryMethodUse]] = defaultdict(list)
    for use in uses_after:
        by_after_line[use.line].append(use)

    fragments = []
    for hunk in hunks:
        removed: set[LibraryMethodUse] = set()
        added: set[LibraryMethodUse] = set()
        for line in hunk.lines:
            if line.tag == "removed" and line.before_no in by_before_line:
                removed.update(by_before_line[line.before_no])
            elif line.tag == "added" and line.after_no in by_after_line:
                added.update(by_after_line[line.after_no])
        if removed and added:
            fragments.append(
                Fragment(
                    segment_id=segment.id,
                    source=segment.source,
                    target=segment.target,
                    commit=commit,
                    hunk=hunk,
                    removed_methods=frozenset(removed),
                    added_methods=frozenset(added),
                )
            )
    return fragments


def extract_mappings(fragments: Iterable[Fragment]) -> list[MethodMapping]:
    """Aggregate identical per-fragment method mappings, summing support."""
    counts: dict[tuple, int] = {}
    for fragment in fragments:
        key = (
            fragment.source,
            fragment.target,
            tuple(sorted({u.method_key for u in fragment.removed_methods})),
            tuple(sorted({u.method_key for u in fragment.added_methods})),
        )
        counts[key] = counts.get(key, 0) + 1
    mappings = [
        MethodMapping(source, target, src_methods, dst_methods, support)
        for (source, target, src_methods, dst_methods), support in counts.items()
    ]
    mappings.sort(
        key=lambda m: (-m.support, m.source, m.target, m.source_methods, m.target_methods)
    )
    return mappings
