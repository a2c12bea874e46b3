"""The reports a store exports: what each selector holds and how JSON and
CSV render it.

Reports are deterministic: identical stores give byte-identical reports
(no timestamps, stable ordering everywhere), and discarded rules never
leave the store.  `Store.export` checks the selector and the format;
`write_reports` reads a selector's rows once and writes both formats.
A JSON report is `json.dumps(rows, indent=2, ensure_ascii=False)` and a
newline, rendered one row at a time by the C encoder (`_json_text`).
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from pathlib import Path

from .model import library_key, method_key_str

EXPORT_SELECTORS = ("rules", "segments", "fragments", "mappings")
EXPORT_FORMATS = ("json", "csv")


def render_report(store, fmt: str, selector: str) -> bytes:
    """The report bytes of one selector in one format."""
    out = io.StringIO(newline="")
    _write(out, fmt, selector, _ROWS[selector](store))
    return out.getvalue().encode("utf-8")


def write_reports(store, selector: str, outdir: Path) -> list[Path]:
    """Write a selector's report in each format to `outdir`, from one read
    of its rows; returns the paths written."""
    rows = _ROWS[selector](store)
    paths = []
    for fmt in EXPORT_FORMATS:
        path = outdir / f"{selector}.{fmt}"
        with path.open("w", encoding="utf-8", newline="") as out:
            _write(out, fmt, selector, rows)
        paths.append(path)
    return paths


def _write(out, fmt: str, selector: str, rows: list[dict]) -> None:
    if fmt == "json":
        out.writelines(_json_text(rows))
        return
    writer = csv.writer(out)
    columns = _CSV_COLUMNS[selector]
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in columns])


def _json_text(rows: list[dict]) -> Iterator[str]:
    """The text of `json.dumps(rows, indent=2, ensure_ascii=False)` and a
    newline, one row at a time.

    `indent` sends json to its pure-Python encoder, so each row is rendered
    from the report row shape instead, with the C encoder doing the work: a
    row is a flat object whose values are scalars, lists of scalars or lists
    of flat objects (method entries).  A string is one `encode_basestring`
    call; any other scalar, or a list of scalars, is one call of an encoder
    whose item separator carries the newline and indent of its depth; a
    list of objects is one call at the next depth, whose boundaries between
    objects one `str.replace` re-indents.  That is exact because an encoded
    string holds no raw newline, so each `,\\n` is a separator.  Holding
    one row's text at a time keeps the memory of a large report small.
    """
    if not rows:
        yield "[]\n"
        return
    separator = "[\n  "
    for row in rows:
        yield separator + _json_row(row)
        separator = ",\n  "
    yield "\n]\n"


def _json_row(row: dict) -> str:
    if not row:
        return "{}"
    return "{\n    " + ",\n    ".join(
        _STRING(key) + ": " + _json_value(value) for key, value in row.items()
    ) + "\n  }"


def _json_value(value) -> str:
    if type(value) is str:
        return _STRING(value)
    if type(value) is not list or not value:
        return _SCALARS(value)
    if type(value[0]) is not dict:
        return "[\n      " + _SCALARS(value)[1:-1] + "\n    ]"
    # "[{", the objects with their keys at depth 4, "}]"
    text = "[\n      {\n        " + _OBJECTS(value)[2:-2].replace(
        "},\n        {", "\n      },\n      {\n        "
    ) + "\n      }\n    ]"
    if not all(value):
        # an empty object now reads as an open and a close line
        text = text.replace("{\n        \n      }", "{}")
    return text


def _encoder(indent: int):
    """The C encoder's `encode`, whose items and keys each open a new line
    at `indent` spaces."""
    return json.JSONEncoder(ensure_ascii=False, separators=(",\n" + " " * indent, ": ")).encode


_STRING = json.encoder.encode_basestring
# a row's keys sit at depth 2, the items of its lists at depth 3, the keys
# of a method entry at depth 4
_SCALARS = _encoder(6)
_OBJECTS = _encoder(8)


def _rules(store) -> list[dict]:
    return [
        {
            "source": library_key(rule.source),
            "target": library_key(rule.target),
            "weight": rule.weight,
            "normalized_weight": rule.normalized_weight,
            "status": rule.status,
        }
        for rule in store.rules(("candidate", "confirmed"))
    ]


def _segments(store) -> list[dict]:
    return [
        {
            "project": seg.project,
            "rule": f"{library_key(seg.source)}->{library_key(seg.target)}",
            "start_commit": seg.start_commit,
            "end_commit": seg.end_commit,
            "source_version": seg.source_version,
            "target_version": seg.target_version,
            "commits": seg.commits,
            "weak_start": seg.weak_start,
        }
        for seg in store.segments()
    ]


def _fragments(store) -> list[dict]:
    out = []
    for row in store.fragment_rows():
        out.append(
            {
                "project": row[0],
                "rule": f"{row[1]}:{row[2]}->{row[3]}:{row[4]}",
                "commit": row[5],
                "file": row[6],
                "before_range": [row[7], row[8]],
                "after_range": [row[9], row[10]],
                "removed_methods": [
                    {"class": c, "method": m, "arity": a, "line": ln}
                    for c, m, a, ln in json.loads(row[11])
                ],
                "added_methods": [
                    {"class": c, "method": m, "arity": a, "line": ln}
                    for c, m, a, ln in json.loads(row[12])
                ],
                "diff": row[13],
            }
        )
    return out


def _mappings(store) -> list[dict]:
    return [
        {
            "rule": f"{library_key(m.source)}->{library_key(m.target)}",
            "source_methods": [
                {"class": c, "method": mm, "arity": a}
                for c, mm, a in m.source_methods
            ],
            "target_methods": [
                {"class": c, "method": mm, "arity": a}
                for c, mm, a in m.target_methods
            ],
            "support": m.support,
        }
        for _, m in store.mappings()
    ]


_ROWS = {"rules": _rules, "segments": _segments, "fragments": _fragments, "mappings": _mappings}

_CSV_COLUMNS = {
    "rules": ["source", "target", "weight", "normalized_weight", "status"],
    "segments": [
        "project", "rule", "start_commit", "end_commit",
        "source_version", "target_version", "commits", "weak_start",
    ],
    "fragments": [
        "project", "rule", "commit", "file", "before_range", "after_range",
        "removed_methods", "added_methods",
    ],
    "mappings": ["rule", "source_methods", "target_methods", "support"],
}


def _csv_cell(value) -> str:
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            return ";".join(
                method_key_str((d["class"], d["method"], d["arity"])) for d in value
            )
        return ";".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
