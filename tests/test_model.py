"""The immutable value records of migmine.model."""

from datetime import datetime, timezone

import pytest

from migmine.model import (
    CommitRecord,
    DependencyChange,
    DocAttachment,
    FileChange,
    Fragment,
    Hunk,
    HunkLine,
    ImportDecl,
    Invocation,
    LibraryCoordinate,
    LibraryMethodUse,
    MethodDoc,
    ProjectRef,
    SourceFacts,
)

COORDINATE = LibraryCoordinate("org.json", "json", "20140107")
HUNK_LINE = HunkLine("removed", "a();\n", before_no=1)
HUNK = Hunk("A.java", 1, 1, 1, 0, (HUNK_LINE,))
USE = LibraryMethodUse("org.json.JSONObject", "<init>", 0, 1)
DOC = MethodDoc(COORDINATE, "org.json", "JSONObject", "", "<init>", (), "", ())

RECORDS = [
    COORDINATE,
    ProjectRef("demo", "origin", "work/demo"),
    CommitRecord("demo", "c1", datetime(2020, 1, 1, tzinfo=timezone.utc), "a", "m", 0),
    FileChange("A.java", "added", after_sha="1" * 40),
    DependencyChange("demo", "c1", frozenset({COORDINATE}), frozenset()),
    ImportDecl("org.json.JSONObject"),
    Invocation(1, "constructor", "JSONObject", 0, "JSONObject"),
    SourceFacts(None, (), ()),
    USE,
    HUNK_LINE,
    HUNK,
    Fragment(1, ("org.json", "json"), ("g", "a"), "c2", HUNK, frozenset({USE}), frozenset()),
    DOC,
    DocAttachment(("org.json.JSONObject", "<init>", 0), DOC, True),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either
