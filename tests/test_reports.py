"""The JSON writer renders the report row shape exactly as the standard
encoder does, and holds one row of a report at a time."""

import json
import tracemalloc

from hypothesis import example, given
from hypothesis import strategies as st

from migmine.reports import _json_text, _write

# strings the writer's re-indenting could mistake for its own separators,
# escapes, line and paragraph separators, control characters and text
# outside ASCII
TRICKY = ['"', "\\", "\n", "},\n  {", "},\n        {", "{\n        \n      }",
          "\u2028", "\u2029", "\x00\x1f\x7f", "\u00e9\u65e5\U0001f600", ""]
FLOATS = [0.1, 1e-7, 1e16, -0.0]

strings = st.one_of(st.sampled_from(TRICKY), st.text())
scalars = st.one_of(
    strings,
    st.integers(),
    st.sampled_from([2**64, -(2**70), 10**30]),
    st.booleans(),
    st.none(),
    st.sampled_from(FLOATS),
    st.floats(),
)
flat_objects = st.dictionaries(strings, scalars, max_size=4)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.lists(flat_objects, max_size=3),
)
rows = st.lists(st.dictionaries(strings, values, max_size=5), max_size=4)


@given(rows)
@example([])
@example([{"k": s} for s in TRICKY])
@example([{"k": [s], "m": [{"c": s}]} for s in TRICKY])
@example([{"int": 2**64, "bool": True, "none": None, "floats": FLOATS, "empty": []}])
@example([{"one": [1], "objects": [{"c": "a"}], "mixed": [{}, {"c": "},\n        {"}, {}]}])
@example([{}, {"m": [{}]}])
def test_json_text_is_the_standard_encoding(rows):
    assert "".join(_json_text(rows)) == json.dumps(rows, indent=2, ensure_ascii=False) + "\n"


class Discard:
    """A text sink that keeps nothing it is given."""

    def writelines(self, lines):
        for _ in lines:
            pass


def fragment_row(n: int) -> dict:
    methods = [{"class": f"org.json.JSONObject{n}", "method": "put", "arity": 2, "line": n}] * 3
    return {
        "project": "project",
        "rule": "org.json:json:20090211->com.google.code.gson:gson:2.8.0",
        "commit": f"{n:040x}",
        "file": f"src/main/java/com/example/File{n}.java",
        "before_range": [n, 12],
        "after_range": [n, 14],
        "removed_methods": methods,
        "added_methods": methods,
        "diff": "".join(f"@@ -{i} +{i} @@\n-    old.put(\"k\", {i});\n+    gson.toJson({i});\n"
                        for i in range(8)),
    }


def test_a_report_renders_in_memory_of_a_few_rows():
    """Rendering a 2,000-row fragments report holds well under a tenth of
    its text at any time: the writer keeps no row it has yielded."""
    report = [fragment_row(n) for n in range(2000)]
    length = sum(map(len, _json_text(report)))
    tracemalloc.start()
    try:
        _write(Discard(), "json", "fragments", report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert length > 2_000_000
    assert peak < length / 10
