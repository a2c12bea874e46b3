"""Unified diff hunks, the round-trip oracle, and fragment filtering."""

import random
import subprocess

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migmine.fragments import (
    apply_hunks,
    decode_hunks,
    encode_hunks,
    extract_mappings,
    filter_fragments,
    render_hunk,
    unified_diff,
)
from migmine.javafacts import extract_facts, resolve_usages
from migmine.model import Fragment, LibraryMethodUse, Segment


def segment():
    return Segment(
        project="demo",
        source=("org.json", "json"),
        target=("com.google.code.gson", "gson"),
        start_commit="aaa",
        end_commit="bbb",
        commits=["bbb"],
        id=7,
    )


class TestUnifiedDiff:
    def test_identical_texts_yield_no_hunks(self):
        text = "a\nb\nc\n"
        assert unified_diff(text, text) == []

    def test_single_change_shape(self):
        before = "".join(f"line{i}\n" for i in range(10))
        after = before.replace("line5\n", "LINE5\n")
        hunks = unified_diff(before, after, 3)
        assert len(hunks) == 1
        tags = [line.tag for line in hunks[0].lines]
        assert tags.count("removed") == 1
        assert tags.count("added") == 1
        assert tags.count("context") <= 6

    def test_distant_edits_make_two_hunks(self):
        before = "".join(f"line{i}\n" for i in range(24))
        after = before.replace("line2\n", "LINE2\n").replace("line20\n", "LINE20\n")
        assert len(unified_diff(before, after, 3)) == 2

    def test_edits_ten_lines_apart_make_two_hunks(self):
        before = "".join(f"line{i}\n" for i in range(20))
        after = before.replace("line4\n", "LINE4\n").replace("line14\n", "LINE14\n")
        hunks = unified_diff(before, after, 3)
        assert len(hunks) == 2
        # and the same inputs through git agree on the split
        assert all(h.before_len <= 7 for h in hunks)

    def test_hunk_line_counts_match_ranges(self):
        before = "".join(f"v{i}\n" for i in range(12))
        after = before.replace("v3\n", "x\ny\n").replace("v9\n", "")
        for hunk in unified_diff(before, after, 2):
            tags = [line.tag for line in hunk.lines]
            assert tags.count("context") + tags.count("removed") == hunk.before_len
            assert tags.count("context") + tags.count("added") == hunk.after_len

    def test_negative_context_rejected(self):
        with pytest.raises(ValueError):
            unified_diff("a", "b", -1)

    def test_matches_git_diff_hunk_headers(self, tmp_path):
        """Cross-check hunk ranges against git's own unified diff."""
        before = "".join(f"line{i}\n" for i in range(30))
        after = (
            before.replace("line4\n", "LINE4\nextra\n")
            .replace("line15\n", "")
            .replace("line27\n", "LINE27\n")
        )
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(before)
        b.write_text(after)
        proc = subprocess.run(
            ["git", "diff", "--no-index", "--unified=3", str(a), str(b)],
            stdout=subprocess.PIPE,
        )
        git_headers = [
            line[: line.index("@@", 2) + 2]
            for line in proc.stdout.decode().splitlines()
            if line.startswith("@@")
        ]
        ours = [
            f"@@ -{h.before_start},{h.before_len} +{h.after_start},{h.after_len} @@"
            for h in unified_diff(before, after, 3)
        ]
        assert ours == git_headers


def random_text(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randrange(0, 30)):
        lines.append(rng.choice(["alpha", "beta", "gamma", "delta", ""]) + "\n")
    if lines and rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\n")  # missing trailing newline
    return "".join(lines)


def test_round_trip_on_seeded_random_pairs():
    rng = random.Random(4242)
    for _ in range(1200):
        before, after = random_text(rng), random_text(rng)
        assert apply_hunks(before, unified_diff(before, after, rng.randrange(0, 5))) == after


@given(st.text(alphabet="ab\n", max_size=200), st.text(alphabet="ab\n", max_size=200))
@settings(max_examples=300, deadline=None)
def test_round_trip_property(before, after):
    assert apply_hunks(before, unified_diff(before, after)) == after


# texts of few distinct lines, so that diffs keep context: every line break
# `str.splitlines` knows, a final line without one, and non-ASCII text
DIFF_LINES = st.lists(
    st.tuples(
        st.sampled_from(["", "a", "b", "é", "ü x", "\u2028", "日本"]),
        st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2029"]),
    ).map("".join),
    max_size=20,
)
DIFF_TEXTS = st.tuples(DIFF_LINES, st.sampled_from(["", "tail", "\u00a0é"])).map(
    lambda parts: "".join(parts[0]) + parts[1]
)


@given(DIFF_TEXTS, DIFF_TEXTS, st.integers(0, 4))
@example("", "a\nb", 1)
@example("a\r\nb\r", "", 1)
@example("x\x0by\x0cz", "x\x0bY\x0cz\n", 0)
@example("α\nβ\n", "α\nγ\n", 3)
@settings(max_examples=300, deadline=None)
def test_stored_hunks_decode_to_the_diffs_hunks(before, after, context):
    """`decode_hunks` gives back exactly what `unified_diff` returned, line
    numbers and path included, whatever the line breaks, a missing final
    one or an empty side; so each hunk renders to the same bytes."""
    hunks = unified_diff(before, after, context, path="src/É.java")
    encoded = encode_hunks(hunks)
    decoded = decode_hunks(encoded, "src/É.java")
    assert decoded == hunks
    assert [render_hunk(h).encode() for h in decoded] == [render_hunk(h).encode() for h in hunks]
    # only the range numbers and the prefixed lines are stored
    assert "src/" not in encoded


JSON_BEFORE = """package com.example;

import org.json.JSONObject;

public class Config {
    public String readVersion(Object settings) {
        String jsonText = "";
        JSONObject obj = new JSONObject(settings);
        jsonText = obj.toJSONString();
        return jsonText;
    }
}
"""

GSON_AFTER = """package com.example;

import com.google.gson.Gson;

public class Config {
    public String readVersion(Object settings) {
        String asText = "";
        asText = new Gson().toJson(settings);
        return asText;
    }
}
"""


class TestFilterFragments:
    def _uses(self, source, index):
        return resolve_usages(extract_facts(source), index)

    def test_replacement_hunk_becomes_fragment(self, json_index, gson_index):
        hunks = unified_diff(JSON_BEFORE, GSON_AFTER, 3, path="Config.java")
        fragments = filter_fragments(
            hunks,
            segment(),
            "bbb",
            self._uses(JSON_BEFORE, json_index),
            self._uses(GSON_AFTER, gson_index),
        )
        assert len(fragments) == 1
        # a fragment names its segment by id and keeps the segment's rule
        seg = segment()
        assert fragments[0][:4] == (seg.id, seg.source, seg.target, "bbb")
        removed = {u.method_key for u in fragments[0].removed_methods}
        added = {u.method_key for u in fragments[0].added_methods}
        assert removed == {
            ("org.json.JSONObject", "<init>", 1),
            ("org.json.JSONObject", "toJSONString", 0),
        }
        assert added == {
            ("com.google.gson.Gson", "<init>", 0),
            ("com.google.gson.Gson", "toJson", 1),
        }

    def test_rename_only_hunk_dropped(self, json_index, gson_index):
        before = "class A {\n  String jsonText;\n}\n"
        after = "class A {\n  String plainText;\n}\n"
        hunks = unified_diff(before, after, 3)
        assert hunks
        assert (
            filter_fragments(hunks, segment(), "bbb", self._uses(before, json_index),
                             self._uses(after, gson_index))
            == []
        )

    def test_removal_without_target_addition_dropped(self, json_index, gson_index):
        after = JSON_BEFORE.replace("jsonText = obj.toJSONString();\n        ", "")
        hunks = unified_diff(JSON_BEFORE, after, 3)
        fragments = filter_fragments(
            hunks, segment(), "bbb",
            self._uses(JSON_BEFORE, json_index), self._uses(after, gson_index),
        )
        assert fragments == []

    def test_fragment_invariant_holds(self, json_index, gson_index):
        hunks = unified_diff(JSON_BEFORE, GSON_AFTER, 3)
        for fragment in filter_fragments(
            hunks, segment(), "bbb",
            self._uses(JSON_BEFORE, json_index), self._uses(GSON_AFTER, gson_index),
        ):
            assert fragment.removed_methods and fragment.added_methods
            removed_lines = {
                l.before_no for l in fragment.hunk.lines if l.tag == "removed"
            }
            added_lines = {l.after_no for l in fragment.hunk.lines if l.tag == "added"}
            assert all(u.line in removed_lines for u in fragment.removed_methods)
            assert all(u.line in added_lines for u in fragment.added_methods)


def make_fragment(removed_keys, added_keys, commit="c1"):
    seg = segment()
    hunks = unified_diff("a\n", "b\n", 1, path="F.java")
    return Fragment(
        segment_id=seg.id,
        source=seg.source,
        target=seg.target,
        commit=commit,
        hunk=hunks[0],
        removed_methods=frozenset(
            LibraryMethodUse(c, m, a, 1) for c, m, a in removed_keys
        ),
        added_methods=frozenset(
            LibraryMethodUse(c, m, a, 1) for c, m, a in added_keys
        ),
    )


class TestExtractMappings:
    REMOVED = {("org.json.JSONObject", "toJSONString", 0)}
    ADDED = {
        ("com.google.gson.Gson", "<init>", 0),
        ("com.google.gson.Gson", "toJson", 1),
    }

    def test_identical_fragments_aggregate(self):
        fragments = [
            make_fragment(self.REMOVED, self.ADDED, commit=f"c{i}") for i in range(12)
        ]
        mappings = extract_mappings(fragments)
        assert len(mappings) == 1
        assert mappings[0].support == 12
        assert mappings[0].source_methods == tuple(sorted(self.REMOVED))
        assert mappings[0].target_methods == tuple(sorted(self.ADDED))

    def test_method_lists_are_sorted(self):
        """Each side's methods come sorted, whatever a set's order; the
        exports and the doc attachments write them in this order."""
        added = {("com.google.gson.Gson", name, arity) for name in "fedcba" for arity in (2, 1)}
        [mapping] = extract_mappings([make_fragment(added, added)])
        assert mapping.source_methods == mapping.target_methods == tuple(sorted(added))

    def test_single_fragment_support_one(self):
        mappings = extract_mappings([make_fragment(self.REMOVED, self.ADDED)])
        assert [m.support for m in mappings] == [1]

    def test_empty_fragment_list(self):
        assert extract_mappings([]) == []

    def test_sorted_by_support_desc(self):
        other = {("org.json.JSONObject", "keys", 0)}
        fragments = [make_fragment(self.REMOVED, self.ADDED, commit=f"c{i}") for i in range(3)]
        fragments += [make_fragment(other, self.ADDED)]
        mappings = extract_mappings(fragments)
        assert [m.support for m in mappings] == [3, 1]


def test_render_hunk_header_and_diff():
    fragment = make_fragment(
        {("org.json.JSONObject", "toJSONString", 0)},
        {("com.google.gson.Gson", "toJson", 1)},
    )
    text = render_hunk(fragment.hunk)
    assert "@@ -1,1 +1,1 @@" in text
    assert "-a" in text and "+b" in text


def test_render_hunk_marks_missing_newline():
    hunks = unified_diff("a\nb", "a\nc", 1)
    text = render_hunk(hunks[0])
    assert text.count("\\ No newline at end of file") == 2
