"""Segment boundaries, versions and the noise/incomplete/revert edge cases."""

import pytest
from conftest import ingested_history
from corpusgen import (
    GSON_ID,
    GSON_LIB,
    JSON_ID,
    JSON_LIB,
    SERIALIZER_GSON,
    SERIALIZER_JSON,
    build_repo,
    pom,
    simple_gson_user,
    simple_json_user,
)

from migmine import javafacts
from migmine.segments import find_segments


@pytest.fixture(scope="module")
def histories(corpus, tmp_path_factory):
    work = tmp_path_factory.mktemp("seg-work")
    out = {}
    for name in corpus.repos:
        out[name] = ingested_history(corpus.root / "repos" / name, work, name)
    return out


def history_for(tmp_path, name, commits):
    path = tmp_path / name
    hashes = build_repo(path, commits)
    return ingested_history(path, tmp_path / "work", name), hashes


class TestCorpusSegments:
    def test_single_commit_migration(self, histories, corpus, json_index, gson_index):
        segments = find_segments(
            histories["mig-single"], JSON_ID, GSON_ID, json_index, gson_index
        )
        c = corpus.repos["mig-single"]
        assert len(segments) == 1
        seg = segments[0]
        assert seg.start_commit == seg.end_commit == c[1]
        assert seg.commits == [c[1]]
        assert not seg.weak_start

    def test_three_commit_migration(self, histories, corpus, json_index, gson_index):
        segments = find_segments(
            histories["mig-json-gson"], JSON_ID, GSON_ID, json_index, gson_index
        )
        c = corpus.repos["mig-json-gson"]
        assert len(segments) == 1
        seg = segments[0]
        assert (seg.start_commit, seg.end_commit) == (c[1], c[3])
        assert seg.commits == c[1:4]

    def test_noise_commits_excluded(self, histories, corpus, json_index, gson_index):
        segments = find_segments(
            histories["mig-noise"], JSON_ID, GSON_ID, json_index, gson_index
        )
        c = corpus.repos["mig-noise"]
        assert len(segments) == 1
        seg = segments[0]
        assert (seg.start_commit, seg.end_commit) == (c[1], c[3])
        assert seg.commits == [c[1], c[3]]

    def test_versions_recorded(self, histories, json_index, gson_index):
        for name in ("mig-single", "mig-json-gson", "mig-noise"):
            seg = find_segments(histories[name], JSON_ID, GSON_ID, json_index, gson_index)[0]
            assert seg.source_version == "20080701"
            assert seg.target_version == "2.3.1"

    def test_rule_absent_from_project_history(self, histories, json_index, gson_index):
        assert (
            find_segments(histories["churn-swap"], JSON_ID, GSON_ID, json_index, gson_index)
            == []
        )
        assert (
            find_segments(
                histories["churn-upgrades"], JSON_ID, GSON_ID, json_index, gson_index
            )
            == []
        )

    def test_spec_operations_match_find_segments(
        self, histories, corpus, json_index, gson_index
    ):
        history = histories["mig-json-gson"]
        c = corpus.repos["mig-json-gson"]
        latest = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)[-1]
        assert latest.end_commit == c[3]
        assert latest.start_commit == c[1]


SERIALIZER_BOTH = """package com.example.app;

import com.google.gson.Gson;
import org.json.JSONObject;

public class Serializer {
    public String toText(Object value) {
        JSONObject holder = new JSONObject(value);
        return holder.toJSONString() + new Gson().toJson(value);
    }
}
"""


class TestEdgeCases:
    SERIALIZER = "src/main/java/com/example/app/Serializer.java"

    def test_incomplete_migration_has_no_end(self, tmp_path, json_index, gson_index):
        history, _ = history_for(
            tmp_path,
            "incomplete",
            [
                ("init", {"pom.xml": pom("incomplete", JSON_LIB), self.SERIALIZER: SERIALIZER_JSON}),
                (
                    "adopt gson but keep a json call",
                    {
                        "pom.xml": pom("incomplete", JSON_LIB, GSON_LIB),
                        self.SERIALIZER: SERIALIZER_BOTH,
                    },
                ),
            ],
        )
        assert find_segments(history, JSON_ID, GSON_ID, json_index, gson_index) == []

    def test_manifest_entry_may_outlive_the_migration(self, tmp_path, json_index, gson_index):
        """Physical removal of the retired library is not required."""
        history, hashes = history_for(
            tmp_path,
            "lingering",
            [
                ("init", {"pom.xml": pom("lingering", JSON_LIB), self.SERIALIZER: SERIALIZER_JSON}),
                (
                    "migrate code, keep json declared",
                    {
                        "pom.xml": pom("lingering", JSON_LIB, GSON_LIB),
                        self.SERIALIZER: SERIALIZER_GSON,
                    },
                ),
            ],
        )
        segments = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)
        assert len(segments) == 1
        assert segments[0].end_commit == hashes[1]

    def test_weak_start_flagged(self, tmp_path, json_index, gson_index):
        extra = "src/main/java/com/example/app/Extra.java"
        history, hashes = history_for(
            tmp_path,
            "weakstart",
            [
                ("init", {"pom.xml": pom("weakstart", JSON_LIB), self.SERIALIZER: SERIALIZER_JSON}),
                (
                    "add gson usage alongside",
                    {
                        "pom.xml": pom("weakstart", JSON_LIB, GSON_LIB),
                        extra: simple_gson_user("com.example.app", "Extra"),
                    },
                ),
                (
                    "drop json",
                    {
                        "pom.xml": pom("weakstart", GSON_LIB),
                        self.SERIALIZER: SERIALIZER_GSON,
                    },
                ),
            ],
        )
        segments = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)
        assert len(segments) == 1
        seg = segments[0]
        assert (seg.start_commit, seg.end_commit) == (hashes[1], hashes[2])
        assert seg.weak_start is True

    def test_revert_and_remigrate_yields_one_surviving_segment(
        self, tmp_path, json_index, gson_index
    ):
        """A reverted migration has no dependency-free suffix of its own, so
        the surviving segment spans from the first replacement change."""
        history, hashes = history_for(
            tmp_path,
            "revert",
            [
                ("init", {"pom.xml": pom("revert", JSON_LIB), self.SERIALIZER: SERIALIZER_JSON}),
                ("migrate", {"pom.xml": pom("revert", GSON_LIB), self.SERIALIZER: SERIALIZER_GSON}),
                ("revert", {"pom.xml": pom("revert", JSON_LIB), self.SERIALIZER: SERIALIZER_JSON}),
                ("remigrate", {"pom.xml": pom("revert", GSON_LIB), self.SERIALIZER: SERIALIZER_GSON}),
            ],
        )
        segments = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)
        assert len(segments) == 1
        seg = segments[0]
        assert (seg.start_commit, seg.end_commit) == (hashes[1], hashes[3])
        assert seg.commits == [hashes[1], hashes[3]]

    def test_unresolved_source_version(self, tmp_path, json_index, gson_index):
        managed = pom("managed", ("org.json", "json", "${json.version}"))
        history, _ = history_for(
            tmp_path,
            "managed",
            [
                ("init", {"pom.xml": managed, self.SERIALIZER: SERIALIZER_JSON}),
                (
                    "migrate",
                    {"pom.xml": pom("managed", GSON_LIB), self.SERIALIZER: SERIALIZER_GSON},
                ),
            ],
        )
        seg = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)[0]
        assert seg.source_version == "unresolved"
        assert seg.target_version == "2.3.1"

    def test_history_prefix_stability(self, tmp_path, json_index, gson_index):
        """Truncating history after the end commit leaves the segment as is."""
        commits = [
            ("init", {"pom.xml": pom("stable", JSON_LIB), self.SERIALIZER: SERIALIZER_JSON}),
            ("migrate", {"pom.xml": pom("stable", GSON_LIB), self.SERIALIZER: SERIALIZER_GSON}),
            ("later work", {"README.md": "notes\n"}),
        ]
        full, full_hashes = history_for(tmp_path, "stable-full", commits)
        short, short_hashes = history_for(tmp_path, "stable-short", commits[:2])
        seg_full = find_segments(full, JSON_ID, GSON_ID, json_index, gson_index)[0]
        seg_short = find_segments(short, JSON_ID, GSON_ID, json_index, gson_index)[0]
        assert full_hashes.index(seg_full.start_commit) == short_hashes.index(
            seg_short.start_commit
        )
        assert full_hashes.index(seg_full.end_commit) == short_hashes.index(
            seg_short.end_commit
        )

    def test_imports_count_as_use_toggle(self, tmp_path, json_index, gson_index):
        import_only = SERIALIZER_GSON.replace(
            "import com.google.gson.Gson;",
            "import com.google.gson.Gson;\nimport org.json.JSONObject;",
        )
        history, hashes = history_for(
            tmp_path,
            "importonly",
            [
                ("init", {"pom.xml": pom("importonly", JSON_LIB), self.SERIALIZER: SERIALIZER_JSON}),
                (
                    "migrate but keep import",
                    {"pom.xml": pom("importonly", GSON_LIB), self.SERIALIZER: import_only},
                ),
            ],
        )
        # residual import blocks the end under the default
        assert find_segments(history, JSON_ID, GSON_ID, json_index, gson_index) == []
        relaxed = find_segments(
            history, JSON_ID, GSON_ID, json_index, gson_index, imports_count_as_use=False
        )
        assert relaxed[-1].end_commit == hashes[1]

    def test_end_follows_the_last_json_user_through_rename_and_delete(
        self, tmp_path, json_index, gson_index
    ):
        legacy = "src/main/java/com/example/app/Legacy.java"
        moved = "src/main/java/com/example/old/Legacy.java"
        legacy_json = simple_json_user("com.example.app", "Legacy")
        history, hashes = history_for(
            tmp_path,
            "renamed-user",
            [
                (
                    "init",
                    {
                        "pom.xml": pom("renamed-user", JSON_LIB),
                        self.SERIALIZER: SERIALIZER_JSON,
                        legacy: legacy_json,
                    },
                ),
                (
                    "migrate the serializer",
                    {
                        "pom.xml": pom("renamed-user", JSON_LIB, GSON_LIB),
                        self.SERIALIZER: SERIALIZER_GSON,
                    },
                ),
                ("move the legacy user", {legacy: None, moved: legacy_json}),
                ("drop the legacy user", {moved: None}),
                ("drop json", {"pom.xml": pom("renamed-user", GSON_LIB)}),
            ],
        )
        [move] = history.changes(hashes[2]).java
        assert (move.kind, move.old_path, move.path) == ("renamed", legacy, moved)
        segments = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)
        assert [seg.end_commit for seg in segments] == [hashes[3]]

    def test_end_waits_for_a_re_added_json_user(self, tmp_path, json_index, gson_index):
        legacy = "src/main/java/com/example/app/Legacy.java"
        legacy_json = simple_json_user("com.example.app", "Legacy")
        history, hashes = history_for(
            tmp_path,
            "readded-user",
            [
                (
                    "init",
                    {
                        "pom.xml": pom("readded-user", JSON_LIB),
                        self.SERIALIZER: SERIALIZER_JSON,
                        legacy: legacy_json,
                    },
                ),
                (
                    "migrate the serializer",
                    {
                        "pom.xml": pom("readded-user", JSON_LIB, GSON_LIB),
                        self.SERIALIZER: SERIALIZER_GSON,
                    },
                ),
                ("drop the legacy user", {legacy: None}),
                ("bring the legacy user back", {legacy: legacy_json}),
                ("drop it again", {legacy: None}),
                ("drop json", {"pom.xml": pom("readded-user", GSON_LIB)}),
            ],
        )
        segments = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)
        assert [seg.end_commit for seg in segments] == [hashes[4]]


def test_versions_replaced_before_the_target_arrives_are_never_tokenized(
    tmp_path, monkeypatch, json_index, gson_index
):
    """The end search stops at the last json user; the start search looks no
    earlier than the commit adding gson.  Json versions replaced before that
    commit decide neither and are not analyzed."""
    serializer = TestEdgeCases.SERIALIZER
    versions = [SERIALIZER_JSON.replace("toText", f"toText{n}") for n in range(4)]
    commits = [("init", {"pom.xml": pom("early", JSON_LIB), serializer: versions[0]})]
    commits += [(f"rework {n}", {serializer: v}) for n, v in enumerate(versions[1:], 1)]
    commits += [
        ("adopt gson", {"pom.xml": pom("early", JSON_LIB, GSON_LIB)}),
        ("migrate", {serializer: SERIALIZER_GSON}),
        ("drop json", {"pom.xml": pom("early", GSON_LIB)}),
    ]
    history, hashes = history_for(tmp_path, "early", commits)
    tokenized = []
    extract_facts = javafacts.extract_facts

    def spy(source):
        tokenized.append(source)
        return extract_facts(source)

    monkeypatch.setattr(javafacts, "extract_facts", spy)
    [seg] = find_segments(history, JSON_ID, GSON_ID, json_index, gson_index)
    assert (seg.start_commit, seg.end_commit) == (hashes[5], hashes[5])
    # versions[-1] is still present when gson is added; the others are not
    assert not set(versions[:-1]) & set(tokenized)
    assert versions[-1] in tokenized
