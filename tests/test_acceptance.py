"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v` (or -s for the pass lines).
Criterion 7 needs network access and a live clone; it is gated behind
MIGMINE_NETWORK_TESTS=1 and skips cleanly otherwise.
"""

import difflib
import json
import os
import random
import time
from pathlib import Path

import pytest
from conftest import FIXTURES, ingested_history, run_corpus
from corpusgen import GSON_ID, JSON_ID, LANG3_ID, LANG_ID

from migmine.fragments import apply_hunks, unified_diff
from migmine.manifest import diff_dependencies, parse_manifest
from migmine.model import DependencyChange, LibraryCoordinate
from migmine.rulegraph import MigrationGraph, normalize_and_filter
from migmine.store import EXPORT_FORMATS, EXPORT_SELECTORS


def report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] PASS {criterion}{suffix}")


# -- criterion 1: synthetic-corpus Table I analogue -----------------------------


class TestCriterion1CorpusRun:
    def test_corpus_run_matches_generator_oracle(self, corpus, corpus_run, capsys):
        start = time.monotonic()
        store = corpus_run.store
        assert corpus_run.code == 0

        rules = {(r.source, r.target): r.status for r in store.rules()}
        assert rules[(JSON_ID, GSON_ID)] == "confirmed"
        assert rules[(LANG_ID, LANG3_ID)] == "discarded"
        gson_rule = next(r for r in store.rules() if r.target == GSON_ID)
        # two commits swap json for gson in one step (single-commit + noise repos)
        assert gson_rule.weight == 2
        assert gson_rule.normalized_weight == 1.0
        confirmed = {k for k, v in rules.items() if v == "confirmed"}
        assert confirmed == corpus.confirmed_rules

        segments = store.segments()
        assert len(segments) == 3
        got = {
            (s.project, s.start_commit, s.end_commit, tuple(s.commits),
             s.source_version, s.target_version)
            for s in segments
        }
        expected = {
            (e.project, e.start, e.end, tuple(e.commits),
             e.source_version, e.target_version)
            for e in corpus.segments
        }
        assert got == expected

        fragments = json.loads(store.export("json", "fragments"))
        detected = {
            (f["project"], f["commit"], f["file"]): (
                frozenset((m["class"], m["method"], m["arity"]) for m in f["removed_methods"]),
                frozenset((m["class"], m["method"], m["arity"]) for m in f["added_methods"]),
            )
            for f in fragments
        }
        # precision and recall both 100% against the scripted oracle
        assert detected == corpus.fragments

        mappings = {
            (
                frozenset((d["class"], d["method"], d["arity"]) for d in m["source_methods"]),
                frozenset((d["class"], d["method"], d["arity"]) for d in m["target_methods"]),
            ): m["support"]
            for m in json.loads(store.export("json", "mappings"))
        }
        assert mappings == corpus.mappings

        assert corpus_run.summary["rules_confirmed"] == 1
        assert corpus_run.summary["segments"] == 3
        assert corpus_run.summary["fragments"] >= 3
        assert corpus_run.summary["docs_attached"] > 0

        elapsed = time.monotonic() - start
        with capsys.disabled():
            report(
                "criterion 1: corpus Table I analogue",
                f"1 confirmed rule, 3 segments, {len(detected)} fragments, "
                f"precision=100% recall=100%, checked in {elapsed:.1f}s",
            )

    def test_corpus_pipeline_runtime_under_60s(self, corpus, tmp_path, capsys):
        start = time.monotonic()
        run = run_corpus(corpus, tmp_path)
        elapsed = time.monotonic() - start
        run.store.close()
        assert run.code == 0
        assert elapsed < 60.0
        with capsys.disabled():
            report("criterion 1 (runtime)", f"full run in {elapsed:.1f}s < 60s")


# -- criterion 2: the documented manifest swap -----------------------------------

POM_TEMPLATE = """<?xml version="1.0"?>
<project xmlns="http://maven.apache.org/POM/4.0.0">
  <modelVersion>4.0.0</modelVersion>
  <groupId>jp.vmi</groupId>
  <artifactId>selenese-runner-java</artifactId>
  <version>1.0</version>
  <dependencies>
{deps}
  </dependencies>
</project>
"""

JSON_DEP = """    <dependency>
      <groupId>org.json</groupId>
      <artifactId>json</artifactId>
      <version>20080701</version>
    </dependency>"""

GSON_DEP = """    <dependency>
      <groupId>com.google.code.gson</groupId>
      <artifactId>gson</artifactId>
      <version>2.3.1</version>
    </dependency>"""


def test_criterion_2_manifest_swap(capsys):
    before = parse_manifest(POM_TEMPLATE.format(deps=JSON_DEP))
    after = parse_manifest(POM_TEMPLATE.format(deps=GSON_DEP))
    change = diff_dependencies(before, after)
    assert change.removed == frozenset(
        {LibraryCoordinate("org.json", "json", "20080701")}
    )
    assert change.added == frozenset(
        {LibraryCoordinate("com.google.code.gson", "gson", "2.3.1")}
    )
    with capsys.disabled():
        report("criterion 2: manifest swap parses exactly")


# -- criterion 3: threshold filtering on the hand-built graph --------------------


def test_criterion_3_threshold_filtering(capsys):
    json_id = ("org.json", "json")
    gson_id = ("com.google.code.gson", "gson")
    other = ("com.example", "simple-json")
    third = ("com.example", "json-io")
    graph = MigrationGraph()
    graph.add_edge(json_id, gson_id, 12)
    graph.add_edge(json_id, other, 3)
    graph.add_edge(json_id, third, 1)

    strict = {
        (r.source, r.target): r.normalized_weight
        for r in normalize_and_filter(graph, t_rel=1.0)
    }
    assert strict == {(json_id, gson_id): 1.0}

    relaxed = {
        (r.source, r.target)
        for r in normalize_and_filter(graph, t_rel=0.2)
    }
    assert relaxed == {(json_id, gson_id), (json_id, other)}
    with capsys.disabled():
        report("criterion 3: t_rel filtering", "t_rel=1.0 keeps max edges; 0.2 admits 0.25")


# -- criterion 4: the documented javadoc page ------------------------------------


def test_criterion_4_javadoc_parse(capsys):
    from migmine.docs import parse_class_page

    html = (FIXTURES / "javadoc" / "Gson.html").read_text()
    docs = parse_class_page(
        html, LibraryCoordinate("com.google.code.gson", "gson", "2.2.2")
    )
    doc = next(d for d in docs if d.method == "toJson" and d.signature == ("JsonElement",))
    assert doc.description == (
        "Converts a tree of JsonElements into its equivalent JSON representation."
    )
    assert doc.param_docs == (("jsonElement", "root of a tree of JsonElements"),)
    assert doc.return_doc == "JSON String representation of the tree"
    assert doc.since == "1.4"
    with capsys.disabled():
        report("criterion 4: javadoc method detail parses exactly")


# -- criterion 5: property suites -------------------------------------------------


class TestCriterion5Properties:
    def test_5a_diff_round_trip_1000_pairs(self, capsys):
        rng = random.Random(20150301)
        vocab = ["alpha", "beta", "gamma", "", "    indent", "tab\t"]

        def text():
            lines = [rng.choice(vocab) + "\n" for _ in range(rng.randrange(0, 40))]
            if lines and rng.random() < 0.25:
                lines[-1] = lines[-1].rstrip("\n")
            return "".join(lines)

        pairs = 0
        for _ in range(1000):
            before, after = text(), text()
            context = rng.randrange(0, 5)
            assert apply_hunks(before, unified_diff(before, after, context)) == after
            pairs += 1
        with capsys.disabled():
            report("criterion 5a: diff round-trip", f"{pairs} random pairs byte-exact")

    @staticmethod
    def _random_graph(rng):
        graph = MigrationGraph()
        edges = {}
        for _ in range(rng.randrange(1, 14)):
            src, dst = rng.sample(range(8), 2)
            edges[(("g", f"n{src}"), ("g", f"n{dst}"))] = rng.randrange(1, 40)
        for (src, dst), weight in edges.items():
            graph.add_edge(src, dst, weight)
        return graph, edges

    def test_5b_argmax_invariance_500_graphs(self, capsys):
        rng = random.Random(7)
        for _ in range(500):
            graph, edges = self._random_graph(rng)
            factor = rng.randrange(1, 10)
            scaled = MigrationGraph()
            for (src, dst), weight in edges.items():
                scaled.add_edge(src, dst, weight * factor)
            keep = lambda g: {
                (r.source, r.target)
                for r in normalize_and_filter(g, t_rel=1.0)
            }
            assert keep(graph) == keep(scaled)
        with capsys.disabled():
            report("criterion 5b: argmax-set invariance", "500 random graphs")

    def test_5c_threshold_monotonicity(self, capsys):
        rng = random.Random(11)
        for _ in range(300):
            graph, edges = self._random_graph(rng)
            thresholds = sorted(rng.random() for _ in range(3))
            kept = [
                {(r.source, r.target)
                 for r in normalize_and_filter(graph, t_rel=t)}
                for t in thresholds
            ]
            assert kept[2] <= kept[1] <= kept[0]
            assert {
                (r.source, r.target)
                for r in normalize_and_filter(graph, t_rel=0.0)
            } == set(edges)
        with capsys.disabled():
            report("criterion 5c: t_rel monotonicity", "300 random graphs")

    def test_5d_accumulate_order_independence(self, capsys):
        rng = random.Random(13)
        libs = [LibraryCoordinate("g", f"l{i}", "1") for i in range(6)]
        changes = [
            DependencyChange(
                f"p{rng.randrange(4)}",
                f"c{i}",
                added=frozenset(rng.sample(libs, rng.randrange(0, 3))),
                removed=frozenset(rng.sample(libs, rng.randrange(0, 3))),
            )
            for i in range(60)
        ]
        baseline = MigrationGraph()
        for change in changes:
            baseline.accumulate(change)
        for seed in range(25):
            shuffled = changes[:]
            random.Random(seed).shuffle(shuffled)
            graph = MigrationGraph()
            for change in shuffled:
                graph.accumulate(change)
            assert graph.edges == baseline.edges
        with capsys.disabled():
            report("criterion 5d: accumulate order-independence", "25 shuffles of 60 changes")

    def test_5e_store_determinism_two_full_runs(self, corpus, corpus_run, tmp_path, capsys):
        second = run_corpus(corpus, tmp_path)
        try:
            for selector in ("rules", "segments", "fragments", "mappings"):
                assert corpus_run.store.export("json", selector) == second.store.export(
                    "json", selector
                )
                assert corpus_run.store.export("csv", selector) == second.store.export(
                    "csv", selector
                )
        finally:
            second.store.close()
        with capsys.disabled():
            report("criterion 5e: store determinism", "two full runs, byte-identical exports")


GOLDEN = Path(__file__).parent / "golden" / "acceptance"


def test_corpus_exports_match_golden_files(corpus_run):
    """The 8 exports of the corpus run are byte-identical to tests/golden/acceptance.

    Regenerate the golden files only for a deliberate output change, and
    record that change in CHANGES.md.  From the repository root:

        PYTHONPATH=src python -c "
        import shutil, sys, tempfile; from pathlib import Path
        sys.path.insert(0, 'tests')
        from conftest import run_corpus; from corpusgen import build_corpus
        tmp = Path(tempfile.mkdtemp()); (tmp / 'run').mkdir()
        run = run_corpus(build_corpus(tmp / 'corpus'), tmp / 'run'); run.store.close()
        for p in run.config.report_path.iterdir():
            shutil.copyfile(p, Path('tests/golden/acceptance') / p.name)"
    """
    assert_golden_exports(corpus_run.config.report_path)


def test_corpus_exports_match_golden_files_with_two_jobs(corpus, tmp_path):
    """Ingest's pool of two workers reads the corpus into the same 8 exports."""
    run = run_corpus(corpus, tmp_path, jobs=2)
    run.store.close()
    assert run.code == 0
    assert_golden_exports(run.config.report_path)


def assert_golden_exports(report_path: Path) -> None:
    expected = sorted(f"{s}.{f}" for s in EXPORT_SELECTORS for f in EXPORT_FORMATS)
    assert sorted(p.name for p in GOLDEN.iterdir()) == expected
    diffs = []
    for name in expected:
        want = (GOLDEN / name).read_bytes()
        got = (report_path / name).read_bytes()
        if got != want:
            diffs.extend(difflib.unified_diff(
                want.decode().splitlines(keepends=True),
                got.decode().splitlines(keepends=True),
                f"golden/{name}", f"reports/{name}",
            ))
    assert not diffs, "exports differ from the golden files:\n" + "".join(diffs)


# -- criterion 6: resolver precision ----------------------------------------------


def test_criterion_6_resolver_precision(json_index, capsys):
    from test_resolver_precision import fixture_files, load_ground_truth

    from migmine.javafacts import extract_facts, resolve_usages

    total = hits = invented = 0
    for path in fixture_files():
        expected, _ = load_ground_truth(path)
        detected = {
            (u.class_name, u.method, u.arity, u.line)
            for u in resolve_usages(extract_facts(path.read_text()), json_index)
        }
        invented += len(detected - expected)
        total += len(expected)
        hits += len(detected & expected)
    assert invented == 0, "resolver must not invent uses"
    recall = hits / total
    with capsys.disabled():
        report(
            "criterion 6: resolver precision",
            f"precision=100%, recall={recall:.1%} on {total} annotated uses "
            f"(target >= 80%, non-blocking)",
        )
    if recall < 0.8:
        print(f"[acceptance] WARNING recall {recall:.1%} below the 80% target")


# -- criterion 7: live-repository integration (network-gated) ---------------------

FOOTNOTE_COMMIT = "641ab94e7d014cdf4fd6a83554dcff57130143d3"


@pytest.mark.skipif(
    not os.environ.get("MIGMINE_NETWORK_TESTS"),
    reason="live clone needs network; set MIGMINE_NETWORK_TESTS=1 to run",
)
def test_criterion_7_live_commit_detection(tmp_path, capsys):
    history = ingested_history("https://github.com/vmi/selenese-runner-java.git", tmp_path)
    assert FOOTNOTE_COMMIT in history.by_commit
    changes = history.changes(FOOTNOTE_COMMIT).pom
    assert changes
    change = diff_dependencies(
        parse_manifest(history.text(changes[0].before_sha) or ""),
        parse_manifest(history.text(changes[0].after_sha) or ""),
    )
    assert ("org.json", "json") in {c.identity for c in change.removed}
    assert ("com.google.code.gson", "gson") in {c.identity for c in change.added}
    with capsys.disabled():
        report("criterion 7: live json->gson commit detected")
