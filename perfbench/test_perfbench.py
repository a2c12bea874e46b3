"""Tests of the benchmark itself: python3 -m pytest perfbench

They run each workload once, traced, so they take a few seconds each.
"""

from __future__ import annotations

import json
import random
import subprocess
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads
from corpus import fast_import_stream, write_repo

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def traced_reports(tmp_path_factory):
    """One traced repetition per workload, seed 7."""
    return {
        name: run.repetition(name, 7, tmp_path_factory.mktemp(name), traced=True)
        for name in WORKLOAD_NAMES
    }


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_inputs(name):
    def build(seed):
        scenario = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"))
        return [fast_import_stream(p) for p in scenario.projects], scenario

    first, scenario = build(3)
    again, _ = build(3)
    other, _ = build(4)
    assert first == again
    assert first != other
    ids = {p.name: [f"{p.name}-{i}" for i in range(len(p.commits))] for p in scenario.projects}
    assert workloads.oracle(scenario, ids) == workloads.oracle(build(3)[1], ids)


def test_commit_dates_count_past_31_commits(tmp_path):
    scenario = workloads.long_history(random.Random(1))
    project = scenario.projects[0]
    assert len(project.commits) > 31
    ids = write_repo(tmp_path / "repo", project)
    log = subprocess.run(
        ["git", "log", "--first-parent", "--reverse", "--format=%H %ct", "main"],
        cwd=tmp_path / "repo", check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.split("\n")
    pairs = [line.split() for line in log if line]
    assert [sha for sha, _ in pairs] == ids
    stamps = [int(t) for _, t in pairs]
    assert stamps == sorted(set(stamps))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_matches_oracle_without_backoff_sleeps(traced_reports, name):
    report = traced_reports[name]
    assert report["reasons"] == []
    assert report["failed"] == 0
    assert report["fetch_sleeps"] == 0
    assert report["missing_hooks"] == []


def test_benchmark_json_names_every_emitted_metric(traced_reports):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = set(traced_reports["long-history"]["layers"]) | {"trace.overhead_s"}
    assert set(per_layer) == emitted
    assert all(per_layer[name] == run.layer_unit(name) for name in per_layer)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOAD_NAMES)


def _share(layers, *names):
    stages = sum(v for k, v in layers.items() if k.startswith("pipeline."))
    return sum(layers[n] for n in names) / stages


def test_each_workload_stresses_its_layers(traced_reports):
    history = traced_reports["long-history"]["layers"]
    breadth = traced_reports["corpus-breadth"]["layers"]
    wide = traced_reports["wide-migration"]["layers"]
    # long-history: git and tokenizing carry the run; fragments and docs do not
    assert _share(history, "gitrepo.busy_s", "javafacts.extract_s") > 0.5
    assert _share(history, "pipeline.fragments_s", "pipeline.docs_s") < 0.15
    assert history["javafacts.blobs_tokenized"] > 0
    # corpus-breadth: the rule x project loop, mostly fruitless, and fallbacks
    assert breadth["segments.pairs"] > 10 * history["segments.pairs"]
    assert breadth["segments.useful_ratio"] < 0.5
    assert breadth["docs.fetch_misses"] > 0
    assert breadth["manifest.parses"] > history["manifest.parses"]
    assert breadth["pipeline.segments_s"] == max(
        v for k, v in breadth.items() if k.startswith("pipeline.")
    )
    # wide-migration: docs and store writes carry the run; git does not
    assert _share(wide, "pipeline.docs_s") > 0.3
    assert wide["store.transactions"] > 2 * history["store.transactions"]
    assert wide["docs.methods_parsed"] > 5 * history["docs.methods_parsed"]
    assert _share(wide, "gitrepo.busy_s") < _share(history, "gitrepo.busy_s")


def doubled(x):
    return [x, x]


def test_missing_hook_is_reported_not_raised():
    tracer = spans.Tracer()
    tracer.install([
        ("spans.Tracer", "absent", "tracer.absent", spans._none),
        ("spans.no_such_module", "x", "module.absent", spans._none),
        (__name__, "doubled", "test.doubled", spans._length),
    ])
    try:
        assert tracer.missing == ["tracer.absent", "module.absent"]
        assert globals()["doubled"](1) == [1, 1]
        assert [(s.name, s.n) for s in tracer.spans] == [("test.doubled", 2)]
    finally:
        globals()["doubled"] = doubled.__wrapped__


def test_self_time_subtracts_child_spans():
    recorded = [
        spans.Span(1, None, "history.dependency_changes", 0.0, 10.0),
        spans.Span(2, 1, "gitrepo.changed_files", 2.0, 5.0),
        spans.Span(3, 1, "manifest.parse_manifest", 6.0, 7.0, n=1),
    ]
    metrics = spans.layer_metrics(recorded)
    assert metrics["history.replay_s"] == pytest.approx(6.0)
    assert metrics["manifest.parses"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    """A directory holding only the benchmark fails fast and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "long-history", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_task_leaves_nothing_behind(tmp_path):
    assert worker.reference_task(tmp_path) > 0
    assert list(tmp_path.iterdir()) == []
