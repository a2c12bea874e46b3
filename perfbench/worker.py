"""One benchmark repetition in its own process: a full run, then a re-run.

Usage: python3 perfbench/worker.py SPEC.json

The spec names a generated corpus, its oracle and a fresh work directory.
The process does nothing but the pipeline, so its peak RSS is the
pipeline's own.  It runs ingest -> detect_rules -> detect_segments ->
detect_fragments -> collect_docs -> export_reports on a fresh store (the
run), then detect_rules -> export on a new Pipeline over the same store
(the re-run), checks both passes against the oracle and against each
other, and prints one JSON object on stdout.  With "trace" set, the
hooks of spans.py are installed first and per-layer metrics are added.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import sqlite3
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
RUN_STAGES = (
    "ingest", "detect_rules", "detect_segments", "detect_fragments", "collect_docs",
    "export_reports",
)
RERUN_STAGES = RUN_STAGES[1:]


class Outcome:
    """Attempted and failed operations of one repetition, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(reason)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.add(1, int(not ok), f"{name}: {detail}" if detail else name)


class SleepCounter:
    """Stands in for the `time` module of migmine.docs and counts sleeps."""

    def __init__(self, real):
        self._real = real
        self.sleeps = 0

    def __getattr__(self, name):
        return getattr(self._real, name)

    def sleep(self, seconds):
        self.sleeps += 1
        self._real.sleep(seconds)


def run_stages(pipeline, stages, n_projects: int, outcome: Outcome, label: str) -> None:
    """Each stage counts once per project; a raising stage fails the rest of the pass."""
    for i, stage in enumerate(stages):
        try:
            result = getattr(pipeline, stage)()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            left = n_projects * (len(stages) - i)
            outcome.add(left, left, f"{label}.{stage} raised")
            return
        if stage == "ingest":  # per-project errors; the stage itself went on
            outcome.add(n_projects, len(result), f"{label}.ingest: {'; '.join(result)}")
        else:
            outcome.add(n_projects)


def _methods(entries) -> list:
    return sorted([d["class"], d["method"], d["arity"]] for d in entries)


def check_pass(store, reports: Path, oracle: dict, outcome: Outcome, label: str) -> dict:
    """Compare one pass's store and reports with the oracle; returns the report bytes."""
    exported = {p.name: p.read_bytes() for p in sorted(reports.glob("*"))}

    def report(name):
        return json.loads(exported.get(f"{name}.json", b"[]"))

    got = {
        "projects": sorted(ref.id for ref in store.projects()),
        "rules": sorted(
            [f"{r.source[0]}:{r.source[1]}", f"{r.target[0]}:{r.target[1]}", r.weight, r.status]
            for r in store.rules()
        ),
        "segments": sorted(
            [s["project"], s["rule"], s["start_commit"], s["end_commit"], s["commits"],
             s["source_version"], s["target_version"]]
            for s in report("segments")
        ),
        "fragments": sorted([f["project"], f["commit"], f["file"]] for f in report("fragments")),
        "mappings": sorted(
            [m["rule"], _methods(m["source_methods"]), _methods(m["target_methods"]), m["support"]]
            for m in report("mappings")
        ),
    }
    counts = store.counts()
    got["docs"] = {"attached": counts["docs_attached"], "missing": counts["docs_missing"]}
    for key, value in got.items():
        want = oracle[key]
        detail = "" if value == want else f"expected {str(want)[:200]} got {str(value)[:200]}"
        outcome.check(f"{label}.{key}", value == want, detail)
    return exported


def reference_task(workdir: Path) -> float:
    """Seconds taken by a fixed mix of the kinds of work the pipeline does.

    Interpreted Python scanning text, git process spawns and single-row
    SQLite commits; none of it runs migmine code, so a change to the
    program never changes it.  Its time follows the machine's momentary
    speed, which on a shared host drifts by a quarter over minutes.
    """
    text = '    public int step(int x) { return x * 31 + helper(x, "s"); }\n' * 250
    db_path = workdir / "reference.db"
    start = time.perf_counter()
    n = 0
    for _ in range(80):
        for ch in text:
            if ch.isalnum() or ch == "_":
                n += 1
    for _ in range(40):
        subprocess.run(["git", "--version"], stdout=subprocess.DEVNULL, check=True)
    db = sqlite3.connect(db_path)
    db.execute("CREATE TABLE t (v INTEGER)")
    for i in range(50):
        with db:
            db.execute("INSERT INTO t VALUES (?)", (i,))
    db.close()
    elapsed = time.perf_counter() - start
    db_path.unlink()
    return elapsed


def git_version() -> str:
    out = subprocess.run(["git", "version"], stdout=subprocess.PIPE, check=False)
    return out.stdout.decode("ascii", "replace").strip()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    logging.basicConfig(stream=sys.stderr, level=logging.ERROR)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from migmine.pipeline import Pipeline, RunConfig
    from migmine.store import Store

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install(spans.hooks())
    docs = sys.modules.get("migmine.docs")
    sleeper = None
    if hasattr(docs, "time"):
        sleeper = docs.time = SleepCounter(docs.time)

    workdir = Path(spec["workdir"])
    config = RunConfig(
        projects_file=spec["projects_file"],
        workdir=str(workdir),
        db_path=str(workdir / "migmine.db"),
        repo_base=spec["repo_base"],
        jobs=spec["jobs"],
    )
    oracle = spec["oracle"]
    n_projects = len(oracle["projects"])
    outcome = Outcome()

    store = Store(config.db_path)
    statements = [0, 0]  # all statements, COMMITs
    if tracer is not None:

        def count_statement(sql: str) -> None:
            statements[0] += 1
            statements[1] += sql.lstrip().upper().startswith("COMMIT")

        store.db.set_trace_callback(count_statement)
    pipeline = Pipeline(store, config)
    setup_s = time.perf_counter() - start
    reference_s = reference_task(workdir)

    t0 = time.perf_counter()
    run_stages(pipeline, RUN_STAGES, n_projects, outcome, "run")
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = check_pass(store, config.report_path, oracle, outcome, "run")

    t0 = time.perf_counter()
    run_stages(Pipeline(store, config), RERUN_STAGES, n_projects, outcome, "rerun")
    rerun_s = time.perf_counter() - t0
    second = check_pass(store, config.report_path, oracle, outcome, "rerun")
    for name in sorted(first.keys() | second.keys()):
        outcome.check(f"identical.{name}", first.get(name) == second.get(name))
    store.close()
    if sleeper is not None:
        outcome.check("no_fetch_sleeps", sleeper.sleeps == 0, f"{sleeper.sleeps} backoff sleeps")

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "rerun_s": rerun_s,
        "peak_rss_mb": peak_rss_mb,
        "reference_s": reference_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "reasons": outcome.reasons,
        "fetch_sleeps": sleeper.sleeps if sleeper else None,
        "env": {
            "python": sys.version.split()[0],
            "git": git_version(),
            "sqlite": sqlite3.sqlite_version,
            "scanner_backend": getattr(spans.resolve("migmine.javafacts.scanner"), "BACKEND", None),
            "MIGMINE_PURE": os.environ.get("MIGMINE_PURE", ""),
            "jobs": spec["jobs"],
        },
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans)
        layers["store.statements"] = statements[0]
        layers["store.transactions"] = statements[1]
        layers["store.db_bytes"] = os.path.getsize(config.db_path)
        result["layers"] = layers
        result["missing_hooks"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
