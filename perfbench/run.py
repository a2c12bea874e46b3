"""Whole-pipeline benchmark for migmine.

Usage, from the repository root:

    python3 perfbench/run.py --workload long-history --seed 1 --seconds 40 --trace 0
    python3 -m pytest perfbench          # the benchmark's own tests

Load is a closed loop: one repetition at a time, each in three steps.

1. Set-up: generate the workload's corpus from the seed (bare git
   repositories, a Maven-layout repository of class and javadoc jars),
   then start a fresh worker process that imports migmine, opens a fresh
   Store and constructs a Pipeline.  `setup_s` is generation plus that.
2. `run_s`: ingest -> detect_rules -> detect_segments -> detect_fragments
   -> collect_docs -> export_reports on the fresh store.  `peak_rss_mb`
   is the worker's ru_maxrss after the run; generation ran elsewhere.
3. `rerun_s`: a new Pipeline over the ingested store runs detect_rules
   -> export again with cold in-memory caches.

Machine speed on a shared host drifts by up to a quarter, over seconds
and over minutes, and moves every timing of a repetition together.  Each
worker therefore also times a fixed reference task that runs no migmine
code (Python text scanning, git spawns, SQLite commits;
worker.reference_task) between its set-up and its run.  The reported
setup_s, run_s and rerun_s are medians over repetitions of the wall time
multiplied by REFERENCE_S / reference_s of the same repetition: seconds
on a machine that runs the reference in REFERENCE_S.  Wall-time medians
are printed beside them.

Both passes are checked against the generator's oracle (rules, segments,
fragments, mappings, attached and missing docs) and against each other
(byte-identical exports), and no fetch may sleep in its retry backoff.
Stage failures, per-project ingest errors and failed checks count as
failed operations; fail_ratio is failed over attempted.  Repetitions
start while a typical one still ends within --seconds (at least three
run), and each metric is the median over them.  Any failure makes the
exit status 1.

With --trace 1 the repetitions alternate between untraced and traced
workers.  Traced workers wrap the layers' public functions from outside
(perfbench/spans.py) and report per-layer metrics, each the median over
traced repetitions and covering one repetition's run plus re-run.
`trace.overhead_s` is the traced minus the untraced median `run_s`.

The last line of stdout is the result object; the lines before it give
the environment record and every metric by name with its unit.  Results
whose scanner backend differs must not be compared.  The work directory
is .perfbench-work/ in the repository root (on the filesystem recorded
as workdir_fs) and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
MIN_REPETITIONS = 3
WORKER_TIMEOUT_S = 150
# Typical time of worker.reference_task on a 2-core x86 VM (Python 3.11, git 2.39, ext4).
# End-to-end times are reported in seconds of a machine running at that speed.
REFERENCE_S = 0.15

END_TO_END = {"setup_s": "s", "run_s": "s", "rerun_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mounts."""
    real, best, kind = str(path.resolve()), "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def repetition(workload: str, seed: int, rep_dir: Path, traced: bool) -> dict:
    """Generate the corpus, run one worker on it, and return the worker's report."""
    start = time.perf_counter()
    settings = workloads.generate(workload, seed, rep_dir / "corpus")
    generate_s = time.perf_counter() - start
    spec = dict(settings, workdir=str(rep_dir / "run"), trace=traced)
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=ROOT, capture_output=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-4000:])
        return {"attempted": 1, "failed": 1, "reasons": [f"worker exited {proc.returncode}"]}
    report = json.loads(lines[-1])
    report["setup_s"] += generate_s
    report["traced"] = traced
    return report


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return f"{name:28s} {med:14.6f} {unit:6s} (median of {len(values)}; min {min(values):.6f}, max {max(values):.6f})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "migmine" / "pipeline.py").is_file():
        sys.stderr.write(f"error: migmine sources not found under {ROOT / 'src'}\n")
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    reports: list[dict] = []
    durations: list[float] = []
    deadline = time.perf_counter() + args.seconds
    minimum = 2 * MIN_REPETITIONS if args.trace else MIN_REPETITIONS
    try:
        # start another repetition only while a typical one still fits before the deadline
        while len(reports) < minimum or (
            time.perf_counter() + statistics.median(durations) <= deadline
        ):
            rep_dir = work / f"rep{len(reports)}"
            traced = bool(args.trace) and len(reports) % 2 == 1
            start = time.perf_counter()
            try:
                reports.append(repetition(args.workload, args.seed, rep_dir, traced))
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            durations.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    done = [r for r in reports if "run_s" in r]
    env = dict(done[0]["env"]) if done else {}
    env.update(
        nproc=os.cpu_count(), workdir_fs=fs_type(WORK.parent), workload=args.workload,
        seed=args.seed, repetitions=len(reports),
    )
    print("env " + json.dumps(env, sort_keys=True))
    for reason in sorted({reason for r in reports for reason in r["reasons"]}):
        print(f"FAILED {reason}")

    metrics: dict[str, dict] = {}
    untraced = [r for r in done if not r["traced"]]
    if untraced:
        print(describe("reference_s", [r["reference_s"] for r in untraced], "s"))
    for name, unit in END_TO_END.items():
        if untraced:
            values = [r[name] for r in untraced]
            if unit == "s":  # calibrated: each repetition scaled by its own reference time
                value = statistics.median(r[name] * REFERENCE_S / r["reference_s"] for r in untraced)
            else:
                value = statistics.median(values)
            print(describe(name, values, unit) + f" -> reported {value:.6f} {unit}")
            if not args.trace:
                metrics[name] = {"value": value, "unit": unit}
    print(f"{'fail_ratio':28s} {failed / max(attempted, 1):14.6f} {'ratio':6s} ({failed} failed of {attempted} attempted)")
    if args.trace:
        traced = [r for r in done if r["traced"]]
        missing = sorted({name for r in traced for name in r["missing_hooks"]})
        if missing:
            print("missing hooks: " + ", ".join(missing))
        if traced and untraced:
            layers = {
                name: statistics.median(r["layers"][name] for r in traced)
                for name in traced[0]["layers"]
            }
            layers["trace.overhead_s"] = statistics.median(
                r["run_s"] for r in traced
            ) - statistics.median(r["run_s"] for r in untraced)
            for name in sorted(layers):
                unit = layer_unit(name)
                print(f"{name:28s} {layers[name]:14.6f} {unit}")
                metrics[name] = {"value": layers[name], "unit": unit}
    # a worker that fails outright counts as one failed operation, so failed == 0
    # means every repetition reported
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
