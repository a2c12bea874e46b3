"""The benchmark's workloads and the oracle each one implies.

A workload turns a seed into projects, libraries and scripted migrations.
`generate` writes them to disk (bare git repositories, a Maven-layout
repository, a projects file) and returns the oracle: the rules, segments,
fragments, mappings and doc attachments the pipeline must report.

Why these three shapes:

- long-history: one project with many first-parent commits and a
  json->gson migration spread over ten commits mid-history.  Per-commit
  git reads and tokenizing dominate; fragments, docs and store writes are
  small.
- corpus-breadth: many short projects over a shared library pool, with
  frequent dependency swaps that no code backs and two real migrations.
  The rule x project loop of segment detection, manifest replay, package
  index fallbacks and threaded ingest (--jobs 2) dominate.
- wide-migration: a few projects that each migrate many files across many
  API classes in three commits.  Diffing, fragment filtering, javadoc
  parsing and attachment, and per-row store writes dominate; git work is
  small.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from corpus import (
    ApiUse,
    JavaFile,
    Library,
    Project,
    filler,
    make_library,
    write_maven_repo,
    write_repo,
)


@dataclass
class MigratedFile:
    ordinal: int  # commit that migrates the file
    path: str
    before: ApiUse
    after: ApiUse


@dataclass
class Migration:
    project: str
    source: Library
    target: Library
    files: list[MigratedFile] = field(default_factory=list)


@dataclass
class Scenario:
    jobs: int
    projects: list[Project] = field(default_factory=list)
    libraries: list[Library] = field(default_factory=list)
    migrations: list[Migration] = field(default_factory=list)


JUNIT = [Library("junit", "junit", v, "org.junit") for v in ("4.10", "4.11", "4.12")]
SLF4J = Library("org.slf4j", "slf4j-api", "1.7.12", "org.slf4j")


def json_library(n_classes: int, n_methods: int) -> Library:
    return make_library("org.json", "json", "20080701", "org.json", "Json", n_classes, n_methods)


def gson_library(n_classes: int, n_methods: int) -> Library:
    return make_library(
        "com.google.code.gson", "gson", "2.3.1", "com.google.gson", "Gson", n_classes, n_methods
    )


def recipe(rng: random.Random, source: Library, target: Library, n_calls: int):
    """A source-library use and its replacement: same class and method slots."""
    c = rng.randrange(len(source.classes))
    slots = sorted(rng.sample(range(len(source.classes[c].methods)), n_calls))
    src, dst = source.classes[c], target.classes[c]
    return (
        ApiUse(source, src, tuple(src.methods[s] for s in slots)),
        ApiUse(target, dst, tuple(dst.methods[s] for s in slots)),
    )


def scripted_project(
    rng: random.Random,
    name: str,
    *,
    n_commits: int,
    deps: list[Library],
    pom_events: dict[int, tuple[list[Library], list[Library]]],
    users: list[tuple[ApiUse, ApiUse]],
    n_plain: int,
    n_fillers: int,
    mig_commits: list[int],
    noise_files: int = 2,
) -> tuple[Project, Migration | None]:
    """One project: an initial import, then one commit per ordinal.

    pom_events maps an ordinal to the (removed, added) libraries of that
    commit's POM edit.  The files of `users` start on their source-library
    use and move to its replacement in batches, one batch per ordinal of
    mig_commits.  Every other commit edits fillers of `noise_files` files,
    which changes no library use.
    """
    project = Project(name, deps)
    package = f"com.bench.{name.replace('-', '')}"
    paths = [f"src/main/java/com/bench/{name}/Unit{i}.java" for i in range(len(users) + n_plain)]
    for i, path in enumerate(paths):
        api = users[i][0] if i < len(users) else None
        project.put(path, JavaFile(package, f"Unit{i}", api, [filler(rng) for _ in range(n_fillers)]))
    project.commit("initial import")

    migration = None
    if users:
        migration = Migration(name, users[0][0].library, users[0][1].library)
    for ordinal in range(1, n_commits):
        if ordinal in pom_events:
            removed, added = pom_events[ordinal]
            project.set_deps([d for d in project.deps if d not in removed] + added)
        if ordinal in mig_commits:
            batch = mig_commits.index(ordinal)
            for i in range(batch, len(users), len(mig_commits)):
                before, after = users[i]
                project.files[paths[i]].api = after
                project.touch(paths[i])
                migration.files.append(MigratedFile(ordinal, paths[i], before, after))
            project.commit(f"migrate batch {batch} to {migration.target.artifact}")
            continue
        for path in rng.sample(paths, min(noise_files, len(paths))):
            jf = project.files[path]
            jf.fillers[rng.randrange(len(jf.fillers))] = filler(rng)
            project.touch(path)
        project.commit(f"rework {ordinal}")
    return project, migration


# -- the three workloads ------------------------------------------------------------


def long_history(rng: random.Random) -> Scenario:
    n_commits, mid = 100, 50
    source, target = json_library(6, 6), gson_library(6, 6)
    recipes = [recipe(rng, source, target, 2) for _ in range(4)]
    mig_commits = list(range(mid, mid + 20, 2))
    project, migration = scripted_project(
        rng, "history-app",
        n_commits=n_commits,
        deps=[source, JUNIT[0]],
        pom_events={
            20: ([JUNIT[0]], [JUNIT[1]]),  # upgrade: never an edge
            35: ([], [SLF4J]),  # lone addition: never an edge
            mid: ([source], [target]),
            80: ([JUNIT[1]], [JUNIT[2]]),
        },
        users=[rng.choice(recipes) for _ in range(14)],
        n_plain=14,
        n_fillers=12,
        mig_commits=mig_commits,
    )
    return Scenario(1, [project], [source, target, *JUNIT, SLF4J], [migration])


def corpus_breadth(rng: random.Random) -> Scenario:
    n_projects, n_commits, swap_sizes = 6, 16, (2, 1, 2, 1)
    source, target = json_library(4, 4), gson_library(4, 4)
    pool = [
        make_library(f"org.pool{i}", f"lib{i}", f"1.{i}.0", f"org.pool{i}.api", f"Pool{i}K", 4, 3)
        if i % 3
        else Library(f"org.pool{i}", f"lib{i}", f"1.{i}.0", f"org.pool{i}.api")
        for i in range(30)
    ]
    scenario = Scenario(2, libraries=[source, target, JUNIT[1], *pool])
    migrating = set(rng.sample(range(n_projects), 2))
    used: set = set()  # every swap edge is new, so each is a weight-1 candidate rule
    for p in range(n_projects):
        deps = rng.sample(pool, 4)
        declared = list(deps)
        mig_commits, users, events = [], [], {}
        if p in migrating:
            start = rng.randrange(4, n_commits - 4)
            mig_commits = [start, start + 2, start + 3]
            users = [recipe(rng, source, target, 2) for _ in range(4)]
            deps = [source, *deps]
            events[start] = ([source], [target])
        free = [o for o in range(2, n_commits) if o not in mig_commits]
        for ordinal, k in zip(sorted(rng.sample(free, len(swap_sizes))), swap_sizes):
            while True:
                removed = rng.sample(declared, k)
                added = rng.sample([lib for lib in pool if lib not in declared], k)
                edges = {(r.identity, a.identity) for r in removed for a in added}
                if not edges & used:
                    break
            used |= edges
            declared = [lib for lib in declared if lib not in removed] + added
            events[ordinal] = (removed, added)
        project, migration = scripted_project(
            rng, f"breadth-{p:02d}",
            n_commits=n_commits,
            deps=[*deps, JUNIT[1]],
            pom_events=events,
            users=users,
            n_plain=6,
            n_fillers=5,
            mig_commits=mig_commits,
            noise_files=1,
        )
        scenario.projects.append(project)
        if migration is not None:
            scenario.migrations.append(migration)
    return scenario


def wide_migration(rng: random.Random) -> Scenario:
    source = make_library("net.oldkit", "oldkit", "1.0", "net.oldkit.core", "Old", 40, 10)
    target = make_library("io.newkit", "newkit", "2.0", "io.newkit.core", "New", 40, 10)
    scenario = Scenario(1, libraries=[source, target, JUNIT[1]])
    for p in range(2):
        project, migration = scripted_project(
            rng, f"wide-{p}",
            n_commits=20,
            deps=[source, JUNIT[1]],
            pom_events={6: ([source], [target])},
            users=[recipe(rng, source, target, 3) for _ in range(36)],
            n_plain=6,
            n_fillers=4,
            mig_commits=[6, 8, 10],
        )
        scenario.projects.append(project)
        scenario.migrations.append(migration)
    return scenario


WORKLOADS = {
    "long-history": long_history,
    "corpus-breadth": corpus_breadth,
    "wide-migration": wide_migration,
}


# -- the oracle -----------------------------------------------------------------------


def _key(identity: tuple[str, str]) -> str:
    return f"{identity[0]}:{identity[1]}"


def expected_rules(projects: list[Project]) -> dict[tuple, int]:
    """Candidate rules and weights: removed x added per commit, per-source maxima."""
    edges: Counter = Counter()
    for project in projects:
        prev: frozenset = frozenset()
        for declared in project.declared:
            for removed in prev - declared:
                for added in declared - prev:
                    edges[(removed, added)] += 1
            prev = declared
    best: dict = {}
    for (src, _), weight in edges.items():
        best[src] = max(best.get(src, 0), weight)
    return {edge: w for edge, w in edges.items() if w == best[edge[0]]}


def oracle(scenario: Scenario, commit_ids: dict[str, list[str]]) -> dict:
    candidates = expected_rules(scenario.projects)
    confirmed = {(m.source.identity, m.target.identity) for m in scenario.migrations}
    if not confirmed <= candidates.keys():
        raise ValueError("a scripted migration is not a candidate rule")
    rules = sorted(
        [_key(s), _key(t), w, "confirmed" if (s, t) in confirmed else "discarded"]
        for (s, t), w in candidates.items()
    )
    segments, fragments = [], []
    mappings: Counter = Counter()
    for m in scenario.migrations:
        ids = commit_ids[m.project]
        rule = f"{_key(m.source.identity)}->{_key(m.target.identity)}"
        ordinals = sorted({f.ordinal for f in m.files})
        segments.append([
            m.project, rule, ids[ordinals[0]], ids[ordinals[-1]],
            [ids[o] for o in ordinals], m.source.version, m.target.version,
        ])
        for f in m.files:
            fragments.append([m.project, ids[f.ordinal], f.path])
            mappings[(rule, f.before, f.after)] += 1
    attached = missing = 0
    for _, before, after in mappings:
        for use in (before, after):
            for _, method, arity in use.method_keys():
                if use.cls.documented(method, arity):
                    attached += 1
                else:
                    missing += 1
    return {
        "projects": sorted(p.name for p in scenario.projects),
        "rules": rules,
        "segments": sorted(segments),
        "fragments": sorted(fragments),
        "mappings": sorted(
            [rule, sorted(map(list, b.method_keys())), sorted(map(list, a.method_keys())), n]
            for (rule, b, a), n in mappings.items()
        ),
        "docs": {"attached": attached, "missing": missing},
    }


def generate(workload: str, seed: int, dest: Path) -> dict:
    """Write the workload's corpus below dest; returns run settings and the oracle."""
    scenario = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    repo_base = write_maven_repo(dest / "maven", scenario.libraries)
    repos = dest / "repos"
    repos.mkdir(parents=True)
    commit_ids = {p.name: write_repo(repos / p.name, p) for p in scenario.projects}
    projects_file = dest / "projects.txt"
    projects_file.write_text(
        "".join(f"{(repos / p.name).resolve()}\n" for p in scenario.projects), encoding="utf-8"
    )
    return {
        "jobs": scenario.jobs,
        "repo_base": repo_base,
        "projects_file": str(projects_file.resolve()),
        "oracle": oracle(scenario, commit_ids),
    }
