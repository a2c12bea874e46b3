"""CLI exit codes, stage composition and report delegation."""

import json
import logging
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from corpusgen import (
    GSON_LIB,
    JSON_LIB,
    SERIALIZER_GSON,
    SERIALIZER_JSON,
    _git,
    build_fake_maven_repo,
    build_repo,
    pom,
)

import migmine
from migmine import gitrepo
from migmine.cli import main
from migmine.pipeline import STAGES
from migmine.store import EXPORT_FORMATS, EXPORT_SELECTORS, Store


def run_cli(*argv):
    return main([str(a) for a in argv])


def package_env() -> dict[str, str]:
    """The environment with this migmine's sources first on PYTHONPATH."""
    src = str(Path(migmine.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def own_text(text: str, project: str) -> str:
    """`text` with a comment naming `project`: a blob that no other project
    holds, so that no answer stored for another project stands in for it."""
    return f"{text}// {project}\n"


def common_flags(corpus, workdir, *, db=None):
    return [
        "--workdir", workdir,
        "--db", db or workdir / "m.db",
        "--repo-base", corpus.repo_base,
    ]


class TestUsageErrors:
    def test_missing_projects_file_is_exit_1(self, tmp_path):
        assert run_cli("run", "--projects", tmp_path / "missing.txt", "--workdir", tmp_path) == 1

    def test_empty_project_list_is_exit_1(self, tmp_path):
        empty = tmp_path / "projects.txt"
        empty.write_text("# nothing here\n")
        assert run_cli("run", "--projects", empty, "--workdir", tmp_path) == 1

    def test_bad_flag_value_is_exit_1(self, tmp_path):
        projects = tmp_path / "projects.txt"
        projects.write_text("x\n")
        assert (
            run_cli("run", "--projects", projects, "--workdir", tmp_path, "--t-rel", "1.5")
            == 1
        )

    def test_unknown_flag_is_exit_1(self):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--definitely-not-a-flag")
        assert err.value.code == 1

    def test_stage_before_ingest_is_exit_1(self, tmp_path):
        assert run_cli("detect-rules", "--workdir", tmp_path) == 1

    def test_segments_before_rules_is_exit_1(self, corpus, tmp_path):
        assert run_cli("ingest", "--projects", corpus.projects_file,
                       *common_flags(corpus, tmp_path)) == 0
        assert run_cli("detect-segments", *common_flags(corpus, tmp_path)) == 1

    @pytest.mark.parametrize("before", [["ingest", "detect-rules"], ["detect-segments"]])
    def test_docs_before_fragments_is_exit_1(self, corpus, tmp_path, caplog, before):
        """collect-docs after a stage that left every rule a candidate, so
        no fragment is current, stores nothing: the parsed docs a run
        cached stay."""
        flags = common_flags(corpus, tmp_path)
        assert run_cli("run", "--projects", corpus.projects_file, *flags) == 0

        def cached():
            with Store(tmp_path / "m.db") as store:
                return store.db.execute("SELECT * FROM archive_docs ORDER BY key").fetchall()

        rows = cached()
        assert len(rows) == 2
        for command in before:
            extra = ["--projects", corpus.projects_file] if command == "ingest" else []
            assert run_cli(command, *extra, *flags) == 0
        caplog.clear()
        caplog.set_level(logging.ERROR, logger="migmine")
        assert run_cli("collect-docs", *flags) == 1
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith("event=missing_stage_data ")
        assert cached() == rows

    def test_every_stage_is_a_command(self, capsys):
        for name in STAGES:
            with pytest.raises(SystemExit) as err:
                run_cli(name.replace("_", "-"), "--help")
            assert err.value.code == 0, name
            assert capsys.readouterr().out.startswith(f"usage: migmine {name.replace('_', '-')} ")

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_all_projects_failing_is_exit_1(self, tmp_path, caplog, command):
        projects = tmp_path / "projects.txt"
        projects.write_text(f"{tmp_path / 'no-such-repo'}\n")
        caplog.set_level(logging.ERROR, logger="migmine")
        db = tmp_path / "m.db"
        assert run_cli(command, "--projects", projects, "--workdir", tmp_path, "--db", db) == 1
        assert any("event=missing_stage_data" in r.getMessage() for r in caplog.records)
        with Store(db) as store:
            assert store.projects() == []


class TestStagedPipeline:
    def test_stage_sequence_matches_run_all(self, corpus, tmp_path):
        staged = tmp_path / "staged"
        full = tmp_path / "full"
        staged.mkdir(), full.mkdir()

        assert run_cli("ingest", "--projects", corpus.projects_file,
                       *common_flags(corpus, staged)) == 0
        for stage in STAGES[1:]:
            assert run_cli(stage.replace("_", "-"), *common_flags(corpus, staged)) == 0

        assert run_cli("run", "--projects", corpus.projects_file,
                       *common_flags(corpus, full)) == 0

        with Store(staged / "m.db") as a, Store(full / "m.db") as b:
            for selector in ("rules", "segments", "fragments", "mappings"):
                assert a.export("json", selector) == b.export("json", selector)
            # the exports do not show which segment a fragment names: its id does
            for table in ("segments", "fragments"):
                query = f"SELECT * FROM {table} ORDER BY id"
                rows = a.db.execute(query).fetchall()
                assert rows and rows == b.db.execute(query).fetchall(), table

    def test_report_delegates_to_store_export(self, corpus, tmp_path, capsys):
        flags = common_flags(corpus, tmp_path)
        assert run_cli("ingest", "--projects", corpus.projects_file, *flags) == 0
        assert run_cli("detect-rules", *flags) == 0
        assert run_cli("report", "--select", "rules", "--format", "json", "--stdout", *flags) == 0
        printed = capsys.readouterr().out
        with Store(tmp_path / "m.db") as store:
            assert printed.encode() == store.export("json", "rules")

    def test_report_to_file(self, corpus, tmp_path):
        flags = common_flags(corpus, tmp_path)
        run_cli("ingest", "--projects", corpus.projects_file, *flags)
        run_cli("detect-rules", *flags)
        out = tmp_path / "rules.csv"
        assert run_cli("report", "--select", "rules", "--format", "csv", "--out", out, *flags) == 0
        assert out.read_text().startswith("source,target,")

    def test_rerun_detect_rules_with_lower_threshold(self, corpus, tmp_path):
        flags = common_flags(corpus, tmp_path)
        assert run_cli("ingest", "--projects", corpus.projects_file, *flags) == 0
        assert run_cli("detect-rules", *flags) == 0
        with Store(tmp_path / "m.db") as store:
            strict = {(r.source, r.target) for r in store.rules()}
        # recompute without re-ingesting: clone dirs untouched, commits kept
        assert run_cli("detect-rules", "--t-rel", "0.5", *flags) == 0
        with Store(tmp_path / "m.db") as store:
            relaxed = {(r.source, r.target) for r in store.rules()}
            assert store.has_commits()
        assert strict <= relaxed

    def test_partial_failure_is_exit_2(self, corpus, tmp_path, caplog):
        mixed = tmp_path / "projects.txt"
        good = corpus.root / "repos" / "mig-single"
        mixed.write_text(f"{good}\n{tmp_path / 'no-such-repo'}\n")
        caplog.set_level(logging.ERROR, logger="migmine")
        code = run_cli("run", "--projects", mixed, *common_flags(corpus, tmp_path))
        assert code == 2
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith("event=project_failed stage=ingest project=no-such-repo error=")
        with Store(tmp_path / "m.db") as store:
            assert [p.id for p in store.projects()] == ["mig-single"]

    def test_ingest_partial_failure_is_exit_2(self, corpus, tmp_path, caplog):
        mixed = tmp_path / "projects.txt"
        good = corpus.root / "repos" / "mig-single"
        mixed.write_text(f"{good}\n{tmp_path / 'gone'}\n")
        caplog.set_level(logging.ERROR, logger="migmine")
        assert run_cli("ingest", "--projects", mixed, *common_flags(corpus, tmp_path)) == 2
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith("event=project_failed stage=ingest project=gone error=")

    def test_offline_cold_cache_completes(self, corpus, tmp_path):
        code = run_cli(
            "run", "--projects", corpus.projects_file,
            "--workdir", tmp_path, "--db", tmp_path / "m.db",
            "--offline",
        )
        assert code == 0
        with Store(tmp_path / "m.db") as store:
            counts = store.counts()
        # indexes degrade to prefix guesses: gson packages are invisible,
        # no fragments confirm, and the docs stage attaches nothing
        assert counts["docs_attached"] == 0

    def test_rerun_same_database_is_stable(self, corpus, tmp_path):
        """Re-running `run` over the same workdir and db replaces, never
        duplicates: exports stay byte-identical."""
        flags = common_flags(corpus, tmp_path)
        assert run_cli("run", "--projects", corpus.projects_file, *flags) == 0
        with Store(tmp_path / "m.db") as store:
            first = {
                sel: store.export("json", sel)
                for sel in ("rules", "segments", "fragments", "mappings")
            }
        assert run_cli("run", "--projects", corpus.projects_file, *flags) == 0
        with Store(tmp_path / "m.db") as store:
            for sel, payload in first.items():
                assert store.export("json", sel) == payload

    def test_separate_detect_fragments_process_tokenizes_nothing(self, corpus, tmp_path):
        """detect-fragments in a process of its own reads the library
        answers that detect-segments stored instead of tokenizing the blobs
        again."""
        flags = common_flags(corpus, tmp_path)
        assert run_cli("ingest", "--projects", corpus.projects_file, *flags) == 0
        assert run_cli("detect-rules", *flags) == 0
        assert run_cli("detect-segments", *flags) == 0
        done = subprocess.run(
            [sys.executable, "-m", "migmine.cli", "detect-fragments", *map(str, flags)],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        [line] = [x for x in done.stderr.splitlines() if "event=fragments_detected" in x]
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        assert fields["blobs_tokenized"] == "0"
        assert int(fields["answers_loaded"]) > 0

    def test_local_run_loads_no_network_modules(self, corpus, tmp_path):
        """Importing the CLI loads no HTTP or TLS module, and neither does a
        whole run whose repository base is a file: URL."""
        script = textwrap.dedent("""
            import json, sys
            import migmine.cli
            from migmine.pipeline import RunConfig, run_all
            from migmine.store import Store

            def loaded():
                return [m for m in ("urllib.request", "http.client", "ssl", "_hashlib")
                        if m in sys.modules]

            after_import = loaded()
            projects, workdir, base = sys.argv[1:]
            config = RunConfig(projects_file=projects, workdir=workdir,
                               db_path=workdir + "/m.db", repo_base=base)
            with Store(config.db_path) as store:
                code, summary = run_all(store, config)
            print(json.dumps([after_import, code, summary["docs_attached"], loaded()]))
        """)
        assert corpus.repo_base.startswith("file:")
        done = subprocess.run(
            [sys.executable, "-c", script, str(corpus.projects_file), str(tmp_path),
             corpus.repo_base],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        after_import, code, docs_attached, after_run = json.loads(done.stdout)
        assert (code, after_import, after_run) == (0, [], [])
        assert docs_attached > 0  # the jars were read

    def test_corrupt_javadoc_jar_is_logged_not_fatal(self, corpus, tmp_path, caplog):
        """An unreadable javadoc jar gives not-found markers, as a missing one
        does, and the run still writes its reports."""
        base = build_fake_maven_repo(tmp_path / "mavenrepo")
        jars = sorted((tmp_path / "mavenrepo").rglob("*-javadoc.jar"))
        for jar in jars:
            jar.write_bytes(b"not a zip")
        caplog.set_level(logging.WARNING, logger="migmine")
        code = run_cli(
            "run", "--projects", corpus.projects_file,
            "--workdir", tmp_path / "work", "--db", tmp_path / "m.db", "--repo-base", base,
        )
        assert code == 0
        errors = [
            r.getMessage() for r in caplog.records
            if r.getMessage().startswith("event=doc_archive_error library=")
        ]
        assert len(errors) == len(jars) == 2
        assert all(" error=" in message for message in errors)
        with Store(tmp_path / "m.db") as store:
            counts = store.counts()
        assert (counts["docs_attached"], counts["docs_missing"]) == (0, 10)
        assert (tmp_path / "work" / "reports" / "mappings.json").is_file()

    def test_no_fallback_index_fails_segments(self, corpus, tmp_path):
        flags = [
            "--workdir", tmp_path, "--db", tmp_path / "m.db",
            "--repo-base", "file:///nowhere",  # all archive fetches miss
        ]
        assert run_cli("ingest", "--projects", corpus.projects_file, *flags) == 0
        assert run_cli("detect-rules", *flags) == 0
        assert run_cli("detect-segments", "--no-fallback-index", *flags) == 1


def test_stages_after_ingest_run_no_git_log(corpus, tmp_path, monkeypatch):
    """A detect-* stage run as its own process builds each history from the
    stored file changes: it starts no `git log`, only the blob reader."""
    flags = common_flags(corpus, tmp_path)
    assert run_cli("ingest", "--projects", corpus.projects_file, *flags) == 0
    commands = []
    run_git = gitrepo.run_git

    def spy(args, cwd=None):
        commands.append(args)
        return run_git(args, cwd)

    monkeypatch.setattr(gitrepo, "run_git", spy)
    for stage in ("detect-rules", "detect-segments", "detect-fragments"):
        assert run_cli(stage, *flags) == 0
    assert [args for args in commands if args[0] == "log"] == []
    with Store(tmp_path / "m.db") as store:
        assert store.counts()["fragments"] > 0


class TestGitFailures:
    @pytest.mark.parametrize("deleted", [".git", "."], ids=["git-dir", "whole-clone"])
    def test_deleted_clone_is_git_error_not_traceback(
        self, deleted, corpus, tmp_path, monkeypatch, caplog
    ):
        repo = tmp_path / "vanishing"
        serializer = "src/main/java/com/example/app/Serializer.java"
        build_repo(repo, [
            ("init", {"pom.xml": pom("vanishing", JSON_LIB), serializer: SERIALIZER_JSON}),
            ("migrate", {"pom.xml": pom("vanishing", GSON_LIB), serializer: SERIALIZER_GSON}),
        ])
        projects = tmp_path / "projects.txt"
        projects.write_text(f"{repo}\n")
        flags = common_flags(corpus, tmp_path)
        assert run_cli("ingest", "--projects", projects, *flags) == 0
        assert run_cli("detect-rules", *flags) == 0
        shutil.rmtree(repo / deleted)
        # git must not find an enclosing repository above the test directory
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        caplog.set_level(logging.ERROR, logger="migmine")
        assert run_cli("detect-segments", *flags) == 1
        assert [r.getMessage().split()[0] for r in caplog.records] == ["event=git_error"]
        assert "vanishing" in caplog.records[0].getMessage()
        assert "no commit history" not in caplog.records[0].getMessage()

    @pytest.mark.parametrize("stage", ["detect-segments", "detect-fragments"])
    def test_one_deleted_clone_of_two_is_exit_2(
        self, stage, corpus, tmp_path, monkeypatch, caplog
    ):
        """A project whose clone vanishes after ingest is logged and skipped
        where the stage must read a text of its own; the other project's
        results are stored and the stage exits 2."""
        repo = tmp_path / "vanishing"
        serializer = "src/main/java/com/example/app/Serializer.java"
        build_repo(repo, [
            ("init", {"pom.xml": pom("vanishing", JSON_LIB),
                      serializer: own_text(SERIALIZER_JSON, "vanishing")}),
            ("migrate", {"pom.xml": pom("vanishing", GSON_LIB),
                         serializer: own_text(SERIALIZER_GSON, "vanishing")}),
        ])
        projects = tmp_path / "projects.txt"
        projects.write_text(f"{corpus.root / 'repos' / 'mig-single'}\n{repo}\n")
        flags = common_flags(corpus, tmp_path)
        assert run_cli("ingest", "--projects", projects, *flags) == 0
        assert run_cli("detect-rules", *flags) == 0
        if stage == "detect-fragments":
            assert run_cli("detect-segments", *flags) == 0
        shutil.rmtree(repo)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        caplog.set_level(logging.ERROR, logger="migmine")
        assert run_cli(stage, *flags) == 2
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith(
            f"event=project_failed stage={stage.replace('-', '_')} project=vanishing error="
        )
        with Store(tmp_path / "m.db") as store:
            assert {s.project for s in store.segments()} == (
                {"mig-single"} if stage == "detect-segments" else {"mig-single", "vanishing"}
            )
        if stage == "detect-segments":
            assert run_cli("detect-fragments", *flags) == 0
        with Store(tmp_path / "m.db") as store:
            fragments = json.loads(store.export("json", "fragments"))
        assert [f["project"] for f in fragments] == ["mig-single"]

    def test_vanished_last_commit_fails_its_project_alone(self, corpus, tmp_path, caplog):
        """A repository that lost the project's stored last commit (amended
        and pruned after ingest, its files unchanged) fails that project
        with event=project_failed once the stage reads a text of its own;
        the other project's segments are stored."""
        repo = tmp_path / "rewritten"
        serializer = "src/main/java/com/example/app/Serializer.java"
        stored_tip = build_repo(repo, [
            ("init", {"pom.xml": pom("rewritten", JSON_LIB),
                      serializer: own_text(SERIALIZER_JSON, "rewritten")}),
            ("migrate", {"pom.xml": pom("rewritten", GSON_LIB),
                         serializer: own_text(SERIALIZER_GSON, "rewritten")}),
        ])[-1]
        projects = tmp_path / "projects.txt"
        projects.write_text(f"{corpus.root / 'repos' / 'mig-single'}\n{repo}\n")
        flags = common_flags(corpus, tmp_path)
        assert run_cli("ingest", "--projects", projects, *flags) == 0
        assert run_cli("detect-rules", *flags) == 0
        _git(["commit", "-q", "--amend", "-m", "rewritten"], cwd=repo)
        _git(["reflog", "expire", "--expire=now", "--all"], cwd=repo)
        _git(["gc", "-q", "--prune=now"], cwd=repo)
        caplog.set_level(logging.ERROR, logger="migmine")
        assert run_cli("detect-segments", *flags) == 2
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith(
            "event=project_failed stage=detect_segments project=rewritten "
            f"error=commit {stored_tip} "
        )
        with Store(tmp_path / "m.db") as store:
            assert {s.project for s in store.segments()} == {"mig-single"}

    def test_vanished_clone_whose_answers_are_stored_reruns_alike(
        self, corpus, tmp_path, monkeypatch, caplog
    ):
        """A stage checks a project's repository only when it reads a blob
        from it.  A project whose clone vanished after a run, but whose
        every answer is stored (its pom.xml parse results, its blobs' facts
        and library answers) and which has nothing to diff, re-runs every
        stage after ingest without git, to byte-identical exports."""
        repo = tmp_path / "codeless"
        build_repo(repo, [
            ("init", {"pom.xml": pom("codeless", JSON_LIB),
                      "src/Plain.java": own_text("public class Plain {}\n", "codeless")}),
            ("swap", {"pom.xml": pom("codeless", GSON_LIB)}),
        ])
        before = self.rerun_without(repo, corpus, tmp_path, monkeypatch, caplog)
        assert json.loads(before["json", "rules"])

    def test_vanished_clone_with_a_real_migration_reruns_alike(
        self, corpus, tmp_path, monkeypatch, caplog
    ):
        """A run stores each diff it made, so a project whose clone vanished
        after the run, though it has fragments, re-runs `detect-fragments`,
        and every other stage after ingest, without git, to byte-identical
        exports.  `test_one_deleted_clone_of_two_is_exit_2` is the same
        project with no stored diff."""
        repo = tmp_path / "vanishing"
        serializer = "src/main/java/com/example/app/Serializer.java"
        build_repo(repo, [
            ("init", {"pom.xml": pom("vanishing", JSON_LIB),
                      serializer: own_text(SERIALIZER_JSON, "vanishing")}),
            ("migrate", {"pom.xml": pom("vanishing", GSON_LIB),
                         serializer: own_text(SERIALIZER_GSON, "vanishing")}),
        ])
        before = self.rerun_without(repo, corpus, tmp_path, monkeypatch, caplog)
        fragments = json.loads(before["json", "fragments"])
        assert {f["project"] for f in fragments} == {"mig-single", "vanishing"}

    @staticmethod
    def rerun_without(repo, corpus, tmp_path, monkeypatch, caplog) -> dict:
        """Run mig-single and `repo`, delete `repo`, re-run every stage after
        ingest, and check that each exits 0, logs nothing about `repo` and
        leaves the exports as the run wrote them; returns them."""
        projects = tmp_path / "projects.txt"
        projects.write_text(f"{corpus.root / 'repos' / 'mig-single'}\n{repo}\n")
        flags = common_flags(corpus, tmp_path)
        assert run_cli("run", "--projects", projects, *flags) == 0

        def exports():
            with Store(tmp_path / "m.db") as store:
                return {
                    (fmt, selector): store.export(fmt, selector)
                    for fmt in EXPORT_FORMATS for selector in EXPORT_SELECTORS
                }

        before = exports()
        shutil.rmtree(repo)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        caplog.set_level(logging.WARNING, logger="migmine")
        for stage in STAGES[1:]:
            assert run_cli(stage.replace("_", "-"), *flags) == 0, stage
        assert [r.getMessage() for r in caplog.records if repo.name in r.getMessage()] == []
        assert exports() == before
        return before
