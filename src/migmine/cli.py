"""Command-line interface: the full run plus each stage individually."""

from __future__ import annotations

import argparse
import logging
import sys

from . import __version__, gitrepo
from .docs import DEFAULT_REPO_BASE
from .pipeline import STAGES, Pipeline, RunConfig, StageDataError, run_all
from .store import EXPORT_FORMATS, EXPORT_SELECTORS, Store, StoreError

log = logging.getLogger("migmine")

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for partial per-project failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"ERROR event=usage_error detail={message!r}\n")
        raise SystemExit(EXIT_FATAL)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workdir", default="migmine-work", help="working directory for clones, cache and reports")
    parser.add_argument("--db", dest="db_path", default=None, help="database file (default: WORKDIR/migmine.db)")
    parser.add_argument("--t-rel", type=float, default=1.0, help="relevance threshold in [0,1] (default 1.0)")
    parser.add_argument("--context-lines", type=int, default=3, help="unified diff context lines (default 3)")
    parser.add_argument("--offline", action="store_true", help="no network: use only cached archives")
    parser.add_argument("--jobs", type=int, default=1, help="parallel projects/downloads (default 1)")
    parser.add_argument("--repo-base", default=DEFAULT_REPO_BASE, help="Maven-layout repository base URL")
    parser.add_argument("--cache-dir", default=None, help="archive cache directory (default: WORKDIR/cache)")
    parser.add_argument(
        "--no-imports-count-as-use",
        dest="imports_count_as_use",
        action="store_false",
        help="library imports without calls do not count as residual dependency",
    )
    parser.add_argument(
        "--no-fallback-index",
        dest="fallback_index",
        action="store_false",
        help="fail instead of guessing a package prefix when a class archive is unavailable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="migmine", description=__doc__)
    parser.add_argument("--version", action="version", version=f"migmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Every stage over a project list, then the reports.")
    run.add_argument("--projects", dest="projects_file", required=True, help="file with one origin per line, # comments")
    _add_common(run)

    # one command per stage, its help the first paragraph of the stage's
    # docstring (none under python -OO)
    for name in STAGES:
        summary = (getattr(Pipeline, name).__doc__ or "").split("\n\n")[0]
        stage = sub.add_parser(name.replace("_", "-"), help=" ".join(summary.split()))
        if name == "ingest":
            stage.add_argument("--projects", dest="projects_file", required=True)
        _add_common(stage)

    report = sub.add_parser("report", help="Export stored results.")
    report.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    report.add_argument("--select", choices=EXPORT_SELECTORS, required=True)
    report.add_argument("--out", default=None, help="output file (default: stdout)")
    report.add_argument("--stdout", action="store_true", help="write the report to stdout")
    _add_common(report)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    db_path = args.db_path or f"{args.workdir}/migmine.db"
    return RunConfig(
        projects_file=getattr(args, "projects_file", None),
        workdir=args.workdir,
        db_path=db_path,
        t_rel=args.t_rel,
        context_lines=args.context_lines,
        offline=args.offline,
        imports_count_as_use=args.imports_count_as_use,
        fallback_index=args.fallback_index,
        repo_base=args.repo_base,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        config = _config_from(args)
    except ValueError as exc:
        log.error("event=config_error detail=%r", str(exc))
        return EXIT_FATAL

    try:
        with Store(config.db_path) as store:
            if args.command == "run":
                return run_all(store, config)[0]
            if args.command == "report":
                payload = store.export(args.format, args.select)
                if args.out and not args.stdout:
                    with open(args.out, "wb") as fh:
                        fh.write(payload)
                    log.info("event=report_written path=%s bytes=%d", args.out, len(payload))
                else:
                    sys.stdout.buffer.write(payload)
                return EXIT_OK
            pipeline = Pipeline(store, config)
            getattr(pipeline, args.command.replace("-", "_"))()
            return EXIT_PARTIAL if pipeline.project_errors else EXIT_OK
    except StageDataError as exc:
        log.error("event=missing_stage_data detail=%r", str(exc))
        return EXIT_FATAL
    except StoreError as exc:
        log.error("event=store_error detail=%r", str(exc))
        return EXIT_FATAL
    except (gitrepo.GitError, gitrepo.UnknownCommitError) as exc:
        log.error("event=git_error detail=%r", str(exc))
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
