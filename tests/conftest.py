import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpusgen import build_corpus, class_jar  # noqa: E402

from migmine.docs import ArchiveFetcher  # noqa: E402
from migmine.gitrepo import changed_files, ingest_project  # noqa: E402
from migmine.history import ProjectHistory  # noqa: E402
from migmine.javafacts import build_package_index  # noqa: E402
from migmine.model import LibraryCoordinate  # noqa: E402
from migmine.pipeline import RunConfig, run_all  # noqa: E402
from migmine.store import Store  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

# a network repository base; `serve_downloads` answers its downloads
NETWORK_BASE = "https://maven.example/maven2"


def serve_downloads(monkeypatch, repo: Path) -> list[str]:
    """Every ArchiveFetcher downloads a NETWORK_BASE URL from its path under
    the Maven directory `repo`, and a file that cannot be read there is a
    failed download.  Returns the URLs downloaded, in call order."""
    urls = []

    def download(self, url):
        urls.append(url)
        try:
            return (repo / url.removeprefix(f"{NETWORK_BASE}/")).read_bytes()
        except OSError:
            return None

    monkeypatch.setattr(ArchiveFetcher, "_download", download)
    return urls


JSON_CLASSES = [
    "org/json/JSONObject.class",
    "org/json/JSONObject$Builder.class",
    "org/json/JSONArray.class",
    "org/json/JSONException.class",
    "org/json/JSONTokener.class",
    "org/json/CDL.class",
]
GSON_CLASSES = [
    "com/google/gson/Gson.class",
    "com/google/gson/GsonBuilder.class",
    "com/google/gson/JsonElement.class",
]


@pytest.fixture(scope="session")
def json_index():
    return build_package_index(
        LibraryCoordinate("org.json", "json", "20140107"), class_jar(JSON_CLASSES)
    )


@pytest.fixture(scope="session")
def gson_index():
    return build_package_index(
        LibraryCoordinate("com.google.code.gson", "gson", "2.8.0"),
        class_jar(GSON_CLASSES),
    )


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    return build_corpus(tmp_path_factory.mktemp("corpus"))


def ingested_history(origin, workdir, project_id=None) -> ProjectHistory:
    """A project's history as ingest leaves it: its pom.xml and .java
    changes, every text they name read, and its blob reader closed."""
    ref, commits, changes = ingest_project(str(origin), workdir, project_id)
    history = ProjectHistory(ref, commits, changed_files(changes))
    try:
        history.read_texts()
    finally:
        history.close()
    return history


def corpus_config(corpus, workdir: Path, **overrides) -> RunConfig:
    return RunConfig(
        projects_file=str(corpus.projects_file),
        workdir=str(workdir),
        db_path=str(workdir / "migmine.db"),
        repo_base=corpus.repo_base,
        **overrides,
    )


def run_corpus(corpus, workdir: Path, **overrides) -> SimpleNamespace:
    config = corpus_config(corpus, workdir, **overrides)
    store = Store(config.db_path)
    code, summary = run_all(store, config)
    return SimpleNamespace(
        store=store, config=config, code=code, summary=summary, workdir=workdir
    )


@pytest.fixture(scope="session")
def corpus_run(corpus, tmp_path_factory):
    """One full pipeline run over the synthetic corpus, shared by tests."""
    run = run_corpus(corpus, tmp_path_factory.mktemp("corpus-run"))
    yield run
    run.store.close()
