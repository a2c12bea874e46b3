"""Synthetic corpus builder: scripted git repositories with known migrations.

The generator is the oracle: it records which rule, segment boundaries,
fragments and mappings it scripted, and tests compare pipeline output
against those expectations.  It also fabricates a local Maven-layout
repository (class jars + javadoc jars, file:// base) so index building
and doc collection exercise the real fetch/parse code paths offline.
"""

from __future__ import annotations

import io
import subprocess
import zipfile
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

JSON_LIB = ("org.json", "json", "20080701")
GSON_LIB = ("com.google.code.gson", "gson", "2.3.1")
JUNIT_LIB = ("junit", "junit", "4.11")
LANG_LIB = ("commons-lang", "commons-lang", "2.6")
LANG3_LIB = ("org.apache.commons", "commons-lang3", "3.4")
SLF4J_LIB = ("org.slf4j", "slf4j-api", "1.7.12")

JSON_ID = JSON_LIB[:2]
GSON_ID = GSON_LIB[:2]
LANG_ID = LANG_LIB[:2]
LANG3_ID = LANG3_LIB[:2]

_FIRST_COMMIT_DATE = datetime(2015, 3, 1, 10, tzinfo=timezone.utc)

_ENV_BASE = {
    "GIT_AUTHOR_NAME": "Dev One",
    "GIT_AUTHOR_EMAIL": "dev@example.org",
    "GIT_COMMITTER_NAME": "Dev One",
    "GIT_COMMITTER_EMAIL": "dev@example.org",
    "HOME": "/tmp",
}


def _git(args, cwd, env=None):
    import os

    full_env = dict(os.environ)
    full_env.update(_ENV_BASE)
    if env:
        full_env.update(env)
    subprocess.run(
        ["git", *args], cwd=cwd, env=full_env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def build_repo(path: Path, commits: list[tuple[str, dict[str, str | None]]]) -> list[str]:
    """Create a git repo from scripted commits; returns hashes oldest first.

    Each commit is (message, {path: content or None-to-delete}).  Commit
    dates are scripted and increasing, so repeated generation differs only
    in hashes, never in structure.
    """
    path.mkdir(parents=True)
    _git(["init", "-q", "-b", "main"], cwd=path)
    for i, (message, files) in enumerate(commits):
        for rel, content in files.items():
            target = path / rel
            if content is None:
                target.unlink()
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
        _git(["add", "-A"], cwd=path)
        date = (_FIRST_COMMIT_DATE + timedelta(days=i)).isoformat()
        _git(
            ["commit", "-q", "--allow-empty", "-m", message],
            cwd=path,
            env={"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date},
        )
    out = subprocess.run(
        ["git", "rev-list", "--first-parent", "--reverse", "HEAD"],
        cwd=path, check=True, stdout=subprocess.PIPE,
    )
    return out.stdout.decode().split()


def pom(artifact: str, *deps: tuple[str, str, str]) -> str:
    blocks = "\n".join(
        f"""    <dependency>
      <groupId>{g}</groupId>
      <artifactId>{a}</artifactId>
      <version>{v}</version>
    </dependency>"""
        for g, a, v in deps
    )
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<project xmlns="http://maven.apache.org/POM/4.0.0">
  <modelVersion>4.0.0</modelVersion>
  <groupId>com.example</groupId>
  <artifactId>{artifact}</artifactId>
  <version>1.0.0</version>
  <dependencies>
{blocks}
  </dependencies>
</project>
"""


# -- scripted Java sources -----------------------------------------------------

SERIALIZER_JSON = """package com.example.app;

import org.json.JSONObject;

public class Serializer {
    public String toText(Object value) {
        JSONObject holder = new JSONObject(value);
        return holder.toJSONString();
    }
}
"""

SERIALIZER_GSON = """package com.example.app;

import com.google.gson.Gson;

public class Serializer {
    public String toText(Object value) {
        return new Gson().toJson(value);
    }
}
"""


def simple_json_user(package: str, name: str) -> str:
    return f"""package {package};

import org.json.JSONObject;

public class {name} {{
    public String dump(Object value) {{
        JSONObject body = new JSONObject(value);
        return body.toJSONString();
    }}
}}
"""


def simple_gson_user(package: str, name: str) -> str:
    return f"""package {package};

import com.google.gson.Gson;

public class {name} {{
    public String dump(Object value) {{
        return new Gson().toJson(value);
    }}
}}
"""


FILETWO_JSON = """package com.example.io;

import org.json.JSONObject;

public class FileTwo {
    public String render(Object value, String key) {
        JSONObject holder = new JSONObject(value);
        String quoted = JSONObject.quote(key);
        String hint = holder.optString(key);
        return holder.toJSONString() + quoted + hint;
    }
}
"""

FILETWO_GSON = """package com.example.io;

import com.google.gson.Gson;

public class FileTwo {
    public String render(Object value, String key) {
        Gson mapper = new Gson();
        return mapper.toJson(value) + key;
    }
}
"""

HELPER_V1 = """package com.example.ui;

public class Helper {
    public String pad(String text) {
        return " " + text + " ";
    }
}
"""

HELPER_V2 = """package com.example.ui;

public class Helper {
    public String frame(String text) {
        return "[" + text + "]";
    }
}
"""

PLAIN_APP = """package com.example.tool;

public class App {
    public static void main(String[] args) {
        System.out.println("tool");
    }
}
"""

GSON_APP = """package com.example.svc;

import com.google.gson.Gson;

public class App {
    public String echo(Object value) {
        return new Gson().toJson(value);
    }
}
"""

README_V2 = "A tool.\n\nNow with notes.\n"


# -- fake Maven repository -----------------------------------------------------


def class_jar(entries: list[str]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for entry in entries:
            zf.writestr(entry, b"")
    return buf.getvalue()


def javadoc_page(
    package: str,
    class_name: str,
    class_description: str,
    constructors: list[dict],
    methods: list[dict],
) -> str:
    """One class page in the JDK 7 doclet layout (underscore anchors)."""

    def detail(rec: dict) -> str:
        dl_parts = []
        if rec.get("params"):
            dl_parts.append('<dt><span class="strong">Parameters:</span></dt>')
            for pname, pdoc in rec["params"]:
                dl_parts.append(f"<dd><code>{pname}</code> - {pdoc}</dd>")
        if rec.get("returns"):
            dl_parts.append('<dt><span class="strong">Returns:</span></dt>')
            dl_parts.append(f"<dd>{rec['returns']}</dd>")
        if rec.get("since"):
            dl_parts.append('<dt><span class="strong">Since:</span></dt>')
            dl_parts.append(f"<dd>{rec['since']}</dd>")
        dl = "<dl>\n" + "\n".join(dl_parts) + "\n</dl>" if dl_parts else ""
        arg_sig = ", ".join(t for t, _ in rec.get("sig", []))
        arg_text = ",&nbsp;".join(f"{t}&nbsp;{n}" for t, n in rec.get("sig", []))
        ret = rec.get("ret", "")
        ret_text = f"{ret}&nbsp;" if ret else ""
        return f"""<a name="{rec['name']}({arg_sig})">
<!--   -->
</a>
<ul class="blockList">
<li class="blockList">
<h4>{rec['name']}</h4>
<pre>public&nbsp;{ret_text}{rec['name']}({arg_text})</pre>
<div class="block">{rec['description']}</div>
{dl}
</li>
</ul>
"""

    ctor_html = "".join(detail(r) for r in constructors)
    method_html = "".join(detail(r) for r in methods)
    return f"""<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN" "http://www.w3.org/TR/html4/loose.dtd">
<html lang="en">
<head>
<title>{class_name} ({package} API)</title>
</head>
<body>
<div class="header">
<div class="subTitle">{package}</div>
<h2 title="Class {class_name}" class="title">Class {class_name}</h2>
</div>
<div class="contentContainer">
<div class="description">
<ul class="blockList">
<li class="blockList">
<pre>public final class <span class="strong">{class_name}</span>
extends Object</pre>
<div class="block">{class_description}</div>
</li>
</ul>
</div>
<div class="details">
<ul class="blockList">
<li class="blockList">
<ul class="blockList">
<li class="blockList"><a name="constructor_detail">
<!--   -->
</a>
<h3>Constructor Detail</h3>
{ctor_html}
</li>
</ul>
<ul class="blockList">
<li class="blockList"><a name="method_detail">
<!--   -->
</a>
<h3>Method Detail</h3>
{method_html}
</li>
</ul>
</li>
</ul>
</div>
</div>
</body>
</html>
"""


def javadoc_jar(pages: dict[str, str]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("index.html", "<html><body>index</body></html>")
        for entry, html in pages.items():
            zf.writestr(entry, html)
    return buf.getvalue()


def build_fake_maven_repo(root: Path) -> str:
    """Class + javadoc jars for the corpus libraries; returns a file:// base."""
    layout = {
        JSON_LIB: (
            ["org/json/JSONObject.class", "org/json/JSONArray.class",
             "org/json/JSONException.class", "org/json/JSONTokener.class"],
            {
                "org/json/JSONObject.html": javadoc_page(
                    "org.json",
                    "JSONObject",
                    "A modifiable set of name/value mappings.",
                    [
                        {
                            "name": "JSONObject",
                            "sig": [("java.lang.Object", "bean")],
                            "description": "Construct a JSONObject from an Object using bean getters.",
                            "params": [("bean", "an object that has getter methods")],
                        }
                    ],
                    [
                        {
                            "name": "toJSONString",
                            "sig": [],
                            "ret": "java.lang.String",
                            "description": "Make a JSON text of this JSONObject.",
                            "returns": "a printable, displayable, portable, transmittable representation",
                        },
                        {
                            "name": "quote",
                            "sig": [("java.lang.String", "string")],
                            "ret": "java.lang.String",
                            "description": "Produce a string in double quotes with backslash sequences.",
                            "params": [("string", "a String")],
                            "returns": "a String correctly formatted for insertion in a JSON text",
                        },
                    ],
                )
            },
        ),
        GSON_LIB: (
            ["com/google/gson/Gson.class", "com/google/gson/JsonElement.class",
             "com/google/gson/GsonBuilder.class"],
            {
                "com/google/gson/Gson.html": javadoc_page(
                    "com.google.gson",
                    "Gson",
                    "This is the main class for using Gson.",
                    [
                        {
                            "name": "Gson",
                            "sig": [],
                            "description": "Constructs a Gson object with default configuration.",
                        }
                    ],
                    [
                        {
                            "name": "toJson",
                            "sig": [("java.lang.Object", "src")],
                            "ret": "java.lang.String",
                            "description": "Serializes the specified object into its equivalent JSON representation.",
                            "params": [("src", "the object for which JSON representation is to be created")],
                            "returns": "JSON representation of src",
                        },
                        {
                            "name": "toJson",
                            "sig": [("com.google.gson.JsonElement", "jsonElement")],
                            "ret": "java.lang.String",
                            "description": "Converts a tree of JsonElements into its equivalent JSON representation.",
                            "params": [("jsonElement", "root of a tree of JsonElements")],
                            "returns": "JSON String representation of the tree",
                            "since": "1.4",
                        },
                    ],
                )
            },
        ),
    }
    for (group, artifact, version), (classes, pages) in layout.items():
        base = root / group.replace(".", "/") / artifact / version
        base.mkdir(parents=True, exist_ok=True)
        (base / f"{artifact}-{version}.jar").write_bytes(class_jar(classes))
        (base / f"{artifact}-{version}-javadoc.jar").write_bytes(javadoc_jar(pages))
    return root.resolve().as_uri()


# -- the corpus ----------------------------------------------------------------


@dataclass
class ExpectedSegment:
    project: str
    start: str
    end: str
    commits: list[str]
    source_version: str
    target_version: str


@dataclass
class Corpus:
    root: Path
    projects_file: Path
    repo_base: str
    repos: dict[str, list[str]]
    messages: dict[str, list[str]]
    confirmed_rules: set[tuple] = field(default_factory=set)
    discarded_rules: set[tuple] = field(default_factory=set)
    segments: list[ExpectedSegment] = field(default_factory=list)
    # (project, commit, file) -> (removed method keys, added method keys)
    fragments: dict[tuple[str, str, str], tuple[frozenset, frozenset]] = field(
        default_factory=dict
    )
    # (source_methods, target_methods) -> support
    mappings: dict[tuple[frozenset, frozenset], int] = field(default_factory=dict)


JSONOBJ = "org.json.JSONObject"
GSON_CLS = "com.google.gson.Gson"

SIMPLE_REMOVED = frozenset({(JSONOBJ, "<init>", 1), (JSONOBJ, "toJSONString", 0)})
SIMPLE_ADDED = frozenset({(GSON_CLS, "<init>", 0), (GSON_CLS, "toJson", 1)})
FILETWO_REMOVED = frozenset(
    {
        (JSONOBJ, "<init>", 1),
        (JSONOBJ, "toJSONString", 0),
        (JSONOBJ, "quote", 1),
        (JSONOBJ, "optString", 1),
    }
)


SERIALIZER_PATH = "src/main/java/com/example/app/Serializer.java"
FILE_ONE = "src/main/java/com/example/io/FileOne.java"
FILE_TWO = "src/main/java/com/example/io/FileTwo.java"
FILE_THREE = "src/main/java/com/example/io/FileThree.java"
RENDERER = "src/main/java/com/example/ui/Renderer.java"
WIDGET = "src/main/java/com/example/ui/Widget.java"
HELPER = "src/main/java/com/example/ui/Helper.java"


def corpus_scripts() -> dict[str, list[tuple[str, dict[str, str | None]]]]:
    """The scripted commits of the five corpus projects, by project name."""
    scripts: dict[str, list[tuple[str, dict[str, str | None]]]] = {}

    # single-commit migration
    scripts["mig-single"] = [
        (
            "initial import",
            {
                "pom.xml": pom("mig-single", JSON_LIB, JUNIT_LIB),
                SERIALIZER_PATH: SERIALIZER_JSON,
            },
        ),
        (
            "migrate json to gson",
            {
                "pom.xml": pom("mig-single", GSON_LIB, JUNIT_LIB),
                SERIALIZER_PATH: SERIALIZER_GSON,
            },
        ),
    ]

    # three-commit migration (plus a trailing doc commit), 5 commits total
    scripts["mig-json-gson"] = [
        (
            "initial import",
            {
                "pom.xml": pom("mig-json-gson", JSON_LIB, JUNIT_LIB),
                FILE_ONE: simple_json_user("com.example.io", "FileOne"),
                FILE_TWO: FILETWO_JSON,
                FILE_THREE: simple_json_user("com.example.io", "FileThree"),
            },
        ),
        (
            "adopt gson for FileOne",
            {
                "pom.xml": pom("mig-json-gson", JSON_LIB, GSON_LIB, JUNIT_LIB),
                FILE_ONE: simple_gson_user("com.example.io", "FileOne"),
            },
        ),
        ("migrate FileTwo to gson", {FILE_TWO: FILETWO_GSON}),
        (
            "finish migration, drop json dependency",
            {
                "pom.xml": pom("mig-json-gson", GSON_LIB, JUNIT_LIB),
                FILE_THREE: simple_gson_user("com.example.io", "FileThree"),
            },
        ),
        ("describe the tool", {"README.md": README_V2}),
    ]

    # migration with interleaved unrelated commits
    scripts["mig-noise"] = [
        (
            "initial import",
            {
                "pom.xml": pom("mig-noise", JSON_LIB, JUNIT_LIB),
                RENDERER: simple_json_user("com.example.ui", "Renderer"),
                WIDGET: simple_json_user("com.example.ui", "Widget"),
                HELPER: HELPER_V1,
            },
        ),
        (
            "swap dependency and migrate Renderer",
            {
                "pom.xml": pom("mig-noise", GSON_LIB, JUNIT_LIB),
                RENDERER: simple_gson_user("com.example.ui", "Renderer"),
            },
        ),
        ("refactor helper padding", {HELPER: HELPER_V2}),
        ("migrate Widget to gson", {WIDGET: simple_gson_user("com.example.ui", "Widget")}),
    ]

    # churn: a dependency swap with no code evidence
    scripts["churn-swap"] = [
        (
            "initial import",
            {
                "pom.xml": pom("churn-swap", LANG_LIB, JUNIT_LIB),
                "src/main/java/com/example/tool/App.java": PLAIN_APP,
            },
        ),
        ("swap to commons-lang3", {"pom.xml": pom("churn-swap", LANG3_LIB, JUNIT_LIB)}),
    ]

    # churn: upgrades and an unrelated addition only
    scripts["churn-upgrades"] = [
        (
            "initial import",
            {
                "pom.xml": pom("churn-upgrades", GSON_LIB, JUNIT_LIB),
                "src/main/java/com/example/svc/App.java": GSON_APP,
            },
        ),
        (
            "bump gson",
            {"pom.xml": pom("churn-upgrades", ("com.google.code.gson", "gson", "2.8.0"), JUNIT_LIB)},
        ),
        (
            "add logging facade",
            {
                "pom.xml": pom(
                    "churn-upgrades",
                    ("com.google.code.gson", "gson", "2.8.0"),
                    JUNIT_LIB,
                    SLF4J_LIB,
                )
            },
        ),
        (
            "bump junit",
            {
                "pom.xml": pom(
                    "churn-upgrades",
                    ("com.google.code.gson", "gson", "2.8.0"),
                    ("junit", "junit", "4.12"),
                    SLF4J_LIB,
                )
            },
        ),
    ]

    return scripts


def build_corpus(root: Path) -> Corpus:
    """Five scripted repositories: three json->gson migrations, two churn."""
    root = Path(root)
    repos_dir = root / "repos"
    corpus = Corpus(
        root=root,
        projects_file=root / "projects.txt",
        repo_base=build_fake_maven_repo(root / "mavenrepo"),
        repos={},
        messages={},
    )
    scripts = corpus_scripts()
    for name, commits in scripts.items():
        corpus.repos[name] = build_repo(repos_dir / name, commits)
        corpus.messages[name] = [message for message, _ in commits]

    lines = ["# scripted corpus"] + [
        str((repos_dir / name).resolve()) for name in sorted(scripts)
    ]
    corpus.projects_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # -- the oracle -------------------------------------------------------------

    corpus.confirmed_rules = {(JSON_ID, GSON_ID)}
    corpus.discarded_rules = {(LANG_ID, LANG3_ID)}

    single = corpus.repos["mig-single"]
    steps = corpus.repos["mig-json-gson"]
    noise = corpus.repos["mig-noise"]
    corpus.segments = [
        ExpectedSegment("mig-json-gson", steps[1], steps[3], steps[1:4], "20080701", "2.3.1"),
        ExpectedSegment("mig-noise", noise[1], noise[3], [noise[1], noise[3]], "20080701", "2.3.1"),
        ExpectedSegment("mig-single", single[1], single[1], [single[1]], "20080701", "2.3.1"),
    ]

    corpus.fragments = {
        ("mig-single", single[1], SERIALIZER_PATH): (SIMPLE_REMOVED, SIMPLE_ADDED),
        ("mig-json-gson", steps[1], FILE_ONE): (SIMPLE_REMOVED, SIMPLE_ADDED),
        ("mig-json-gson", steps[2], FILE_TWO): (FILETWO_REMOVED, SIMPLE_ADDED),
        ("mig-json-gson", steps[3], FILE_THREE): (SIMPLE_REMOVED, SIMPLE_ADDED),
        ("mig-noise", noise[1], RENDERER): (SIMPLE_REMOVED, SIMPLE_ADDED),
        ("mig-noise", noise[3], WIDGET): (SIMPLE_REMOVED, SIMPLE_ADDED),
    }
    corpus.mappings = {
        (SIMPLE_REMOVED, SIMPLE_ADDED): 5,
        (FILETWO_REMOVED, SIMPLE_ADDED): 1,
    }
    return corpus
