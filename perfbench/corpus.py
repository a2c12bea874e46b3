"""Corpus building blocks: Java sources, POMs, git streams, Maven archives.

Everything here is a pure function of its arguments, so a workload built
from one seed always yields the same bytes.  Projects become bare git
repositories through one `git fast-import` stream each, with commit dates
counted in seconds from a fixed epoch (any number of commits is valid).
The Maven-layout repository holds a class jar and a JDK 7 doclet javadoc
jar for every published library; unpublished libraries are absent as
files, so a fetch misses at once instead of retrying.
"""

from __future__ import annotations

import io
import os
import subprocess
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

EPOCH = 1420070400  # 2015-01-01T00:00:00Z
COMMIT_STEP_S = 3600
AUTHOR = "Bench Dev <dev@example.org>"
ZIP_DATE = (2015, 1, 1, 0, 0, 0)


@dataclass(frozen=True)
class ApiClass:
    name: str
    methods: tuple[tuple[str, int], ...]  # (name, arity)

    def documented(self, method: str, arity: int) -> bool:
        """The javadoc omits each class's last method; constructors are documented."""
        if method == "<init>":
            return arity == 1
        return (method, arity) in self.methods[:-1]


@dataclass(frozen=True)
class Library:
    group: str
    artifact: str
    version: str
    package: str
    classes: tuple[ApiClass, ...] = ()
    published: bool = False  # class and javadoc jars exist in the repository

    @property
    def identity(self) -> tuple[str, str]:
        return (self.group, self.artifact)


def make_library(group: str, artifact: str, version: str, package: str,
                 prefix: str, n_classes: int, n_methods: int) -> Library:
    """A published library whose class and method names carry `prefix`."""
    classes = tuple(
        ApiClass(
            f"{prefix}{c}",
            tuple((f"{prefix.lower()}Op{m}", m % 3) for m in range(n_methods)),
        )
        for c in range(n_classes)
    )
    return Library(group, artifact, version, package, classes, published=True)


# -- Java sources ---------------------------------------------------------------


@dataclass(frozen=True)
class ApiUse:
    """One file's use of a library: a constructor plus a few method calls."""

    library: Library
    cls: ApiClass
    calls: tuple[tuple[str, int], ...]

    def method_keys(self) -> frozenset[tuple[str, str, int]]:
        fq = f"{self.library.package}.{self.cls.name}"
        return frozenset({(fq, "<init>", 1)} | {(fq, m, a) for m, a in self.calls})


@dataclass
class JavaFile:
    package: str
    name: str
    api: ApiUse | None
    fillers: list[tuple[int, ...]] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"package {self.package};", ""]
        if self.api is not None:
            lines += [f"import {self.api.library.package}.{self.api.cls.name};", ""]
        lines.append(f"public class {self.name} {{")
        if self.api is not None:
            cls = self.api.cls.name
            lines.append("    public Object bridge(Object value) {")
            lines.append(f"        {cls} peer = new {cls}(value);")
            for k, (method, arity) in enumerate(self.api.calls):
                args = ", ".join(["value"] * arity)
                lines.append(f"        Object r{k} = peer.{method}({args});")
            lines.append("        return r0;")
            lines.append("    }")
            lines.append("")
        for j, (a, b, c, d, e) in enumerate(self.fillers):
            lines += [
                f"    public int step{j}(int x) {{",
                f"        int acc = x * {a} + {b};",
                f"        for (int i = 0; i < {c}; i++) {{",
                f"            acc += i % {d};",
                "        }",
                f"        if (acc > {e}) {{",
                f"            acc -= helper{j}(acc);",
                "        }",
                "        String text = String.valueOf(acc);",
                "        return acc + text.length();",
                "    }",
                "",
            ]
        lines.append("}")
        return "\n".join(lines) + "\n"


def filler(rng) -> tuple[int, ...]:
    return tuple(rng.randrange(2, 97) for _ in range(5))


def pom(artifact: str, deps: list[Library]) -> str:
    blocks = "".join(
        "    <dependency>\n"
        f"      <groupId>{lib.group}</groupId>\n"
        f"      <artifactId>{lib.artifact}</artifactId>\n"
        f"      <version>{lib.version}</version>\n"
        "    </dependency>\n"
        for lib in deps
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<project xmlns="http://maven.apache.org/POM/4.0.0">\n'
        "  <modelVersion>4.0.0</modelVersion>\n"
        "  <groupId>com.bench</groupId>\n"
        f"  <artifactId>{artifact}</artifactId>\n"
        "  <version>1.0.0</version>\n"
        "  <dependencies>\n"
        f"{blocks}"
        "  </dependencies>\n"
        "</project>\n"
    )


# -- projects ---------------------------------------------------------------------


class Project:
    """A scripted first-parent history: a POM plus Java files, commit by commit."""

    def __init__(self, name: str, deps: list[Library]):
        self.name = name
        self.deps = list(deps)
        self.files: dict[str, JavaFile] = {}
        self.commits: list[tuple[str, dict[str, str | None]]] = []
        self.declared: list[frozenset[tuple[str, str]]] = []  # identities per commit
        self._pending: dict[str, str | None] = {}
        self._pom_dirty = True

    def put(self, path: str, jf: JavaFile) -> None:
        self.files[path] = jf
        self._pending[path] = jf.render()

    def touch(self, path: str) -> None:
        self._pending[path] = self.files[path].render()

    def set_deps(self, deps: list[Library]) -> None:
        self.deps = list(deps)
        self._pom_dirty = True

    def commit(self, message: str) -> int:
        """Record the pending changes as one commit; returns its ordinal."""
        if self._pom_dirty:
            self._pending["pom.xml"] = pom(self.name, self.deps)
            self._pom_dirty = False
        self.commits.append((message, self._pending))
        self.declared.append(frozenset(lib.identity for lib in self.deps))
        self._pending = {}
        return len(self.commits) - 1


def fast_import_stream(project: Project) -> bytes:
    out = []
    for i, (message, files) in enumerate(project.commits):
        stamp = f"{AUTHOR} {EPOCH + i * COMMIT_STEP_S} +0000"
        msg = message.encode() + b"\n"
        out.append(
            f"commit refs/heads/main\nmark :{i + 1}\nauthor {stamp}\n"
            f"committer {stamp}\ndata {len(msg)}\n".encode()
            + msg
        )
        if i:
            out.append(f"from :{i}\n".encode())
        for path in sorted(files):
            content = files[path]
            if content is None:
                out.append(f"D {path}\n".encode())
            else:
                data = content.encode()
                out.append(f"M 100644 inline {path}\ndata {len(data)}\n".encode() + data + b"\n")
        out.append(b"\n")
    return b"".join(out)


def write_repo(path: Path, project: Project) -> list[str]:
    """Import the project into a bare repository; returns commit ids oldest first."""
    env = dict(os.environ, GIT_TERMINAL_PROMPT="0")
    subprocess.run(
        ["git", "init", "-q", "--bare", "-b", "main", str(path)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    marks = path / "bench-marks"
    subprocess.run(
        ["git", "fast-import", "--quiet", f"--export-marks={marks}"],
        cwd=path, input=fast_import_stream(project), check=True, env=env,
        stdout=subprocess.DEVNULL,
    )
    ids = {}
    for line in marks.read_text().splitlines():
        mark, sha = line.split()
        ids[int(mark[1:])] = sha
    return [ids[i + 1] for i in range(len(project.commits))]


# -- Maven-layout repository -------------------------------------------------------


def _jar(entries: dict[str, bytes | str]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(entries):
            zf.writestr(zipfile.ZipInfo(name, ZIP_DATE), entries[name])
    return buf.getvalue()


def _param_list(arity: int) -> str:
    return ",&nbsp;".join(f"java.lang.Object&nbsp;arg{k}" for k in range(arity))


def _detail(name: str, ret: str, arity: int, description: str) -> str:
    params = "".join(
        f"<dd><code>arg{k}</code> - argument {k}</dd>\n" for k in range(arity)
    )
    dl = f'<dl>\n<dt><span class="strong">Parameters:</span></dt>\n{params}</dl>\n' if arity else ""
    return (
        f'<a name="{name}">\n<!--   -->\n</a>\n<ul class="blockList">\n<li class="blockList">\n'
        f"<h4>{name}</h4>\n<pre>public&nbsp;{ret}{name}({_param_list(arity)})</pre>\n"
        f'<div class="block">{description}</div>\n{dl}</li>\n</ul>\n'
    )


def javadoc_page(lib: Library, cls: ApiClass) -> str:
    ctor = _detail(cls.name, "", 1, f"Creates a {cls.name} around a value.")
    methods = "".join(
        _detail(m, "java.lang.Object&nbsp;", a, f"Applies {m} to its arguments.")
        for m, a in cls.methods[:-1]
    )
    return (
        '<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN">\n<html lang="en">\n'
        f"<head>\n<title>{cls.name} ({lib.package} API)</title>\n</head>\n<body>\n"
        f'<div class="header">\n<div class="subTitle">{lib.package}</div>\n'
        f'<h2 title="Class {cls.name}" class="title">Class {cls.name}</h2>\n</div>\n'
        '<div class="contentContainer">\n<div class="description">\n'
        '<ul class="blockList">\n<li class="blockList">\n'
        f'<div class="block">{cls.name} of the {lib.artifact} library.</div>\n'
        "</li>\n</ul>\n</div>\n"
        '<div class="details">\n<ul class="blockList">\n<li class="blockList">\n'
        '<a name="constructor_detail">\n<!--   -->\n</a>\n<h3>Constructor Detail</h3>\n'
        f"{ctor}</li>\n</ul>\n"
        '<ul class="blockList">\n<li class="blockList">\n'
        '<a name="method_detail">\n<!--   -->\n</a>\n<h3>Method Detail</h3>\n'
        f"{methods}</li>\n</ul>\n</div>\n</div>\n</body>\n</html>\n"
    )


def write_maven_repo(root: Path, libraries: list[Library]) -> str:
    """Jars for every published library; returns the file:// base URL."""
    for lib in libraries:
        if not lib.published:
            continue
        pkg_dir = lib.package.replace(".", "/")
        base = root / lib.group.replace(".", "/") / lib.artifact / lib.version
        base.mkdir(parents=True, exist_ok=True)
        stem = f"{lib.artifact}-{lib.version}"
        (base / f"{stem}.jar").write_bytes(
            _jar({f"{pkg_dir}/{c.name}.class": b"" for c in lib.classes})
        )
        pages: dict[str, bytes | str] = {
            "index.html": "<html><body>index</body></html>",
            f"{pkg_dir}/package-summary.html": "<html><body>summary</body></html>",
        }
        for cls in lib.classes:
            pages[f"{pkg_dir}/{cls.name}.html"] = javadoc_page(lib, cls)
        (base / f"{stem}-javadoc.jar").write_bytes(_jar(pages))
    root.mkdir(parents=True, exist_ok=True)
    return root.resolve().as_uri()
