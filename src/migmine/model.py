"""Data model shared across the mining pipeline stages.

The immutable value records are `typing.NamedTuple`s, because
`@dataclass` compiles each generated method with `exec` on every import,
which made this module the costliest one to import.  A record hashes as
the tuple of its fields, as a frozen dataclass did, so every set and dict
iterates in the order it did; it also compares and orders as that tuple,
so a record must never share a dict or set with plain tuples of its
length.  `PackageIndex` stays a frozen dataclass because `__post_init__`
computes its derived fields, and `MigrationRule`, `Segment` and
`MethodMapping` stay mutable dataclasses because the stages change them
in place.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from datetime import datetime
from typing import NamedTuple

# A library identity: (group, artifact).  Versions never participate in
# identity comparisons.
LibraryId = tuple[str, str]

# A method within a library: (fully-qualified class, method name, arity).
# Constructors use "<init>" as the method name.
MethodKey = tuple[str, str, int]

# The version of a dependency whose manifest names no resolvable version.
UNRESOLVED = "unresolved"


def library_key(lib: LibraryId) -> str:
    return f"{lib[0]}:{lib[1]}"


def method_key_str(key: MethodKey) -> str:
    return f"{key[0]}#{key[1]}/{key[2]}"


class LibraryCoordinate(NamedTuple):
    """A build dependency: the (group, artifact, version) manifest triple."""

    group: str
    artifact: str
    version: str = UNRESOLVED

    @property
    def identity(self) -> LibraryId:
        return (self.group, self.artifact)

    def __str__(self) -> str:
        return f"{self.group}:{self.artifact}:{self.version}"


class ProjectRef(NamedTuple):
    id: str
    origin: str
    workdir: str


class CommitRecord(NamedTuple):
    project: str
    commit_id: str
    date: datetime
    author: str
    message: str
    ordinal: int  # 0-based position in first-parent history, 0 = oldest


class FileChange(NamedTuple):
    """One file touched by a commit, by the blob ids of its two versions.

    kind is one of added / modified / deleted / renamed; only a rename has
    an `old_path`, and an absent version has no blob id (None).
    `gitrepo.read_history` builds it from git's raw diff entry and the
    store keeps it as it is.  `ProjectHistory.text` reads a version's text,
    and the blob ids let later stages cache per-blob analysis results.
    """

    path: str
    kind: str
    old_path: str | None = None
    before_sha: str | None = None
    after_sha: str | None = None


class DependencyChange(NamedTuple):
    """Per-commit library additions and removals.

    A (group, artifact) identity never appears in both added and removed:
    a version change of a library that stays declared is neither.
    """

    project: str
    commit: str
    added: frozenset[LibraryCoordinate]
    removed: frozenset[LibraryCoordinate]


@dataclass(slots=True)
class MigrationRule:
    """A directed source→target library pair with its observation weight."""

    source: LibraryId
    target: LibraryId
    weight: int
    normalized_weight: float
    status: str = "candidate"  # candidate | confirmed | discarded

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (*self.source, *self.target)

    def __str__(self) -> str:
        return f"{library_key(self.source)} -> {library_key(self.target)}"


@dataclass(slots=True)
class Segment:
    """The migration period of one rule within one project.

    `id` is the segment's row id, 0 until `detect_segments` numbers the
    segments it stores 1..n; a fragment names its segment by it.
    """

    project: str
    source: LibraryId
    target: LibraryId
    start_commit: str
    end_commit: str
    source_version: str = UNRESOLVED
    target_version: str = UNRESOLVED
    commits: list[str] = field(default_factory=list)
    weak_start: bool = False  # start only adds target uses, no source removal
    id: int = 0


class ImportDecl(NamedTuple):
    qualified: str
    is_static: bool = False
    is_wildcard: bool = False


class Invocation(NamedTuple):
    line: int
    kind: str  # constructor | instance | static_call | static_imported
    method: str  # for constructors: the class simple name
    arity: int
    # the type name the resolver looks up: the constructed class, the declared
    # type of an instance receiver, or a static call's qualifier (None for
    # static_imported)
    receiver: str | None = None


class SourceFacts(NamedTuple):
    package: str | None
    imports: tuple[ImportDecl, ...]
    invocations: tuple[Invocation, ...]
    local_types: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class PackageIndex:
    """Class membership index of one library, used to resolve invocations.

    In prefix mode (fallback when the class archive is unavailable) the
    index matches any class whose package sits under one of `packages`.
    """

    classes: frozenset[str]
    packages: frozenset[str]
    prefix_mode: bool = False
    # what javafacts.may_reference looks for in a source text: the class
    # simple names and package last segments, one of which any text that
    # references the library holds; then each package's segments, and a
    # pattern that finds any class simple name (None without classes)
    reference_words: tuple[str, ...] = field(init=False, repr=False, compare=False)
    package_segments: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    class_pattern: re.Pattern | None = field(init=False, repr=False, compare=False)
    # the question a blob's library answer is asked under: "uses " and the
    # length and CRC-32 of the mode, the sorted packages and the sorted
    # fully qualified classes, everything the screen and the resolver read
    # of the index; so two indexes that share it get the same answer for
    # every blob
    answer_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # package segments first: a source that uses the library usually imports
        # it, so the check stops at its first word
        packages = sorted({p.rpartition(".")[2] for p in self.packages})
        classes = sorted({c.rpartition(".")[2] for c in self.classes})
        words = (*packages, *(c for c in classes if c not in packages))
        object.__setattr__(self, "reference_words", words)
        # last segment first: the rarest, so a text without the package
        # fails soonest
        segments = sorted({tuple(reversed(p.split("."))) for p in self.packages})
        object.__setattr__(self, "package_segments", tuple(segments))
        pattern = re.compile("|".join(map(re.escape, classes))) if classes else None
        object.__setattr__(self, "class_pattern", pattern)
        named = "\n".join(
            ["prefix" if self.prefix_mode else "classes", *sorted(self.packages), "",
             *sorted(self.classes)]
        ).encode("utf-8")
        object.__setattr__(self, "answer_key", f"uses {len(named)}-{zlib.crc32(named):08x}")

    def contains_class(self, fqcn: str) -> bool:
        if not self.prefix_mode:
            return fqcn in self.classes
        pkg = fqcn.rpartition(".")[0]
        return bool(pkg) and self.covers_package(pkg)

    def covers_package(self, pkg: str) -> bool:
        if not self.prefix_mode:
            return pkg in self.packages
        return any(pkg == p or pkg.startswith(p + ".") for p in self.packages)


class LibraryMethodUse(NamedTuple):
    class_name: str  # fully qualified
    method: str  # "<init>" for constructors
    arity: int
    line: int

    @property
    def method_key(self) -> MethodKey:
        return (self.class_name, self.method, self.arity)


class LibraryAnswer(NamedTuple):
    """What a blob's source holds of one library: the method uses its facts
    resolve to, and whether an import names the library."""

    uses: list[LibraryMethodUse]
    imports: bool


class Hunk(NamedTuple):
    file: str
    before_start: int
    before_len: int
    after_start: int
    after_len: int
    # each line as unified diff writes it: " ", "-" or "+", then its text
    # with its "\n" (a last line may lack one)
    lines: tuple[str, ...]


class Fragment(NamedTuple):
    """A diff hunk witnessing at least one method mapping, within the
    segment whose id it names; source and target are that segment's."""

    segment_id: int
    source: LibraryId
    target: LibraryId
    commit: str
    hunk: Hunk
    removed_methods: frozenset[LibraryMethodUse]
    added_methods: frozenset[LibraryMethodUse]


@dataclass(slots=True)
class MethodMapping:
    source: LibraryId
    target: LibraryId
    source_methods: tuple[MethodKey, ...]  # sorted, each once
    target_methods: tuple[MethodKey, ...]  # sorted, each once
    support: int


class MethodDoc(NamedTuple):
    """Parsed API documentation for one method or constructor."""

    library: LibraryCoordinate
    package: str
    class_name: str
    class_description: str
    method: str  # "<init>" for constructors
    signature: tuple[str, ...]  # declared parameter types, simple names
    description: str
    param_docs: tuple[tuple[str, str], ...]
    return_doc: str | None = None
    since: str | None = None

    @property
    def arity(self) -> int:
        return len(self.signature)


class DocAttachment(NamedTuple):
    """Resolution of one mapped method against the parsed documentation.

    An attachment with `found` false is the explicit not-found marker.
    """

    method: MethodKey
    doc: MethodDoc | None
    found: bool
    ambiguous: bool = False
