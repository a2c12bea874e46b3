"""Maven POM parsing and per-commit dependency diffing."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from .model import UNRESOLVED, DependencyChange, LibraryCoordinate

_PLACEHOLDER = re.compile(r"\$\{([^}]+)\}")

# names what parse_manifest returns: a store holding the parse results of
# another version empties them at open
MANIFEST_VERSION = "1"


class ManifestParseError(ValueError):
    """Malformed POM XML; carries the 1-based line/column of the defect."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _local(tag: str) -> str:
    # POMs carry the maven.apache.org namespace; element names are the contract
    return tag.rpartition("}")[2]


def _child_text(elem: ET.Element, name: str) -> str | None:
    for child in elem:
        if _local(child.tag) == name:
            return (child.text or "").strip()
    return None


def _interpolate(value: str | None, props: dict[str, str]) -> str:
    if value is None or value == "":
        return UNRESOLVED
    seen: set[str] = set()
    while True:
        m = _PLACEHOLDER.search(value)
        if m is None:
            return value
        key = m.group(1)
        if key in seen or key not in props:
            return UNRESOLVED
        seen.add(key)
        value = value[: m.start()] + props[key] + value[m.end() :]


def parse_manifest(content: str) -> list[LibraryCoordinate]:
    """Parse one coordinate per <dependency> entry, in document order.

    Versions written as ${prop} are interpolated from the <properties>
    block (plus the project.version built-in); anything unresolvable
    becomes the literal "unresolved".  A manifest without dependencies is
    an empty list, not an error.
    """
    try:
        root = ET.fromstring(content)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ManifestParseError(f"malformed manifest XML: {exc.msg}", line, column) from exc

    props: dict[str, str] = {}
    project_version = _child_text(root, "version")
    project_group = _child_text(root, "groupId")
    for child in root:
        if _local(child.tag) == "parent":
            project_version = project_version or _child_text(child, "version")
            project_group = project_group or _child_text(child, "groupId")
        elif _local(child.tag) == "properties":
            for prop in child:
                props[_local(prop.tag)] = (prop.text or "").strip()
    if project_version:
        props.setdefault("project.version", project_version)
        props.setdefault("pom.version", project_version)
        props.setdefault("version", project_version)
    if project_group:
        props.setdefault("project.groupId", project_group)
        props.setdefault("pom.groupId", project_group)

    coordinates: list[LibraryCoordinate] = []
    for dep in root.iter():
        if _local(dep.tag) != "dependency":
            continue
        group = _interpolate(_child_text(dep, "groupId"), props)
        artifact = _interpolate(_child_text(dep, "artifactId"), props)
        if group == UNRESOLVED or artifact == UNRESOLVED:
            continue  # unidentifiable entry
        version = _interpolate(_child_text(dep, "version"), props)
        coordinates.append(LibraryCoordinate(group, artifact, version))
    return coordinates


def diff_dependencies(
    before: list[LibraryCoordinate],
    after: list[LibraryCoordinate],
    project: str = "",
    commit: str = "",
) -> DependencyChange:
    """Added/removed library identities between two manifest versions.

    An identity present on both sides is in neither set, whatever its
    versions.
    """
    b: dict[tuple[str, str], LibraryCoordinate] = {}
    for coord in before:
        b.setdefault(coord.identity, coord)
    a: dict[tuple[str, str], LibraryCoordinate] = {}
    for coord in after:
        a.setdefault(coord.identity, coord)
    added = frozenset(a[k] for k in a.keys() - b.keys())
    removed = frozenset(b[k] for k in b.keys() - a.keys())
    return DependencyChange(project, commit, added, removed)
