"""POM parsing and dependency diffing, anchored on the json->gson swap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migmine.manifest import ManifestParseError, diff_dependencies, parse_manifest
from migmine.model import LibraryCoordinate

POM_BEFORE = """<?xml version="1.0"?>
<project xmlns="http://maven.apache.org/POM/4.0.0">
  <modelVersion>4.0.0</modelVersion>
  <groupId>com.example</groupId>
  <artifactId>client</artifactId>
  <version>1.0</version>
  <dependencies>
    <dependency>
      <groupId>org.json</groupId>
      <artifactId>json</artifactId>
      <version>20080701</version>
    </dependency>
  </dependencies>
</project>
"""

POM_AFTER = POM_BEFORE.replace(
    """    <dependency>
      <groupId>org.json</groupId>
      <artifactId>json</artifactId>
      <version>20080701</version>
    </dependency>""",
    """    <dependency>
      <groupId>com.google.code.gson</groupId>
      <artifactId>gson</artifactId>
      <version>2.3.1</version>
    </dependency>""",
)


class TestParseManifest:
    def test_removed_block_coordinate(self):
        assert parse_manifest(POM_BEFORE) == [
            LibraryCoordinate("org.json", "json", "20080701")
        ]

    def test_added_block_coordinate(self):
        assert parse_manifest(POM_AFTER) == [
            LibraryCoordinate("com.google.code.gson", "gson", "2.3.1")
        ]

    def test_property_interpolation(self):
        pom = """<project>
          <properties><gson.version>2.8.0</gson.version></properties>
          <dependencies>
            <dependency>
              <groupId>com.google.code.gson</groupId>
              <artifactId>gson</artifactId>
              <version>${gson.version}</version>
            </dependency>
          </dependencies>
        </project>"""
        assert parse_manifest(pom) == [
            LibraryCoordinate("com.google.code.gson", "gson", "2.8.0")
        ]

    def test_project_version_builtin(self):
        pom = """<project>
          <version>3.1</version>
          <dependencies>
            <dependency>
              <groupId>g</groupId><artifactId>a</artifactId>
              <version>${project.version}</version>
            </dependency>
          </dependencies>
        </project>"""
        assert parse_manifest(pom)[0].version == "3.1"

    def test_unknown_property_is_unresolved(self):
        pom = """<project><dependencies><dependency>
          <groupId>g</groupId><artifactId>a</artifactId>
          <version>${missing.prop}</version>
        </dependency></dependencies></project>"""
        assert parse_manifest(pom)[0].version == "unresolved"

    def test_missing_version_is_unresolved(self):
        pom = """<project><dependencies><dependency>
          <groupId>g</groupId><artifactId>a</artifactId>
        </dependency></dependencies></project>"""
        assert parse_manifest(pom)[0].version == "unresolved"

    def test_empty_dependencies_is_empty_list(self):
        assert parse_manifest("<project><dependencies/></project>") == []

    def test_malformed_xml_carries_position(self):
        with pytest.raises(ManifestParseError) as err:
            parse_manifest("<project>\n  <dependencies>\n</project>")
        assert err.value.line == 3
        assert err.value.column >= 0

    def test_order_preserved_over_entries(self):
        pom = """<project><dependencies>
          <dependency><groupId>b</groupId><artifactId>b</artifactId><version>1</version></dependency>
          <dependency><groupId>a</groupId><artifactId>a</artifactId><version>1</version></dependency>
        </dependencies></project>"""
        assert [c.group for c in parse_manifest(pom)] == ["b", "a"]

    def test_cyclic_properties_are_unresolved(self):
        pom = """<project>
          <properties><a>${b}</a><b>${a}</b></properties>
          <dependencies><dependency>
            <groupId>g</groupId><artifactId>x</artifactId><version>${a}</version>
          </dependency></dependencies>
        </project>"""
        assert parse_manifest(pom)[0].version == "unresolved"


class TestDiffDependencies:
    def test_json_to_gson_swap(self):
        change = diff_dependencies(parse_manifest(POM_BEFORE), parse_manifest(POM_AFTER))
        assert change.removed == frozenset(
            {LibraryCoordinate("org.json", "json", "20080701")}
        )
        assert change.added == frozenset(
            {LibraryCoordinate("com.google.code.gson", "gson", "2.3.1")}
        )

    def test_identity_diff_is_empty(self):
        coords = parse_manifest(POM_BEFORE)
        change = diff_dependencies(coords, coords)
        assert not change.added and not change.removed

    def test_version_upgrade_is_not_a_migration(self):
        before = [LibraryCoordinate("com.google.code.gson", "gson", "2.3.1")]
        after = [LibraryCoordinate("com.google.code.gson", "gson", "2.8.0")]
        change = diff_dependencies(before, after)
        assert not change.added and not change.removed


coordinates = st.builds(
    LibraryCoordinate,
    st.sampled_from(["org.a", "org.b", "com.c"]),
    st.sampled_from(["x", "y", "z"]),
    st.sampled_from(["1", "2", "3"]),
)
coordinate_lists = st.lists(coordinates, max_size=6)


@given(coordinate_lists)
@settings(max_examples=200, deadline=None)
def test_self_diff_always_empty(coords):
    change = diff_dependencies(coords, coords)
    assert not change.added and not change.removed


@given(coordinate_lists, coordinate_lists)
@settings(max_examples=200, deadline=None)
def test_diff_antisymmetry(before, after):
    forward = diff_dependencies(before, after)
    backward = diff_dependencies(after, before)
    assert forward.added == backward.removed
    assert forward.removed == backward.added


@given(coordinate_lists, coordinate_lists)
@settings(max_examples=200, deadline=None)
def test_no_identity_in_both_sides(before, after):
    change = diff_dependencies(before, after)
    assert not (
        {c.identity for c in change.added} & {c.identity for c in change.removed}
    )
