"""Resolver accuracy on the annotated fixture corpus.

Every fixture line with a real library use carries a `// use:` marker
(class#method/arity); decoy files carry none.  Precision must be 100%
(nothing detected outside the markers); recall is measured and reported,
target >= 80%, non-blocking.
"""

import re
from pathlib import Path

from conftest import FIXTURES

from migmine.javafacts import extract_facts, facts_depend_on, resolve_usages

RESOLVER_DIR = FIXTURES / "resolver"

_USE = re.compile(r"use:\s*(.+)$")
_DEPENDS = re.compile(r"//\s*depends:\s*(yes|no)")


def load_ground_truth(path: Path):
    expected = set()
    depends = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        dep = _DEPENDS.search(line)
        if dep:
            depends = dep.group(1) == "yes"
        use = _USE.search(line)
        if not use:
            continue
        for marker in use.group(1).split(","):
            marker = marker.strip()
            cls_method, _, arity = marker.rpartition("/")
            cls, _, method = cls_method.rpartition("#")
            expected.add((cls, method, int(arity), lineno))
    if depends is None:
        depends = bool(expected)
    return expected, depends


def fixture_files():
    files = sorted(RESOLVER_DIR.glob("*.java"))
    assert len(files) >= 20, "fixture suite must hold at least 20 annotated files"
    return files


def test_resolver_precision_is_total(json_index):
    """No invented uses anywhere in the fixture suite."""
    inventions = []
    for path in fixture_files():
        expected, _ = load_ground_truth(path)
        facts = extract_facts(path.read_text())
        detected = {
            (u.class_name, u.method, u.arity, u.line)
            for u in resolve_usages(facts, json_index)
        }
        inventions.extend((path.name, use) for use in detected - expected)
    assert inventions == [], f"resolver invented uses: {inventions}"


def test_resolver_recall_reported(json_index, capsys):
    total = hits = 0
    missed = []
    for path in fixture_files():
        expected, _ = load_ground_truth(path)
        if not expected:
            continue
        facts = extract_facts(path.read_text())
        detected = {
            (u.class_name, u.method, u.arity, u.line)
            for u in resolve_usages(facts, json_index)
        }
        total += len(expected)
        hits += len(detected & expected)
        missed.extend((path.name, use) for use in expected - detected)
    recall = hits / total
    with capsys.disabled():
        print(
            f"\n[resolver] precision=100% recall={recall:.1%} "
            f"({hits}/{total} ground-truth uses; target >= 80%, non-blocking)"
        )
        for name, use in missed:
            print(f"[resolver]   missed: {name} {use}")
    assert total >= 20


def test_dependency_classification_matches_annotations(json_index):
    mismatches = []
    for path in fixture_files():
        _, should_depend = load_ground_truth(path)
        facts = extract_facts(path.read_text())
        got = facts_depend_on(facts, json_index, imports_count_as_use=True)
        if got != should_depend:
            mismatches.append((path.name, got, should_depend))
    assert mismatches == [], f"facts_depend_on mismatches: {mismatches}"
