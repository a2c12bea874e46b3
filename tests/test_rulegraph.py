"""Migration graph accumulation, normalization and threshold filtering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migmine.model import DependencyChange, LibraryCoordinate
from migmine.pipeline import RunConfig
from migmine.rulegraph import (
    MigrationGraph,
    confirm_rules,
    format_edge_list,
    normalize_and_filter,
)


def change(project, commit, removed, added):
    return DependencyChange(
        project,
        commit,
        frozenset(LibraryCoordinate(g, a, "1") for g, a in added),
        frozenset(LibraryCoordinate(g, a, "1") for g, a in removed),
    )


JSON = ("org.json", "json")
GSON = ("com.google.code.gson", "gson")
OTHER = ("com.example", "other")
EASYMOCK = ("org.easymock", "easymock")
MOCKITO = ("org.mockito", "mockito-core")
TESTNG = ("org.testng", "testng")
JUNIT = ("junit", "junit")


def paper_graph():
    """json->gson 12 with a weaker competitor, plus the two other rules."""
    graph = MigrationGraph()
    graph.add_edge(JSON, GSON, 12)
    graph.add_edge(JSON, OTHER, 3)
    graph.add_edge(EASYMOCK, MOCKITO, 5)
    graph.add_edge(TESTNG, JUNIT, 4)
    graph.add_edge(TESTNG, OTHER, 1)
    return graph


class TestAccumulate:
    def test_single_pair_increments(self):
        graph = MigrationGraph()
        graph.accumulate(change("p", "c1", removed={JSON}, added={GSON}))
        assert graph.edges == {(JSON, GSON): 1}

    def test_cartesian_product_size(self):
        graph = MigrationGraph()
        graph.accumulate(
            change("p", "c1", removed={("g", "a"), ("g", "b")}, added={("g", "x"), ("g", "y")})
        )
        assert len(graph.edges) == 4
        assert all(w == 1 for w in graph.edges.values())

    def test_empty_sides_change_nothing(self):
        graph = MigrationGraph()
        graph.accumulate(change("p", "c1", removed=set(), added={GSON}))
        graph.accumulate(change("p", "c2", removed={JSON}, added=set()))
        assert graph.edges == {}

    def test_one_increment_per_project_commit_pair(self):
        graph = MigrationGraph()
        graph.accumulate(change("p", "c1", removed={JSON}, added={GSON}))
        graph.accumulate(change("p", "c1", removed={JSON}, added={GSON}))
        graph.accumulate(change("p", "c2", removed={JSON}, added={GSON}))
        graph.accumulate(change("q", "c1", removed={JSON}, added={GSON}))
        assert graph.edges == {(JSON, GSON): 3}

    def test_self_identity_pairs_excluded(self):
        graph = MigrationGraph()
        graph.accumulate(change("p", "c1", removed={JSON}, added={JSON, GSON}))
        assert graph.edges == {(JSON, GSON): 1}


class TestNormalizeAndFilter:
    def test_default_threshold_keeps_only_max_edges(self):
        rules = normalize_and_filter(paper_graph(), t_rel=1.0)
        assert {(r.source, r.target) for r in rules} == {
            (JSON, GSON),
            (EASYMOCK, MOCKITO),
            (TESTNG, JUNIT),
        }
        assert all(r.normalized_weight == 1.0 for r in rules)
        assert [r.weight for r in rules] == [12, 5, 4]

    def test_normalization_arithmetic(self):
        graph = MigrationGraph()
        graph.add_edge(JSON, GSON, 12)
        graph.add_edge(JSON, OTHER, 3)
        rules = {
            (r.source, r.target): r.normalized_weight
            for r in normalize_and_filter(graph, t_rel=0.0)
        }
        assert rules[(JSON, GSON)] == 1.0
        assert rules[(JSON, OTHER)] == 0.25

    def test_lower_threshold_admits_competitors(self):
        kept = {
            (r.source, r.target)
            for r in normalize_and_filter(paper_graph(), t_rel=0.2)
        }
        # both 0.25-normalized edges clear the 0.2 bar, nothing else changes
        assert kept == {
            (JSON, GSON), (JSON, OTHER),
            (EASYMOCK, MOCKITO),
            (TESTNG, JUNIT), (TESTNG, OTHER),
        }

    def test_single_edge_always_kept(self):
        graph = MigrationGraph()
        graph.add_edge(JSON, GSON, 1)
        rules = normalize_and_filter(graph, t_rel=1.0)
        assert len(rules) == 1
        assert rules[0].normalized_weight == 1.0

    def test_empty_graph_yields_no_rules(self):
        assert normalize_and_filter(MigrationGraph(), t_rel=1.0) == []

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(t_rel=1.5)
        with pytest.raises(ValueError):
            RunConfig(t_rel=-0.1)


class TestConfirmRules:
    def test_fragments_confirm_and_absence_discards(self):
        rules = normalize_and_filter(paper_graph(), t_rel=1.0)
        confirmed = confirm_rules(rules, {(JSON, GSON): 7})
        by_key = {(r.source, r.target): r.status for r in confirmed}
        assert by_key[(JSON, GSON)] == "confirmed"
        assert by_key[(EASYMOCK, MOCKITO)] == "discarded"
        assert by_key[(TESTNG, JUNIT)] == "discarded"

    def test_empty_rule_list(self):
        assert confirm_rules([], {}) == []


def test_edge_list_export_format():
    graph = MigrationGraph()
    graph.add_edge(JSON, GSON, 12)
    graph.add_edge(JSON, OTHER, 3)
    text = format_edge_list(graph)
    lines = text.splitlines()
    assert "org.json:json -> com.google.code.gson:gson 12 1" in lines
    assert "org.json:json -> com.example:other 3 0.25" in lines


# -- properties ----------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=7)
edge_sets = st.dictionaries(
    st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=15,
)


def graph_from(edges):
    graph = MigrationGraph()
    for (src, dst), weight in edges.items():
        graph.add_edge(("g", f"n{src}"), ("g", f"n{dst}"), weight)
    return graph


@given(edge_sets, st.integers(min_value=1, max_value=9))
@settings(max_examples=300, deadline=None)
def test_argmax_set_invariant_under_uniform_scaling(edges, factor):
    base = normalize_and_filter(graph_from(edges), t_rel=1.0)
    scaled_edges = {e: w * factor for e, w in edges.items()}
    scaled = normalize_and_filter(graph_from(scaled_edges), t_rel=1.0)
    assert {(r.source, r.target) for r in base} == {(r.source, r.target) for r in scaled}


@given(edge_sets)
@settings(max_examples=300, deadline=None)
def test_exactly_max_edges_have_normalized_one(edges):
    rules = normalize_and_filter(graph_from(edges), t_rel=0.0)
    max_out = {}
    for (src, _), weight in edges.items():
        max_out[src] = max(max_out.get(src, 0), weight)
    for rule in rules:
        node = int(rule.source[1][1:])
        is_max = edges[(node, int(rule.target[1][1:]))] == max_out[node]
        assert (rule.normalized_weight == 1.0) == is_max


@given(edge_sets, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_threshold_monotonicity(edges, t1, t2):
    lo, hi = sorted((t1, t2))
    graph = graph_from(edges)
    kept_lo = {(r.source, r.target) for r in normalize_and_filter(graph, t_rel=lo)}
    kept_hi = {(r.source, r.target) for r in normalize_and_filter(graph, t_rel=hi)}
    assert kept_hi <= kept_lo
    assert {(r.source, r.target) for r in normalize_and_filter(graph, t_rel=0.0)} == set(
        (("g", f"n{s}"), ("g", f"n{t}")) for (s, t) in edges
    )


def test_accumulate_order_independence():
    rng = random.Random(20150301)
    libs = [("g", f"l{i}") for i in range(6)]
    changes = [
        change(
            f"p{rng.randrange(3)}",
            f"c{i}",
            removed=set(rng.sample(libs, rng.randrange(0, 3))),
            added=set(rng.sample(libs, rng.randrange(0, 3))),
        )
        for i in range(40)
    ]
    baseline = MigrationGraph()
    for item in changes:
        baseline.accumulate(item)
    for seed in range(10):
        shuffled = changes[:]
        random.Random(seed).shuffle(shuffled)
        graph = MigrationGraph()
        for item in shuffled:
            graph.accumulate(item)
        assert graph.edges == baseline.edges
