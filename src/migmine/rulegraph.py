"""Weighted directed graph of candidate migrations.

Edges come from the Cartesian product of each commit's removed and added
library sets; weights count distinct (project, commit) observations.
Normalization is per source node by its highest outgoing weight.
"""

from __future__ import annotations

from collections.abc import Mapping

from .model import (
    DependencyChange,
    LibraryId,
    MigrationRule,
    library_key,
)


class MigrationGraph:
    def __init__(self):
        self._edges: dict[tuple[LibraryId, LibraryId], int] = {}
        self._seen: set[tuple[str, str, LibraryId, LibraryId]] = set()

    def accumulate(self, change: DependencyChange) -> None:
        """Add the removed×added Cartesian product of one dependency change.

        Self-pairs (same identity on both sides) are upgrades, not
        migrations, and each (project, commit, pair) counts at most once no
        matter how many manifests of the commit exhibit it.
        """
        for removed in change.removed:
            for added in change.added:
                src, dst = removed.identity, added.identity
                if src == dst:
                    continue
                obs = (change.project, change.commit, src, dst)
                if obs in self._seen:
                    continue
                self._seen.add(obs)
                edge = (src, dst)
                self._edges[edge] = self._edges.get(edge, 0) + 1

    def add_edge(self, source: LibraryId, target: LibraryId, weight: int) -> None:
        """Directly set an edge weight (graph reconstruction and tests)."""
        if source == target:
            raise ValueError("self-loop edges are not representable")
        if weight < 1:
            raise ValueError("edge weight must be >= 1")
        self._edges[(source, target)] = weight

    @property
    def edges(self) -> dict[tuple[LibraryId, LibraryId], int]:
        return dict(self._edges)

    def __len__(self) -> int:
        return len(self._edges)


def _max_out(edges: dict[tuple[LibraryId, LibraryId], int]) -> dict[LibraryId, int]:
    """Highest outgoing edge weight of every source node."""
    max_out: dict[LibraryId, int] = {}
    for (src, _), weight in edges.items():
        if weight > max_out.get(src, 0):
            max_out[src] = weight
    return max_out


def normalize_and_filter(graph: MigrationGraph, t_rel: float = 1.0) -> list[MigrationRule]:
    """Normalize edge weights per node and keep edges at or above t_rel.

    The comparison is >= so the default t_rel = 1.0 selects exactly the
    max-weight edges of every node.  Result is sorted by weight descending,
    then source, then target.
    """
    edges = graph.edges
    max_out = _max_out(edges)
    rules = []
    for (src, dst), weight in edges.items():
        normalized = weight / max_out[src]
        if normalized >= t_rel:
            rules.append(MigrationRule(src, dst, weight, normalized))
    rules.sort(key=lambda r: (-r.weight, r.source, r.target))
    return rules


def confirm_rules(
    rules: list[MigrationRule], fragment_counts: Mapping[tuple[LibraryId, LibraryId], int]
) -> list[MigrationRule]:
    """Second filtering step: a rule survives only with >= 1 found fragment.

    Discarded rules are returned too (status set) so the store can keep
    them for audit.
    """
    out = []
    for rule in rules:
        count = fragment_counts.get((rule.source, rule.target), 0)
        status = "confirmed" if count >= 1 else "discarded"
        out.append(
            MigrationRule(rule.source, rule.target, rule.weight, rule.normalized_weight, status)
        )
    return out


def format_edge_list(graph: MigrationGraph) -> str:
    """Edge-list text: one 'source -> target weight normalized' line per edge."""
    edges = graph.edges
    max_out = _max_out(edges)
    lines = []
    for (src, dst), weight in sorted(edges.items()):
        normalized = weight / max_out[src]
        lines.append(f"{library_key(src)} -> {library_key(dst)} {weight} {normalized:g}")
    return "\n".join(lines) + ("\n" if lines else "")
