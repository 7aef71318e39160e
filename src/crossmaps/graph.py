"""Bipartite-graph view: components, relation types, summaries, imputation metrics.

Viewed as an undirected bipartite graph, a crossmap falls apart into
disjoint components, and each component is one of the familiar mapping
cases: a rename (one-to-one), an aggregation (many-to-one), a
redistribution (one-to-many), or overlapping mixtures (many-to-many).
Renames and aggregations carry no imputation assumptions — their weights
are forced to 1 — so partitioning a crossmap this way shows exactly where
scrutiny belongs.

The same key text may appear on both sides (an identity edge), so nodes
are tracked as (side, key) pairs internally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Literal

from .core import Crossmap, Edge, MassArray, ONE, ZERO, render_rational
from .transform import TransformOptions, _require_clean, _split_totals

__all__ = [
    "Component",
    "CrossmapSummary",
    "ImputationMetrics",
    "RelationType",
    "TargetSummary",
    "classify",
    "components",
    "imputation_metrics",
    "summarize",
]

RelationType = Literal["one_to_one", "one_to_many", "many_to_one", "many_to_many"]

RELATION_TYPES: tuple[RelationType, ...] = (
    "one_to_one",
    "one_to_many",
    "many_to_one",
    "many_to_many",
)


@dataclass(frozen=True)
class Component:
    """One maximal weakly-connected subgraph of the crossmap."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]
    edges: tuple[Edge, ...]
    relation_type: RelationType

    def to_json_dict(self) -> dict:
        return {
            "relation_type": self.relation_type,
            "sources": list(self.sources),
            "targets": list(self.targets),
            "edges": [
                {"from": e.source, "to": e.target, "weight": render_rational(e.weight)}
                for e in self.edges
            ],
        }


def _classify_edges(edges: tuple[Edge, ...]) -> RelationType:
    # Single-edge components are renames, full stop; the hub rule below
    # would also match them, so this check runs first.
    if len(edges) == 1:
        return "one_to_one"
    degree: dict[tuple[str, str], int] = {}
    for e in edges:
        degree[("s", e.source)] = degree.get(("s", e.source), 0) + 1
        degree[("t", e.target)] = degree.get(("t", e.target), 0) + 1
    hubs = [node for node, d in degree.items() if d == len(edges)]
    if len(hubs) == 1 and all(d == 1 for node, d in degree.items() if node != hubs[0]):
        return "one_to_many" if hubs[0][0] == "s" else "many_to_one"
    return "many_to_many"


def classify(component: Component) -> RelationType:
    """Relation type of a component, recomputed from its edges.

    one_to_one: exactly one edge.  one_to_many / many_to_one: a single hub
    node touches every edge and all other nodes have degree 1; the side
    holding the hub picks the direction.  Everything else: many_to_many.
    """
    return _classify_edges(component.edges)


def components(crossmap: Crossmap) -> tuple[Component, ...]:
    """Partition the crossmap into disjoint components, ordered by smallest source key.

    Non-split relation types (one_to_one, many_to_one) are asserted to carry
    only unit weights — the weight-sum rule forces this, so a violation
    would mean a corrupted crossmap.  The partition is computed once per
    crossmap and reused by every later call.
    """
    return crossmap._components


def _find_components(crossmap: Crossmap) -> tuple[Component, ...]:
    adjacency: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for e in crossmap.edges:
        s, t = ("s", e.source), ("t", e.target)
        adjacency.setdefault(s, []).append(t)
        adjacency.setdefault(t, []).append(s)

    outgoing = crossmap.outgoing
    seen: set[tuple[str, str]] = set()
    out: list[Component] = []
    for start_key in crossmap.sources:
        start = ("s", start_key)
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        member_sources: set[str] = set()
        member_targets: set[str] = set()
        while queue:
            node = queue.popleft()
            side, key = node
            (member_sources if side == "s" else member_targets).add(key)
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        sources = tuple(sorted(member_sources))
        # Each source's outgoing edges are already in canonical order.
        edges = tuple(e for s in sources for e in outgoing[s])
        relation = _classify_edges(edges)
        if relation in ("one_to_one", "many_to_one"):
            assert all(e.weight == ONE for e in edges), "non-split component with fractional weight"
        out.append(
            Component(
                sources=sources,
                targets=tuple(sorted(member_targets)),
                edges=edges,
                relation_type=relation,
            )
        )
    return tuple(out)


def _type_counts(crossmap: Crossmap) -> dict[RelationType, int]:
    counts: dict[RelationType, int] = {t: 0 for t in RELATION_TYPES}
    for component in components(crossmap):
        counts[component.relation_type] += 1
    return counts


@dataclass(frozen=True)
class TargetSummary:
    target: str
    incoming_count: int
    incoming_keys: tuple[str, ...]


@dataclass(frozen=True)
class CrossmapSummary:
    """Per-target aggregation view plus whole-map totals."""

    target_rows: tuple[TargetSummary, ...]
    edge_count: int
    source_count: int
    target_count: int
    component_type_counts: dict[RelationType, int]

    def to_json_dict(self) -> dict:
        return {
            "targets": [
                {
                    "target": row.target,
                    "incoming_count": row.incoming_count,
                    "incoming_keys": list(row.incoming_keys),
                }
                for row in self.target_rows
            ],
            "totals": {
                "edges": self.edge_count,
                "sources": self.source_count,
                "targets": self.target_count,
                "component_types": dict(self.component_type_counts),
            },
        }


def summarize(crossmap: Crossmap) -> CrossmapSummary:
    """Per-target incoming counts and key lists, largest aggregations first."""
    incoming: dict[str, list[str]] = {t: [] for t in crossmap.targets}
    for e in crossmap.edges:
        incoming[e.target].append(e.source)
    rows = tuple(
        sorted(
            (
                TargetSummary(t, len(keys), tuple(sorted(keys)))
                for t, keys in incoming.items()
            ),
            key=lambda r: (-r.incoming_count, r.target),
        )
    )
    return CrossmapSummary(
        target_rows=rows,
        edge_count=len(crossmap.edges),
        source_count=len(crossmap.sources),
        target_count=len(crossmap.targets),
        component_type_counts=_type_counts(crossmap),
    )


@dataclass(frozen=True)
class ImputationMetrics:
    """How much a crossmap could alter values, and how much it actually would.

    ``potential_split_share`` is structural: the share of source keys whose
    value gets divided.  ``realized_split_mass_share`` weighs that by the
    data: the share of total mass entering split sources.  A crossmap with
    only one-to-one components scores 0 on both — the zero-imputation
    baseline.
    """

    component_type_counts: dict[RelationType, int]
    fractional_edge_count: int
    split_source_count: int
    potential_split_share: Fraction
    realized_split_mass_share: Fraction | None = None

    def to_json_dict(self) -> dict:
        return {
            "component_type_counts": dict(self.component_type_counts),
            "fractional_edge_count": self.fractional_edge_count,
            "split_source_count": self.split_source_count,
            "potential_split_share": render_rational(self.potential_split_share),
            "realized_split_mass_share": (
                None
                if self.realized_split_mass_share is None
                else render_rational(self.realized_split_mass_share)
            ),
        }


def imputation_metrics(crossmap: Crossmap, array: MassArray | None = None) -> ImputationMetrics:
    """Structural imputation metrics, plus the data-weighted share when an array is given.

    With an array, missing, negative and uncovered entries are refused,
    exactly as :func:`apply_transform` refuses them.  An all-zero array
    realizes no splitting, so its share is 0.
    """
    split = crossmap.split_sources
    metrics = ImputationMetrics(
        component_type_counts=_type_counts(crossmap),
        fractional_edge_count=sum(1 for e in crossmap.edges if e.weight != ONE),
        split_source_count=len(split),
        potential_split_share=Fraction(len(split), len(crossmap.sources)),
    )
    if array is None:
        return metrics
    _require_clean(crossmap, array, TransformOptions())
    total, entering = _split_totals(crossmap, array)
    realized = ZERO if total == ZERO else entering / total
    return replace(metrics, realized_split_mass_share=realized)
